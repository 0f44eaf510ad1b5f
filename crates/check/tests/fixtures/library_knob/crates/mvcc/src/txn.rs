// Seeded violation, the `var_os` form.
pub fn log_cap() -> usize {
    std::env::var_os("GM_TXN_LOG_CAP").map_or(1024, |v| v.len())
}

#[cfg(test)]
mod tests {
    // Test code may set up its own environment.
    #[test]
    fn reads_in_tests_are_fine() {
        let _ = std::env::var("GM_TEST_ONLY");
    }
}
