// Seeded violation: a library crate reads a knob that no signature shows.
const DEFAULT_BATCH_CAP: usize = 16;

pub fn batch_cap() -> usize {
    std::env::var("GM_FLEET_BATCH")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_BATCH_CAP)
}
