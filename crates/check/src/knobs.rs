//! Knob-placement audit.
//!
//! A `GM_*` environment knob read inside a library crate is a setting no
//! caller can see: it changes what a test, a figure or the benchmark
//! measures without appearing in any signature, and nothing lists it in
//! `gm_bench::config::KNOBS`. Knobs are therefore read only at the edges:
//!
//! * the binaries (`crates/*/src/bin/`),
//! * `gm-bench`'s typed registry (`crates/bench/src/config.rs`),
//! * examples (`examples/`, `crates/*/examples/`).
//!
//! Everywhere else an environment read (`env::var`, `env::var_os`) outside
//! test code is a diagnostic; the library takes the value as an argument or
//! a constant instead. The lexer blanks string literals, so the lint matches
//! the read itself rather than the variable's name — a library crate has no
//! other reason to consult the environment.

use crate::{Diag, SourceFile};

const LINT: &str = "knobs";

const READS: &[&str] = &["env::var(", "env::var_os("];

/// May this workspace-relative path read the environment?
fn allowed(path: &str) -> bool {
    path.contains("/src/bin/")
        || path.ends_with("crates/bench/src/config.rs")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in files {
        if allowed(&f.path) {
            continue;
        }
        for l in &f.lines {
            if l.in_test || !READS.iter().any(|r| l.code.contains(r)) {
                continue;
            }
            diags.push(Diag {
                file: f.path.clone(),
                line: l.no,
                lint: LINT,
                msg: "environment read in library code: read `GM_*` knobs in a binary \
                      (`src/bin/`), in gm-bench's `config.rs` or in an example, and pass \
                      the value in"
                    .into(),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_edges_may_read_the_environment() {
        assert!(allowed("crates/net/src/bin/gm_server.rs"));
        assert!(allowed("crates/bench/src/config.rs"));
        assert!(allowed("examples/quickstart.rs"));
        assert!(allowed("crates/net/examples/remote_clients.rs"));
        assert!(!allowed("crates/net/src/fleet.rs"));
        assert!(!allowed("crates/mvcc/src/txn.rs"));
        assert!(!allowed("src/lib.rs"));
    }
}
