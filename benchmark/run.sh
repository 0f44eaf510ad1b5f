#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package (and through
# its path dependencies the repo's crates) in release mode, then runs it from
# the repo root:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out F]
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR, or to the git-ignored benchmark/target/
# (never to the root's target/, so the root's own builds are left alone).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's chatter goes to standard error: standard output ends with the
# result line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gm-benchmark" "$@"
