//! End-to-end checker tests: each seeded-violation fixture must produce
//! its lint's diagnostic (and a non-zero exit from the `gm-check` binary),
//! the clean fixture and the real workspace must produce none.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn diags_for(name: &str) -> Vec<gm_check::Diag> {
    let files = gm_check::collect_workspace(&fixture(name)).expect("read fixture");
    gm_check::run(&files)
}

/// Run the real binary on a fixture and return its exit code.
fn binary_exit(root: &PathBuf) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_gm-check"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("run gm-check");
    out.status.code().expect("exit code")
}

#[test]
fn missing_override_is_flagged() {
    let diags = diags_for("missing_override");
    assert!(
        diags
            .iter()
            .any(|d| d.lint == "delegation" && d.msg.contains("`epoch`")),
        "expected a delegation finding for the dropped epoch override, got: {diags:#?}"
    );
    // `sync` is overridden in the fixture, so only `epoch` may be reported.
    assert!(
        !diags.iter().any(|d| d.msg.contains("`sync`")),
        "sync IS overridden and must not be flagged: {diags:#?}"
    );
    assert_eq!(binary_exit(&fixture("missing_override")), 1);
}

#[test]
fn derived_override_is_flagged_in_an_engine() {
    let diags = diags_for("derived_override");
    let at: Vec<(&str, &str, usize)> = diags
        .iter()
        .map(|d| (d.lint, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        at,
        [
            ("delegation", "crates/engine-toy/src/lib.rs", 10),
            ("delegation", "crates/engine-toy/src/lib.rs", 24)
        ],
        "exactly the seeded overrides: {diags:#?}"
    );
    for (d, method) in diags.iter().zip(["`neighbors`", "`add_vertex`"]) {
        assert!(
            d.msg.contains(method) && d.msg.contains("derived"),
            "{d:#?}"
        );
    }
    assert_eq!(binary_exit(&fixture("derived_override")), 1);
}

#[test]
fn lock_inversion_is_flagged_and_correct_order_is_not() {
    let diags = diags_for("lock_inversion");
    let lock: Vec<_> = diags.iter().filter(|d| d.lint == "lock-order").collect();
    assert_eq!(
        lock.len(),
        1,
        "exactly the seeded inversion (not the correctly ordered sibling): {diags:#?}"
    );
    assert!(lock[0].msg.contains("`meta`") && lock[0].msg.contains("`shard`"));
    assert_eq!(binary_exit(&fixture("lock_inversion")), 1);
}

#[test]
fn codec_unwrap_is_flagged_and_waiver_respected() {
    let diags = diags_for("codec_unwrap");
    let panics: Vec<_> = diags.iter().filter(|d| d.lint == "panic-freedom").collect();
    assert!(
        panics.iter().any(|d| d.msg.contains("unwrap")),
        "the decode-path unwrap must be reported: {diags:#?}"
    );
    assert!(
        panics.iter().any(|d| d.msg.contains("indexing")),
        "the unchecked index must be reported: {diags:#?}"
    );
    // The waived `buf[0]` behind the is_empty guard is line 21; it must
    // not appear among the findings.
    assert!(
        !panics.iter().any(|d| d.line == 21),
        "the allow-panic waiver must suppress the guarded index: {diags:#?}"
    );
    assert_eq!(binary_exit(&fixture("codec_unwrap")), 1);
}

#[test]
fn library_knob_reads_are_flagged_and_edge_reads_are_not() {
    let diags = diags_for("library_knob");
    let knobs: Vec<_> = diags.iter().filter(|d| d.lint == "knobs").collect();
    let at: Vec<(&str, usize)> = knobs.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // The two reads gm-net's fleet and gm-mvcc's txn log used to make; the
    // binary, the config registry and the test-module read stay silent.
    assert_eq!(
        at,
        [
            ("crates/mvcc/src/txn.rs", 3),
            ("crates/net/src/fleet.rs", 5)
        ],
        "{diags:#?}"
    );
    assert_eq!(
        knobs.len(),
        diags.len(),
        "only the knobs lint fires: {diags:#?}"
    );
    assert_eq!(binary_exit(&fixture("library_knob")), 1);
}

#[test]
fn clean_fixture_has_no_findings() {
    let diags = diags_for("clean");
    assert!(diags.is_empty(), "clean fixture must pass: {diags:#?}");
    assert_eq!(binary_exit(&fixture("clean")), 0);
}

/// The acceptance bar: the real workspace is clean under every lint, and
/// the lints are not vacuous — the delegation pass must actually see the
/// workspace's defaulted trait surface.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = gm_check::collect_workspace(&root).expect("read workspace");
    assert!(
        files.len() > 50,
        "workspace walk must see the crates, got {} files",
        files.len()
    );
    let api = files
        .iter()
        .find(|f| f.path.ends_with("crates/model/src/api.rs"))
        .expect("api.rs in the walk");
    for needle in ["fn epoch", "fn degree_scan", "fn sync"] {
        assert!(
            api.lines.iter().any(|l| l.code.contains(needle)),
            "trait surface parse lost `{needle}`"
        );
    }
    let diags = gm_check::run(&files);
    assert!(diags.is_empty(), "workspace must be clean: {diags:#?}");
}
