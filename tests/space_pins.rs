//! `space()` of engines on fixed datasets, pinned: the benchmark's
//! `space_amp` is made of these reports. The three B+Tree engines report
//! the bytes they did before the B+Tree's node search changed (a search that
//! moved a split point or a node would move them); the columnar engine the
//! bytes it did before its bulk load wrote rows in key order (one memtable
//! flush holds each of these datasets whole, so the order cannot show).

use graphmark::model::api::LoadOptions;
use graphmark::model::testkit;
use graphmark::model::Dataset;
use graphmark::registry::EngineKind;

/// `space().total()` after a default load and an attempt to index `prop`
/// (triple has no attribute indexes and refuses).
fn total(kind: EngineKind, data: &Dataset, prop: &str) -> u64 {
    let mut db = kind.make();
    db.bulk_load(data, &LoadOptions::default()).unwrap();
    let _ = db.create_vertex_index(prop);
    db.space().total()
}

#[test]
fn b_plus_tree_engines_report_pinned_space() {
    pin(&[
        (EngineKind::Triple, 1_052_310, 1_095_055),
        (EngineKind::Relational, 2138, 13_388),
        (EngineKind::Cluster, 22_334, 26_721),
    ]);
}

#[test]
fn columnar_engines_report_pinned_space() {
    pin(&[
        (EngineKind::ColumnarV05, 1273, 7454),
        (EngineKind::ColumnarV10, 1273, 7454),
    ]);
}

/// Each engine's totals on `tiny_dataset` and on `chain_dataset(100)`.
fn pin(pinned: &[(EngineKind, u64, u64)]) {
    let tiny = testkit::tiny_dataset();
    let chain = testkit::chain_dataset(100);
    for &(kind, on_tiny, on_chain) in pinned {
        assert_eq!(
            (total(kind, &tiny, "name"), total(kind, &chain, "idx")),
            (on_tiny, on_chain),
            "{}",
            kind.name()
        );
    }
}
