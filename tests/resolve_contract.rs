//! The canonical-resolution contract of `GraphSnapshot::resolve_vertex` /
//! `resolve_edge` — the id of the element the bulk load placed there while
//! that element is live, else `None` — on every engine variant, bare,
//! through a copy-on-write cell, and as a two-shard composite, locked and
//! pinned (`ShardedSource`); the one refusal a bulk load into a non-empty
//! engine meets; and a write transaction's view of the elements it
//! removed.
//!
//! Linked's `RecordFile` hands a freed slot to the next insert, so without
//! the contract a removed loaded vertex's canonical id comes to name the
//! vertex added after it.

use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{testkit, GdbResult};
use graphmark::mvcc::{SnapshotMode, SnapshotSource, WriteTxn};
use graphmark::registry::EngineKind;

const N: u64 = 10;

fn load(db: &mut dyn GraphDb) -> GdbResult<u64> {
    let chain = testkit::chain_dataset(N);
    db.bulk_load(&chain, &LoadOptions::default()).map(|_| 0)
}

/// Remove loaded edge 2 (2 → 3), then loaded vertex 3 — which cascades
/// edge 3 (3 → 4) — then add a vertex and a self-loop on it: on linked both
/// land in the freed slots.
fn writes(db: &mut dyn GraphDb) -> GdbResult<u64> {
    let e2 = db.resolve_edge(2).expect("edge 2 resolves");
    let v3 = db.resolve_vertex(3).expect("vertex 3 resolves");
    db.remove_edge(e2)?;
    db.remove_vertex(v3)?;
    let fresh = db.add_vertex("fresh", &vec![])?;
    db.add_edge(fresh, fresh, "fresh", &vec![])?;
    Ok(4)
}

/// What a view resolves, `[vertices, edges]` by canonical id.
type Ids = [Vec<Option<u64>>; 2];

fn ids(view: &dyn GraphSnapshot) -> Ids {
    [
        (0..N)
            .map(|c| view.resolve_vertex(c).map(|v| v.0))
            .collect(),
        (0..N - 1)
            .map(|c| view.resolve_edge(c).map(|e| e.0))
            .collect(),
    ]
}

/// What a view must answer after [`writes`]: the loaded ids, less vertex 3
/// and edges 2 and 3.
fn expected_after(loaded: &Ids) -> Ids {
    let mut want = loaded.clone();
    want[0][3] = None;
    want[1][2] = None;
    want[1][3] = None;
    want
}

/// Record each canonical id `got` answers unlike `want`.
fn check(name: &str, what: &str, got: Ids, want: &Ids, failures: &mut Vec<String>) {
    for (kind, (got, want)) in ["vertex", "edge"].iter().zip(got.iter().zip(want)) {
        for (canonical, (got, want)) in got.iter().zip(want).enumerate() {
            if got != want {
                failures.push(format!(
                    "{name} {what}: resolve_{kind}({canonical}) = {got:?}, want {want:?}"
                ));
            }
        }
    }
}

/// The contract on a stack that writes in place.
fn check_db(name: &str, db: &mut dyn GraphDb, failures: &mut Vec<String>) {
    load(db).unwrap();
    let loaded = ids(db);
    let resolved = loaded.iter().flatten().all(Option::is_some);
    assert!(resolved, "{name}: every loaded element resolves");
    writes(db).unwrap();
    let want = expected_after(&loaded);
    check(name, "after the writes", ids(db), &want, failures);
}

/// The contract on a stack that pins: a pin taken after the load keeps
/// answering the loaded ids, a pin taken after the writes stops resolving
/// the removed ones.
fn check_source(name: &str, src: &dyn SnapshotSource, failures: &mut Vec<String>) {
    src.with_write(&mut |db| load(db)).unwrap();
    let before = src.snapshot().unwrap();
    let loaded = ids(&*before);
    src.with_write(&mut |db| writes(db)).unwrap();
    let want = expected_after(&loaded);
    let after = ids(&*src.snapshot().unwrap());
    check(name, "pin after the writes", after, &want, failures);
    check(name, "pin before", ids(&*before), &loaded, failures);
}

#[test]
fn removed_loaded_ids_stop_resolving_on_every_stack() {
    let mut failures = Vec::new();
    for kind in EngineKind::ALL {
        let name = kind.name();
        check_db(name, &mut *kind.make(), &mut failures);
        let cell = kind.make_snapshot_source(SnapshotMode::Cow);
        check_source(&format!("{name}/cow"), &*cell, &mut failures);
        let locked = &mut kind.make_sharded(2);
        check_db(&format!("{name}/s2 locked"), locked, &mut failures);
        let pinned = &kind.make_sharded_source(2);
        check_source(&format!("{name}/s2"), pinned, &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A way to ask a stack for a load, answered as text.
type Ask = fn(&mut dyn GraphDb) -> String;

/// How a stack answers a second bulk load.
fn second_load(db: &mut dyn GraphDb) -> String {
    format!("{:?}", load(db).and_then(|_| load(db)))
}

/// How a stack answers a bulk load after `add_vertex`.
fn after_add(db: &mut dyn GraphDb) -> String {
    let added = db.add_vertex("first", &vec![]);
    format!("{:?}", added.and_then(|_| load(db)))
}

#[test]
fn every_stack_refuses_a_load_into_a_non_empty_engine_alike() {
    let cases: [(&str, Ask); 2] = [("second load", second_load), ("load after add", after_add)];
    let mut answers: Vec<(String, String)> = Vec::new();
    for kind in EngineKind::ALL {
        for (what, answer) in cases {
            answers.push((format!("{} {what}", kind.name()), answer(&mut *kind.make())));
            let mut got = String::new();
            let sharded = kind.make_sharded_source(2);
            sharded
                .with_write(&mut |db| {
                    got = answer(db);
                    Ok(0)
                })
                .unwrap();
            answers.push((format!("{}/s2 {what}", kind.name()), got));
        }
    }
    let want = r#"Err(Invalid("bulk_load requires an empty engine"))"#;
    let odd: Vec<String> = answers
        .iter()
        .filter(|(_, answer)| answer != want)
        .map(|(what, answer)| format!("{what}: {answer}"))
        .collect();
    assert!(
        odd.is_empty(),
        "want {want} everywhere:\n{}",
        odd.join("\n")
    );
}

/// A transaction that removes loaded vertex 3 stops resolving it, and
/// edges 2 and 3 that its cascade takes, in its own view — on a cell and on
/// a two-shard composite — and the commit makes that everyone's view.
#[test]
fn a_transaction_stops_resolving_what_it_removed() {
    let kind = EngineKind::LinkedV1;
    let cell = kind.make_snapshot_source(SnapshotMode::Cow);
    let sharded = kind.make_sharded_source(2);
    for (name, src) in [("cow", &*cell), ("s2", &sharded as &dyn SnapshotSource)] {
        src.with_write(&mut |db| load(db)).unwrap();
        let mut txn = WriteTxn::begin(src).unwrap();
        let loaded = ids(&txn);
        let v3 = txn.resolve_vertex(3).expect("vertex 3 resolves");
        txn.remove_vertex(v3).unwrap();
        assert_eq!(txn.vertex(v3).unwrap(), None, "{name}: the txn removed v3");
        let want = expected_after(&loaded);
        assert_eq!(ids(&txn), want, "{name}: the txn's own view");
        txn.commit(src).unwrap();
        let committed = ids(&*src.snapshot().unwrap());
        assert_eq!(committed, want, "{name}: after the commit");
    }
}
