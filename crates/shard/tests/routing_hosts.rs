//! One routing script, once per host: the locked composite, the cow source
//! in autocommit, and a `WriteTxn` staged commit all run the same router,
//! so the cases the hand-kept copies had drifted on must come out the same
//! through each of them — with the counts the unsharded engine has:
//!
//! * after `remove_edge(e)` the canonical id stops resolving (on every
//!   composite; the plain linked engine keeps its load map) and `edge(e)`
//!   is `None`;
//! * a second cut edge to an already-ghosted destination reuses the ghost
//!   (`shard.ghost_creations` does not move);
//! * removing a vertex that is ghosted on another shard leaves the counts
//!   the unsharded engine has.
//!
//! One `#[test]` (this file is its own process), so the global
//! `shard.ghost_creations` counter is read without a racing test.

use engine_linked::LinkedGraph;
use gm_model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use gm_model::{testkit, GdbResult, QueryCtx, Value, Vid};
use gm_mvcc::{CowCell, SnapshotSource, WriteTxn};
use gm_shard::{ShardedGraph, ShardedSource};

const SHARDS: usize = 3;

/// A composite under test: how a write batch reaches it and how its current
/// state is read.
trait Host {
    fn write(&mut self, batch: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<()>);
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> R) -> R;
}

struct Locked(ShardedGraph<LinkedGraph>);

impl Host for Locked {
    fn write(&mut self, batch: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<()>) {
        gm_workload::Host::write_batch(&self.0, &mut |db| batch(db).map(|()| 1))
            .expect("locked write");
    }
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> R) -> R {
        f(&self.0)
    }
}

struct Autocommit(ShardedSource);

impl Host for Autocommit {
    fn write(&mut self, batch: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<()>) {
        self.0
            .with_write(&mut |db| batch(db).map(|()| 1))
            .expect("autocommit write");
    }
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> R) -> R {
        f(self.0.snapshot().expect("pin").as_ref())
    }
}

struct Staged(ShardedSource);

impl Host for Staged {
    fn write(&mut self, batch: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<()>) {
        let mut txn = WriteTxn::begin(&self.0).expect("begin");
        batch(&mut txn).expect("buffer");
        txn.commit(&self.0).expect("staged commit");
    }
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> R) -> R {
        f(self.0.snapshot().expect("pin").as_ref())
    }
}

/// The unsharded reference: the same script through a plain engine.
struct Unsharded(LinkedGraph);

impl Host for Unsharded {
    fn write(&mut self, batch: &mut dyn FnMut(&mut dyn GraphDb) -> GdbResult<()>) {
        batch(&mut self.0).expect("oracle write");
    }
    fn read<R>(&self, f: impl FnOnce(&dyn GraphSnapshot) -> R) -> R {
        f(&self.0)
    }
}

fn source() -> ShardedSource {
    let src = ShardedSource::from_factory(SHARDS, || {
        Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
    });
    src.with_write(&mut |db| {
        db.bulk_load(&testkit::chain_dataset(30), &LoadOptions::default())?;
        Ok(0)
    })
    .expect("load source");
    src
}

fn ghost_creations() -> Option<u64> {
    gm_obs::counters_on().then(|| gm_obs::global().counter("shard.ghost_creations").get())
}

fn counts(db: &dyn GraphSnapshot) -> (u64, u64) {
    let ctx = QueryCtx::unbounded();
    (
        db.vertex_count(&ctx).expect("vertex_count"),
        db.edge_count(&ctx).expect("edge_count"),
    )
}

fn tagged(db: &dyn GraphSnapshot, tag: i64) -> Vid {
    let found = db
        .vertices_with_property("tag", &Value::Int(tag), &QueryCtx::unbounded())
        .expect("tag lookup");
    assert_eq!(found.len(), 1, "exactly one vertex tagged {tag}");
    found[0]
}

/// Run the script; returns the counts after each step. `sharded` turns on
/// the assertions only a composite can make (shard digits, ghosts).
fn script(host: &mut impl Host, sharded: bool) -> Vec<(u64, u64)> {
    let ctx = QueryCtx::unbounded();
    let mut trail = Vec::new();

    // 1. A removed edge stops resolving, and stops existing.
    let e = host.read(|db| db.resolve_edge(5).expect("edge 5 resolves"));
    host.write(&mut |db| db.remove_edge(e));
    host.read(|db| {
        if sharded {
            assert_eq!(db.resolve_edge(5), None, "canonical id stops resolving");
        }
        assert_eq!(db.edge(e).expect("edge lookup"), None, "edge is gone");
        trail.push(counts(db));
    });

    // 2. Two fresh vertices land on different shards (round-robin), so the
    // edge between them is cut: the first creates a ghost, the second —
    // in a later batch — must reuse it.
    let before = ghost_creations();
    host.write(&mut |db| {
        let a = db.add_vertex("hub", &vec![("tag".into(), Value::Int(1))])?;
        let b = db.add_vertex("hub", &vec![("tag".into(), Value::Int(2))])?;
        db.add_edge(a, b, "cut", &vec![]).map(drop)
    });
    let (a, b) = host.read(|db| (tagged(db, 1), tagged(db, 2)));
    let first = ghost_creations();
    host.write(&mut |db| db.add_edge(a, b, "cut", &vec![]).map(drop));
    if sharded {
        assert_ne!(a.0 as usize % SHARDS, b.0 as usize % SHARDS, "a→b is cut");
        if let (Some(before), Some(first), Some(second)) = (before, first, ghost_creations()) {
            assert_eq!(first - before, 1, "the first cut edge creates the ghost");
            assert_eq!(second - first, 0, "the second reuses it");
        }
    }
    host.read(|db| {
        assert_eq!(
            db.neighbors(b, Direction::In, None, &ctx).expect("in()"),
            vec![a, a],
            "both cut edges arrive at the real vertex"
        );
        trail.push(counts(db));
    });

    // 3. Removing the ghosted vertex takes its ghost and both cut edges.
    host.write(&mut |db| db.remove_vertex(b));
    host.read(|db| {
        assert_eq!(db.vertex(b).expect("vertex lookup"), None);
        assert_eq!(
            db.vertex_degree(a, Direction::Out, &ctx).expect("degree"),
            0
        );
        trail.push(counts(db));
    });
    trail
}

#[test]
fn every_host_routes_the_drifted_cases_alike() {
    let mut oracle = LinkedGraph::v1();
    oracle
        .bulk_load(&testkit::chain_dataset(30), &LoadOptions::default())
        .expect("load oracle");
    let expected = script(&mut Unsharded(oracle), false);
    assert_eq!(expected, vec![(30, 28), (32, 30), (31, 28)]);

    let mut locked = ShardedGraph::from_factory(SHARDS, LinkedGraph::v1);
    locked
        .bulk_load(&testkit::chain_dataset(30), &LoadOptions::default())
        .expect("load locked");
    assert_eq!(
        script(&mut Locked(locked), true),
        expected,
        "locked composite"
    );
    assert_eq!(
        script(&mut Autocommit(source()), true),
        expected,
        "cow autocommit"
    );
    assert_eq!(
        script(&mut Staged(source()), true),
        expected,
        "staged commit"
    );
}
