//! # gm-shard — hash-partitioned composite engine
//!
//! The ROADMAP's "sharded locks" item, built as a composite engine rather
//! than a per-engine rewrite: [`ShardedGraph<E>`] hash-partitions vertices
//! across `N` inner engines of any architecture, each behind **its own
//! lock**, and [`ShardedSource`] does the same with one MVCC snapshot cell
//! per shard. Both implement the existing interfaces
//! ([`GraphSnapshot`](gm_model::GraphSnapshot) + [`GraphDb`](gm_model::GraphDb)
//! and [`SnapshotSource`](gm_mvcc::SnapshotSource)), and each is a
//! [`gm_workload::Host`] (`ShardedGraph` directly, `ShardedSource` as a
//! snapshot source), so sharding drops unchanged into
//! `catalog::execute_read`, the sequential `Runner`, the `gm-workload`
//! driver, and `gm-net` hosting.
//!
//! ## One routing core, many ports
//!
//! What makes N shards one graph is written once:
//!
//! * [`route`] — the partitioning scheme and the routing [`Meta`]: vertices
//!   are placed by a hash of their canonical id (dynamic inserts
//!   round-robin); composite ids carry the shard index in their low digits
//!   (`composite = local * N + shard`), so with one shard the composite is
//!   bit-compatible with the unsharded engine; every edge lives on **its
//!   source's shard**, so `out()` never crosses a shard boundary; cut
//!   destinations are materialized as invisible **ghost vertices** on the
//!   source shard;
//! * [`view`] — the composite **read surface**: point reads route by id
//!   arithmetic, `in()`/`both()`/BFS gather over the vertex's presence set
//!   (owner + ghosting shards), whole-graph scans and aggregates scatter to
//!   every shard and merge, filtering ghosts and translating ids back to
//!   composite space — one `GraphSnapshot` surface derived from a
//!   one-method host seam ("run `f` against the shards this op needs");
//! * [`router`] — the **routing writer**: [`Router`] is the one `GraphDb`
//!   that places vertices, splits same-shard from cut edges, looks up /
//!   validates / creates ghosts, removes a vertex across its presence set
//!   and retires the canonical ids of removed loaded elements, over a
//!   narrow [`ShardPort`] (read
//!   shard *s*; apply one [`Mutation`](gm_model::Mutation), in shard-local
//!   ids, to shard *s*; publish shard *s*);
//! * [`topology`] — [`Topology`], the one owner of the routing meta, the
//!   placement counter, the load's id bounds and the `shard.*` metrics,
//!   with the single "enter topology change" guard.
//!
//! A host is then a [`Topology`] plus a port: `ShardedGraph` reaches shard
//! *s* through its own `RwLock` (reads see one consistent cross-shard
//! state; writers to different shards run in parallel); `ShardedSource`
//! through an MVCC cell, pinning one epoch per shard under the topology's
//! seqlock so multi-shard topology changes are atomic with respect to
//! pins, with the composite epoch the minimum over shard epochs (monotone
//! because each shard's epochs are); a staged transaction commit is the
//! same router handed an already-held guard; `gm-net`'s fleet through a
//! pipelined connection per shard server. Every lock acquisition reports
//! through [`gm_model::lockwait`], so the driver's lock-wait column turns
//! "per-partition locks beat one big lock" into a measured number
//! (the `fig10` sweep of gm-bench's `reproduce`).
//!
//! The equivalence contract — a `ShardedGraph<E>` answers every query
//! exactly like an unsharded `E` — is enforced by the workspace's
//! `tests/sharding.rs` across all engine variants and shard counts, and by
//! gm-net's differential oracle (`crates/net/tests/oracle.rs`) for
//! write/pin interleavings.

pub mod graph;
pub mod route;
pub mod router;
pub mod source;
pub mod topology;
pub mod view;

pub use graph::{ShardedBackend, ShardedGraph, SharedWriter, SHARDED_LOCKED};
pub use route::{
    decode_eid, decode_vid, encode_eid, encode_vid, shard_of_canonical, Meta, GHOST_LABEL,
};
pub use router::{Posted, Router, ShardPort};
pub use source::ShardedSource;
pub use topology::Topology;
pub use view::{ShardSel, ShardedView};

/// A `ShardedGraph` over boxed registry engines — the form the harness
/// binaries use (`EngineKind::make()` returns `Box<dyn GraphDb>`, which
/// implements `GraphDb` itself).
pub type ShardedDyn = ShardedGraph<Box<dyn gm_model::GraphDb>>;

#[cfg(test)]
mod tests {
    use super::*;
    use engine_linked::LinkedGraph;
    use gm_model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
    use gm_model::{testkit, Eid, GdbResult, QueryCtx, Value, Vid};
    use gm_mvcc::{CowCell, SnapshotSource};
    use gm_workload::Host;

    fn loaded(shards: usize, n: u64) -> ShardedGraph<LinkedGraph> {
        let mut g = ShardedGraph::from_factory(shards, LinkedGraph::v1);
        g.bulk_load(&testkit::chain_dataset(n), &LoadOptions::default())
            .expect("load");
        g
    }

    fn unsharded(n: u64) -> LinkedGraph {
        let mut g = LinkedGraph::v1();
        g.bulk_load(&testkit::chain_dataset(n), &LoadOptions::default())
            .expect("load");
        g
    }

    #[test]
    fn counts_and_scans_ignore_ghosts() {
        let ctx = QueryCtx::unbounded();
        for shards in [1usize, 2, 4] {
            let g = loaded(shards, 60);
            assert_eq!(g.vertex_count(&ctx).unwrap(), 60, "{shards} shards");
            assert_eq!(g.edge_count(&ctx).unwrap(), 59, "{shards} shards");
            let scanned: Vec<_> = g
                .scan_vertices(&ctx)
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            assert_eq!(scanned.len(), 60, "{shards} shards: scan skips ghosts");
            let mut labels = g.edge_label_set(&ctx).unwrap();
            labels.sort();
            assert_eq!(labels, vec!["link".to_string(), "next".to_string()]);
        }
    }

    #[test]
    fn chain_traversal_crosses_shard_boundaries() {
        let ctx = QueryCtx::unbounded();
        let g = loaded(4, 40);
        let reference = unsharded(40);
        // Walk the whole chain 0→1→…→39 over `out()`: every hop that
        // crosses a shard goes through a ghost translation.
        let mut at = g.resolve_vertex(0).expect("resolve head");
        for canonical in 1..40u64 {
            let next = g.neighbors(at, Direction::Out, None, &ctx).unwrap();
            assert_eq!(next.len(), 1, "chain vertex {canonical} has one successor");
            at = next[0];
            assert_eq!(
                at,
                g.resolve_vertex(canonical).unwrap(),
                "hop {canonical} lands on the right composite vertex"
            );
        }
        // Degrees agree with the unsharded engine at every vertex.
        for canonical in 0..40u64 {
            let sv = g.resolve_vertex(canonical).unwrap();
            let uv = reference.resolve_vertex(canonical).unwrap();
            for dir in Direction::ALL {
                assert_eq!(
                    g.vertex_degree(sv, dir, &ctx).unwrap(),
                    reference.vertex_degree(uv, dir, &ctx).unwrap(),
                    "degree({canonical}, {dir:?})"
                );
            }
        }
    }

    #[test]
    fn edges_materialize_with_composite_endpoints() {
        let ctx = QueryCtx::unbounded();
        let g = loaded(3, 30);
        for canonical in 0..29u64 {
            let e = g.resolve_edge(canonical).expect("resolve edge");
            let data = g.edge(e).unwrap().expect("edge exists");
            assert_eq!(data.id, e);
            assert_eq!(data.src, g.resolve_vertex(canonical).unwrap());
            assert_eq!(data.dst, g.resolve_vertex(canonical + 1).unwrap());
            assert_eq!(
                g.edge_endpoints(e).unwrap(),
                Some((data.src, data.dst)),
                "endpoints agree with materialization"
            );
        }
        let _ = ctx;
    }

    #[test]
    fn dynamic_writes_route_and_read_back() {
        let ctx = QueryCtx::unbounded();
        let mut g = loaded(4, 21);
        let a = g.resolve_vertex(3).unwrap();
        let hub = g
            .add_vertex("hub", &vec![("w".into(), Value::Int(1))])
            .unwrap();
        let e1 = g.add_edge(hub, a, "spoke", &vec![]).unwrap();
        let e2 = g.add_edge(a, hub, "spoke", &vec![]).unwrap();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 22);
        assert_eq!(g.edge_count(&ctx).unwrap(), 22);
        assert_eq!(
            g.neighbors(hub, Direction::Out, None, &ctx).unwrap(),
            vec![a]
        );
        assert_eq!(
            g.neighbors(hub, Direction::In, None, &ctx).unwrap(),
            vec![a]
        );
        assert_eq!(g.vertex_degree(hub, Direction::Both, &ctx).unwrap(), 2);
        assert_eq!(g.edge_label(e1).unwrap().as_deref(), Some("spoke"));
        g.remove_edge(e2).unwrap();
        assert_eq!(g.vertex_degree(hub, Direction::Both, &ctx).unwrap(), 1);
        // Removing the hub removes its remaining cross-shard edge too.
        g.remove_vertex(hub).unwrap();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 21);
        assert_eq!(g.edge_count(&ctx).unwrap(), 20);
        assert_eq!(g.vertex(hub).unwrap(), None);
    }

    /// Remove loaded vertex 3 and loaded edge 2, then add two vertices
    /// (round-robin: one per shard) and two self-loops on edge 2's shard.
    /// Answers the removed ids and the new ones.
    fn reuse_slots(db: &mut dyn GraphDb) -> GdbResult<(Vid, Eid, Vec<Vid>, Vec<Eid>)> {
        let v = db.resolve_vertex(3).expect("vertex 3 resolves");
        let e = db.resolve_edge(2).expect("edge 2 resolves");
        db.remove_edge(e)?;
        db.remove_vertex(v)?;
        let fresh_v = (0..2)
            .map(|_| db.add_vertex("fresh", &vec![]))
            .collect::<GdbResult<Vec<_>>>()?;
        let src = (0..10)
            .filter_map(|c| db.resolve_vertex(c))
            .find(|x| x.0 % 2 == e.0 % 2)
            .expect("a live loaded vertex on edge 2's shard");
        let fresh_e = (0..2)
            .map(|_| db.add_edge(src, src, "fresh", &vec![]))
            .collect::<GdbResult<Vec<_>>>()?;
        Ok((v, e, fresh_v, fresh_e))
    }

    /// A removed loaded element stops resolving for good: linked's
    /// `RecordFile` hands its slot to the next insert on that shard, and
    /// the canonical id must not come to name the newcomer — on the locked
    /// composite, and through pins, which answer as of their epoch.
    #[test]
    fn removed_loaded_ids_never_alias_a_reused_slot() {
        let data = testkit::chain_dataset(10);
        for make in [LinkedGraph::v1 as fn() -> LinkedGraph, LinkedGraph::v2] {
            let mut locked = ShardedGraph::from_factory(2, make);
            locked.bulk_load(&data, &LoadOptions::default()).unwrap();
            let (v, e, fresh_v, fresh_e) = reuse_slots(&mut locked).unwrap();
            let name = GraphSnapshot::name(&locked);
            assert!(fresh_v.contains(&v), "{name}: the vertex slot is reused");
            assert!(fresh_e.contains(&e), "{name}: the edge slot is reused");
            assert_eq!(locked.resolve_vertex(3), None, "{name}: locked vertex");
            assert_eq!(locked.resolve_edge(2), None, "{name}: locked edge");

            let src = ShardedSource::from_factory(2, || {
                Box::new(CowCell::new(make())) as Box<dyn SnapshotSource>
            });
            src.with_write(&mut |db| db.bulk_load(&data, &LoadOptions::default()).map(|_| 0))
                .unwrap();
            let before = src.snapshot().unwrap();
            let mut reused = None;
            src.with_write(&mut |db| {
                reused = Some(reuse_slots(db)?);
                Ok(1)
            })
            .unwrap();
            let (v, e, fresh_v, fresh_e) = reused.expect("the batch ran");
            assert!(
                fresh_v.contains(&v) && fresh_e.contains(&e),
                "{name}: reused"
            );
            let after = src.snapshot().unwrap();
            assert_eq!(after.resolve_vertex(3), None, "{name}: pinned vertex");
            assert_eq!(after.resolve_edge(2), None, "{name}: pinned edge");
            assert_eq!(before.resolve_vertex(3), Some(v), "{name}: as of the pin");
            assert_eq!(before.resolve_edge(2), Some(e), "{name}: as of the pin");
        }
    }

    #[test]
    fn add_edge_to_missing_vertex_errors() {
        let mut g = loaded(3, 12);
        let a = g.resolve_vertex(0).unwrap();
        let err = g.add_edge(a, Vid(999_999), "x", &vec![]);
        assert!(err.is_err(), "edge to a missing remote vertex must fail");
    }

    #[test]
    fn shared_writer_parallel_writes_land() {
        let g = loaded(4, 40);
        let ctx = QueryCtx::unbounded();
        std::thread::scope(|s| {
            for t in 0..4 {
                let g = &g;
                s.spawn(move || {
                    for i in 0..50 {
                        g.write_batch(&mut |db| {
                            db.add_vertex(&format!("w{t}"), &vec![("i".into(), Value::Int(i))])
                                .map(|_| 1)
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(g.vertex_count(&ctx).unwrap(), 40 + 200);
    }

    #[test]
    fn sharded_source_pins_are_immutable_and_epochs_monotone() {
        let data = testkit::chain_dataset(30);
        let src = ShardedSource::from_factory(3, || {
            Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
        });
        src.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        let ctx = QueryCtx::unbounded();
        let pin = src.snapshot().unwrap();
        assert_eq!(pin.vertex_count(&ctx).unwrap(), 30);
        let e0 = pin.epoch();
        for _ in 0..5 {
            src.with_write(&mut |db| db.add_vertex("n", &vec![]).map(|_| 1))
                .unwrap();
        }
        assert_eq!(pin.vertex_count(&ctx).unwrap(), 30, "pin is immutable");
        let pin2 = src.snapshot().unwrap();
        assert_eq!(pin2.vertex_count(&ctx).unwrap(), 35);
        assert!(pin2.epoch() >= e0, "composite epochs are monotone");
        assert_eq!(src.kind(), "sharded-cow");
        assert!(src.engine().ends_with("/s3"), "{}", src.engine());
    }

    /// Regression: ghost creation must publish the mutated cell before its
    /// topology guard releases the seqlock. Otherwise a staleness-tolerant
    /// pin pairs the *new* meta (ghost entry present) with a *pre-ghost*
    /// shard view — and reading the destination's in-edges through the
    /// ghost id fails on a vertex that very much exists (or vertex_count
    /// underflows the ghost correction).
    #[test]
    fn recent_pins_never_tear_on_fresh_ghosts() {
        use std::time::Duration;
        let data = testkit::chain_dataset(16);
        let src = ShardedSource::from_factory(4, || {
            Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
        });
        src.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        let ctx = QueryCtx::unbounded();
        // Two fresh vertices land on different shards (round-robin spread),
        // so the edge between them creates a brand-new ghost.
        let mut ends = Vec::new();
        src.with_write(&mut |db| {
            ends.push(db.add_vertex("a", &vec![])?);
            ends.push(db.add_vertex("b", &vec![])?);
            Ok(2)
        })
        .unwrap();
        let (a, b) = (ends[0], ends[1]);
        assert_ne!(a.0 % 4, b.0 % 4, "round-robin spread separates them");
        src.with_write(&mut |db| db.add_edge(a, b, "cut", &vec![]).map(|_| 1))
            .unwrap();
        // A maximally stale pin: without publish-before-release this view
        // lacks the ghost vertex its meta names.
        let stale = src.snapshot_recent(Duration::from_secs(60)).unwrap();
        let count = stale.vertex_count(&ctx).unwrap();
        assert!((16..=18).contains(&count), "no ghost-correction underflow");
        let _ = stale
            .neighbors(b, Direction::In, None, &ctx)
            .expect("gathering in-edges through a fresh ghost must not fail");
        // A strict pin sees the cut edge end to end.
        let strict = src.snapshot().unwrap();
        assert_eq!(
            strict.neighbors(b, Direction::In, None, &ctx).unwrap(),
            vec![a]
        );
    }

    fn txn_source(shards: usize, n: u64) -> ShardedSource {
        let src = ShardedSource::from_factory(shards, || {
            Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
        });
        src.with_write(&mut |db| {
            db.bulk_load(&testkit::chain_dataset(n), &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        src
    }

    /// The tentpole contract: a transaction whose write set spans shards
    /// publishes all-or-nothing. Pins taken before the commit see none of
    /// it; pins taken after see all of it.
    #[test]
    fn cross_shard_txn_commits_atomically() {
        use gm_mvcc::WriteTxn;
        let src = txn_source(3, 30);
        let ctx = QueryCtx::unbounded();
        let before = src.snapshot().unwrap();

        let mut txn = WriteTxn::begin(&src).unwrap();
        // Touch every shard: one property per chain vertex 0..6 (the hash
        // placement spreads consecutive canonicals across the 3 shards),
        // plus two fresh vertices and a cut edge between them.
        for canonical in 0..6u64 {
            let v = txn.resolve_vertex(canonical).unwrap();
            txn.set_vertex_property(v, "touched", Value::Int(1))
                .unwrap();
        }
        let a = txn.add_vertex("a", &vec![]).unwrap();
        let b = txn.add_vertex("b", &vec![]).unwrap();
        txn.add_edge(a, b, "cut", &vec![]).unwrap();
        assert_eq!(
            before.vertex_count(&ctx).unwrap(),
            30,
            "nothing visible before commit"
        );
        txn.commit(&src).unwrap();

        assert_eq!(
            before.vertex_count(&ctx).unwrap(),
            30,
            "pre-commit pin is immutable"
        );
        let after = src.snapshot().unwrap();
        assert_eq!(after.vertex_count(&ctx).unwrap(), 32);
        for canonical in 0..6u64 {
            let v = after.resolve_vertex(canonical).unwrap();
            assert_eq!(
                after.vertex_property(v, "touched").unwrap(),
                Some(Value::Int(1)),
                "chain vertex {canonical}"
            );
        }
    }

    /// First-committer-wins across shards: two transactions pinned at the
    /// same epoch writing the same vertex — the second commit fails with
    /// `TxnConflict` and publishes nothing.
    #[test]
    fn conflicting_cross_shard_commits_fail_distinctly() {
        use gm_model::GdbError;
        use gm_mvcc::WriteTxn;
        let src = txn_source(2, 20);
        let ctx = QueryCtx::unbounded();

        let mut t1 = WriteTxn::begin(&src).unwrap();
        let mut t2 = WriteTxn::begin(&src).unwrap();
        let v1 = t1.resolve_vertex(7).unwrap();
        let v2 = t2.resolve_vertex(7).unwrap();
        t1.set_vertex_property(v1, "who", Value::Str("t1".into()))
            .unwrap();
        t2.set_vertex_property(v2, "who", Value::Str("t2".into()))
            .unwrap();
        t2.add_vertex("loser-extra", &vec![]).unwrap();
        t1.commit(&src).unwrap();
        let err = t2.commit(&src).unwrap_err();
        assert!(
            matches!(err, GdbError::TxnConflict(_)),
            "expected TxnConflict, got {err:?}"
        );

        let after = src.snapshot().unwrap();
        let v = after.resolve_vertex(7).unwrap();
        assert_eq!(
            after.vertex_property(v, "who").unwrap(),
            Some(Value::Str("t1".into())),
            "winner's write survives"
        );
        assert_eq!(
            after.vertex_count(&ctx).unwrap(),
            20,
            "loser's whole write set is discarded"
        );
    }

    /// A pinner racing transactional commits must never observe a torn
    /// write set: each txn adds exactly 3 vertices, so every pinned count
    /// is `base + 3k`.
    #[test]
    fn concurrent_pinner_never_sees_a_torn_commit() {
        use gm_mvcc::WriteTxn;
        use std::sync::atomic::{AtomicBool, Ordering};
        let src = txn_source(4, 16);
        let ctx = QueryCtx::unbounded();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let src = &src;
            let done = &done;
            let pinner = s.spawn(move || {
                let mut torn = 0u32;
                while !done.load(Ordering::Acquire) {
                    let pin = src.snapshot().unwrap();
                    let count = pin.vertex_count(&QueryCtx::unbounded()).unwrap();
                    if !(count - 16).is_multiple_of(3) {
                        torn += 1;
                    }
                }
                torn
            });
            for _ in 0..40 {
                let mut txn = WriteTxn::begin(src).unwrap();
                let a = txn.add_vertex("a", &vec![]).unwrap();
                let b = txn.add_vertex("b", &vec![]).unwrap();
                txn.add_vertex("c", &vec![]).unwrap();
                txn.add_edge(a, b, "pair", &vec![]).unwrap();
                txn.commit(src).unwrap();
            }
            done.store(true, Ordering::Release);
            assert_eq!(pinner.join().unwrap(), 0, "no pin saw a partial txn");
        });
        assert_eq!(src.snapshot().unwrap().vertex_count(&ctx).unwrap(), 136);
    }

    /// Structural operations are rejected inside a staged commit rather
    /// than silently bypassing the write set.
    #[test]
    fn txn_replay_rejects_structural_ops_on_sharded_source() {
        use gm_model::GdbError;
        let src = txn_source(2, 10);
        let seq = src.txn_log().expect("composite log").seq();
        let err = src
            .txn_commit(seq, &[], &mut |db| db.create_vertex_index("x").map(|_| 0))
            .unwrap_err();
        assert!(matches!(err, GdbError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn one_shard_is_bit_compatible_with_the_inner_engine() {
        let ctx = QueryCtx::unbounded();
        let g = loaded(1, 25);
        let reference = unsharded(25);
        for canonical in 0..25u64 {
            assert_eq!(
                g.resolve_vertex(canonical),
                reference.resolve_vertex(canonical),
                "1-shard composite ids equal inner ids"
            );
        }
        assert_eq!(
            g.vertex_count(&ctx).unwrap(),
            reference.vertex_count(&ctx).unwrap()
        );
    }
}
