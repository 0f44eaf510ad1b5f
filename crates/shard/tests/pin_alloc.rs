//! A composite pin costs O(shards), not O(V+E): pinning a two-shard
//! `ShardedSource` makes the same allocation calls, of the same bytes, over
//! a 100-vertex chain as over a 10 000-vertex one. The routing meta a pin
//! clones shares its load-time tables and ghost maps by refcount; a meta
//! that copies any of them moves the large side. Counted with
//! `gm_model::testkit`'s wrapping global allocator, per thread.

use engine_linked::LinkedGraph;
use gm_model::api::LoadOptions;
use gm_model::testkit::{self, allocations, Allocs, CountingAlloc};
use gm_mvcc::{CowCell, SnapshotSource};
use gm_shard::ShardedSource;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one strict pin of a freshly loaded two-shard source allocates.
fn pin_cost(n: u64) -> Allocs {
    let src = ShardedSource::from_factory(2, || {
        Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
    });
    let data = testkit::chain_dataset(n);
    src.with_write(&mut |db| db.bulk_load(&data, &LoadOptions::default()).map(|_| 0))
        .expect("load");
    // The first pin publishes the load's epoch; the measured one only pins.
    drop(src.snapshot().expect("publishing pin"));
    let mut pin = None;
    let cost = allocations(|| pin = Some(src.snapshot().expect("pin")));
    drop(pin);
    cost
}

#[test]
fn a_composite_pin_allocates_the_same_at_any_graph_size() {
    let (small, large) = (pin_cost(100), pin_cost(10_000));
    assert!(small.calls > 0, "the counting allocator is installed");
    assert_eq!(
        small, large,
        "a /s2 pin over 100 vertices allocated {small:?}, over 10 000 {large:?}"
    );
}
