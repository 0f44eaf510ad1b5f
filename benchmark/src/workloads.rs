//! The six workloads: what each runs, and why it is there.
//!
//! A workload's op streams are `Mix::sequence(seed, worker, ops)`; `ops` is
//! a frozen count per worker and per round, sized on the reference box so a
//! round measures a sixth to three quarters of a second. A run is a frozen number of rounds,
//! each on freshly drawn inputs and freshly loaded state, so two commits
//! replay the same rounds on the same draws; `--seconds` only cuts a run
//! short on a box much slower than the reference.

use graphmark::datasets::DatasetId;
use graphmark::registry::EngineKind;
use graphmark::workload::MixKind;

use crate::stack::Rung;

/// The default seed, and one held out: never used while a change is written,
/// so a claim can be checked on inputs it was not tuned on.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 20_180_812;

/// The paper's seven architectures, newest variant of each.
pub const ENGINES: [(&str, EngineKind); 7] = [
    ("document", EngineKind::Document),
    ("triple", EngineKind::Triple),
    ("linked-v2", EngineKind::LinkedV2),
    ("cluster", EngineKind::Cluster),
    ("bitmap", EngineKind::Bitmap),
    ("relational", EngineKind::Relational),
    ("columnar-v10", EngineKind::ColumnarV10),
];

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// The stack the workload runs on (`Bare` for `micro`, which drives all
    /// of [`ENGINES`] directly).
    pub rung: Rung,
    /// The engine behind the stack; for `micro`, the engine its ladder
    /// stream runs on.
    pub engine: EngineKind,
    pub dataset: DatasetId,
    pub mix: MixKind,
    /// Closed-loop client threads (one connection each on the wire rungs).
    pub threads: u32,
    /// Frozen ops per worker per round; for `micro`, passes over the suite
    /// per engine per round.
    pub ops: u64,
    /// The same under `--quick`.
    pub quick_ops: u64,
    /// Frozen rounds per untraced run, sized so they measure seven to nine
    /// of the twelve seconds `BENCHMARK.json` gives a run when the box is
    /// quiet: more and shorter rounds where a round's rate is unsteadier.
    pub rounds: u64,
    /// Parameter draws per round: the round's ops are split evenly over this
    /// many replays on one loaded stack, each on freshly resolved parameters
    /// (`micro` draws once per pass). More where the mix's cost hangs on the
    /// anchor vertex drawn; 1 where whole-graph scans or writes dominate.
    pub draws: u64,
    /// Frozen ops per worker of the ladder's replays: the head of the same
    /// streams, cut so the slowest rung still replays in about a second.
    pub ladder_ops: u64,
}

impl Spec {
    pub fn ladder_ops_per_worker(&self, quick: bool) -> u64 {
        if quick {
            (self.ladder_ops / 10).max(2)
        } else {
            self.ladder_ops
        }
    }

    pub fn ops_per_round(&self, quick: bool) -> u64 {
        if quick {
            self.quick_ops
        } else {
            self.ops
        }
    }
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "micro",
        why: "the paper's suite on 7 bare engines: engines do all the work, so only an engine or storage change shows",
        rung: Rung::Bare,
        engine: EngineKind::LinkedV2,
        dataset: DatasetId::Yeast,
        mix: MixKind::Mixed,
        threads: 1,
        ops: 4,
        quick_ops: 1,
        rounds: 22,
        draws: 4,
        ladder_ops: 2_000,
    },
    Spec {
        name: "local_scan",
        why: "ms-scale whole-graph filters on the columnar LSM substrate: storage dominates, every other layer is noise",
        rung: Rung::Local,
        engine: EngineKind::ColumnarV10,
        dataset: DatasetId::FrbL,
        mix: MixKind::ScanHeavy,
        threads: 2,
        ops: 48,
        quick_ops: 8,
        rounds: 11,
        draws: 1,
        ladder_ops: 10,
    },
    Spec {
        name: "snap_mixed",
        why: "copy-on-write MVCC under 22% writes: the whole-engine clone per dirty epoch is most of each op",
        rung: Rung::Snap,
        engine: EngineKind::LinkedV2,
        dataset: DatasetId::FrbL,
        mix: MixKind::Mixed,
        threads: 2,
        ops: 1_000,
        quick_ops: 200,
        rounds: 14,
        draws: 16,
        ladder_ops: 500,
    },
    Spec {
        name: "shard_mixed",
        why: "routed writes and ghost-corrected scatter-gather reads over 2 shards: the sharding layer and its locks",
        rung: Rung::Shard(2),
        engine: EngineKind::Triple,
        dataset: DatasetId::FrbL,
        mix: MixKind::Mixed,
        threads: 2,
        ops: 2_000,
        quick_ops: 1_000,
        rounds: 16,
        draws: 16,
        ladder_ops: 500,
    },
    Spec {
        name: "wire_point",
        why: "sub-microsecond point reads over loopback: framing, syscalls and per-connection threads are over 90% of an op",
        rung: Rung::Wire,
        engine: EngineKind::LinkedV2,
        dataset: DatasetId::Yeast,
        mix: MixKind::ReadOnly,
        threads: 2,
        ops: 10_000,
        quick_ops: 2_000,
        rounds: 36,
        draws: 16,
        ladder_ops: 10_000,
    },
    Spec {
        name: "fleet_write",
        why: "70% writes through 2 shard servers: batched, pipelined frames with deferred ids, the wire used the other way",
        rung: Rung::Fleet(2),
        engine: EngineKind::Triple,
        dataset: DatasetId::Yeast,
        mix: MixKind::WriteHeavy,
        threads: 1,
        ops: 4_000,
        quick_ops: 1_000,
        rounds: 40,
        draws: 1,
        ladder_ops: 1_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}
