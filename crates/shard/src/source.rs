//! Snapshot-mode sharding: one [`SnapshotSource`] cell per shard.
//!
//! [`ShardedSource`] composes `N` independent snapshot cells (one `CowCell`
//! per shard) behind the same [`SnapshotSource`] interface the driver, the
//! fig8/fig10 harnesses, and the gm-net server already host. Its writes are
//! the shared [`Router`] over `CellPort`; the properties that matter:
//!
//! * **Writers to different shards do not serialize.** `with_write` hands
//!   the closure a router whose every mutation enters only the target
//!   cell's writer mutex — there is no composite-wide writer lock.
//! * **Pins are consistent.** A composite pin takes one epoch view per
//!   cell plus a clone of the routing meta, all under the topology's
//!   seqlock: multi-shard topology changes (ghost creation, vertex
//!   removal, bulk load) hold the meta writer lock and flip the seqlock
//!   odd, so a pin that raced one **retries** instead of returning a torn
//!   view (an edge pointing at a ghost the meta cannot translate) — and
//!   every topology change **publishes the cells it mutated before
//!   releasing the seqlock** (`CellPort`'s `publish`), so the new meta
//!   can never be paired with a staleness-bounded view from before the
//!   change (e.g. a ghost entry whose vertex the pinned view does not
//!   contain yet, turning a read of an existing vertex into
//!   `VertexNotFound`). Independent single-shard writes may land between
//!   two cells' pins — the composite then shows a state in which some of
//!   those writes happened and others not yet, which is a legal
//!   interleaving of single-shard atomic writes, never a torn multi-shard
//!   operation.
//! * **Composite epochs are monotone.** The composite epoch is the minimum
//!   over the shard epochs (the newest version every shard has published);
//!   each cell's epochs are monotone, so the minimum is too.
//!
//! * **Pins cost O(shards).** The meta clone shares the frozen load-time
//!   resolution tables, each shard's ghost maps and the removed-set by
//!   refcount (see `route`), so a pin is a few refcounts plus one cell pin
//!   per shard, whatever the graph's size; a topology change after
//!   a pin copies only the one shard's ghost maps it touches (or the small
//!   removed-set). A pin resolves canonical ids as of its epoch.

use std::time::Duration;

use gm_model::api::{Applied, GraphSnapshot, Mutation};
use gm_model::GdbResult;
use gm_mvcc::{write_once, KeyRecorder, SnapshotSource, TxnKey, TxnLog};

use crate::route::Meta;
use crate::router::{Router, ShardPort};
use crate::topology::Topology;
use crate::view::{ShardSel, ShardedView};

/// How one shard cell is pinned (strict `snapshot` or `snapshot_recent`).
type PinFn<'a> = dyn Fn(&dyn SnapshotSource) -> GdbResult<Box<dyn GraphSnapshot>> + 'a;

/// `N` snapshot cells + routing topology behind one [`SnapshotSource`].
pub struct ShardedSource {
    name: String,
    kind: &'static str,
    cells: Vec<Box<dyn SnapshotSource>>,
    topo: Topology,
    /// Commit log for txn conflict detection, in **composite** id space
    /// (the per-cell logs record shard-local ids and are unused here).
    txn_log: TxnLog,
}

impl ShardedSource {
    /// Compose `shards` fresh cells from `make`.
    ///
    /// Panics if `shards == 0`.
    pub fn from_factory(shards: usize, make: impl Fn() -> Box<dyn SnapshotSource>) -> Self {
        let topo = Topology::new(shards);
        let cells: Vec<Box<dyn SnapshotSource>> = (0..shards).map(|_| make()).collect();
        let kind = match cells[0].kind() {
            "cow" => "sharded-cow",
            _ => "sharded",
        };
        ShardedSource {
            name: format!("{}/s{shards}", cells[0].engine()),
            kind,
            cells,
            topo,
            txn_log: TxnLog::new(),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Pin a composite view, retrying while a topology change is in flight
    /// (see the module docs for the consistency argument).
    fn pin_view(&self, pin: &PinFn<'_>) -> GdbResult<ShardedView> {
        let metrics = self.topo.metrics();
        loop {
            let before = self.topo.seq();
            if before % 2 == 1 {
                // A topology change is in flight; its holder owns the meta
                // writer lock, so parking on the reader side sleeps until
                // it finishes instead of burning a core (a bulk load can
                // hold the seqlock odd for seconds).
                if let Some(m) = metrics {
                    m.seqlock_retries.inc();
                }
                // gm-lock: meta transient
                drop(self.topo.read()?);
                std::thread::yield_now();
                continue;
            }
            let mut shards = Vec::with_capacity(self.cells.len());
            for cell in &self.cells {
                shards.push(pin(cell.as_ref())?);
            }
            // gm-lock: meta transient
            let meta = self.topo.read()?.clone();
            if self.topo.seq() == before {
                let epoch = shards.iter().map(|s| s.epoch()).min().unwrap_or(0);
                if let Some(m) = metrics {
                    m.pins.inc();
                }
                return Ok(ShardedView {
                    name: self.name.clone(),
                    shards,
                    meta,
                    epoch,
                });
            }
            // A topology change landed mid-pin: re-pin against the new
            // state (each retry re-pins, so epochs only move forward).
            if let Some(m) = metrics {
                m.seqlock_retries.inc();
            }
        }
    }

    fn port(&self) -> CellPort<'_> {
        CellPort(&self.cells)
    }
}

/// The [`ShardPort`] of a [`ShardedSource`]: shard `s` is reached through
/// its MVCC cell — reads pin it strictly, writes enter its writer mutex,
/// publishing is a strict pin (discarded).
struct CellPort<'a>(&'a [Box<dyn SnapshotSource>]);

impl ShardPort for CellPort<'_> {
    fn with_views<R>(
        &self,
        need: &ShardSel,
        meta: Option<&Meta>,
        f: impl FnOnce(&[(usize, &dyn GraphSnapshot)]) -> R,
    ) -> GdbResult<R> {
        let pins = need
            .shards(self.0.len(), meta)
            .map(|s| Ok((s, self.0[s].snapshot()?)))
            .collect::<GdbResult<Vec<_>>>()?;
        let views: Vec<(usize, &dyn GraphSnapshot)> =
            pins.iter().map(|(s, pin)| (*s, pin.as_ref())).collect();
        Ok(f(&views))
    }

    fn apply(&self, s: usize, m: Mutation<'_>) -> GdbResult<Applied> {
        write_once(|db| db.apply(m), |f| self.0[s].with_write(f))
    }

    fn publish(&self, s: usize) -> GdbResult<()> {
        self.0[s].snapshot().map(drop)
    }

    fn epoch(&self) -> u64 {
        self.0.iter().map(|c| c.current_epoch()).min().unwrap_or(0)
    }
}

impl SnapshotSource for ShardedSource {
    fn engine(&self) -> String {
        self.name.clone()
    }

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn current_epoch(&self) -> u64 {
        self.port().epoch()
    }

    fn snapshot(&self) -> GdbResult<Box<dyn GraphSnapshot>> {
        Ok(Box::new(self.pin_view(&|c| c.snapshot())?))
    }

    fn snapshot_recent(&self, max_staleness: Duration) -> GdbResult<Box<dyn GraphSnapshot>> {
        Ok(Box::new(
            self.pin_view(&|c| c.snapshot_recent(max_staleness))?,
        ))
    }

    fn with_write(&self, f: &mut gm_mvcc::WriteFn<'_>) -> GdbResult<u64> {
        // No composite-wide lock here: the router's mutations enter only
        // the cells they touch. The recorder derives composite-id
        // write-set keys for txn conflict detection, appended on success.
        let mut router = Router::over(&self.name, &self.topo, self.port());
        let mut rec = KeyRecorder::new(&mut router);
        let out = f(&mut rec);
        if out.is_ok() {
            self.txn_log.append(rec.take_keys());
        }
        out
    }

    fn txn_log(&self) -> Option<&TxnLog> {
        Some(&self.txn_log)
    }

    /// Cross-shard staged commit: the whole validate → replay → publish
    /// sequence runs under one topology guard (meta writer lock + seqlock
    /// odd), so composite pins park for its duration and the first
    /// unparked pin observes either **all** of the write set (every
    /// mutated cell is published before the seqlock flips even) or none
    /// of it (a conflict aborts before any mutation). Transaction commits
    /// serialize on the meta writer lock, so validation cannot race
    /// another commit's log append. The composite epoch bump is one
    /// event: every touched cell's epoch advances inside the guard.
    fn txn_commit(
        &self,
        start_seq: u64,
        keys: &[TxnKey],
        f: &mut gm_mvcc::WriteFn<'_>,
    ) -> GdbResult<u64> {
        // gm-lock: meta
        let mut guard = self.topo.enter()?;
        self.txn_log.validate(start_seq, keys)?;
        // The staged router mutates routing meta through the already-held
        // guard — re-entering the topology (ghost creation, vertex removal)
        // would deadlock on the non-reentrant meta lock — and its reads
        // pin cells strictly under that meta, never `pin_view`, which
        // would park forever on this commit's own odd seqlock.
        let mut router = Router::staged(&self.name, &self.topo, self.port(), &mut guard);
        let out = f(&mut router)?;
        // Publish every mutated cell before the guard releases the
        // seqlock: parked pins must never pair the new meta with a
        // pre-commit cell view, or see a torn subset.
        router.finish()?;
        self.txn_log.append(keys.to_vec());
        drop(guard);
        Ok(out)
    }
}
