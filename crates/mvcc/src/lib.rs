//! # gm-mvcc — epoch-based snapshot isolation for graphmark engines
//!
//! The workload driver's original concurrency contract puts one `RwLock`
//! around the whole engine: scans hold the shared lock for their full
//! duration (blocking every writer), and write-heavy mixes collapse to one
//! effective writer. This crate adds the alternative the ROADMAP's "MVCC
//! snapshots" item calls for: **readers pin an immutable epoch and run
//! lock-free; writers keep mutating the live engine**.
//!
//! * [`SnapshotSource`] — anything that can hand out pinned, immutable
//!   [`GraphSnapshot`] views of a graph and apply mutations between them.
//!   The epoch counter is strictly monotone per source: a snapshot's
//!   [`GraphSnapshot::epoch`] names the graph version it observes, so every
//!   read sample can be tagged with the version that produced it.
//! * [`CowCell`] — the one snapshot cell: wraps **any** `GraphDb + Clone`
//!   engine with copy-on-write epochs. Writers clone the published graph on
//!   their *first* write of an epoch and mutate the private copy; pinning a
//!   snapshot publishes the pending copy by move (no clone on the read
//!   path). Cost model: one `E::clone` per epoch that contains at least one
//!   write, so the cell is exactly as cheap as the engine's `Clone`:
//!   - **structural** for engine-linked (every O(graph) field is a paged,
//!     `Arc`-shared store — `RecordFile`s, `SegVec` columns, interners,
//!     one `Arc` per attribute index): a clone bumps one reference count
//!     per page and each write copies only the pages it lands in, so a
//!     dirty epoch costs O(pages touched);
//!   - **structural** for engine-columnar too (`Arc`-shared LSM runs and
//!     `SegVec` pages): a clone copies the memtable and the small overlay
//!     sets, so snapshot hosting tunes the memtable small
//!     (`engine_columnar::SNAPSHOT_STORE`) and a dirty epoch costs
//!     O(memtable), not O(graph);
//!   - a **deep copy** for triple, relational, cluster, bitmap and
//!     document: a dirty epoch costs O(graph), honest but expensive —
//!     milliseconds per epoch at benchmark scale.
//!
//! The cell serializes writers behind one mutex (the paper's systems are
//! single-writer too); the point of snapshot isolation here is that a scan
//! never holds that mutex — it pins an `Arc` and gets out of the way.
//! (`SegVec` lives in `gm_storage::segvec`.)

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gm_model::api::{GraphDb, GraphSnapshot};
use gm_model::lockorder::{self, LockRank};
use gm_model::{lockwait, GdbError, GdbResult};
use gm_obs::{phase, Counter, Gauge, Histo, Phase};

mod txn;
pub use txn::{keys, KeyRecorder, TxnKey, TxnLog, WriteTxn, TXN_ID_TAG, TXN_LOG_CAP_DEFAULT};

/// Which snapshot implementation a harness should use. [`CowCell`] is the
/// only one; the enum stays as the argument of the registry's
/// `make_snapshot_source`, which external harnesses call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotMode {
    /// Copy-on-write epochs ([`CowCell`]) for every engine.
    Cow,
}

/// A mutation batch executed against the live engine of a source.
pub type WriteFn<'a> = dyn FnMut(&mut dyn GraphDb) -> GdbResult<u64> + 'a;

/// Run a one-shot mutation through a `with_write` path — which takes an
/// `FnMut` batch returning a cardinality — and carry the mutation's own
/// result out.
pub fn write_once<R>(
    f: impl FnOnce(&mut dyn GraphDb) -> GdbResult<R>,
    with_write: impl FnOnce(&mut WriteFn<'_>) -> GdbResult<u64>,
) -> GdbResult<R> {
    let mut once = Some(f);
    let mut out = None;
    with_write(&mut |db| {
        if let Some(f) = once.take() {
            out = Some(f(db)?);
        }
        Ok(0)
    })?;
    out.ok_or_else(|| GdbError::Invalid("the write path never ran the mutation".into()))
}

/// Anything that can pin immutable epoch views of a graph while applying
/// mutations between them.
///
/// The contract every implementation upholds:
///
/// * **Pinned views are immutable.** Once [`SnapshotSource::snapshot`]
///   returns, no later write is visible through that view.
/// * **Epochs are monotone.** Each pin observes an epoch ≥ every earlier
///   pin's epoch, and a pin taken after a write observes a *strictly*
///   greater epoch than any pin taken before it.
/// * **Writes are serialized** (single-writer, like the shared `RwLock`
///   contract), but a pinned reader never blocks a writer and a writer
///   never blocks reads against an already-pinned view — only the brief
///   pin operation itself synchronizes with writers.
pub trait SnapshotSource: Send + Sync {
    /// Engine display name (matches `GraphSnapshot::name`).
    fn engine(&self) -> String;

    /// Implementation kind for reports: `"cow"` for a [`CowCell`].
    fn kind(&self) -> &'static str;

    /// Epoch of the most recently published snapshot (0 before any pin).
    fn current_epoch(&self) -> u64;

    /// Pin the current graph version: publishes any pending writes and
    /// returns an immutable view of the result (strict read-your-writes:
    /// every write that completed before this call is visible).
    fn snapshot(&self) -> GdbResult<Box<dyn GraphSnapshot>>;

    /// Pin a **recently published** epoch: like [`SnapshotSource::snapshot`]
    /// except that pending writes younger than `max_staleness` need not be
    /// published — the pin may return the previous epoch instead of paying
    /// a publish (for [`CowCell`] a publish forces the *next* write to
    /// clone the whole graph).
    ///
    /// This is group commit for epochs: under a pin-per-read workload racing
    /// writers, publishes are rate-limited to one per `max_staleness`, so
    /// the read path degenerates to a mutex-protected `Arc` clone and read
    /// throughput scales with threads instead of serializing behind clones.
    /// Reads may observe a view at most `max_staleness` older than "now" —
    /// still a single consistent epoch, never a torn one. Once pending
    /// writes age past the bound, the next pin publishes them, so a pin
    /// taken quiescently (no writes for `max_staleness`) is exact.
    ///
    /// The default implementation is the strict pin.
    fn snapshot_recent(&self, max_staleness: Duration) -> GdbResult<Box<dyn GraphSnapshot>> {
        let _ = max_staleness;
        self.snapshot()
    }

    /// Run one mutation batch against the live engine. A **successful**
    /// batch is atomic with respect to snapshots: no pin can observe a
    /// proper prefix of it, because the whole batch runs under the writer
    /// mutex and publish points sit between batches. A batch that returns
    /// `Err` partway offers the same (weaker) guarantee as the shared-lock
    /// contract it replaces: mutations applied before the failure remain
    /// applied and become visible at the next publish — multi-part writes
    /// that need all-or-nothing semantics must validate before mutating.
    ///
    /// Sources that support transactions wrap the engine in a
    /// [`KeyRecorder`] and append the touched keys to their [`TxnLog`] on
    /// success, so autocommit batches participate in first-committer-wins
    /// validation.
    fn with_write(&self, f: &mut WriteFn<'_>) -> GdbResult<u64>;

    /// The commit log backing transaction conflict detection, if this
    /// source keeps one. `None` (the default) means [`WriteTxn::commit`]
    /// cannot validate first-committer-wins against this source and
    /// publishes unvalidated — every source in this workspace keeps a log.
    fn txn_log(&self) -> Option<&TxnLog> {
        None
    }

    /// Validate a transaction's write set (first-committer-wins against
    /// commits recorded after `start_seq`) and, only if clean, apply `f` —
    /// both under the writer lock, so no other commit can land in between.
    /// The applied keys reach the log through the source's `with_write`
    /// recording; a [`GdbError::TxnConflict`] from validation guarantees
    /// `f` never ran.
    ///
    /// [`WriteTxn::commit`]'s `f` checks, before its first mutation, that
    /// every id its write set names still exists, so a cascade validation
    /// missed fails as a conflict with nothing applied. Only an engine
    /// refusing a buffered write outright (an invalid label, say) leaves
    /// the writes replayed before it applied, as a failed
    /// [`SnapshotSource::with_write`] batch does.
    ///
    /// The default runs everything inside one [`SnapshotSource::with_write`]
    /// batch, which is atomic under pins for single-cell sources; sources
    /// whose batches span cells (the sharded composite) override this with
    /// a staged commit.
    fn txn_commit(&self, start_seq: u64, keys: &[TxnKey], f: &mut WriteFn<'_>) -> GdbResult<u64> {
        let mut first = true;
        self.with_write(&mut |db| {
            if first {
                first = false;
                if let Some(log) = self.txn_log() {
                    log.validate(start_seq, keys)?;
                }
            }
            f(db)
        })
    }
}

/// An immutable epoch view: an `Arc` of the engine as it stood when the
/// epoch was published, tagged with the epoch number. Delegates the whole
/// read API — including [`GraphSnapshot::degree_scan`]-style overridable
/// scans, so per-engine physical strategies survive the pin. Doubles as
/// the published-side cell state: cloning bumps the `Arc`, so pinning is
/// exactly `Box::new(published.clone())`.
struct SnapView<E> {
    epoch: u64,
    graph: Arc<E>,
    /// Live-pin bookkeeping handle; `None` on the published (cell-owned)
    /// view and whenever `GM_OBS=off`. Shared by clones of a pinned view:
    /// the snapshot counts as one pin however often it is cloned, released
    /// when the last clone drops.
    pin: Option<Arc<PinGuard>>,
}

impl<E> Clone for SnapView<E> {
    fn clone(&self) -> Self {
        SnapView {
            epoch: self.epoch,
            graph: Arc::clone(&self.graph),
            pin: self.pin.clone(),
        }
    }
}

impl<E: GraphDb + 'static> GraphSnapshot for SnapView<E> {
    gm_model::forward_graph_snapshot!(target = |s| s.graph, epoch = |s| s.epoch);
}

fn poisoned(which: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "snapshot source {which} mutex poisoned by a panicking writer"
    ))
}

// ----- observability -------------------------------------------------------

/// Live-pin bookkeeping for one cell: which epochs are still held by
/// outstanding [`GraphSnapshot`] views, since when, and how many bytes each
/// retains. This is the "snapshot GC" view — epochs a writer can no longer
/// reclaim because a reader still holds them. Tracking takes a short mutex
/// on pin/unpin, so it only runs under `GM_OBS=counters|phases`; with
/// `GM_OBS=off` the pin path stays an `Arc` clone.
///
/// Byte accounting is per retained epoch and deliberately ignores structural
/// sharing between epochs (cheap-clone engines share pages), so the gauge
/// is an upper bound on what live pins keep alive.
struct PinTable {
    origin: Instant,
    epochs: Mutex<BTreeMap<u64, EpochPins>>,
    live_pins: Gauge,
    retained_epochs: Gauge,
    oldest_pin_age_us: Gauge,
    retained_bytes: Gauge,
}

struct EpochPins {
    pins: u64,
    bytes: u64,
    first_pin_micros: u64,
}

impl PinTable {
    /// Gauges named `mvcc.<kind>.*` in `g` (cells use `cow`).
    fn new(g: &gm_obs::Registry, kind: &str) -> PinTable {
        PinTable {
            origin: Instant::now(),
            epochs: Mutex::new(BTreeMap::new()),
            live_pins: g.gauge(&format!("mvcc.{kind}.live_pins")),
            retained_epochs: g.gauge(&format!("mvcc.{kind}.retained_epochs")),
            oldest_pin_age_us: g.gauge(&format!("mvcc.{kind}.oldest_pin_age_us")),
            retained_bytes: g.gauge(&format!("mvcc.{kind}.retained_bytes")),
        }
    }

    fn pin(self: &Arc<Self>, epoch: u64, bytes: u64) -> Arc<PinGuard> {
        let now = self.origin.elapsed().as_micros() as u64;
        // gm-lock: leaf
        let _t = lockorder::acquire(LockRank::Leaf, "gm-mvcc/lib.rs pin table pin");
        // The table holds only bookkeeping gauges: a pinner that panicked
        // while holding the lock leaves the counters merely stale, never the
        // graph state wrong — so recover the guard instead of letting one
        // panic poison every later reader's pin path.
        let mut map = self.epochs.lock().unwrap_or_else(|p| p.into_inner());
        let entry = map.entry(epoch).or_insert(EpochPins {
            pins: 0,
            bytes,
            first_pin_micros: now,
        });
        entry.pins += 1;
        self.refresh(&map, now);
        drop(map);
        Arc::new(PinGuard {
            table: Arc::clone(self),
            epoch,
        })
    }

    fn unpin(&self, epoch: u64) {
        let now = self.origin.elapsed().as_micros() as u64;
        // gm-lock: leaf
        let _t = lockorder::acquire(LockRank::Leaf, "gm-mvcc/lib.rs pin table unpin");
        // Bookkeeping-only state: recover a poisoned guard (see `pin`).
        let mut map = self.epochs.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = map.get_mut(&epoch) {
            entry.pins -= 1;
            if entry.pins == 0 {
                map.remove(&epoch);
            }
        }
        self.refresh(&map, now);
    }

    /// Recompute the gauges from the table (caller holds the lock). Gauges
    /// are event-driven: they hold the state as of the last pin/unpin, which
    /// under any live workload is effectively current.
    fn refresh(&self, map: &BTreeMap<u64, EpochPins>, now_micros: u64) {
        self.live_pins
            .set(map.values().map(|e| e.pins).sum::<u64>() as i64);
        self.retained_epochs.set(map.len() as i64);
        self.retained_bytes
            .set(map.values().map(|e| e.bytes).sum::<u64>() as i64);
        let oldest = map
            .values()
            .map(|e| now_micros.saturating_sub(e.first_pin_micros))
            .max()
            .unwrap_or(0);
        self.oldest_pin_age_us.set(oldest as i64);
    }
}

/// Drop guard carried by a pinned view; the last clone of a snapshot
/// releases the epoch in the cell's [`PinTable`].
struct PinGuard {
    table: Arc<PinTable>,
    epoch: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.table.unpin(self.epoch);
    }
}

/// Registry handles for one snapshot cell, resolved once at construction so
/// the hot path never touches the registry's name map. Only built when
/// `GM_OBS` is `counters` or `phases` at cell-construction time; every
/// cell reports under the same `mvcc.cow.*` names, so cells aggregate.
struct CellMetrics {
    pins: Counter,
    /// Pins that deliberately returned a stale epoch (group commit deferred
    /// the publish) — the epoch-lag side of `snapshot_recent`.
    stale_pins: Counter,
    publishes: Counter,
    /// Duration of the engine clone that opens an epoch; the pages the
    /// epoch then copies are counted by the storage layer
    /// (`storage.cow.pages_copied` / `.bytes_copied`).
    clone_nanos: Histo,
    /// Writes batched into each publish — the epoch group-commit size.
    commit_batch: Histo,
    /// Epoch of the most recently published snapshot.
    epoch: Gauge,
    pin_table: Arc<PinTable>,
    /// Writes since the last publish (drained into `commit_batch`).
    pending_writes: AtomicU64,
    /// `space()` total of the currently published graph, attached to pins.
    published_bytes: AtomicU64,
}

impl CellMetrics {
    fn new() -> Option<CellMetrics> {
        if !gm_obs::counters_on() {
            return None;
        }
        let g = gm_obs::global();
        Some(CellMetrics {
            pins: g.counter("mvcc.cow.pins"),
            stale_pins: g.counter("mvcc.cow.stale_pins"),
            publishes: g.counter("mvcc.cow.publishes"),
            clone_nanos: g.histogram("mvcc.cow.clone_nanos"),
            commit_batch: g.histogram("mvcc.cow.commit_batch"),
            epoch: g.gauge("mvcc.cow.epoch"),
            pin_table: Arc::new(PinTable::new(g, "cow")),
            pending_writes: AtomicU64::new(0),
            published_bytes: AtomicU64::new(0),
        })
    }

    fn on_write(&self) {
        // gm-check: relaxed(metrics counter: drained by swap at publish, no ordering consumer)
        self.pending_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a publish: the new epoch, how many writes it batched, and the
    /// published graph's space total (what a pin of this epoch retains).
    /// Runs after the cell's locks are released, so two publishes may report
    /// out of order and a write racing the drain counts toward either batch.
    fn on_publish(&self, epoch: u64, graph: &dyn GraphSnapshot) {
        self.publishes.inc();
        self.epoch.fetch_max(epoch as i64);
        // gm-check: relaxed(metrics counter: drained by swap, a racing write lands in this batch or the next)
        self.commit_batch
            .record(self.pending_writes.swap(0, Ordering::Relaxed));
        // gm-check: relaxed(metrics gauge: pins read a best-effort size estimate, staleness is fine)
        self.published_bytes
            .store(graph.space().total(), Ordering::Relaxed);
    }

    fn on_pin(&self, epoch: u64) -> Arc<PinGuard> {
        self.pins.inc();
        // gm-check: relaxed(metrics gauge: best-effort size estimate attached to the pin)
        self.pin_table
            .pin(epoch, self.published_bytes.load(Ordering::Relaxed))
    }
}

// ----- cell plumbing -------------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The published (immutable) side of a cell is a [`SnapView`] behind an
/// `RwLock`, so the pin fast path is a **shared** read — concurrent pins
/// clone the `Arc` without ever contending an exclusive lock, which is
/// what lets read throughput scale with threads (an exclusive mutex on the
/// pin path degenerates into futex handoff storms under pin-per-read
/// workloads).
///
/// Lock-free dirtiness clock: microseconds-since-`origin` of the first
/// unpublished write (0 = clean). Lets the pin fast path decide "is a
/// publish due?" without touching the writer mutex.
struct DirtyClock {
    origin: Instant,
    dirty_at: AtomicU64,
}

impl DirtyClock {
    fn new() -> Self {
        DirtyClock {
            origin: Instant::now(),
            dirty_at: AtomicU64::new(0),
        }
    }

    fn mark_dirty(&self) {
        let micros = self.origin.elapsed().as_micros().max(1) as u64;
        self.dirty_at.store(micros, Ordering::SeqCst);
    }

    fn clear(&self) {
        self.dirty_at.store(0, Ordering::SeqCst);
    }

    fn is_dirty(&self) -> bool {
        self.dirty_at.load(Ordering::SeqCst) != 0
    }

    /// Dirty for at least `bound`?
    fn dirty_past(&self, bound: Duration) -> bool {
        let at = self.dirty_at.load(Ordering::SeqCst);
        at != 0
            && self
                .origin
                .elapsed()
                .saturating_sub(Duration::from_micros(at))
                >= bound
    }
}

// ----- CowCell --------------------------------------------------------------

/// Generic copy-on-write snapshot source over any cloneable engine.
///
/// See the crate docs for the cost model. The interesting property for the
/// workload driver: **scans never block writers** — a pinned reader works on
/// its `Arc` while writers mutate the working copy — and the pin fast path
/// is a shared-lock `Arc` clone, so pins don't even serialize against each
/// other; only a *due publish* takes the writer mutex.
pub struct CowCell<E: GraphDb + Clone> {
    engine: String,
    /// The writers' private copy for the pending epoch: cloned from the
    /// published graph on the first write of the epoch, published (by move)
    /// at the next due pin. `None` = no writes since the last publish.
    working: Mutex<Option<E>>,
    published: RwLock<SnapView<E>>,
    dirty: DirtyClock,
    metrics: Option<CellMetrics>,
    txn_log: TxnLog,
}

impl<E: GraphDb + Clone + 'static> CowCell<E> {
    /// Wrap an engine (typically freshly constructed and still empty; load
    /// it through [`SnapshotSource::with_write`]).
    pub fn new(engine: E) -> Self {
        CowCell {
            engine: engine.name(),
            working: Mutex::new(None),
            published: RwLock::new(SnapView {
                epoch: 0,
                graph: Arc::new(engine),
                pin: None,
            }),
            dirty: DirtyClock::new(),
            metrics: CellMetrics::new(),
            txn_log: TxnLog::new(),
        }
    }

    /// Install the writers' pending copy as the next epoch. Only the
    /// pointer swap happens under the `published` write lock — nothing
    /// proportional to the graph.
    fn publish_pending(&self) -> GdbResult<()> {
        let _span = phase::span(Phase::ClonePublish);
        let swapped = {
            // gm-lock: cell-writer
            let _tw = lockorder::acquire(LockRank::CellWriter, "gm-mvcc/lib.rs cow publish");
            let mut working =
                lockwait::timed(|| self.working.lock()).map_err(|_| poisoned("cow writer"))?;
            match working.take() {
                None => None,
                Some(pending) => {
                    let fresh = Arc::new(pending);
                    // gm-lock: cell-published
                    let _tp = lockorder::acquire(
                        LockRank::CellPublished,
                        "gm-mvcc/lib.rs cow publish swap",
                    );
                    let mut published = lockwait::timed(|| self.published.write())
                        .map_err(|_| poisoned("cow published"))?;
                    published.epoch += 1;
                    let retired = std::mem::replace(&mut published.graph, Arc::clone(&fresh));
                    self.dirty.clear();
                    Some((published.epoch, fresh, retired))
                }
            }
        };
        // Both guards are released: sizing the new epoch and freeing the
        // retired one (the last reference unless a pin holds it) stall
        // neither writers nor pins. Pins racing this see the previous
        // epoch's byte estimate.
        if let Some((epoch, fresh, retired)) = swapped {
            if let Some(m) = &self.metrics {
                m.on_publish(epoch, &*fresh);
            }
            drop(retired);
        }
        Ok(())
    }

    fn pinned(&self) -> GdbResult<Box<dyn GraphSnapshot>> {
        let mut view = {
            // gm-lock: cell-published
            let _t = lockorder::acquire(LockRank::CellPublished, "gm-mvcc/lib.rs cow pin");
            lockwait::timed(|| self.published.read())
                .map_err(|_| poisoned("cow published"))?
                .clone()
        };
        if let Some(m) = &self.metrics {
            view.pin = Some(m.on_pin(view.epoch));
        }
        Ok(Box::new(view))
    }
}

/// A cell's engine as one write batch sees it. Clone-on-first-write per
/// epoch happens at the batch's first `apply`: reads before it answer from
/// the epoch's pending copy if it has one and from the published base
/// otherwise, so a batch that fails before mutating (a commit refused by
/// validation, say) costs no clone and publishes no epoch. Later writes of
/// the same epoch reuse the copy.
struct BatchWriter<'a, E: GraphDb + Clone> {
    cell: &'a CowCell<E>,
    /// The published graph, held while the epoch has no pending copy.
    base: Option<Arc<E>>,
    working: &'a mut Option<E>,
}

const BASE_HELD: &str = "a batch begun without a pending copy holds the base";

impl<E: GraphDb + Clone> BatchWriter<'_, E> {
    fn view(&self) -> &E {
        match &*self.working {
            Some(copy) => copy,
            None => self.base.as_deref().expect(BASE_HELD),
        }
    }

    /// The epoch's pending copy, cloned from the base on first use. The
    /// dirty mark lands before the mutation, so a strict pin racing this
    /// write either misses it entirely (the write has not completed) or
    /// publishes it.
    fn copy(&mut self) -> &mut E {
        let (cell, base) = (self.cell, &self.base);
        self.working.get_or_insert_with(|| {
            cell.dirty.mark_dirty();
            let _span = phase::span(Phase::ClonePublish);
            let t0 = cell.metrics.as_ref().map(|_| Instant::now());
            let copy = E::clone(base.as_deref().expect(BASE_HELD));
            if let (Some(m), Some(t0)) = (&cell.metrics, t0) {
                m.clone_nanos.record(t0.elapsed().as_nanos() as u64);
            }
            copy
        })
    }
}

impl<E: GraphDb + Clone> GraphSnapshot for BatchWriter<'_, E> {
    gm_model::forward_graph_snapshot!(target = |s| s.view());
}

impl<E: GraphDb + Clone> GraphDb for BatchWriter<'_, E> {
    gm_model::forward_graph_db!(target = |s| s.copy());
}

impl<E: GraphDb + Clone + 'static> SnapshotSource for CowCell<E> {
    fn engine(&self) -> String {
        self.engine.clone()
    }

    fn kind(&self) -> &'static str {
        "cow"
    }

    fn current_epoch(&self) -> u64 {
        // gm-lock: cell-published transient
        let _t = lockorder::acquire(LockRank::CellPublished, "gm-mvcc/lib.rs cow epoch probe");
        self.published.read().map(|p| p.epoch).unwrap_or(0)
    }

    fn snapshot(&self) -> GdbResult<Box<dyn GraphSnapshot>> {
        if self.dirty.is_dirty() {
            self.publish_pending()?;
        }
        self.pinned()
    }

    fn snapshot_recent(&self, max_staleness: Duration) -> GdbResult<Box<dyn GraphSnapshot>> {
        // Group commit: only publish once the pending epoch has aged past
        // the staleness bound. A publish forces the next write to re-clone
        // the graph, so rate-limiting publishes bounds the clone rate no
        // matter how hot the pin-per-read path runs.
        if self.dirty.dirty_past(max_staleness) {
            self.publish_pending()?;
        } else if self.dirty.is_dirty() {
            if let Some(m) = &self.metrics {
                m.stale_pins.inc();
            }
        }
        self.pinned()
    }

    fn with_write(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
        // gm-lock: cell-writer
        let _tw = lockorder::acquire(LockRank::CellWriter, "gm-mvcc/lib.rs cow write");
        let mut working =
            lockwait::timed(|| self.working.lock()).map_err(|_| poisoned("cow writer"))?;
        // Later writes of an epoch find its pending copy and need no base.
        let base = match *working {
            Some(_) => None,
            None => {
                // gm-lock: cell-published transient
                let _tp =
                    lockorder::acquire(LockRank::CellPublished, "gm-mvcc/lib.rs cow write base");
                Some(Arc::clone(
                    &lockwait::timed(|| self.published.read())
                        .map_err(|_| poisoned("cow published"))?
                        .graph,
                ))
            }
        };
        if let Some(m) = &self.metrics {
            m.on_write();
        }
        // Record the touched write-set keys for txn conflict detection;
        // append only when the whole batch succeeded (failed batches are
        // the existing weaker contract and never validate as commits).
        let mut writer = BatchWriter {
            cell: self,
            base,
            working: &mut working,
        };
        let mut rec = KeyRecorder::new(&mut writer);
        let out = f(&mut rec);
        if out.is_ok() {
            self.txn_log.append(rec.take_keys());
        }
        out
    }

    fn txn_log(&self) -> Option<&TxnLog> {
        Some(&self.txn_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_linked::LinkedGraph;
    use gm_model::api::LoadOptions;
    use gm_model::{testkit, QueryCtx};

    fn loaded_cell(n: u64) -> CowCell<LinkedGraph> {
        let cell = CowCell::new(LinkedGraph::v1());
        let data = testkit::chain_dataset(n);
        cell.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        cell
    }

    #[test]
    fn pinned_snapshot_is_immutable() {
        let cell = loaded_cell(50);
        let ctx = QueryCtx::unbounded();
        let snap = cell.snapshot().unwrap();
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 50);
        for _ in 0..10 {
            cell.with_write(&mut |db| db.add_vertex("n", &vec![]).map(|_| 1))
                .unwrap();
        }
        // The pinned view still answers from its epoch.
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 50);
        // A fresh pin sees the writes, at a strictly greater epoch.
        let snap2 = cell.snapshot().unwrap();
        assert_eq!(snap2.vertex_count(&ctx).unwrap(), 60);
        assert!(snap2.epoch() > snap.epoch());
    }

    #[test]
    fn epochs_advance_only_on_writes() {
        let cell = loaded_cell(10);
        let a = cell.snapshot().unwrap();
        let b = cell.snapshot().unwrap();
        assert_eq!(a.epoch(), b.epoch(), "read-only pins share the epoch");
        cell.with_write(&mut |db| db.add_vertex("n", &vec![]).map(|_| 1))
            .unwrap();
        assert_eq!(
            cell.current_epoch(),
            a.epoch(),
            "epoch advances at publish, not at write"
        );
        let c = cell.snapshot().unwrap();
        assert_eq!(c.epoch(), a.epoch() + 1);
        assert_eq!(cell.current_epoch(), c.epoch());
    }

    #[test]
    fn write_batches_are_atomic_under_pins() {
        let cell = loaded_cell(10);
        let ctx = QueryCtx::unbounded();
        // One batch adds a vertex and two edges; no pin can see a prefix.
        cell.with_write(&mut |db| {
            let v = db.add_vertex("hub", &vec![])?;
            let a = db.resolve_vertex(0).unwrap();
            db.add_edge(v, a, "spoke", &vec![])?;
            db.add_edge(a, v, "spoke", &vec![])?;
            Ok(3)
        })
        .unwrap();
        let snap = cell.snapshot().unwrap();
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 11);
        assert_eq!(snap.edge_count(&ctx).unwrap(), 9 + 2);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let cell = loaded_cell(100);
        let ctx = QueryCtx::unbounded();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for _ in 0..200 {
                    cell.with_write(&mut |db| db.add_vertex("w", &vec![]).map(|_| 1))
                        .unwrap();
                }
            });
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0u64;
                    for _ in 0..50 {
                        let snap = cell.snapshot().unwrap();
                        let n = snap.vertex_count(&QueryCtx::unbounded()).unwrap();
                        assert!((100..=300).contains(&n), "count {n} out of range");
                        assert!(snap.epoch() >= last, "epochs must be monotone");
                        last = snap.epoch();
                    }
                });
            }
            writer.join().unwrap();
        });
        let end = cell.snapshot().unwrap();
        assert_eq!(end.vertex_count(&ctx).unwrap(), 300);
    }

    /// An engine that counts its clones.
    struct CloneCount {
        inner: LinkedGraph,
        clones: Arc<AtomicU64>,
    }

    impl Clone for CloneCount {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            CloneCount {
                inner: self.inner.clone(),
                clones: Arc::clone(&self.clones),
            }
        }
    }

    impl GraphSnapshot for CloneCount {
        gm_model::forward_graph_snapshot!(target = |s| s.inner);
    }

    impl GraphDb for CloneCount {
        gm_model::forward_graph_db!(target = |s| s.inner);
    }

    /// Clone-on-first-write happens at a batch's first mutation: a batch
    /// that fails before it — a plain `Err` after a read, or a commit that
    /// validation refuses — clones nothing and publishes no epoch, while a
    /// batch that writes clones once and reads its own write.
    #[test]
    fn a_batch_that_fails_before_writing_clones_nothing() {
        let clones = Arc::new(AtomicU64::new(0));
        let cell = CowCell::new(CloneCount {
            inner: LinkedGraph::v1(),
            clones: Arc::clone(&clones),
        });
        let data = testkit::chain_dataset(10);
        cell.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        let target = cell.snapshot().unwrap().resolve_vertex(3).unwrap();
        let mut t1 = WriteTxn::begin(&cell).unwrap();
        let mut t2 = WriteTxn::begin(&cell).unwrap();
        t1.set_vertex_property(target, "w", gm_model::Value::Int(1))
            .unwrap();
        t2.set_vertex_property(target, "w", gm_model::Value::Int(2))
            .unwrap();
        t1.commit(&cell).unwrap();
        let epoch = cell.snapshot().unwrap().epoch();
        let cloned = clones.load(Ordering::SeqCst);

        let ctx = QueryCtx::unbounded();
        let failed = cell.with_write(&mut |db| {
            assert_eq!(db.vertex_count(&ctx)?, 10, "reads answer from the base");
            Err(GdbError::Invalid("refused before any write".into()))
        });
        assert!(failed.is_err());
        assert!(matches!(t2.commit(&cell), Err(GdbError::TxnConflict(_))));
        assert_eq!(clones.load(Ordering::SeqCst), cloned, "no clone");
        assert_eq!(cell.snapshot().unwrap().epoch(), epoch, "no new epoch");
        assert_eq!(cell.current_epoch(), epoch);

        cell.with_write(&mut |db| {
            db.add_vertex("n", &vec![])?;
            db.add_vertex("n", &vec![])?;
            db.vertex_count(&ctx)
        })
        .map(|n| assert_eq!(n, 12, "a batch reads its own writes"))
        .unwrap();
        assert_eq!(clones.load(Ordering::SeqCst), cloned + 1, "one clone");
        assert_eq!(cell.snapshot().unwrap().epoch(), epoch + 1);
    }

    /// An engine whose drop reports whether the cell's two locks were free
    /// at that moment.
    #[derive(Clone)]
    struct DropProbe {
        inner: LinkedGraph,
        cell: Arc<std::sync::OnceLock<Arc<CowCell<DropProbe>>>>,
        dropped_under_lock: Arc<std::sync::atomic::AtomicBool>,
    }

    impl GraphSnapshot for DropProbe {
        gm_model::forward_graph_snapshot!(target = |s| s.inner);
    }

    impl GraphDb for DropProbe {
        gm_model::forward_graph_db!(target = |s| s.inner);
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            if let Some(cell) = self.cell.get() {
                if cell.working.try_lock().is_err() || cell.published.try_write().is_err() {
                    self.dropped_under_lock.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    /// Freeing a retired epoch is O(graph) for a deep-copy engine: it must
    /// happen after the publish has released the writer mutex and the
    /// `published` lock, or every pin stalls behind it.
    #[test]
    fn retired_epoch_is_freed_outside_the_cell_locks() {
        let slot = Arc::new(std::sync::OnceLock::new());
        let dropped_under_lock = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cell = Arc::new(CowCell::new(DropProbe {
            inner: LinkedGraph::v1(),
            cell: Arc::clone(&slot),
            dropped_under_lock: Arc::clone(&dropped_under_lock),
        }));
        assert!(slot.set(Arc::clone(&cell)).is_ok());
        for round in 0..3 {
            cell.with_write(&mut |db| db.add_vertex("n", &vec![]).map(|_| 1))
                .unwrap();
            // Unpinned, so this publish drops the previous epoch's graph.
            let snap = cell.snapshot().unwrap();
            assert_eq!(snap.epoch(), round + 1);
        }
        assert!(!dropped_under_lock.load(Ordering::SeqCst));
    }

    /// The snapshot-GC pin table: live pins, retained epochs, retained
    /// bytes, and oldest-pin age tracked through pin/unpin against a
    /// private registry (the global one is shared across parallel tests).
    #[test]
    fn pin_table_tracks_retained_epochs_and_bytes() {
        let reg = gm_obs::Registry::new();
        let table = Arc::new(PinTable::new(&reg, "test"));
        let a = table.pin(3, 1_000);
        let b = table.pin(3, 1_000);
        let c = table.pin(4, 1_400);
        assert_eq!(reg.gauge("mvcc.test.live_pins").get(), 3);
        assert_eq!(reg.gauge("mvcc.test.retained_epochs").get(), 2);
        assert_eq!(reg.gauge("mvcc.test.retained_bytes").get(), 2_400);
        drop(a);
        assert_eq!(
            reg.gauge("mvcc.test.live_pins").get(),
            2,
            "epoch 3 still pinned once"
        );
        assert_eq!(reg.gauge("mvcc.test.retained_epochs").get(), 2);
        drop(b);
        assert_eq!(
            reg.gauge("mvcc.test.retained_epochs").get(),
            1,
            "epoch 3 released"
        );
        assert_eq!(reg.gauge("mvcc.test.retained_bytes").get(), 1_400);
        drop(c);
        assert_eq!(reg.gauge("mvcc.test.live_pins").get(), 0);
        assert_eq!(reg.gauge("mvcc.test.retained_epochs").get(), 0);
        assert_eq!(reg.gauge("mvcc.test.retained_bytes").get(), 0);
        assert_eq!(reg.gauge("mvcc.test.oldest_pin_age_us").get(), 0);
    }

    /// Cells export pin/publish counters into the global registry (default
    /// mode is `phases`, so counters are live). Counters are monotone and
    /// shared across tests, so assert on before/after deltas.
    #[test]
    fn cells_export_pin_and_publish_counters() {
        let snap_before = gm_obs::global().snapshot();
        let cell = loaded_cell(20);
        let s1 = cell.snapshot().unwrap();
        let s2 = cell.snapshot().unwrap();
        cell.with_write(&mut |db| db.add_vertex("n", &vec![]).map(|_| 1))
            .unwrap();
        let s3 = cell.snapshot().unwrap();
        drop((s1, s2, s3));
        let snap_after = gm_obs::global().snapshot();
        assert!(
            snap_after.counter("mvcc.cow.pins") >= snap_before.counter("mvcc.cow.pins") + 3,
            "three pins must be counted"
        );
        assert!(
            snap_after.counter("mvcc.cow.publishes")
                >= snap_before.counter("mvcc.cow.publishes") + 2,
            "bulk load + added vertex both published"
        );
        let clones = snap_after.hist("mvcc.cow.clone_nanos").unwrap();
        assert!(clones.count >= 1, "clone-on-first-write must be timed");
    }

    /// Regression: a panic while holding the pin-table mutex must not crash
    /// every later pinner — the table is bookkeeping only, so the poisoned
    /// guard is recovered instead of propagated.
    #[test]
    fn poisoned_pin_table_keeps_serving_pins() {
        let reg = gm_obs::Registry::new();
        let table = Arc::new(PinTable::new(&reg, "poisontest"));
        let t2 = Arc::clone(&table);
        // Poison the mutex: panic while the guard is held.
        let _ = std::thread::spawn(move || {
            let _guard = t2.epochs.lock().unwrap();
            panic!("deliberate panic with pin table lock held");
        })
        .join();
        assert!(
            table.epochs.lock().is_err(),
            "mutex must actually be poisoned"
        );
        // Pin and unpin must still work and keep the gauges coherent.
        let a = table.pin(1, 100);
        let b = table.pin(2, 200);
        assert_eq!(reg.gauge("mvcc.poisontest.live_pins").get(), 2);
        assert_eq!(reg.gauge("mvcc.poisontest.retained_epochs").get(), 2);
        drop(a);
        drop(b);
        assert_eq!(reg.gauge("mvcc.poisontest.live_pins").get(), 0);
        assert_eq!(reg.gauge("mvcc.poisontest.retained_epochs").get(), 0);
    }

    #[test]
    fn poisoned_writer_surfaces_as_poisoned_error() {
        let cell = loaded_cell(10);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cell.with_write(&mut |_| panic!("deliberate writer panic"));
        }));
        assert!(result.is_err());
        match cell.snapshot() {
            Err(GdbError::Poisoned(why)) => assert!(why.contains("poisoned"), "{why}"),
            Err(e) => panic!("expected Poisoned after writer panic, got {e}"),
            Ok(_) => panic!("snapshot must fail after a writer panic"),
        }
    }
}
