//! A log-structured merge table with tombstones and compaction.
//!
//! Titan's default backend is Cassandra (§3.1); the columnar engine stores
//! its adjacency rows in this LSM. The structure reproduces the behaviours
//! the paper attributes to the backend:
//!
//! * writes go to a sorted **memtable** and are cheap;
//! * deletes write **tombstones** instead of removing data — the paper
//!   credits Titan's fast deletions to exactly this (§6.5: "the tombstone
//!   mechanism, that in deletions marks an item as removed instead of
//!   actually removing it");
//! * reads consult the memtable and then immutable runs newest-first, so
//!   read amplification grows with the number of runs until **compaction**
//!   folds them together.
//!
//! # Layout and read path
//!
//! An immutable run is a **flat arena**: every key back to back in one
//! buffer, every value in another, a table of `u32` end offsets and one
//! tombstone bit per entry. A scan of a run is a walk over sequential
//! memory and a point lookup binary-searches contiguous keys; flushing or
//! compacting writes a new arena and never touches an old one, so runs stay
//! `Arc`-shared between clones.
//!
//! Reads are **zero-copy**: [`LsmTable::get`] and the [`Scan`] cursor hand
//! out `&[u8]` borrowed from the memtable or a run's arena. A scan's sources
//! are the memtable's range and the runs, a concrete enum, each positioned
//! at the scan's lower bound; a source whose first key is already past the
//! upper bound is dropped. A scan allocates once, for its cursor list, never
//! per cell. What it does next depends only on what the sources show: each
//! one's first remaining key and its last key.
//!
//! * **Walk.** When those ranges are pairwise strictly disjoint, the scan
//!   walks the sources one after another in key order, with no per-cell key
//!   comparison. Tombstones are simply skipped: a tombstone can shadow only
//!   a key another source also holds, and that source's range would then
//!   overlap its own. A bulk load that puts its cells in key order leaves
//!   runs like this, and so does a memtable whose writes all follow the runs.
//! * **Merge.** Otherwise the one k-way merge runs: newest source wins,
//!   tombstones suppress older versions.
//!
//! A walk reads each run as one **window**, a contiguous span of entries
//! `[at, stop)`: `stop`, where the upper bound falls in the run, is found by
//! one binary search when the run's turn comes, so a walked key is never
//! compared with the bound. [`Scan::next`](Iterator::next) steps the window
//! one entry at a time; [`Scan::visit`] drains it in one loop and hands each
//! live pair to a closure. The memtable, even in a walk, and every merged
//! scan are read entry by entry, each key checked against the bound, and
//! `visit` reads those through `next()`.
//!
//! Compaction reads its runs through the same cursor. Only the cost of a
//! read depends on the choice; its answer never does, nor does what the
//! counters below record.
//!
//! The arena keeps keys whole. [`LsmTable::bytes`] reports the **modelled
//! on-disk** size of the SSTable format — keys prefix-compressed against
//! their predecessor — which is what the paper's space figure compares, not
//! the resident size of the arena.
//!
//! Counters (`gm-obs` registry, nothing under `GM_OBS=off`):
//! `storage.lsm.cells_scanned` and `storage.lsm.runs_probed` are added once
//! per scan or lookup, `storage.lsm.scans` and `storage.lsm.merged_scans`
//! once per scan (the share of scans that walk is one minus their ratio),
//! `storage.lsm.flushes` and `storage.lsm.compactions` once per event. A
//! scan's cells are the source entries it has handed on or stepped over,
//! tombstones included, and the one entry past the upper bound that a
//! bounded scan reads before it stops.

use std::cmp::Ordering;
use std::collections::btree_map::{self, BTreeMap};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

use gm_obs::Counter;

/// Key-value entry; `None` is a tombstone.
type MemEntry = Option<Vec<u8>>;

/// One entry as a source yields it: key, and value or `None` for a
/// tombstone.
type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// An immutable sorted run produced by a memtable flush or a compaction;
/// see the module docs for the layout.
#[derive(Debug)]
struct Run {
    keys: Vec<u8>,
    vals: Vec<u8>,
    /// `(key end, value end)` per entry, after a leading `(0, 0)`: entry
    /// `i` spans `ends[i]..ends[i + 1]` of each buffer.
    ends: Vec<(u32, u32)>,
    /// Bit `i` set: entry `i` is a tombstone (and has no value bytes).
    tomb: Vec<u64>,
    tombstones: u64,
    /// Modelled on-disk size; see [`LsmTable::bytes`].
    bytes: u64,
}

impl Run {
    /// An empty run with room for `entries` entries of the given total
    /// key and value bytes.
    fn with_capacity(entries: usize, key_bytes: usize, val_bytes: usize) -> Run {
        let mut ends = Vec::with_capacity(entries + 1);
        ends.push((0, 0));
        Run {
            keys: Vec::with_capacity(key_bytes),
            vals: Vec::with_capacity(val_bytes),
            ends,
            tomb: Vec::with_capacity(entries.div_ceil(64)),
            tombstones: 0,
            bytes: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.ends.len() - 1
    }

    #[inline]
    fn key(&self, i: usize) -> &[u8] {
        &self.keys[self.ends[i].0 as usize..self.ends[i + 1].0 as usize]
    }

    #[inline]
    fn entry(&self, i: usize) -> Option<Entry<'_>> {
        (i < self.len()).then(|| self.arena().entry(i))
    }

    #[inline]
    fn arena(&self) -> Arena<'_> {
        Arena {
            keys: &self.keys,
            vals: &self.vals,
            ends: &self.ends,
            tomb: &self.tomb,
        }
    }

    /// Index of the first entry whose key is not below `key`.
    fn lower_bound(&self, key: &[u8]) -> usize {
        self.partition(0, |k| k < key)
    }

    /// Index of the first entry from `from` on whose key `admits` refuses,
    /// given that it admits the keys before that entry and refuses the rest.
    fn partition(&self, from: usize, admits: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (from, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if admits(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The entry stored under `key`: `Some(None)` for a tombstone.
    fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        match self.entry(self.lower_bound(key))? {
            (k, value) if k == key => Some(value),
            _ => None,
        }
    }

    /// Append an entry; keys must arrive in strictly ascending order.
    ///
    /// Adds the entry's modelled SSTable footprint to `bytes`: sorted keys
    /// are **prefix-compressed** against their predecessor (the
    /// Cassandra/SSTable trick that, combined with the columnar engine's
    /// delta encoding, gives Titan its Figure 1 space win), plus a small
    /// per-entry header.
    fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        let i = self.len();
        let prev = if i == 0 { &[][..] } else { self.key(i - 1) };
        debug_assert!(i == 0 || prev < key, "run keys must ascend");
        let shared = prev.iter().zip(key).take_while(|(a, b)| a == b).count();
        self.bytes += (key.len() - shared) as u64 + value.map_or(1, |v| v.len() as u64) + 4;
        if i.is_multiple_of(64) {
            self.tomb.push(0);
        }
        match value {
            Some(v) => self.vals.extend_from_slice(v),
            None => {
                self.tomb[i / 64] |= 1 << (i % 64);
                self.tombstones += 1;
            }
        }
        self.keys.extend_from_slice(key);
        let end = |buf: &Vec<u8>| u32::try_from(buf.len()).expect("an LSM run stays under 4 GiB");
        self.ends.push((end(&self.keys), end(&self.vals)));
    }

    /// Freeze the run, giving back what `with_capacity` over-reserved.
    fn seal(mut self) -> Arc<Run> {
        self.keys.shrink_to_fit();
        self.vals.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.tomb.shrink_to_fit();
        Arc::new(self)
    }
}

/// A run's buffers as plain slices. A loop that holds this `Copy` view in
/// locals keeps the buffers' addresses in registers, where one that reads
/// them through a `&Run` loads them again for every entry.
#[derive(Debug, Clone, Copy)]
struct Arena<'a> {
    keys: &'a [u8],
    vals: &'a [u8],
    ends: &'a [(u32, u32)],
    tomb: &'a [u64],
}

impl<'a> Arena<'a> {
    fn len(self) -> usize {
        self.ends.len() - 1
    }

    /// Entry `i`, which must be below `len()`.
    #[inline]
    fn entry(self, i: usize) -> Entry<'a> {
        let ((key, value), (key_end, value_end)) = (self.ends[i], self.ends[i + 1]);
        let live = (self.tomb[i / 64] >> (i % 64)) & 1 == 0;
        (
            &self.keys[key as usize..key_end as usize],
            live.then(|| &self.vals[value as usize..value_end as usize]),
        )
    }
}

/// Tuning knobs for the LSM.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable once it holds this many entries.
    pub memtable_limit: usize,
    /// Compact once this many immutable runs accumulate.
    pub max_runs: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_limit: 4096,
            max_runs: 6,
        }
    }
}

/// Counters exposed for tests and the benchmark's space accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Completed memtable flushes.
    pub flushes: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Live tombstones across all runs.
    pub tombstones: u64,
}

/// The LSM table.
///
/// Runs are `Arc`-shared: once flushed they are immutable, so a `Clone` of
/// the whole table copies only the memtable (bounded by
/// [`LsmConfig::memtable_limit`]) and one `Arc` per run — the property the
/// columnar engine's snapshot path relies on. Compaction *replaces* the run
/// list with a freshly merged run; clones holding the old `Arc`s keep
/// reading the pre-compaction runs unchanged.
#[derive(Debug, Clone)]
pub struct LsmTable {
    mem: BTreeMap<Vec<u8>, MemEntry>,
    runs: Vec<Arc<Run>>, // oldest first
    config: LsmConfig,
    stats: LsmStats,
}

impl Default for LsmTable {
    fn default() -> Self {
        Self::new(LsmConfig::default())
    }
}

impl LsmTable {
    /// A new table with the given configuration.
    pub fn new(config: LsmConfig) -> Self {
        LsmTable {
            mem: BTreeMap::new(),
            runs: Vec::new(),
            config,
            stats: LsmStats::default(),
        }
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.mem.insert(key.to_vec(), Some(value.to_vec()));
        self.maybe_flush();
    }

    /// Delete a key by writing a tombstone (cheap, like Cassandra).
    pub fn delete(&mut self, key: &[u8]) {
        self.mem.insert(key.to_vec(), None);
        self.maybe_flush();
    }

    /// Point lookup; `None` for missing or tombstoned keys. The value is
    /// borrowed from the memtable or the run that holds it.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        if let Some(entry) = self.mem.get(key) {
            return entry.as_deref();
        }
        let mut probed = 0;
        let mut found = None;
        for run in self.runs.iter().rev() {
            probed += 1;
            if let Some(entry) = run.get(key) {
                found = entry;
                break;
            }
        }
        if let Some(c) = counters() {
            c.runs_probed.add(probed);
        }
        found
    }

    /// Whether a live value exists for `key`.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Iterate live `(key, value)` pairs whose key starts with `prefix`,
    /// in key order, with newest-version-wins and tombstone suppression.
    pub fn scan_prefix<'a>(&'a self, prefix: &'a [u8]) -> Scan<'a> {
        self.scan(prefix, Upper::Prefix(prefix))
    }

    /// Iterate live pairs with `lo <= key < hi`, in key order (no upper
    /// bound when `hi` is `None`).
    pub fn scan_range<'a>(&'a self, lo: &[u8], hi: Option<&'a [u8]>) -> Scan<'a> {
        self.scan(lo, hi.map_or(Upper::Unbounded, Upper::Below))
    }

    fn scan<'a>(&'a self, lo: &[u8], upper: Upper<'a>) -> Scan<'a> {
        // Newest first: the memtable, then the runs from the youngest.
        let mem = Source::Mem(
            self.mem
                .range::<[u8], _>((Bound::Included(lo), Bound::Unbounded)),
        );
        let runs = self
            .runs
            .iter()
            .rev()
            .map(|run| Source::Run(run, run.lower_bound(lo)));
        Scan {
            merge: Merge::new(std::iter::once(mem).chain(runs), upper),
            runs: self.runs.len() as u64,
        }
    }

    /// Count of live keys (scans everything; test/debug helper).
    pub fn live_len(&self) -> usize {
        self.scan_range(&[], None).count()
    }

    fn maybe_flush(&mut self) {
        if self.mem.len() >= self.config.memtable_limit {
            self.flush();
        }
    }

    /// Force the memtable into an immutable run.
    pub fn flush(&mut self) {
        if self.mem.is_empty() {
            return;
        }
        let mem = std::mem::take(&mut self.mem);
        let (key_bytes, val_bytes) = mem.iter().fold((0, 0), |(k, v), (key, value)| {
            (k + key.len(), v + value.as_ref().map_or(0, Vec::len))
        });
        let mut run = Run::with_capacity(mem.len(), key_bytes, val_bytes);
        for (key, value) in &mem {
            run.push(key, value.as_deref());
        }
        self.stats.tombstones += run.tombstones;
        self.runs.push(run.seal());
        self.stats.flushes += 1;
        if let Some(c) = counters() {
            c.flushes.inc();
        }
        if self.runs.len() > self.config.max_runs {
            self.compact_tail();
        }
    }

    /// Merge all runs into one, dropping shadowed versions and tombstones.
    pub fn compact(&mut self) {
        self.merge_suffix(0);
    }

    /// Tiered overflow compaction: merge only the **newest half** of the
    /// runs into one and leave the older base runs untouched.
    ///
    /// The full [`LsmTable::compact`] rewrites the entire store — including
    /// the big bulk-loaded base run — every time the run count overflows,
    /// which at small memtable sizes makes automatic compaction O(store)
    /// per few thousand writes (and the columnar engine's snapshot path
    /// tunes the memtable small precisely to keep freezes cheap). Tiering
    /// bounds automatic compaction work to the recently flushed tail; the
    /// base is rewritten only by an explicit `compact()` call.
    pub fn compact_tail(&mut self) {
        self.merge_suffix(self.config.max_runs / 2);
    }

    /// Merge the runs from index `keep` onward into one run: a streaming
    /// k-way merge of the sorted arenas into a new one (the old runs are
    /// only read — snapshot clones may still hold their `Arc`s). Tombstones
    /// are dropped only when the merge reaches the bottom level
    /// (`keep == 0`); higher merges must retain them because they may still
    /// shadow live entries in the base runs below.
    fn merge_suffix(&mut self, keep: usize) {
        if self.runs.len() <= keep.max(1) {
            return;
        }
        let tail = self.runs.split_off(keep);
        let mut merged = Run::with_capacity(
            tail.iter().map(|r| r.len()).sum(),
            tail.iter().map(|r| r.keys.len()).sum(),
            tail.iter().map(|r| r.vals.len()).sum(),
        );
        let sources = tail.iter().rev().map(|run| Source::Run(run, 0));
        for (key, value) in Merge::new(sources, Upper::Unbounded) {
            if keep > 0 || value.is_some() {
                merged.push(key, value);
            }
        }
        self.runs.push(merged.seal());
        self.stats.compactions += 1;
        self.stats.tombstones = self.runs.iter().map(|r| r.tombstones).sum();
        if let Some(c) = counters() {
            c.compactions.inc();
        }
    }

    /// Number of immutable runs currently on "disk".
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Counters for tests and reports.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// Approximate footprint: memtable + all runs (including shadowed
    /// versions and tombstones — that is the point of an LSM's space story).
    /// A run counts at its modelled on-disk size, keys prefix-compressed
    /// (see `Run::push`), not at the size of its in-memory arena.
    pub fn bytes(&self) -> u64 {
        let mem: u64 = self
            .mem
            .iter()
            .map(|(k, v)| k.len() as u64 + v.as_ref().map_or(1, |v| v.len() as u64) + 32)
            .sum();
        mem + self.runs.iter().map(|r| r.bytes).sum::<u64>()
    }
}

/// Exclusive upper bound of a scan.
#[derive(Debug, Clone)]
enum Upper<'a> {
    Unbounded,
    /// Stop before this key.
    Below(&'a [u8]),
    /// Stop at the first key that does not start with this prefix (the scan
    /// starts at the prefix, so such a key is past every key that does).
    Prefix(&'a [u8]),
}

impl Upper<'_> {
    fn admits(&self, key: &[u8]) -> bool {
        match self {
            Upper::Unbounded => true,
            Upper::Below(hi) => key < *hi,
            Upper::Prefix(prefix) => key.starts_with(prefix),
        }
    }
}

/// One sorted input of a merge, positioned after its head.
#[derive(Debug)]
enum Source<'a> {
    Mem(btree_map::Range<'a, Vec<u8>, MemEntry>),
    /// A run and the index of its next entry.
    Run(&'a Run, usize),
}

impl<'a> Source<'a> {
    /// The next entry. Inlined, like `Run::entry` below it, into the scan
    /// loops of other crates: a call per cell would cost more than the walk.
    #[inline]
    fn next(&mut self) -> Option<Entry<'a>> {
        match self {
            Source::Mem(range) => range.next().map(|(k, v)| (k.as_slice(), v.as_deref())),
            Source::Run(run, at) => {
                let entry = run.entry(*at)?;
                *at += 1;
                Some(entry)
            }
        }
    }

    /// The source's last key, if it holds one past its next entry.
    fn last_key(&self) -> Option<&'a [u8]> {
        match self {
            Source::Mem(range) => range.clone().next_back().map(|(k, _)| k.as_slice()),
            Source::Run(run, at) => (*at < run.len()).then(|| run.key(run.len() - 1)),
        }
    }
}

/// A source and its head: the entry it yields next.
type Cursor<'a> = (Option<Entry<'a>>, Source<'a>);

/// The key range a cursor still covers: its head key to its last key.
fn span<'a>((head, rest): &Cursor<'a>) -> (&'a [u8], &'a [u8]) {
    let first = head.map_or(&[][..], |(key, _)| key);
    (first, rest.last_key().unwrap_or(first))
}

/// Whether the cursors' key ranges are pairwise strictly disjoint.
fn disjoint(cursors: &[Cursor<'_>]) -> bool {
    cursors.iter().enumerate().all(|(i, a)| {
        let (a_first, a_last) = span(a);
        cursors[i + 1..].iter().all(|b| {
            let (b_first, b_last) = span(b);
            a_last < b_first || b_last < a_first
        })
    })
}

/// A walked run's entries `at..stop`, read back to back. `stop` is where
/// the scan's upper bound falls in the run, found once when the window
/// opens, so no walked key is compared with the bound; the entry at `stop`,
/// if the run has one, is the first key past it.
#[derive(Debug)]
struct Window<'a> {
    arena: Arena<'a>,
    /// Where the window opened: the run's head.
    start: usize,
    at: usize,
    stop: usize,
}

impl<'a> Window<'a> {
    /// The entries of `run` from `start` up to the first one `upper` does
    /// not admit.
    fn open(run: &'a Run, start: usize, upper: &Upper<'_>) -> Self {
        Window {
            arena: run.arena(),
            start,
            at: start,
            stop: run.partition(start, |key| upper.admits(key)),
        }
    }

    /// Hand `f` each live pair left in the window, until it fails. The view
    /// and the position live in locals while the loop runs.
    #[inline]
    fn drain<E>(
        &mut self,
        f: &mut impl FnMut(&'a [u8], &'a [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (arena, stop, mut at) = (self.arena, self.stop, self.at);
        while at < stop {
            at += 1;
            if let (key, Some(value)) = arena.entry(at - 1) {
                if let Err(e) = f(key, value) {
                    self.at = at;
                    return Err(e);
                }
            }
        }
        self.at = at;
        Ok(())
    }
}

impl<'a> Iterator for Window<'a> {
    type Item = Entry<'a>;

    #[inline]
    fn next(&mut self) -> Option<Entry<'a>> {
        if self.at == self.stop {
            return None;
        }
        self.at += 1;
        Some(self.arena.entry(self.at - 1))
    }
}

/// The sources of a scan or a compaction, ordered newest first, read in key
/// order up to the upper bound: each key once, with the newest source's
/// entry — tombstones included. Key-disjoint sources are walked one after
/// another, a run as a [`Window`] and the memtable entry by entry; any
/// others are k-way merged. See the module docs.
#[derive(Debug)]
struct Merge<'a> {
    /// The run a walk is reading.
    window: Option<Window<'a>>,
    /// The sources not yet drained. In a walk they are key-disjoint and
    /// sorted by descending key: the walk reads the last one and drops it
    /// once it is dry.
    cursors: Vec<Cursor<'a>>,
    walk: bool,
    upper: Upper<'a>,
    /// Source entries consumed so far, except by the open window.
    stepped: u64,
}

impl<'a> Merge<'a> {
    /// Position on `sources`, dropping those whose first key `upper` does
    /// not admit: their later keys are larger still.
    fn new(sources: impl Iterator<Item = Source<'a>>, upper: Upper<'a>) -> Self {
        let mut cursors: Vec<Cursor<'a>> = sources
            .map(|mut s| (s.next(), s))
            .filter(|(head, _)| head.is_some_and(|(key, _)| upper.admits(key)))
            .collect();
        let walk = disjoint(&cursors);
        if walk {
            cursors.sort_unstable_by(|(a, _), (b, _)| b.cmp(a));
        }
        Merge {
            window: None,
            cursors,
            walk,
            upper,
            stepped: 0,
        }
    }

    /// Source entries consumed so far.
    fn consumed(&self) -> u64 {
        let window = self.window.as_ref().map_or(0, |w| w.at - w.start);
        self.stepped + window as u64
    }

    /// Replace source `i`'s head with its next entry.
    fn step(&mut self, i: usize) {
        let (head, rest) = &mut self.cursors[i];
        *head = rest.next();
        self.stepped += 1;
    }

    /// The next entry once the open window, if any, is dry: the walk's next
    /// source, or the merge's next key.
    fn refill(&mut self) -> Option<Entry<'a>> {
        if let Some(window) = self.window.take() {
            self.stepped += (window.at - window.start) as u64;
            if window.stop < window.arena.len() {
                // The bound falls inside this run, past every later source:
                // the entry at `stop` is read, and the scan is over.
                self.stepped += 1;
                self.cursors.clear();
                return None;
            }
        }
        loop {
            let entry = if self.walk {
                let (head, rest) = self.cursors.last_mut()?;
                if let &mut Source::Run(run, at) = rest {
                    // The window opens on the head, read when the sources
                    // were sized up and admitted by the bound: it is not
                    // empty.
                    self.cursors.pop();
                    let mut window = Window::open(run, at - 1, &self.upper);
                    let entry = window.next();
                    self.window = Some(window);
                    return entry;
                }
                let Some(entry) = head.take().or_else(|| rest.next()) else {
                    self.cursors.pop();
                    continue;
                };
                self.stepped += 1;
                entry
            } else {
                self.merged()?
            };
            if !self.upper.admits(entry.0) {
                self.cursors.clear();
                return None;
            }
            return Some(entry);
        }
    }

    /// The k-way merge's next key.
    fn merged(&mut self) -> Option<Entry<'a>> {
        // One pass for the smallest head key; the newest source (lowest
        // index) wins ties. A head equal to the best so far is an older
        // version of that key: shadowed whatever wins, so it is stepped
        // over on the spot (its successor is larger and cannot win).
        let mut best: Option<(usize, Entry<'a>)> = None;
        for i in 0..self.cursors.len() {
            let Some(entry) = self.cursors[i].0 else {
                continue;
            };
            match best.map(|(_, b)| entry.0.cmp(b.0)) {
                None | Some(Ordering::Less) => best = Some((i, entry)),
                Some(Ordering::Equal) => self.step(i),
                Some(Ordering::Greater) => {}
            }
        }
        let (winner, entry) = best?;
        self.step(winner);
        Some(entry)
    }
}

impl<'a> Iterator for Merge<'a> {
    type Item = Entry<'a>;

    #[inline]
    fn next(&mut self) -> Option<Entry<'a>> {
        match self.window.as_mut().and_then(Window::next) {
            Some(entry) => Some(entry),
            None => self.refill(),
        }
    }
}

/// Borrowing cursor over the live pairs of a key range; see
/// [`LsmTable::scan_range`]. Read it as an iterator, or drain it with
/// [`Scan::visit`].
#[derive(Debug)]
pub struct Scan<'a> {
    merge: Merge<'a>,
    runs: u64,
}

impl<'a> Iterator for Scan<'a> {
    type Item = (&'a [u8], &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A tombstone suppresses the older versions the merge skipped;
            // a walk has none to suppress.
            if let (key, Some(value)) = self.merge.next()? {
                return Some((key, value));
            }
        }
    }
}

impl<'a> Scan<'a> {
    /// Whether this scan merges overlapping sources rather than walking
    /// key-disjoint ones back to back (see the module docs).
    pub fn merges(&self) -> bool {
        !self.merge.walk
    }

    /// Hand `f` every pair the iterator yields, in order, until `f` fails:
    /// its first error ends the visit and is returned. A walked run is
    /// drained in one loop; the memtable and a merge are read through
    /// [`Iterator::next`]. The scan consumes, and counts, the same entries
    /// the iterator would.
    pub fn visit<E>(
        mut self,
        mut f: impl FnMut(&'a [u8], &'a [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.drain(&mut f)
    }

    /// [`Scan::visit`], leaving the scan to its caller.
    fn drain<E>(
        &mut self,
        f: &mut impl FnMut(&'a [u8], &'a [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            if let Some(window) = &mut self.merge.window {
                window.drain(f)?;
            }
            match self.next() {
                Some((key, value)) => f(key, value)?,
                None => return Ok(()),
            }
        }
    }
}

impl Drop for Scan<'_> {
    fn drop(&mut self) {
        if let Some(c) = counters() {
            c.cells_scanned.add(self.merge.consumed());
            c.runs_probed.add(self.runs);
            c.scans.inc();
            c.merged_scans.add(u64::from(self.merges()));
        }
    }
}

struct LsmCounters {
    cells_scanned: Counter,
    runs_probed: Counter,
    scans: Counter,
    merged_scans: Counter,
    flushes: Counter,
    compactions: Counter,
}

/// The `storage.lsm.*` handles in the global registry, resolved on first
/// use; `None` (after one relaxed load) while counters are off.
fn counters() -> Option<&'static LsmCounters> {
    static COUNTERS: OnceLock<LsmCounters> = OnceLock::new();
    if !gm_obs::counters_on() {
        return None;
    }
    Some(COUNTERS.get_or_init(|| {
        let g = gm_obs::global();
        LsmCounters {
            cells_scanned: g.counter("storage.lsm.cells_scanned"),
            runs_probed: g.counter("storage.lsm.runs_probed"),
            scans: g.counter("storage.lsm.scans"),
            merged_scans: g.counter("storage.lsm.merged_scans"),
            flushes: g.counter("storage.lsm.flushes"),
            compactions: g.counter("storage.lsm.compactions"),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LsmTable {
        LsmTable::new(LsmConfig {
            memtable_limit: 8,
            max_runs: 3,
        })
    }

    #[test]
    fn put_get_delete() {
        let mut t = LsmTable::default();
        t.put(b"a", b"1");
        t.put(b"b", b"2");
        assert_eq!(t.get(b"a"), Some(&b"1"[..]));
        t.delete(b"a");
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.get(b"b"), Some(&b"2"[..]));
        assert!(!t.contains(b"c"));
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let mut t = small();
        for round in 0..5u8 {
            for k in 0..10u8 {
                t.put(&[k], &[round]);
            }
            t.flush();
        }
        for k in 0..10u8 {
            assert_eq!(t.get(&[k]), Some(&[4u8][..]));
        }
    }

    #[test]
    fn tombstone_survives_flush() {
        let mut t = small();
        t.put(b"x", b"1");
        t.flush();
        t.delete(b"x");
        t.flush();
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.live_len(), 0);
    }

    #[test]
    fn empty_value_is_not_a_tombstone() {
        let mut t = small();
        t.put(b"k", b"");
        t.put(b"gone", b"v");
        t.flush();
        t.delete(b"gone");
        t.flush();
        assert_eq!(t.get(b"k"), Some(&b""[..]));
        assert_eq!(t.get(b"gone"), None);
        t.compact_tail();
        assert_eq!(t.get(b"k"), Some(&b""[..]));
        let live: Vec<_> = t.scan_range(&[], None).collect();
        assert_eq!(live, vec![(&b"k"[..], &b""[..])]);
    }

    #[test]
    fn compaction_drops_tombstones_and_shrinks() {
        let mut t = small();
        for k in 0..100u8 {
            t.put(&[k], &[k]);
        }
        t.flush();
        for k in 0..50u8 {
            t.delete(&[k]);
        }
        t.flush();
        let before = t.bytes();
        t.compact();
        assert!(t.bytes() < before, "compaction reclaims space");
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.live_len(), 50);
        assert_eq!(t.stats().tombstones, 0);
        for k in 0..100u8 {
            assert_eq!(t.get(&[k]).is_some(), k >= 50);
        }
    }

    #[test]
    fn tail_compaction_keeps_tombstones_that_shadow_the_base() {
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000,
            max_runs: 2,
        });
        t.put(b"a", b"base");
        t.put(b"b", b"base");
        t.flush();
        t.delete(b"a");
        t.flush();
        t.put(b"b", b"new");
        t.flush(); // third run: overflow merges the two newest
        assert_eq!(t.run_count(), 2);
        assert_eq!(t.stats().tombstones, 1, "the tombstone still shadows run 0");
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.get(b"b"), Some(&b"new"[..]));
        t.compact();
        assert_eq!(t.stats().tombstones, 0);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn auto_flush_and_auto_compact() {
        let mut t = small();
        for k in 0..200u32 {
            t.put(&k.to_be_bytes(), b"v");
        }
        assert!(t.stats().flushes > 0, "memtable limit triggers flushes");
        assert!(t.run_count() <= 4, "max_runs bounds the run count");
        assert!(t.stats().compactions > 0);
        assert_eq!(t.live_len(), 200);
    }

    #[test]
    fn prefix_scan_merges_sources() {
        let mut t = small();
        // Rows keyed (vertex_id BE, column) like the columnar engine.
        for v in 0..4u32 {
            for c in 0..4u8 {
                let mut key = v.to_be_bytes().to_vec();
                key.push(c);
                t.put(&key, &[c]);
            }
            t.flush();
        }
        // Overwrite one column in the memtable and delete another.
        let mut k = 2u32.to_be_bytes().to_vec();
        k.push(1);
        t.put(&k, b"new");
        let mut k2 = 2u32.to_be_bytes().to_vec();
        k2.push(2);
        t.delete(&k2);

        let prefix = 2u32.to_be_bytes();
        let hits: Vec<(&[u8], &[u8])> = t.scan_prefix(&prefix).collect();
        assert_eq!(hits.len(), 3, "one column deleted");
        assert_eq!(hits[1].1, b"new");
        // Keys come back sorted.
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn prefix_scan_ends_at_the_prefix_even_at_ff() {
        let mut t = small();
        for key in [
            &[1u8, 0xFE][..],
            &[1, 0xFF],
            &[1, 0xFF, 0],
            &[2],
            &[0xFF, 0xFF],
        ] {
            t.put(key, b"v");
        }
        t.flush();
        let keys = |prefix: &[u8]| -> Vec<Vec<u8>> {
            t.scan_prefix(prefix).map(|(k, _)| k.to_vec()).collect()
        };
        assert_eq!(keys(&[1, 0xFF]), vec![vec![1, 0xFF], vec![1, 0xFF, 0]]);
        assert_eq!(keys(&[0xFF, 0xFF]), vec![vec![0xFF, 0xFF]]);
        assert_eq!(keys(&[]).len(), 5);
        assert!(keys(&[3]).is_empty());
    }

    #[test]
    fn scan_range_bounds() {
        let mut t = small();
        t.put(b"a", b"1");
        t.put(b"m", b"2");
        t.flush();
        t.put(b"z", b"3");
        assert_eq!(t.scan_range(b"", None).count(), 3);
        let mid: Vec<_> = t.scan_range(b"b", Some(b"z")).collect();
        assert_eq!(mid, vec![(&b"m"[..], &b"2"[..])]);
        let mut scan = t.scan_range(b"a", Some(b"m"));
        assert_eq!(scan.next(), Some((&b"a"[..], &b"1"[..])));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.next(), None, "a finished scan stays finished");
    }

    #[test]
    fn registry_counters_follow_reads_and_maintenance() {
        // The registry is process-wide and other tests run beside this
        // one, so each counter is checked to have moved by at least its
        // share.
        let read = |name: &str| gm_obs::global().counter(name).get();
        let names = [
            "cells_scanned",
            "runs_probed",
            "flushes",
            "compactions",
            "scans",
            "merged_scans",
        ]
        .map(|n| format!("storage.lsm.{n}"));
        let before = names.each_ref().map(|n| read(n));
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000,
            max_runs: 1_000,
        });
        for round in 0..3u8 {
            for k in 0..50u8 {
                t.put(&[k], &[round]);
            }
            t.flush();
        }
        assert_eq!(t.scan_range(&[], None).count(), 50);
        assert_eq!(t.get(&[7]), Some(&[2u8][..]), "newest run answers");
        assert_eq!(t.get(&[99]), None, "every run is probed for a miss");
        t.compact();
        assert_eq!(t.scan_range(&[], None).count(), 50, "one run: a walk");
        let moved: Vec<u64> = names.iter().zip(before).map(|(n, b)| read(n) - b).collect();
        assert!(
            moved[0] >= 150 + 50,
            "3 × 50 source entries, then 50: {moved:?}"
        );
        assert!(moved[1] >= 8, "scan 3, hit 1, miss 3, scan 1: {moved:?}");
        assert!(moved[2] >= 3 && moved[3] >= 1, "{moved:?}");
        assert!(
            moved[4] >= 2 && moved[5] >= 1,
            "two scans, one merged: {moved:?}"
        );
    }

    /// Owned `(key, value)` pairs.
    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// Collect a scan's pairs and whether it merged.
    fn read(scan: Scan<'_>) -> (Pairs, bool) {
        let merges = scan.merges();
        let pairs = scan.map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        (pairs, merges)
    }

    /// The pairs of one-byte keys, each valued by itself.
    fn cells(keys: impl IntoIterator<Item = u8>) -> Pairs {
        keys.into_iter().map(|k| (vec![k], vec![k])).collect()
    }

    /// A table of one run per `(first, end)` span of one-byte keys, each
    /// key valued by itself, and an empty memtable.
    fn runs_of(spans: &[(u8, u8)]) -> LsmTable {
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000,
            max_runs: 1_000,
        });
        for &(first, end) in spans {
            for k in first..end {
                t.put(&[k], &[k]);
            }
            t.flush();
        }
        t
    }

    #[test]
    fn disjoint_runs_are_walked_in_key_order() {
        // Flushed out of key order, so the walk must order the runs itself.
        let t = runs_of(&[(20, 30), (0, 10), (10, 20)]);
        assert_eq!(t.run_count(), 3);
        assert_eq!(read(t.scan_range(&[], None)), (cells(0..30), false));
        let mut scan = t.scan_range(&[], None);
        assert_eq!(scan.by_ref().count(), 30);
        assert_eq!(scan.next(), None, "a finished walk stays finished");
    }

    #[test]
    fn a_memtable_key_inside_a_run_forces_the_merge() {
        let mut t = runs_of(&[(0, 10), (10, 20)]);
        t.put(&[15], b"new");
        let mut want = cells(0..20);
        want[15].1 = b"new".to_vec();
        assert_eq!(read(t.scan_range(&[], None)), (want, true));
        // Past the second run, the memtable is disjoint again.
        t.flush();
        t.compact();
        t.put(&[40], &[40]);
        let mut want = cells(0..20);
        want[15].1 = b"new".to_vec();
        want.extend(cells([40]));
        assert_eq!(read(t.scan_range(&[], None)), (want, false));
    }

    #[test]
    fn a_newer_tombstone_over_an_older_run_forces_the_merge() {
        let mut t = runs_of(&[(0, 10)]);
        t.delete(&[4]);
        t.flush();
        assert_eq!(t.run_count(), 2);
        let want = cells((0..10).filter(|k| *k != 4));
        assert_eq!(read(t.scan_range(&[], None)), (want, true));
        // A tombstone for a key no other source holds shadows nothing.
        let mut t = runs_of(&[(0, 10)]);
        t.delete(&[30]);
        assert_eq!(read(t.scan_range(&[], None)), (cells(0..10), false));
    }

    #[test]
    fn range_bounds_inside_the_second_run_of_a_walk() {
        let t = runs_of(&[(0, 10), (10, 20), (20, 30)]);
        let (lo, hi) = ([12u8], [17u8]);
        assert_eq!(read(t.scan_range(&lo, Some(&hi))), (cells(12..17), false));
        // From inside the second run to past the last.
        assert_eq!(read(t.scan_range(&lo, None)), (cells(12..30), false));
        // A range that falls between two keys of a run yields nothing.
        let t = runs_of(&[(0, 10), (20, 30)]);
        assert_eq!(read(t.scan_range(&[12], Some(&[17]))), (vec![], false));
    }

    #[test]
    fn a_prefix_straddling_a_run_boundary_is_walked() {
        // Rows of (row, column) keys; the second run starts mid-row 1.
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000,
            max_runs: 1_000,
        });
        let key = |row: u8, column: u8| vec![row, column];
        for (row, column) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            t.put(&key(row, column), &[column]);
        }
        t.flush();
        for (row, column) in [(1, 2), (1, 3), (2, 0)] {
            t.put(&key(row, column), &[column]);
        }
        t.flush();
        let want: Vec<_> = (0..4).map(|c| (key(1, c), vec![c])).collect();
        assert_eq!(read(t.scan_prefix(&[1])), (want, false));
        assert_eq!(read(t.scan_prefix(&[2])).0, vec![(key(2, 0), vec![0])]);
        assert_eq!(read(t.scan_prefix(&[3])), (vec![], false));
    }

    #[test]
    fn visit_consumes_what_the_iterator_consumes() {
        // Two key-disjoint runs and a memtable above them, each ending in a
        // tombstone for a key no other source holds: a walk.
        let mut walked = LsmTable::new(LsmConfig {
            memtable_limit: 1_000,
            max_runs: 1_000,
        });
        for (keys, gone) in [(0..10, 10), (11..20, 20), (30..35, 35)] {
            for k in keys {
                walked.put(&[k], &[k]);
            }
            walked.delete(&[gone]);
            if gone < 35 {
                walked.flush();
            }
        }
        let full = walked.scan_range(&[], None);
        assert!(!full.merges());
        assert_eq!(full.merge.consumed(), 0, "heads count once they are read");
        let mut merged = walked.clone();
        merged.put(&[5], b"new");
        assert!(merged.scan_range(&[], None).merges());
        let bounds: [(&[u8], Option<&[u8]>); 4] = [
            (&[], None),
            (&[3], Some(&[15])),
            (&[12], Some(&[32])),
            (&[19], Some(&[40])),
        ];
        for t in [&walked, &merged] {
            let scans = bounds
                .iter()
                .map(|&(lo, hi)| (lo, hi.map_or(Upper::Unbounded, Upper::Below)))
                .chain([
                    (&[7u8][..], Upper::Prefix(&[7])),
                    (&[31], Upper::Prefix(&[31])),
                ]);
            for (lo, upper) in scans {
                let scan = || t.scan(lo, upper.clone());
                let pairs = scan().count();
                // Stopped at each pair, and run to the end (`pairs + 1`).
                for k in 1..=pairs + 1 {
                    let mut iterated = scan();
                    iterated.by_ref().take(k).for_each(drop);
                    let mut visited = scan();
                    let mut seen = 0;
                    let stopped = visited.drain(&mut |_, _| {
                        seen += 1;
                        if seen == k {
                            return Err(());
                        }
                        Ok(())
                    });
                    assert_eq!(stopped.is_err(), k <= pairs);
                    let what = format!("{lo:?} {upper:?} stopped at {k} of {pairs}");
                    assert_eq!(
                        visited.merge.consumed(),
                        iterated.merge.consumed(),
                        "{what}"
                    );
                }
            }
        }
        // Every entry is consumed, tombstones included; a bounded walk also
        // consumes the first key past its bound.
        let consumed = |mut scan: Scan<'_>| {
            scan.by_ref().for_each(drop);
            scan.merge.consumed()
        };
        assert_eq!(consumed(walked.scan_range(&[], None)), 27);
        assert_eq!(consumed(walked.scan_range(&[3], Some(&[15]))), 8 + 4 + 1);
        assert_eq!(consumed(walked.scan_range(&[12], Some(&[32]))), 9 + 2 + 1);
        assert_eq!(consumed(walked.scan_prefix(&[7])), 1 + 1);
    }

    #[test]
    fn bytes_grow_until_compaction() {
        // Disable auto-compaction so the growth is observable.
        let mut t = LsmTable::new(LsmConfig {
            memtable_limit: 1_000_000,
            max_runs: 1_000_000,
        });
        for k in 0..64u32 {
            t.put(&k.to_be_bytes(), &[0u8; 32]);
        }
        t.flush();
        let b1 = t.bytes();
        // Overwrite everything: space roughly doubles until compaction.
        for k in 0..64u32 {
            t.put(&k.to_be_bytes(), &[1u8; 32]);
        }
        t.flush();
        assert!(t.bytes() > b1);
        t.compact();
        assert!(
            t.bytes() <= b1 + 64,
            "post-compaction space back to ~one copy"
        );
    }
}
