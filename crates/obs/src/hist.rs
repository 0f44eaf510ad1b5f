//! Log2 histograms: one plain-data type and its atomic recorder.
//!
//! [`HistSnapshot`] is the one histogram every layer reports: the workload
//! driver's per-worker latency histograms, the registry's snapshots, and
//! what crosses the wire in `GetStats`. Each driver worker owns one and
//! records into it with plain (non-atomic) writes — no sharing, no locks on
//! the hot path — and the driver [`merge`](HistSnapshot::merge)s them when
//! the run ends; merging is pure addition. [`AtomicHistogram`] is its
//! shared-write sibling for the registry: every field is an atomic updated
//! with relaxed ordering, so many threads record at once without locks, and
//! a concurrent [`snapshot`](AtomicHistogram::snapshot) may be torn *across*
//! fields (count vs sum) but never within one, which is the usual and
//! acceptable contract for monitoring data.
//!
//! Buckets are powers of two: bucket *i* (for `i >= 1`) holds values in
//! `[2^i, 2^(i+1))`, and bucket 0 spans `[0, 2)` — its floor is 0, not 1.
//! 64 buckets cover every `u64`, from sub-microsecond point reads to scans
//! that run for minutes. Quantiles interpolate inside the hit bucket and are
//! clamped to the exact observed extrema, so `p99 <= max` always holds.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of power-of-two buckets (covers all of `u64`).
pub const BUCKETS: usize = 64;

/// Bucket index for a value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    63 - v.max(1).leading_zeros() as usize
}

/// Inclusive lower bound of bucket `i`: 0 for bucket 0 (it spans `[0, 2)`,
/// catching both 0 and 1), `2^i` otherwise.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Width of bucket `i`: 2 for bucket 0, `2^i` otherwise.
pub fn bucket_width(i: usize) -> u64 {
    if i == 0 {
        2
    } else {
        1u64 << i
    }
}

/// Human-friendly nanosecond formatting, shared by every latency renderer
/// (histogram sketches here, the scaling table in `gm-core`, the sweeps).
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

/// A log2 histogram whose every field is atomic: record from any thread,
/// snapshot from any thread, no locks anywhere.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (relaxed atomics; sum saturates).
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        // fetch_add would wrap; monitoring sums must saturate like the
        // plain histogram's. A rare lost race under-counts the sum by one
        // observation, which monitoring tolerates.
        let _ = self
            .sum
            .fetch_update(Relaxed, Relaxed, |s| Some(s.saturating_add(v)));
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Copy the current contents into a plain histogram (no exemplars: the
    /// registry records values, not traced ops).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            ..HistSnapshot::default()
        }
    }

    /// Reset every field to the empty state (used between stats intervals).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// A plain-data log2 histogram: what a driver worker records into, what
/// snapshots and merges, and (without its exemplars) what crosses the wire.
///
/// Next to each bucket count it can retain an **exemplar**: the trace id
/// of the most recent op that landed in that bucket *and* was captured by
/// the flight recorder ([`crate::trace`]). Exemplars turn an aggregate
/// quantile back into a concrete op — [`p99_exemplar`](Self::p99_exemplar)
/// names a retrievable trace record from the p99's bucket neighborhood.
/// They are process-local: the wire codec ships counts and scalars only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (index = log2 bucket).
    pub counts: [u64; BUCKETS],
    /// Per-bucket trace-id exemplars (0 = none).
    pub exemplars: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; BUCKETS],
            exemplars: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// An empty histogram.
    pub fn new() -> Self {
        HistSnapshot::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Record one observation together with its trace exemplar.
    ///
    /// `trace_id` is the flight-recorder id of this op, or 0 when the op was
    /// not captured (tracing off, or the record lost the ring slot race). The
    /// caller passes a nonzero id **only for ops whose trace record actually
    /// landed in the ring**, which is what keeps every reported exemplar
    /// resolvable back to a retrievable record.
    #[inline]
    pub fn record_traced(&mut self, nanos: u64, trace_id: u64) {
        self.record(nanos);
        if trace_id != 0 {
            self.exemplars[bucket_of(nanos)] = trace_id;
        }
    }

    /// Fold another histogram into this one (pure addition on the counts:
    /// associative and commutative, the property the registry merge tests
    /// pin down).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        // Exemplars are "any representative wins": a nonzero incoming
        // exemplar replaces ours, since merge order follows worker order and
        // any captured op from the bucket serves equally as its exemplar.
        for (a, b) in self.exemplars.iter_mut().zip(other.exemplars.iter()) {
            if *b != 0 {
                *a = *b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts (index = log2 of the value).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Index of the bucket holding the observation of rank `ceil(q·count)`
    /// (`None` when empty), and how many observations sit below it.
    fn rank_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= target {
                return Some((i, seen, target));
            }
            seen += c;
        }
        None
    }

    /// The value at quantile `q` in `[0, 1]`, linearly interpolated inside
    /// the hit bucket by rank and clamped to the observed extrema.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        match self.rank_bucket(q) {
            Some((i, seen, target)) => {
                let into = (target - seen - 1) as f64 / self.counts[i] as f64;
                let est = bucket_floor(i) as f64 + into * bucket_width(i) as f64;
                (est as u64).clamp(self.min_nanos(), self.max)
            }
            None => self.max,
        }
    }

    /// The trace exemplar nearest the p99: the retained trace id from the
    /// p99's own bucket, or — when that bucket holds none — from the closest
    /// bucket above it (a *worse* op, never a flattering faster one). Returns
    /// 0 when no exemplar is available at or above the p99 bucket.
    pub fn p99_exemplar(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let hit = self.rank_bucket(0.99).map_or(BUCKETS - 1, |(i, _, _)| i);
        self.exemplars[hit..]
            .iter()
            .copied()
            .find(|&id| id != 0)
            .unwrap_or(0)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Render a compact text sketch of a latency histogram: one line per
    /// non-empty bucket with a proportional bar, then the summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat((c * 40).div_ceil(peak) as usize);
            out.push_str(&format!(
                "{:>12} | {bar} {c}\n",
                format_nanos(bucket_floor(i))
            ));
        }
        out.push_str(&format!(
            "count={} mean={} p50={} p95={} p99={} max={}\n",
            self.count,
            format_nanos(self.mean_nanos()),
            format_nanos(self.p50()),
            format_nanos(self.p95()),
            format_nanos(self.p99()),
            format_nanos(self.max_nanos()),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        // The floor of every bucket must be a value that lands in that
        // bucket — in particular bucket 0's floor is 0, not 1 (the bucket
        // spans [0, 2)).
        for i in 0..BUCKETS {
            let floor = bucket_floor(i);
            assert_eq!(
                bucket_of(floor),
                i,
                "floor({i}) = {floor} must fall inside bucket {i}"
            );
        }
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 2);
        assert_eq!(bucket_width(0), 2);
        assert_eq!(bucket_width(1), 2);
        assert_eq!(bucket_width(10), 1024);
    }

    #[test]
    fn bucketing_matches_workload_rule() {
        // The driver's plain recorder and the registry's atomic recorder
        // file every value under the same bucket_of rule.
        let atomic = AtomicHistogram::new();
        for v in [0u64, 1, 2, 3, 1023, 1024, 1025, 1 << 40, u64::MAX] {
            let mut plain = HistSnapshot::new();
            plain.record(v);
            atomic.record(v);
            let i = bucket_of(v);
            assert_eq!(plain.buckets()[i], 1, "value {v} belongs in bucket {i}");
            assert_eq!(plain.buckets().iter().sum::<u64>(), 1);
            assert!(bucket_floor(i) <= v);
            assert!(v - bucket_floor(i) < bucket_width(i));
        }
        let s = atomic.snapshot();
        assert_eq!(s.buckets()[0], 2);
        assert_eq!(s.buckets()[1], 2);
        assert_eq!(s.buckets()[9], 1);
        assert_eq!(s.buckets()[10], 2);
        assert_eq!(s.buckets()[40], 1);
        assert_eq!(s.buckets()[63], 1);
    }

    #[test]
    fn lowest_bucket_labels_and_quantiles() {
        // All-zero observations quantile to 0, and render labels the lowest
        // bucket with its true floor (0ns), not 1ns.
        let mut h = HistSnapshot::new();
        for _ in 0..4 {
            h.record(0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.render().contains("0ns"), "{}", h.render());
        // A 0-and-1 mix interpolates within [0, 2) instead of above it.
        let mut h = HistSnapshot::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn counts_and_extrema() {
        let mut h = HistSnapshot::new();
        for v in [10, 20, 30, 4000, 5_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_nanos(), 10);
        assert_eq!(h.max_nanos(), 5_000_000);
        assert_eq!(h.sum_nanos(), 5_004_060);
        assert_eq!(h.mean_nanos(), 1_000_812);
    }

    #[test]
    fn record_snapshot_reset() {
        let h = AtomicHistogram::new();
        let mut plain = HistSnapshot::new();
        for v in [10u64, 20, 30, 4000, 5_000_000] {
            h.record(v);
            plain.record(v);
        }
        // The atomic recorder and the plain one agree field for field.
        let s = h.snapshot();
        assert_eq!(s, plain);
        assert_eq!(s.min_nanos(), 10);
        assert_eq!(s.mean_nanos(), 1_000_812);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s, HistSnapshot::default());
        assert_eq!(s.min_nanos(), 0);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = HistSnapshot::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max_nanos());
        // p50 of 100..100_000 uniform should land within a 2x log2 bucket
        // of the true median 50_000.
        assert!((25_000..=100_000).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(0.0), h.min_nanos());
        assert_eq!(h.quantile(1.0), h.max_nanos());
    }

    #[test]
    fn quantiles_ordered_and_clamped() {
        // The same ordering and clamping holds for a snapshot of the atomic
        // recorder, whose min starts at u64::MAX rather than 0.
        let h = AtomicHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let s = h.snapshot();
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max_nanos());
        assert_eq!(s.quantile(0.0), s.min_nanos());
        assert_eq!(s.quantile(0.0), 100);
        assert_eq!(s.quantile(1.0), s.max_nanos());
        assert_eq!(s.quantile(1.0), 100_000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = HistSnapshot::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0);
        assert_eq!(h.p99_exemplar(), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        // Plain per-worker histograms and atomic registry histograms merge
        // into exactly what recording everything in one would give.
        let (mut a, mut b, mut all) = (
            HistSnapshot::new(),
            HistSnapshot::new(),
            HistSnapshot::new(),
        );
        let (aa, ab) = (AtomicHistogram::new(), AtomicHistogram::new());
        for i in 0..500u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
                aa.record(v);
            } else {
                b.record(v);
                ab.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.p99(), all.p99());
        let mut atomic = aa.snapshot();
        atomic.merge(&ab.snapshot());
        assert_eq!(atomic, all);
    }

    #[test]
    fn exemplars_resolve_the_p99_neighborhood() {
        let mut h = HistSnapshot::new();
        // 990 fast ops (bucket of 1000ns), no exemplars — below the sampling
        // radar — then 10 slow ops, one of them captured with a trace id.
        for _ in 0..990 {
            h.record_traced(1_000, 0);
        }
        for i in 0..10u64 {
            let id = if i == 3 { 0xAAAA } else { 0 };
            h.record_traced(4_000_000, id);
        }
        // p99 rank 990 falls in the fast bucket, which has no exemplar; the
        // nearest-above rule surfaces the slow bucket's captured op.
        assert_eq!(h.p99_exemplar(), 0xAAAA);
        // A later captured op in the same bucket replaces the earlier one.
        h.record_traced(4_100_000, 0xBBBB);
        assert_eq!(h.p99_exemplar(), 0xBBBB);
        // No exemplars anywhere -> 0.
        let mut bare = HistSnapshot::new();
        bare.record_traced(500, 0);
        assert_eq!(bare.p99_exemplar(), 0);
    }

    #[test]
    fn merge_carries_exemplars() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        a.record_traced(2_000_000, 0x1111);
        b.record_traced(2_000_000, 0x2222);
        b.record_traced(130, 0x3333);
        a.merge(&b);
        // b's nonzero exemplar wins the shared bucket; b's exclusive bucket
        // arrives intact.
        assert_eq!(a.exemplars[bucket_of(2_000_000)], 0x2222);
        assert_eq!(a.exemplars[bucket_of(130)], 0x3333);
        // Merging an exemplar-free histogram erases nothing.
        a.merge(&HistSnapshot::new());
        assert_eq!(a.exemplars[bucket_of(130)], 0x3333);
    }

    #[test]
    fn render_mentions_tail() {
        let mut h = HistSnapshot::new();
        h.record(1_500);
        h.record(3_000_000);
        let text = h.render();
        assert!(text.contains("count=2"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_500), "1.5µs");
        assert_eq!(format_nanos(3_000_000), "3.0ms");
        assert_eq!(format_nanos(2_500_000_000), "2.50s");
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
        assert_eq!(h.snapshot().buckets().iter().sum::<u64>(), 40_000);
    }
}
