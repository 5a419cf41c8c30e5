//! Hierarchical counter/histogram registry.
//!
//! Components register instruments by dotted path (`mem.l1i.misses`) and
//! keep the returned handle; increments are relaxed atomic ops on shared
//! storage, so handles can be cloned freely across pipeline stages and
//! worker threads. A [`RegistrySnapshot`] is a plain serializable map —
//! that is what lands in the result cache, suite reports, and JSON dumps.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per bit width of
/// a `u64` value (bucket `k` holds values with bit length `k`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonic counter handle. Clones share the same underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the counter. Counters are monotonic in normal
    /// operation; this exists only for the checkpoint-restore path,
    /// which rewinds every instrument to a snapshotted value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A power-of-two histogram handle: bucket `k` counts observations whose
/// bit length is `k` (0 → bucket 0, 1 → bucket 1, 2–3 → bucket 2, …).
/// Suited to occupancy and latency distributions where relative error is
/// what matters.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Overwrites the histogram's state from a snapshot
    /// (checkpoint-restore path; see [`Counter::set`]).
    fn restore(&self, snap: &HistogramSnapshot) {
        let dense = snap.to_dense();
        for (bucket, &n) in self.0.buckets.iter().zip(dense.iter()) {
            bucket.store(n, Ordering::Relaxed);
        }
        self.0.count.store(snap.count, Ordering::Relaxed);
        self.0.sum.store(snap.sum, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// The instrument registry. Cloning shares storage; `counter`/`histogram`
/// get-or-create by path, so two components naming the same path share
/// one cell (useful for cross-layer counters like wrong-path squashes).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Returns the counter registered at `path`, creating it on first use.
    pub fn counter(&self, path: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(path.to_string()).or_default().clone()
    }

    /// Returns the histogram registered at `path`, creating it on first use.
    pub fn histogram(&self, path: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(path.to_string())
            .or_default()
            .clone()
    }

    /// Rewinds every instrument to the values in `snap` — the
    /// checkpoint-restore path. Instruments registered in this registry
    /// but absent from the snapshot are zeroed (they did not exist, or
    /// held zero, when the snapshot was taken); snapshot paths not yet
    /// registered are created. Existing handles stay valid because the
    /// underlying cells are overwritten in place, never replaced.
    pub fn restore(&self, snap: &RegistrySnapshot) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (path, c) in &inner.counters {
            c.set(snap.counters.get(path).copied().unwrap_or(0));
        }
        for (path, h) in &inner.histograms {
            match snap.histograms.get(path) {
                Some(s) => h.restore(s),
                None => h.restore(&HistogramSnapshot::default()),
            }
        }
        for (path, &v) in &snap.counters {
            inner.counters.entry(path.clone()).or_default().set(v);
        }
        for (path, s) in &snap.histograms {
            inner.histograms.entry(path.clone()).or_default().restore(s);
        }
    }

    /// A serializable copy of every instrument's current state.
    ///
    /// Zero-valued counters and empty histograms are omitted: whether an
    /// instrument has been *registered* depends on which code paths have
    /// run, and a checkpoint digest must not distinguish a fresh machine
    /// from a restored one by which untouched instruments happen to
    /// exist. [`Registry::restore`] treats absent paths as zero, so the
    /// omission round-trips.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .filter_map(|(k, c)| {
                    let v = c.get();
                    (v != 0).then(|| (k.clone(), v))
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .filter_map(|(k, h)| {
                    let s = h.snapshot();
                    (s.count != 0 || s.sum != 0).then(|| (k.clone(), s))
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Serializable histogram state. Buckets are sparse `(index, count)`
/// pairs; bucket `k` covers values of bit length `k`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_dense(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut dense = [0u64; HISTOGRAM_BUCKETS];
        for &(i, n) in &self.buckets {
            if let Some(slot) = dense.get_mut(i as usize) {
                *slot += n;
            }
        }
        dense
    }

    fn from_dense(count: u64, sum: u64, dense: &[u64; HISTOGRAM_BUCKETS]) -> Self {
        HistogramSnapshot {
            count,
            sum,
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i as u32, n)))
                .collect(),
        }
    }

    /// Bucket-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut dense = self.to_dense();
        for &(i, n) in &other.buckets {
            if let Some(slot) = dense.get_mut(i as usize) {
                *slot += n;
            }
        }
        *self =
            HistogramSnapshot::from_dense(self.count + other.count, self.sum + other.sum, &dense);
    }

    /// Bucket-wise difference `self - earlier` (measurement windowing).
    /// Saturates at zero, so a snapshot from a different run cannot panic.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = self.to_dense();
        for (slot, &n) in dense.iter_mut().zip(earlier.to_dense().iter()) {
            *slot = slot.saturating_sub(n);
        }
        HistogramSnapshot::from_dense(
            self.count.saturating_sub(earlier.count),
            self.sum.saturating_sub(earlier.sum),
            &dense,
        )
    }
}

/// A point-in-time, serializable copy of a [`Registry`]. This is the type
/// that rides in cached run results and suite reports.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by path.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by path.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Value of the counter at `path` (0 when absent: snapshots and
    /// deltas omit counters that are zero or did not move).
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// True when no instrument recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.histograms.values().all(|h| h.count == 0)
    }

    /// Accumulates `other` into `self` (union of paths, values summed).
    /// Used to aggregate per-workload snapshots into suite totals.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (path, &v) in &other.counters {
            *self.counters.entry(path.clone()).or_insert(0) += v;
        }
        for (path, h) in &other.histograms {
            self.histograms.entry(path.clone()).or_default().merge(h);
        }
    }

    /// Instrument-wise difference `self - earlier`, dropping instruments
    /// that did not move. This is how a measurement window is carved out
    /// of whole-run telemetry: snapshot at measurement start, snapshot at
    /// the end, diff.
    ///
    /// An instrument created *after* `earlier` was taken has no baseline
    /// entry and appears in the delta with its full value — all of its
    /// activity happened inside the window. (Instruments are iterated
    /// from `self`, so late creation never silently drops data; the
    /// regression test below pins this.)
    pub fn delta_since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(path, &v)| {
                let before = earlier.counters.get(path).copied().unwrap_or(0);
                let delta = v.saturating_sub(before);
                (delta > 0).then(|| (path.clone(), delta))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(path, h)| {
                let delta = match earlier.histograms.get(path) {
                    Some(b) => h.delta_since(b),
                    None => h.clone(),
                };
                (delta.count > 0).then(|| (path.clone(), delta))
            })
            .collect();
        RegistrySnapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_by_path() {
        let r = Registry::default();
        let a = r.counter("ucp.walks_started");
        let b = r.counter("ucp.walks_started");
        a.add(2);
        b.inc();
        assert_eq!(r.snapshot().counters["ucp.walks_started"], 3);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let r = Registry::default();
        let h = r.histogram("mem.l1i.mshr_occupancy");
        for v in [0u64, 1, 2, 3, 5, 1024] {
            h.observe(v);
        }
        let snap = &r.snapshot().histograms["mem.l1i.mshr_occupancy"];
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1035);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 5 → 3; 1024 → 11.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!((snap.mean() - 1035.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merge_unions_and_sums() {
        let a_reg = Registry::default();
        a_reg.counter("pipeline.flushes").add(4);
        a_reg.histogram("mem.lat").observe(8);
        let b_reg = Registry::default();
        b_reg.counter("pipeline.flushes").add(6);
        b_reg.counter("ucp.walks_started").add(1);
        b_reg.histogram("mem.lat").observe(9);

        let mut merged = a_reg.snapshot();
        merged.merge(&b_reg.snapshot());
        assert_eq!(merged.counters["pipeline.flushes"], 10);
        assert_eq!(merged.counters["ucp.walks_started"], 1);
        let h = &merged.histograms["mem.lat"];
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![(4, 2)]); // 8 and 9 both have bit length 4
    }

    #[test]
    fn delta_isolates_measurement_window() {
        let r = Registry::default();
        let c = r.counter("frontend.uopc.mode_switches");
        let h = r.histogram("mem.l1i.mshr_occupancy");
        c.add(5);
        h.observe(3);
        let warmup_end = r.snapshot();
        c.add(7);
        h.observe(3);
        h.observe(100);
        let end = r.snapshot();

        let window = end.delta_since(&warmup_end);
        assert_eq!(window.counters["frontend.uopc.mode_switches"], 7);
        let hw = &window.histograms["mem.l1i.mshr_occupancy"];
        assert_eq!(hw.count, 2);
        assert_eq!(hw.sum, 103);
        assert_eq!(hw.buckets, vec![(2, 1), (7, 1)]);
    }

    #[test]
    fn delta_keeps_counters_created_after_baseline() {
        let r = Registry::default();
        r.counter("early.counter").add(2);
        r.histogram("early.hist").observe(1);
        let baseline = r.snapshot();
        // Instruments that first appear mid-window (e.g. the first UCP
        // walk happening after warmup) must show their full value.
        r.counter("late.counter").add(9);
        r.histogram("late.hist").observe(4);
        let window = r.snapshot().delta_since(&baseline);
        assert_eq!(window.counters.get("late.counter"), Some(&9));
        assert_eq!(window.histograms["late.hist"].count, 1);
        // Unmoved instruments are dropped, not reported as zero.
        assert!(!window.counters.contains_key("early.counter"));
        assert!(!window.histograms.contains_key("early.hist"));
    }

    #[test]
    fn restore_rewinds_all_instruments_and_keeps_handles_live() {
        let r = Registry::default();
        let c = r.counter("pipeline.flushes");
        let h = r.histogram("mem.lat");
        c.add(3);
        h.observe(8);
        let saved = r.snapshot();
        c.add(100);
        h.observe(9);
        r.counter("late.counter").add(7); // absent from `saved`
        r.restore(&saved);
        assert_eq!(r.snapshot(), saved, "late counter zeroed, rest rewound");
        // The pre-restore handle still points at the live cell.
        c.inc();
        assert_eq!(r.snapshot().counters["pipeline.flushes"], 4);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::default();
        r.counter("mem.l2.mshr_full_stalls").add(11);
        r.histogram("mem.lat").observe(77);
        let snap = r.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_detection() {
        let r = Registry::default();
        r.counter("a.b"); // registered but never incremented
        assert!(r.snapshot().is_empty());
        r.counter("a.b").inc();
        assert!(!r.snapshot().is_empty());
    }
}
