//! Simulation statistics: everything the paper's tables and figures need.
//!
//! The telemetry registry is the only place an event is counted: each
//! site bumps one registry counter, through warm-up and measurement
//! alike. [`SimStats`] is a view of one measurement window, built once by
//! [`SimStats::from_window`] from the registry's delta over the window.
//! [`paths`] names the counters this crate increments; the µ-op cache
//! and memory counters it reads are defined by their own crates.

use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use ucp_bpred::Provider;
use ucp_frontend::{UOPC_HITS_PATH, UOPC_MISSES_PATH};
use ucp_mem::{L1I_DEMAND_LOOKUPS_PATH, L1I_DEMAND_LOOKUP_MISSES_PATH};
use ucp_telemetry::interval::INSTRET_PATH;
use ucp_telemetry::{Counter, Registry, RegistrySnapshot};

/// Registry paths of the events the pipeline and the UCP engine count.
/// Each is the counter behind the [`SimStats`] field of the same name, or
/// (`UCP_*`) the [`UcpStats`] field; the exceptions say what they count.
pub mod paths {
    pub const BTB_RESTEERS: &str = "pipeline.btb_resteers";
    pub const INDIRECT_MISPREDICTS: &str = "pipeline.indirect_mispredicts";
    /// `SimStats::h2p_tage` and `h2p_ucp` counts (their `mispredicted`
    /// is `cond_mispredicts`).
    pub const H2P_TAGE_MARKED: &str = "pipeline.h2p.tage.marked";
    pub const H2P_TAGE_MARKED_MISPREDICTED: &str = "pipeline.h2p.tage.marked_mispredicted";
    pub const H2P_UCP_MARKED: &str = "pipeline.h2p.ucp.marked";
    pub const H2P_UCP_MARKED_MISPREDICTED: &str = "pipeline.h2p.ucp.marked_mispredicted";
    pub const MODE_SWITCHES: &str = "frontend.uopc.mode_switches";
    /// `SimStats::uop_hits`: lookups whose entry covered the whole block.
    pub const UOP_HITS: &str = "frontend.uopc.block_hits";
    pub const UOPS_FROM_UOP_CACHE: &str = "frontend.uops_from_uop_cache";
    pub const UOPS_FROM_DECODE: &str = "frontend.uops_from_decode";
    pub const MRC_STREAMED_UOPS: &str = "frontend.mrc.streamed_uops";
    pub const L1I_PREFETCHES_ISSUED: &str = "prefetch.l1i_issued";
    pub const UCP_WALKS_STARTED: &str = "ucp.walks_started";
    pub const UCP_PREEMPTED: &str = "ucp.walks_preempted";
    /// Walks that stopped, for any of the four `UCP_STOPPED_*` reasons.
    pub const UCP_WALKS_STOPPED: &str = "ucp.walks_stopped";
    pub const UCP_STOPPED_THRESHOLD: &str = "ucp.stopped_threshold";
    pub const UCP_STOPPED_BTB_MISS: &str = "ucp.stopped_btb_miss";
    pub const UCP_STOPPED_INDIRECT: &str = "ucp.stopped_indirect";
    pub const UCP_STOPPED_NO_BRANCH: &str = "ucp.stopped_no_branch";
    pub const UCP_LINES_PREFETCHED: &str = "ucp.lines_prefetched";
    pub const UCP_ENTRIES_INSERTED: &str = "ucp.entries_inserted";
    pub const UCP_TIMELY_USED: &str = "ucp.timely_used";
    pub const UCP_LATE_USED: &str = "ucp.late_used";
    pub const UCP_FILTERED_PRESENT: &str = "ucp.filtered_present";
    pub const UCP_BTB_CONFLICTS: &str = "ucp.btb_conflicts";
    pub const UCP_DEMAND_STEALS: &str = "ucp.demand_window_steals";
    pub const UCP_ALT_DECODED_UOPS: &str = "ucp.alt_decoded_uops";
}

/// A counter pair (events, mispredictions) used by the Fig. 6 buckets.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BucketCount {
    /// Predictions observed in this bucket.
    pub preds: u64,
    /// Of those, mispredictions.
    pub misses: u64,
}

impl BucketCount {
    /// Miss rate in percent; 0 when empty.
    pub fn miss_rate_pct(&self) -> f64 {
        if self.preds == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.preds as f64
        }
    }
}

/// H2P classification counters for one confidence estimator (Fig. 9).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct H2pCounts {
    /// Conditional predictions marked H2P.
    pub marked: u64,
    /// Marked predictions that actually mispredicted.
    pub marked_mispredicted: u64,
    /// All conditional mispredictions.
    pub mispredicted: u64,
}

impl H2pCounts {
    /// Coverage: mispredictions that were marked H2P, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.mispredicted == 0 {
            0.0
        } else {
            100.0 * self.marked_mispredicted as f64 / self.mispredicted as f64
        }
    }

    /// Accuracy: marked H2P predictions that mispredicted, in percent.
    pub fn accuracy_pct(&self) -> f64 {
        if self.marked == 0 {
            0.0
        } else {
            100.0 * self.marked_mispredicted as f64 / self.marked as f64
        }
    }
}

/// UCP engine statistics (§VI-C/D and Fig. 13–15).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UcpStats {
    /// Alternate paths started (H2P triggers).
    pub walks_started: u64,
    /// Walks stopped by the saturating-weight threshold.
    pub stopped_threshold: u64,
    /// Walks stopped by a BTB miss (weight ∞).
    pub stopped_btb_miss: u64,
    /// Walks stopped by an indirect branch without Alt-Ind.
    pub stopped_indirect: u64,
    /// Walks stopped by the branch-free instruction counter.
    pub stopped_no_branch: u64,
    /// Walks preempted by a newer H2P trigger.
    pub preempted: u64,
    /// Cache lines prefetched by the alternate path.
    pub lines_prefetched: u64,
    /// µ-op cache entries inserted by the alternate path.
    pub entries_inserted: u64,
    /// Prefetched entries first-used while their trigger was recent
    /// (timely, the Fig. 14 numerator).
    pub timely_used: u64,
    /// Prefetched entries first-used later (the "used even though the
    /// alternate path was wrong for this instance" 8% statistic).
    pub late_used: u64,
    /// Tag checks filtered because the entry was already cached.
    pub filtered_present: u64,
    /// Alternate-path BTB bank conflicts observed.
    pub btb_conflicts: u64,
    /// Demand windows the alternate path stole after saturating the
    /// 3-bit conflict counter.
    pub demand_steals: u64,
    /// µ-ops decoded by the alternate decoders.
    pub alt_decoded_uops: u64,
}

impl UcpStats {
    /// The engine's counts over one measurement window, read from the
    /// window's registry delta.
    pub fn from_window(window: &RegistrySnapshot) -> UcpStats {
        let c = |path: &str| window.counter(path);
        UcpStats {
            walks_started: c(paths::UCP_WALKS_STARTED),
            stopped_threshold: c(paths::UCP_STOPPED_THRESHOLD),
            stopped_btb_miss: c(paths::UCP_STOPPED_BTB_MISS),
            stopped_indirect: c(paths::UCP_STOPPED_INDIRECT),
            stopped_no_branch: c(paths::UCP_STOPPED_NO_BRANCH),
            preempted: c(paths::UCP_PREEMPTED),
            lines_prefetched: c(paths::UCP_LINES_PREFETCHED),
            entries_inserted: c(paths::UCP_ENTRIES_INSERTED),
            timely_used: c(paths::UCP_TIMELY_USED),
            late_used: c(paths::UCP_LATE_USED),
            filtered_present: c(paths::UCP_FILTERED_PRESENT),
            btb_conflicts: c(paths::UCP_BTB_CONFLICTS),
            demand_steals: c(paths::UCP_DEMAND_STEALS),
            alt_decoded_uops: c(paths::UCP_ALT_DECODED_UOPS),
        }
    }

    /// Prefetch accuracy at entry granularity (Fig. 14): timely / inserted.
    pub fn prefetch_accuracy_pct(&self) -> f64 {
        if self.entries_inserted == 0 {
            0.0
        } else {
            100.0 * self.timely_used as f64 / self.entries_inserted as f64
        }
    }

    /// Share of inserted entries used late (§VI-D's 8%).
    pub fn late_use_pct(&self) -> f64 {
        if self.entries_inserted == 0 {
            0.0
        } else {
            100.0 * self.late_used as f64 / self.entries_inserted as f64
        }
    }
}

/// Full per-run statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Instructions committed in the measurement window.
    pub instructions: u64,
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// µ-ops delivered from the µ-op cache.
    pub uops_from_uop_cache: u64,
    /// µ-ops delivered through L1I + decoders.
    pub uops_from_decode: u64,
    /// Stream↔build mode switches.
    pub mode_switches: u64,
    /// Conditional branches resolved.
    pub cond_branches: u64,
    /// Conditional branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-branch mispredictions (including returns).
    pub indirect_mispredicts: u64,
    /// BTB-miss re-steers charged.
    pub btb_resteers: u64,
    /// L1I demand accesses / misses (measurement window).
    pub l1i_accesses: u64,
    /// L1I demand misses.
    pub l1i_misses: u64,
    /// µ-op cache demand lookups (window granularity).
    pub uop_lookups: u64,
    /// µ-op cache demand hits.
    pub uop_hits: u64,
    /// Prefetches issued by the standalone L1I prefetcher.
    pub l1i_prefetches_issued: u64,
    /// µ-ops streamed by the MRC on misprediction hits.
    pub mrc_streamed_uops: u64,
    /// Per-(provider, counter-bucket) misprediction counts (Fig. 6).
    #[serde(with = "map_as_pairs")]
    pub provider_buckets: BTreeMap<(Provider, i32), BucketCount>,
    /// Per-provider totals (Fig. 7).
    #[serde(with = "map_as_pairs")]
    pub provider_totals: BTreeMap<Provider, BucketCount>,
    /// TAGE-Conf H2P classification (Fig. 9).
    pub h2p_tage: H2pCounts,
    /// UCP-Conf H2P classification (Fig. 9).
    pub h2p_ucp: H2pCounts,
    /// UCP engine statistics.
    pub ucp: UcpStats,
}

impl SimStats {
    /// The statistics of one measurement window. `window` is the
    /// registry's delta over the window and `cycles` its length in
    /// cycles, which is taken from the clock rather than the accounting
    /// total so that the accounting check in `run_full` stays a check.
    pub fn from_window(window: &RegistrySnapshot, cycles: u64) -> SimStats {
        let c = |path: &str| window.counter(path);
        let mut s = SimStats {
            instructions: c(INSTRET_PATH),
            cycles,
            uops_from_uop_cache: c(paths::UOPS_FROM_UOP_CACHE),
            uops_from_decode: c(paths::UOPS_FROM_DECODE),
            mode_switches: c(paths::MODE_SWITCHES),
            indirect_mispredicts: c(paths::INDIRECT_MISPREDICTS),
            btb_resteers: c(paths::BTB_RESTEERS),
            l1i_accesses: c(L1I_DEMAND_LOOKUPS_PATH),
            l1i_misses: c(L1I_DEMAND_LOOKUP_MISSES_PATH),
            // The pipeline is the only caller of `UopCache::lookup`.
            uop_lookups: c(UOPC_HITS_PATH) + c(UOPC_MISSES_PATH),
            uop_hits: c(paths::UOP_HITS),
            l1i_prefetches_issued: c(paths::L1I_PREFETCHES_ISSUED),
            mrc_streamed_uops: c(paths::MRC_STREAMED_UOPS),
            ucp: UcpStats::from_window(window),
            ..SimStats::default()
        };
        for provider in Provider::ALL {
            for &bucket in bucket_keys(provider) {
                let preds = c(&provider_path(provider, bucket, "preds"));
                if preds == 0 {
                    continue;
                }
                let b = BucketCount {
                    preds,
                    misses: c(&provider_path(provider, bucket, "misses")),
                };
                s.provider_buckets.insert((provider, bucket), b);
                let t = s.provider_totals.entry(provider).or_default();
                t.preds += b.preds;
                t.misses += b.misses;
                s.cond_branches += b.preds;
                s.cond_mispredicts += b.misses;
            }
        }
        // Every resolved conditional branch is classified by both
        // estimators, so both see every misprediction.
        let h2p = |marked, marked_mispredicted| H2pCounts {
            marked: c(marked),
            marked_mispredicted: c(marked_mispredicted),
            mispredicted: s.cond_mispredicts,
        };
        s.h2p_tage = h2p(paths::H2P_TAGE_MARKED, paths::H2P_TAGE_MARKED_MISPREDICTED);
        s.h2p_ucp = h2p(paths::H2P_UCP_MARKED, paths::H2P_UCP_MARKED_MISPREDICTED);
        s
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// µ-op cache hit rate at the µ-op level, in percent: the fraction of
    /// delivered µ-ops that came from the µ-op cache (the paper's Fig. 3
    /// per-instruction hit rate).
    pub fn uop_hit_rate_pct(&self) -> f64 {
        let total = self.uops_from_uop_cache + self.uops_from_decode;
        if total == 0 {
            0.0
        } else {
            100.0 * self.uops_from_uop_cache as f64 / total as f64
        }
    }

    /// Mode switches per kilo-instruction (Fig. 3).
    pub fn switch_pki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.mode_switches as f64 / self.instructions as f64
        }
    }

    /// Conditional-branch MPKI (Fig. 11).
    pub fn cond_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.cond_mispredicts as f64 / self.instructions as f64
        }
    }

    /// L1I miss rate in percent.
    pub fn l1i_miss_rate_pct(&self) -> f64 {
        if self.l1i_accesses == 0 {
            0.0
        } else {
            100.0 * self.l1i_misses as f64 / self.l1i_accesses as f64
        }
    }

    /// Records one resolved conditional prediction into the Fig. 6/7
    /// buckets. `value` is the provider-specific confidence value
    /// (counter, SC sum, or loop confidence); SC sums are bucketed by
    /// magnitude range like the paper's Fig. 6b.
    pub fn record_provider(&mut self, provider: Provider, value: i32, mispredicted: bool) {
        let b = self
            .provider_buckets
            .entry((provider, bucket_of(provider, value)))
            .or_default();
        b.preds += 1;
        b.misses += u64::from(mispredicted);
        let t = self.provider_totals.entry(provider).or_default();
        t.preds += 1;
        t.misses += u64::from(mispredicted);
    }

    /// Share of all mispredictions attributed to `provider`, in percent
    /// (Fig. 7).
    pub fn provider_miss_share_pct(&self, provider: Provider) -> f64 {
        let total: u64 = self.provider_totals.values().map(|b| b.misses).sum();
        if total == 0 {
            return 0.0;
        }
        let own = self.provider_totals.get(&provider).map_or(0, |b| b.misses);
        100.0 * own as f64 / total as f64
    }
}

/// The Fig. 6 buckets of `provider`: every value of the counter it
/// reports (3-bit TAGE counters, 2-bit bimodal counters, 3-bit loop
/// confidence), or the four SC-sum magnitude ranges.
fn bucket_keys(provider: Provider) -> &'static [i32] {
    match provider {
        Provider::HitBank | Provider::AltBank => &[-4, -3, -2, -1, 0, 1, 2, 3],
        Provider::Bimodal | Provider::BimodalLow8 => &[-2, -1, 0, 1],
        Provider::LoopPred => &[0, 1, 2, 3, 4, 5, 6, 7],
        Provider::Sc => &[0, 32, 64, 128],
    }
}

/// The bucket a confidence `value` of `provider` falls in.
fn bucket_of(provider: Provider, value: i32) -> i32 {
    match provider {
        Provider::Sc => match value.unsigned_abs() {
            0..=31 => 0,
            32..=63 => 32,
            64..=127 => 64,
            _ => 128,
        },
        _ => value,
    }
}

/// Registry path of one bucket's `preds` or `misses` counter.
fn provider_path(provider: Provider, bucket: i32, field: &str) -> String {
    format!("pipeline.provider.{provider:?}.{bucket}.{field}")
}

/// Most buckets any provider has (see [`bucket_keys`]).
const MAX_BUCKETS: usize = 8;

/// The registry counters a resolved conditional branch bumps: its
/// provider bucket (Fig. 6/7) and its H2P marks (Fig. 9). Buckets sit in
/// a fixed table indexed by provider and bucket, so recording a branch is
/// an index, not a map insert; each bucket registers its counters on
/// first use, so building a simulator stays cheap.
pub(crate) struct CondCounters {
    registry: Registry,
    /// `(preds, misses)` at `Provider as usize * MAX_BUCKETS + bucket`.
    buckets: Vec<OnceCell<(Counter, Counter)>>,
    /// `(marked, marked_mispredicted)` for TAGE-Conf, then UCP-Conf.
    h2p: [(Counter, Counter); 2],
}

impl CondCounters {
    pub(crate) fn bound_to(registry: &Registry) -> Self {
        assert!(
            Provider::ALL
                .iter()
                .all(|&p| bucket_keys(p).len() <= MAX_BUCKETS),
            "a provider's buckets would spill into the next provider's slots"
        );
        let pair = |a, b| (registry.counter(a), registry.counter(b));
        CondCounters {
            registry: registry.clone(),
            buckets: vec![OnceCell::new(); Provider::ALL.len() * MAX_BUCKETS],
            h2p: [
                pair(paths::H2P_TAGE_MARKED, paths::H2P_TAGE_MARKED_MISPREDICTED),
                pair(paths::H2P_UCP_MARKED, paths::H2P_UCP_MARKED_MISPREDICTED),
            ],
        }
    }

    /// Counts one resolved conditional prediction. `value` is the
    /// provider's confidence value.
    ///
    /// # Panics
    ///
    /// Panics if `value` lies outside the provider's counter range.
    pub(crate) fn record(
        &self,
        provider: Provider,
        value: i32,
        mispredicted: bool,
        h2p_tage: bool,
        h2p_ucp: bool,
    ) {
        let bucket = bucket_of(provider, value);
        let offset = bucket_keys(provider)
            .iter()
            .position(|&k| k == bucket)
            .unwrap_or_else(|| panic!("{provider:?} confidence value {value} has no bucket"));
        let (preds, misses) =
            self.buckets[provider as usize * MAX_BUCKETS + offset].get_or_init(|| {
                let c = |field| {
                    self.registry
                        .counter(&provider_path(provider, bucket, field))
                };
                (c("preds"), c("misses"))
            });
        preds.inc();
        if mispredicted {
            misses.inc();
        }
        for (marked, (m, mm)) in [h2p_tage, h2p_ucp].into_iter().zip(&self.h2p) {
            if marked {
                m.inc();
                if mispredicted {
                    mm.inc();
                }
            }
        }
    }
}

/// Serializes `BTreeMap`s with non-string keys as vectors of pairs, so
/// statistics round-trip through JSON (used by the figure-result cache).
mod map_as_pairs {
    use serde::{DeError, Deserialize, Serialize, Value};
    use std::collections::BTreeMap;

    pub fn to_value<K, V>(map: &BTreeMap<K, V>) -> Value
    where
        K: Serialize,
        V: Serialize,
    {
        Value::Seq(
            map.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    pub fn from_value<K, V>(v: &Value) -> Result<BTreeMap<K, V>, DeError>
    where
        K: Deserialize + Ord,
        V: Deserialize,
    {
        serde::as_seq(v, "pair list")?
            .iter()
            .map(|pair| {
                let s = serde::as_seq(pair, "[key, value] pair")?;
                if s.len() != 2 {
                    return Err(DeError::new("expected [key, value] pair"));
                }
                Ok((K::from_value(&s[0])?, V::from_value(&s[1])?))
            })
            .collect()
    }
}

/// Geometric mean of per-workload speedups `new/base`, as a percentage
/// improvement (the paper's headline metric).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn geomean_speedup_pct(base_ipc: &[f64], new_ipc: &[f64]) -> f64 {
    assert_eq!(base_ipc.len(), new_ipc.len());
    if base_ipc.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = base_ipc
        .iter()
        .zip(new_ipc)
        .map(|(&b, &n)| (n / b).ln())
        .sum();
    ((log_sum / base_ipc.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            instructions: 1000,
            cycles: 500,
            uops_from_uop_cache: 700,
            uops_from_decode: 300,
            mode_switches: 5,
            cond_mispredicts: 3,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-9);
        assert!((s.uop_hit_rate_pct() - 70.0).abs() < 1e-9);
        assert!((s.switch_pki() - 5.0).abs() < 1e-9);
        assert!((s.cond_mpki() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.uop_hit_rate_pct(), 0.0);
        assert_eq!(s.cond_mpki(), 0.0);
        assert_eq!(s.ucp.prefetch_accuracy_pct(), 0.0);
    }

    #[test]
    fn provider_buckets_accumulate() {
        let mut s = SimStats::default();
        s.record_provider(Provider::HitBank, 3, false);
        s.record_provider(Provider::HitBank, 3, true);
        s.record_provider(Provider::AltBank, -1, true);
        let b = s.provider_buckets[&(Provider::HitBank, 3)];
        assert_eq!(b.preds, 2);
        assert_eq!(b.misses, 1);
        assert!((b.miss_rate_pct() - 50.0).abs() < 1e-9);
        assert!((s.provider_miss_share_pct(Provider::AltBank) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_view_matches_direct_recording() {
        // The same branches recorded into the registry table and straight
        // into a SimStats give the same Fig. 6/7/9 statistics.
        let registry = Registry::default();
        let cond = CondCounters::bound_to(&registry);
        let mut direct = SimStats::default();
        let branches = [
            (Provider::HitBank, -4, true, true, false),
            (Provider::HitBank, 3, false, false, true),
            (Provider::AltBank, 0, true, true, true),
            (Provider::Bimodal, -2, false, false, false),
            (Provider::BimodalLow8, 1, true, false, true),
            (Provider::LoopPred, 7, false, false, false),
            (Provider::Sc, -40, true, true, true),
            (Provider::Sc, 200, false, false, false),
        ];
        for (provider, value, mis, h2p_tage, h2p_ucp) in branches {
            cond.record(provider, value, mis, h2p_tage, h2p_ucp);
            direct.record_provider(provider, value, mis);
        }
        let s = SimStats::from_window(&registry.snapshot(), 10);
        let fig67 = |m: &SimStats| format!("{:?}", (&m.provider_buckets, &m.provider_totals));
        assert_eq!(fig67(&s), fig67(&direct));
        assert_eq!((s.cond_branches, s.cond_mispredicts), (8, 4));
        assert_eq!((s.h2p_tage.marked, s.h2p_tage.marked_mispredicted), (3, 3));
        assert_eq!((s.h2p_ucp.marked, s.h2p_ucp.marked_mispredicted), (4, 3));
        assert_eq!(s.h2p_tage.mispredicted, 4);
        assert_eq!(s.cycles, 10);
    }

    #[test]
    #[should_panic(expected = "has no bucket")]
    fn out_of_range_confidence_is_rejected() {
        CondCounters::bound_to(&Registry::default()).record(
            Provider::HitBank,
            4,
            false,
            false,
            false,
        );
    }

    #[test]
    fn sc_values_bucket_by_magnitude() {
        let mut s = SimStats::default();
        s.record_provider(Provider::Sc, -40, true);
        s.record_provider(Provider::Sc, 45, false);
        assert_eq!(s.provider_buckets[&(Provider::Sc, 32)].preds, 2);
    }

    #[test]
    fn h2p_math() {
        let h = H2pCounts {
            marked: 200,
            marked_mispredicted: 30,
            mispredicted: 60,
        };
        assert!((h.coverage_pct() - 50.0).abs() < 1e-9);
        assert!((h.accuracy_pct() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_speedup() {
        let base = [1.0, 2.0];
        let new = [1.1, 2.2];
        let g = geomean_speedup_pct(&base, &new);
        assert!((g - 10.0).abs() < 1e-6, "{g}");
        assert_eq!(geomean_speedup_pct(&[], &[]), 0.0);
    }

    #[test]
    fn sim_stats_round_trip_through_json() {
        let mut s = SimStats {
            cycles: 123_456,
            instructions: 654_321,
            ..Default::default()
        };
        s.record_provider(Provider::HitBank, -17, true);
        s.record_provider(Provider::Sc, 45, false);
        s.h2p_tage = H2pCounts {
            marked: 9,
            marked_mispredicted: 3,
            mispredicted: 5,
        };
        s.ucp.entries_inserted = 42;
        let text = serde_json::to_string(&s).unwrap();
        let back: SimStats = serde_json::from_str(&text).unwrap();
        // SimStats has no PartialEq (it never needs one at runtime);
        // re-serializing proves field-for-field equality instead.
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert_eq!(back.cycles, 123_456);
        assert_eq!(back.provider_buckets[&(Provider::Sc, 32)].preds, 1);
    }

    #[test]
    fn ucp_accuracy_math() {
        let u = UcpStats {
            entries_inserted: 100,
            timely_used: 67,
            late_used: 8,
            ..UcpStats::default()
        };
        assert!((u.prefetch_accuracy_pct() - 67.0).abs() < 1e-9);
        assert!((u.late_use_pct() - 8.0).abs() < 1e-9);
    }
}
