//! Interval time series: per-interval registry deltas.
//!
//! The simulator's measurement window carves its run into fixed-length
//! intervals of simulated cycles (default [`DEFAULT_INTERVAL_CYCLES`]).
//! At each boundary it diffs the registry against the previous boundary
//! and keeps the per-interval counter deltas as [`IntervalRecord`]s.
//! Because each record is a [`RegistrySnapshot`](crate::RegistrySnapshot)
//! delta, the records *tile* the measurement window exactly: summing any
//! counter across all intervals reproduces the end-of-run aggregate (the
//! property test in `tests/property_tests.rs` checks this).
//!
//! Records are raw counter deltas; plot-ready metrics (IPC, µ-op cache
//! hit rate, L1I MPKI, stall shares) are derived on export so the stored
//! form stays lossless and small (zero deltas are dropped by
//! [`RegistrySnapshot::delta_since`](crate::RegistrySnapshot::delta_since)).
//!
//! # Environment
//!
//! - `UCP_INTERVAL` — cycles per interval. `0` or `off` disables
//!   sampling; unset uses the default 100 000.

use crate::accounting::AccountingBreakdown;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default interval length in simulated cycles.
pub const DEFAULT_INTERVAL_CYCLES: u64 = 100_000;

/// Counter path of committed instructions (maintained by the pipeline's
/// commit stage; the interval exporters derive IPC from it).
pub const INSTRET_PATH: &str = "pipeline.committed";

/// One sampled window: the half-open cycle range and every counter that
/// moved inside it (zero deltas omitted).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// Zero-based interval number within the run (monotonic even when
    /// older records have been dropped from the ring).
    pub index: u64,
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// End of the window (exclusive; equals the next record's start).
    pub end_cycle: u64,
    /// Counter deltas over the window, by registry path.
    pub counters: BTreeMap<String, u64>,
}

impl IntervalRecord {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Delta of the counter at `path` (0 when it did not move).
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// Instructions committed in the window.
    pub fn instructions(&self) -> u64 {
        self.counter(INSTRET_PATH)
    }

    /// Instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64
        }
    }

    /// µ-op cache hit rate over the window, in percent (0 when the µ-op
    /// cache saw no lookups).
    pub fn uopc_hit_pct(&self) -> f64 {
        let hits = self.counter("frontend.uopc.hits");
        let total = hits + self.counter("frontend.uopc.misses");
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    }

    /// L1I demand misses per kilo-instruction over the window.
    pub fn l1i_mpki(&self) -> f64 {
        let instret = self.instructions();
        if instret == 0 {
            0.0
        } else {
            1000.0 * self.counter("mem.l1i.demand_misses") as f64 / instret as f64
        }
    }

    /// The window's frontend cycle-accounting breakdown.
    pub fn breakdown(&self) -> AccountingBreakdown {
        AccountingBreakdown::from_counters(&self.counters)
    }
}

/// Reads `UCP_INTERVAL`: `Ok(None)` when the interval time series is
/// disabled (`UCP_INTERVAL=0` or `off`), otherwise the configured (or
/// default) interval length in cycles.
///
/// # Errors
///
/// Unparseable values are a hard configuration error (see
/// [`cadence_from_env`](crate::cadence_from_env)).
pub fn interval_from_env() -> Result<Option<u64>, String> {
    crate::cadence_from_env(
        "UCP_INTERVAL",
        Some(DEFAULT_INTERVAL_CYCLES),
        "a cycle count",
    )
}

/// Renders interval records as a plot-ready CSV document: one row per
/// interval with derived metrics (IPC, µ-op cache hit %, L1I MPKI) and
/// the per-category stall shares in percent.
pub fn intervals_to_csv(records: &[IntervalRecord]) -> String {
    use crate::accounting::CycleCause;
    let mut out = String::from(
        "interval,start_cycle,end_cycle,cycles,instructions,ipc,uopc_hit_pct,l1i_mpki",
    );
    for cause in CycleCause::ALL {
        out.push_str(",pct_");
        out.push_str(cause.name());
    }
    out.push('\n');
    for r in records {
        let b = r.breakdown();
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.2},{:.3}",
            r.index,
            r.start_cycle,
            r.end_cycle,
            r.cycles(),
            r.instructions(),
            r.ipc(),
            r.uopc_hit_pct(),
            r.l1i_mpki()
        ));
        for cause in CycleCause::ALL {
            out.push_str(&format!(",{:.2}", b.share_pct(cause)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::{CycleAccounting, CycleCause};
    use crate::registry::Registry;

    #[test]
    fn csv_has_derived_metrics_and_shares() {
        let reg = Registry::default();
        let acc = CycleAccounting::bound_to(&reg);
        for cycle in 0..4u64 {
            acc.charge(if cycle < 3 {
                CycleCause::DeliverUop
            } else {
                CycleCause::L1iMiss
            });
        }
        reg.counter(INSTRET_PATH).add(12);
        let record = IntervalRecord {
            index: 0,
            start_cycle: 0,
            end_cycle: 4,
            counters: reg.snapshot().counters,
        };
        let csv = intervals_to_csv(std::slice::from_ref(&record));
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("interval,start_cycle,end_cycle,cycles,instructions,ipc"));
        assert!(header.contains("pct_deliver_uop"));
        let row = lines.next().unwrap();
        // 12 instructions over 4 cycles → IPC 3; 3/4 cycles delivering.
        assert!(row.contains(",3.0000,"), "{row}");
        assert!(row.contains(",75.00"), "{row}");
        assert!(record.breakdown().verify().is_ok());
        assert_eq!(record.breakdown().get(CycleCause::L1iMiss), 1);
    }

    #[test]
    fn from_env_honours_knob() {
        // Note: env mutation — keep all UCP_INTERVAL cases in one test to
        // avoid cross-test races.
        std::env::remove_var("UCP_INTERVAL");
        assert_eq!(interval_from_env(), Ok(Some(DEFAULT_INTERVAL_CYCLES)));
        std::env::set_var("UCP_INTERVAL", "2500");
        assert_eq!(interval_from_env(), Ok(Some(2500)));
        std::env::set_var("UCP_INTERVAL", "0");
        assert_eq!(interval_from_env(), Ok(None));
        std::env::set_var("UCP_INTERVAL", "off");
        assert_eq!(interval_from_env(), Ok(None));
        // A typo is a hard error, never a silent fallback to the default.
        std::env::set_var("UCP_INTERVAL", "garbage");
        assert!(interval_from_env().is_err());
        std::env::remove_var("UCP_INTERVAL");
    }
}
