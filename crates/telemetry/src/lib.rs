//! Observability for the UCP simulator: a hierarchical counter/histogram
//! registry and a structured, env-gated event trace.
//!
//! The two halves serve different questions:
//!
//! - The **registry** ([`Registry`]) answers *how often* — monotonic
//!   counters and power-of-two histograms registered by dotted path
//!   (`frontend.uopc.mode_switches`, `mem.l2.mshr_full_stalls`). It is
//!   always on: counters are relaxed atomic adds, cheap enough to leave
//!   enabled for every run, and snapshots serialize to JSON alongside
//!   `SimStats` in the result cache and suite reports.
//!
//! - The **tracer** ([`Tracer`]) answers *when and why* — timestamped
//!   [`TraceEvent`]s in a bounded ring buffer, exportable as Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`) or
//!   JSONL. It is off unless `UCP_TRACE` selects categories, and when
//!   off every emit site reduces to one null check.
//!
//! # Category taxonomy
//!
//! Events and counter paths share a six-way split that mirrors the
//! simulator's crate structure; the first path segment of a counter is
//! the lowercase category name:
//!
//! | Category   | Prefix      | What lands here                                      |
//! |------------|-------------|------------------------------------------------------|
//! | `Pipeline` | `pipeline.` | flushes, resteers, commit/dispatch milestones        |
//! | `Frontend` | `frontend.` | FTQ, fetch scheduling, µ-op cache mode switches      |
//! | `UopCache` | `frontend.uopc.` | µ-op cache inserts, evictions, hits/misses      |
//! | `Prefetch` | `prefetch.` | standalone L1I prefetcher triggers and fills         |
//! | `Ucp`      | `ucp.`      | alternate-path walks: triggers, stops, fills, steals |
//! | `Mem`      | `mem.`      | cache misses, MSHR occupancy/stalls, DRAM traffic    |
//!
//! On top of the registry sit two derived layers:
//!
//! - **Cycle accounting** ([`accounting`]) charges every simulated
//!   frontend cycle to exactly one [`CycleCause`], with the invariant
//!   that categories sum to total cycles.
//! - **Interval records** ([`interval`]) hold the registry deltas of
//!   each N-cycle interval of the measurement window, giving
//!   phase-resolved time series (IPC, hit rates, stall shares) that are
//!   exportable as CSV and as Perfetto counter tracks.
//!
//! # Environment variables
//!
//! - `UCP_TRACE` — comma-separated category list (`ucp,mem`), or `all`.
//!   Unset/empty disables tracing entirely.
//! - `UCP_TRACE_BUF` — ring-buffer capacity in events (default 65536).
//!   When full, the oldest events are overwritten and counted as dropped.
//! - `UCP_INTERVAL` — cycles per interval sample (default 100000; `0` or
//!   `off` disables interval sampling). Anything else that fails to parse
//!   as an integer is a hard configuration error.
//! - `UCP_FAULT` — deterministic fault injection, `site:nth[:times]`
//!   (see [`fault`]). Unset disables every fault site.
//!
//! # Example
//!
//! ```
//! use ucp_telemetry::{Category, Telemetry};
//!
//! let t = Telemetry::with_trace("ucp", 16);
//! let walks = t.registry.counter("ucp.walks_started");
//! walks.inc();
//! t.tracer.set_cycle(120);
//! t.tracer.emit(Category::Ucp, "walk_start", || "trigger=0x40a0".to_string());
//! let snap = t.registry.snapshot();
//! assert_eq!(snap.counters["ucp.walks_started"], 1);
//! assert_eq!(t.tracer.events()[0].cycle, 120);
//! ```

pub mod accounting;
pub mod envelope;
pub mod export;
pub mod fault;
pub mod interval;
pub mod registry;
pub mod tracer;

pub use accounting::{AccountingBreakdown, CycleAccounting, CycleCause, TOTAL_CYCLES_PATH};
pub use envelope::CacheReadError;
pub use export::{snapshot_table, to_chrome_trace, to_chrome_trace_with_counters, to_jsonl};
pub use fault::FaultPlan;
pub use interval::{interval_from_env, intervals_to_csv, IntervalRecord};
pub use registry::{Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use tracer::{Category, CategorySet, TraceEvent, Tracer};

/// The pair every instrumented component receives: always-on counters
/// plus the (usually disabled) event tracer. Cloning is cheap and shares
/// the underlying storage, so the simulator can hand copies to the µ-op
/// cache, the UCP engine, the memory hierarchy, and prefetchers.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Hierarchical counter/histogram registry (always on).
    pub registry: Registry,
    /// Structured event trace (env-gated, ~free when disabled).
    pub tracer: Tracer,
}

impl Telemetry {
    /// Fresh registry, tracing disabled. What library users and tests
    /// that don't care about traces should use.
    pub fn disabled() -> Self {
        Telemetry {
            registry: Registry::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Fresh registry; tracing configured from `UCP_TRACE` /
    /// `UCP_TRACE_BUF` (disabled when `UCP_TRACE` is unset or empty).
    pub fn from_env() -> Self {
        Telemetry {
            registry: Registry::default(),
            tracer: Tracer::from_env(),
        }
    }

    /// Fresh registry with tracing forced on for `categories` (same
    /// syntax as `UCP_TRACE`) and the given buffer capacity. Mostly for
    /// tests and tools that own the trace lifecycle.
    pub fn with_trace(categories: &str, capacity: usize) -> Self {
        Telemetry {
            registry: Registry::default(),
            tracer: Tracer::enabled_for(CategorySet::parse(categories), capacity),
        }
    }
}

/// Reads a cadence knob such as `UCP_INTERVAL`: an integer count of
/// `unit`s, or `0`/`off` for `Ok(None)` (disabled); unset or empty gives
/// `default`.
///
/// # Errors
///
/// Anything else is a hard configuration error — a typo must not
/// silently fall back to the default and invalidate hours of cached
/// results.
pub fn cadence_from_env(
    var: &str,
    default: Option<u64>,
    unit: &str,
) -> Result<Option<u64>, String> {
    let s = std::env::var(var)
        .unwrap_or_default()
        .trim()
        .to_ascii_lowercase();
    match s.as_str() {
        "" => Ok(default),
        "off" => Ok(None),
        _ => match s.parse::<u64>() {
            Ok(n) => Ok((n > 0).then_some(n)),
            Err(_) => Err(format!(
                "{var}=`{s}` is not {unit}; expected an integer, `0`, or `off`"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let t = Telemetry::with_trace("all", 8);
        let u = t.clone();
        t.registry.counter("pipeline.flushes").add(3);
        u.registry.counter("pipeline.flushes").add(2);
        assert_eq!(t.registry.snapshot().counters["pipeline.flushes"], 5);
        u.tracer.set_cycle(7);
        u.tracer.emit(Category::Mem, "l2_miss", String::new);
        assert_eq!(t.tracer.events().len(), 1);
    }

    #[test]
    fn disabled_telemetry_emits_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.tracer.is_active());
        t.tracer.emit(Category::Ucp, "walk_start", || {
            unreachable!("payload must not run")
        });
        assert!(t.tracer.events().is_empty());
    }
}
