//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation.
//!
//! Each figure lives in [`figs`] as a function returning a printable
//! report; the `src/bin/fig*.rs` binaries are thin wrappers, and
//! `benches/figures.rs` runs reduced versions of all of them under
//! `cargo bench`.
//!
//! # Profiles
//!
//! Simulation volume is controlled by the `UCP_FIG_PROFILE` environment
//! variable:
//!
//! * `quick` — 8-workload suite, 0.2 M + 0.8 M instructions per run,
//! * `std` (default) — full 30-workload suite, 0.5 M + 2 M,
//! * `full` — full suite, 1 M + 4 M (the paper-scale setting).
//!
//! Suite runs are cached under `target/ucp-results` keyed by
//! configuration + profile, so reruns and figure interdependencies (many
//! figures share the baseline) are free. Set `UCP_NO_CACHE=1` to disable.
//!
//! # Resilience
//!
//! Suite execution is fault-isolated: a panicking, hanging or
//! invariant-violating workload degrades the run (reports carry a
//! `DEGRADED (k/n)` marker) instead of killing it; per-workload results
//! persist incrementally so a killed run resumes; and every cache entry
//! is integrity-checked (checksum + model version), with corrupt entries
//! quarantined and regenerated. See [`ucp_telemetry::envelope`] and
//! `ucp_core::run_suite_outcome`.

pub mod figs;
pub mod harness;

pub use harness::{
    cached_suite_run, check_accounting, merged_telemetry, prune_cache_litter,
    stall_breakdown_table, suite_breakdown, suite_run_with_cache, try_cached_suite_run, Profile,
    SuiteRun, MODEL_VERSION,
};
