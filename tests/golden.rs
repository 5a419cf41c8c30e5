//! Golden-behaviour gate: the simulator's observable output for a matrix
//! of (workload, configuration) pairs is pinned in `tests/golden/`, so a
//! refactor or a performance change can prove it changed nothing.
//!
//! Each golden file holds one run's `SimStats` JSON, its measurement-window
//! registry snapshot and its interval records. The check is:
//!
//! * `SimStats` serializes to exactly the pinned JSON;
//! * every pinned counter and histogram keeps its value, in the window
//!   snapshot and in every interval record;
//! * a path that is not pinned may appear only if [`NEW_PATHS`] or
//!   [`NEW_PROVIDER_BUCKETS`] names it (instrumentation added after the
//!   files were written).
//!
//! The files are never rewritten to make a change pass. An intentional
//! model change regenerates them with
//! `UCP_UPDATE_GOLDEN=1 cargo test --test golden`, bumps `MODEL_VERSION`
//! and says why in CHANGES.md.

use std::collections::BTreeMap;
use ucp_sim::core::{ConfKind, PrefetcherKind, RunOutput, SimConfig, Simulator};
use ucp_sim::telemetry::{IntervalRecord, RegistrySnapshot, Telemetry};
use ucp_sim::workloads::WorkloadSpec;

const WARMUP: u64 = 4_000;
const MEASURE: u64 = 12_000;
/// Interval length in cycles: a handful of records per run.
const INTERVAL_CYCLES: u64 = 2_500;

/// Registry paths that are not in the golden files but may appear in a
/// run's window snapshot and interval records: the counters that replaced
/// the statistics `SimStats` used to keep on its own.
const NEW_PATHS: &[&str] = &[
    "frontend.mrc.streamed_uops",
    "frontend.uopc.block_hits",
    "frontend.uopc.prefetch_evicted_unused",
    "frontend.uops_from_decode",
    "frontend.uops_from_uop_cache",
    "mem.l1i.demand_lookup_misses",
    "mem.l1i.demand_lookups",
    "pipeline.h2p.tage.marked",
    "pipeline.h2p.tage.marked_mispredicted",
    "pipeline.h2p.ucp.marked",
    "pipeline.h2p.ucp.marked_mispredicted",
    "pipeline.indirect_mispredicts",
    "ucp.alt_decoded_uops",
    "ucp.late_used",
    "ucp.stopped_btb_miss",
    "ucp.stopped_indirect",
    "ucp.stopped_no_branch",
    "ucp.stopped_threshold",
    "ucp.timely_used",
];

/// The per-provider confidence buckets (Fig. 6), also new: each listed
/// `(provider, bucket)` may add `pipeline.provider.<provider>.<bucket>.preds`
/// and `.misses`.
const NEW_PROVIDER_BUCKETS: &[(&str, &[i32])] = &[
    ("HitBank", &[-4, -3, -2, -1, 0, 1, 2, 3]),
    ("AltBank", &[-4, -3, -2, -1, 0, 1, 2, 3]),
    ("Bimodal", &[-2, -1, 0, 1]),
    ("BimodalLow8", &[-2, -1, 0, 1]),
    ("LoopPred", &[0, 1, 2, 3, 4, 5, 6, 7]),
    ("Sc", &[0, 32, 64, 128]),
];

fn is_listed_new_path(path: &str) -> bool {
    NEW_PATHS.contains(&path)
        || NEW_PROVIDER_BUCKETS.iter().any(|(provider, buckets)| {
            buckets.iter().any(|b| {
                ["preds", "misses"]
                    .iter()
                    .any(|f| path == format!("pipeline.provider.{provider}.{b}.{f}"))
            })
        })
}

/// A small loopy workload (µ-op cache friendly).
fn loopy() -> WorkloadSpec {
    let mut s = WorkloadSpec::tiny("golden-loopy", 11);
    s.loop_milli = 300;
    s.loop_trip = (8, 40);
    s
}

/// A flat, larger-footprint workload (µ-op cache hostile).
fn flat() -> WorkloadSpec {
    let mut s = WorkloadSpec::tiny("golden-flat", 12);
    s.num_funcs = 160;
    s.stmts_per_func = (8, 16);
    s.dispatch_milli = 500;
    s.dispatch_fanout = (8, 14);
    s.loop_milli = 60;
    s.call_milli = 120;
    s
}

/// The configurations the figures compare, by file-name slug.
fn configs() -> Vec<(&'static str, SimConfig)> {
    let mut tage_conf = SimConfig::ucp();
    tage_conf.ucp.conf = ConfKind::Tage;
    let mut till_l1i = SimConfig::ucp();
    till_l1i.ucp.till_l1i = true;
    let prefetching = |kind| {
        let mut c = SimConfig::baseline();
        c.prefetcher = kind;
        c
    };
    let mut mrc = SimConfig::baseline();
    mrc.mrc_entries = Some(256);
    vec![
        ("no_uop_cache", SimConfig::no_uop_cache()),
        ("baseline", SimConfig::baseline()),
        ("ucp", SimConfig::ucp()),
        ("tage_conf", tage_conf),
        ("no_ind", SimConfig::ucp_no_ind()),
        ("till_l1i", till_l1i),
        ("fnl_mma", prefetching(PrefetcherKind::FnlMma)),
        ("fnl_mma_pp", prefetching(PrefetcherKind::FnlMmaPlusPlus)),
        ("djolt", prefetching(PrefetcherKind::DJolt)),
        ("ep", prefetching(PrefetcherKind::Ep)),
        ("ep_pp", prefetching(PrefetcherKind::EpPlusPlus)),
        ("mrc", mrc),
    ]
}

/// One run with every environment-driven knob pinned: no tracing, a fixed
/// interval length, no digests, no checkpoints.
fn run(spec: &WorkloadSpec, cfg: &SimConfig) -> RunOutput {
    let prog = spec.build();
    let mut sim = Simulator::with_telemetry(&prog, spec.seed, cfg, Telemetry::disabled());
    sim.set_interval(Some(INTERVAL_CYCLES));
    sim.set_digest_interval(None);
    sim.run_full(WARMUP, MEASURE).expect("golden run completes")
}

fn render(out: &RunOutput) -> String {
    let stats = serde_json::to_string(&out.stats).expect("stats serialize");
    let telemetry = serde_json::to_string(&out.telemetry).expect("snapshot serializes");
    let intervals = serde_json::to_string(&out.intervals).expect("intervals serialize");
    format!("{{\"stats\":{stats},\n\"telemetry\":{telemetry},\n\"intervals\":{intervals}}}\n")
}

/// The three sections of a golden file, as text.
fn sections(text: &str) -> (String, String, String) {
    let doc = serde_json::parse_value(text).expect("golden file parses");
    let part = |key: &str| {
        let v = serde::value_get(&doc, key).unwrap_or_else(|| panic!("golden file lacks {key}"));
        serde_json::to_string(v).expect("value serializes")
    };
    (part("stats"), part("telemetry"), part("intervals"))
}

/// Every pinned counter keeps its value; every other counter is a
/// listed new path.
fn check_counters(
    what: &str,
    pinned: &BTreeMap<String, u64>,
    actual: &BTreeMap<String, u64>,
    errors: &mut Vec<String>,
) {
    for (path, &v) in pinned {
        match actual.get(path) {
            Some(&a) if a == v => {}
            a => errors.push(format!("{what}: counter {path} was {v}, now {a:?}")),
        }
    }
    for path in actual.keys() {
        if !pinned.contains_key(path) && !is_listed_new_path(path) {
            errors.push(format!("{what}: unlisted new counter {path}"));
        }
    }
}

fn check_snapshot(
    what: &str,
    pinned: &RegistrySnapshot,
    actual: &RegistrySnapshot,
    errors: &mut Vec<String>,
) {
    check_counters(what, &pinned.counters, &actual.counters, errors);
    for (path, h) in &pinned.histograms {
        if actual.histograms.get(path) != Some(h) {
            errors.push(format!("{what}: histogram {path} changed"));
        }
    }
    for path in actual.histograms.keys() {
        if !pinned.histograms.contains_key(path) && !is_listed_new_path(path) {
            errors.push(format!("{what}: unlisted new histogram {path}"));
        }
    }
}

fn check_intervals(
    what: &str,
    pinned: &[IntervalRecord],
    actual: &[IntervalRecord],
    errors: &mut Vec<String>,
) {
    if pinned.len() != actual.len() {
        errors.push(format!(
            "{what}: {} interval records, pinned {}",
            actual.len(),
            pinned.len()
        ));
        return;
    }
    for (p, a) in pinned.iter().zip(actual) {
        if (p.index, p.start_cycle, p.end_cycle) != (a.index, a.start_cycle, a.end_cycle) {
            errors.push(format!("{what}: interval {} bounds changed", p.index));
        }
        let rec = format!("{what} interval {}", p.index);
        check_counters(&rec, &p.counters, &a.counters, errors);
    }
}

#[test]
fn runs_match_golden_files() {
    let update = std::env::var_os("UCP_UPDATE_GOLDEN").is_some();
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let mut errors = Vec::new();
    for spec in [loopy(), flat()] {
        for (slug, cfg) in configs() {
            let out = run(&spec, &cfg);
            let path = format!("{dir}/{}-{slug}.json", spec.name);
            if update {
                std::fs::create_dir_all(&dir).expect("create golden dir");
                std::fs::write(&path, render(&out)).expect("write golden file");
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
            let (stats, telemetry, intervals) = sections(&text);
            let what = format!("{}/{slug}", spec.name);
            let actual_stats = serde_json::to_string(&out.stats).expect("stats serialize");
            if actual_stats != stats {
                errors.push(format!(
                    "{what}: SimStats changed\n  pinned: {stats}\n  actual: {actual_stats}"
                ));
            }
            let pinned: RegistrySnapshot =
                serde_json::from_str(&telemetry).expect("pinned snapshot parses");
            check_snapshot(&what, &pinned, &out.telemetry, &mut errors);
            let pinned: Vec<IntervalRecord> =
                serde_json::from_str(&intervals).expect("pinned intervals parse");
            check_intervals(&what, &pinned, &out.intervals, &mut errors);
        }
    }
    assert!(
        errors.is_empty(),
        "output drifted from tests/golden:\n{}",
        errors.join("\n")
    );
}
