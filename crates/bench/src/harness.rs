//! Shared harness plumbing: profiles, the fault-isolated resumable
//! result cache, and formatting.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use ucp_core::{run_suite_outcome, RunResult, SimConfig, SimError, SuiteOptions};
use ucp_telemetry::envelope::{fnv1a, quarantine, read_envelope, write_envelope, CacheReadError};
use ucp_telemetry::fault::global_plan;
use ucp_telemetry::AccountingBreakdown;
use ucp_workloads::suite::{quick_suite, workload_suite};
use ucp_workloads::WorkloadSpec;

/// Simulation volume profile (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// 8 workloads × (0.2 M + 0.8 M) instructions.
    Quick,
    /// 30 workloads × (0.5 M + 2 M) instructions.
    Std,
    /// 30 workloads × (1 M + 4 M) instructions.
    Full,
}

impl Profile {
    /// Parses a profile tag.
    ///
    /// # Errors
    ///
    /// An unknown tag is a hard error listing the valid tags — a typo'd
    /// `UCP_FIG_PROFILE` must not silently simulate the (much slower)
    /// default profile.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Profile::Quick),
            "std" => Ok(Profile::Std),
            "full" => Ok(Profile::Full),
            other => Err(format!(
                "UCP_FIG_PROFILE=`{other}` is not a profile; valid tags: quick, std, full"
            )),
        }
    }

    /// Reads `UCP_FIG_PROFILE` (default `std`); unknown tags are an
    /// error.
    pub fn from_env_checked() -> Result<Self, String> {
        match std::env::var("UCP_FIG_PROFILE") {
            Err(_) => Ok(Profile::Std),
            Ok(s) if s.trim().is_empty() => Ok(Profile::Std),
            Ok(s) => Profile::parse(s.trim()),
        }
    }

    /// [`Profile::from_env_checked`] for binaries: prints the error and
    /// exits with status 2 on a malformed environment.
    pub fn from_env() -> Self {
        Profile::from_env_checked().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The workload suite for this profile.
    pub fn suite(self) -> Vec<WorkloadSpec> {
        match self {
            Profile::Quick => quick_suite(),
            _ => workload_suite(),
        }
    }

    /// (warmup, measure) instruction counts per run.
    pub fn lengths(self) -> (u64, u64) {
        match self {
            Profile::Quick => (200_000, 800_000),
            Profile::Std => (500_000, 2_000_000),
            Profile::Full => (1_000_000, 4_000_000),
        }
    }

    /// Short tag for cache keys and report headers.
    pub fn tag(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Std => "std",
            Profile::Full => "full",
        }
    }
}

/// Bump when a model-affecting code change invalidates cached results.
/// (v2: results gained cycle accounting and interval time series; v3:
/// entries moved into the integrity envelope, which also carries this
/// version — stale entries now quarantine instead of silently orphaning;
/// v4: every `SimStats` count became a registry counter, so
/// `RunResult::telemetry` and the interval records carry more paths;
/// v5: component statistics left the serialized state and in-flight
/// branch records became a ring, so cached `RunResult::digests` change.)
pub const MODEL_VERSION: u32 = 5;

fn cache_dir() -> PathBuf {
    std::env::var("UCP_RESULT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/ucp-results"))
}

/// A suite's results plus how the run got them: complete or degraded,
/// fresh or resumed. Derefs to the *successful* results (in suite order),
/// so aggregation code written for `Vec<RunResult>` keeps working; the
/// failure records ride alongside for report markers.
#[derive(Debug, Default)]
pub struct SuiteRun {
    results: Vec<RunResult>,
    /// Workloads that failed every attempt: `(name, final error)`.
    pub failures: Vec<(String, SimError)>,
    /// Suite size (`results.len() + failures.len()`).
    pub total: usize,
    /// How many results were resumed from partial persistence instead of
    /// simulated in this invocation.
    pub resumed: usize,
}

impl Deref for SuiteRun {
    type Target = [RunResult];
    fn deref(&self) -> &[RunResult] {
        &self.results
    }
}

impl SuiteRun {
    /// Wraps a complete, trusted result set (cache hits, tests).
    pub fn complete(results: Vec<RunResult>) -> Self {
        let total = results.len();
        SuiteRun {
            results,
            failures: Vec::new(),
            total,
            resumed: 0,
        }
    }

    /// The successful results, in suite order.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// True when every workload produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `DEGRADED (k/n)` report marker, or `None` when complete.
    pub fn marker(&self) -> Option<String> {
        (!self.is_complete()).then(|| format!("DEGRADED ({}/{})", self.results.len(), self.total))
    }
}

/// Retention caps for result-cache litter: stale `partial-<key>/` resume
/// directories (a partial can only resume a run with the *same* key, so
/// old ones are dead weight) and `*.quarantined.*` forensic copies.
const MAX_PARTIAL_DIRS: usize = 8;
const MAX_QUARANTINED: usize = 16;

/// Prunes the cache directory's recoverable litter down to the retention
/// caps, oldest first by mtime, logging every eviction. `active_partial`
/// (the in-flight run's resume directory) is never pruned, and the
/// combined `<key>.json` entries are never touched.
pub fn prune_cache_litter(
    dir: &Path,
    active_partial: &Path,
    max_partial_dirs: usize,
    max_quarantined: usize,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut partials = Vec::new();
    let mut quarantined = Vec::new();
    for e in entries.flatten() {
        let path = e.path();
        if path == active_partial {
            continue;
        }
        let Ok(md) = e.metadata() else { continue };
        let name = e.file_name().to_string_lossy().into_owned();
        let mtime = md.modified().ok();
        if md.is_dir() && name.starts_with("partial-") {
            partials.push((mtime, path));
        } else if md.is_file() && name.contains(".quarantined") {
            quarantined.push((mtime, path));
        }
    }
    prune_oldest(partials, max_partial_dirs, true);
    prune_oldest(quarantined, max_quarantined, false);
}

fn prune_oldest(
    mut entries: Vec<(Option<std::time::SystemTime>, PathBuf)>,
    cap: usize,
    is_dir: bool,
) {
    if entries.len() <= cap {
        return;
    }
    // Unreadable mtimes (`None`) sort oldest and go first.
    entries.sort_by_key(|(t, _)| *t);
    let excess = entries.len() - cap;
    for (_, path) in entries.drain(..excess) {
        let removed = if is_dir {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
        match removed {
            Ok(()) => eprintln!("[ucp-cache] pruned stale {}", path.display()),
            Err(e) => eprintln!("[ucp-cache] could not prune {}: {e}", path.display()),
        }
    }
}

/// The fault-isolated, resumable, integrity-checked suite runner behind
/// [`cached_suite_run`], parameterized over the cache directory so tests
/// can use private directories instead of racing on the environment.
///
/// Cache layout under `dir`:
///
/// - `<key>.json` — the complete suite result set, enveloped
///   (written only when every workload succeeded);
/// - `partial-<key>/NN-<workload>.json` — per-workload results, enveloped,
///   persisted as each workload finishes so a killed run resumes instead
///   of re-simulating (cleared once the combined entry lands);
/// - `*.quarantined.*` — entries that failed integrity verification,
///   moved aside for debugging and regenerated.
///
/// # Errors
///
/// [`SimError::BadConfig`] for malformed environment knobs. Per-workload
/// failures do not error — they degrade the returned [`SuiteRun`].
pub fn suite_run_with_cache(
    cfg: &SimConfig,
    suite: &[WorkloadSpec],
    warmup: u64,
    measure: u64,
    dir: &Path,
    opts: &SuiteOptions,
    use_cache: bool,
) -> Result<SuiteRun, SimError> {
    let bad = |detail: String| SimError::BadConfig { detail };
    // Cached results embed the interval series sampled at whatever
    // UCP_INTERVAL was active when the cache was populated, so the
    // effective interval is part of the key (0 = sampling off).
    let interval = ucp_telemetry::IntervalSampler::from_env()
        .map_err(bad)?
        .map_or(0, |s| s.every());
    let fault = match opts.fault.clone() {
        Some(p) => Some(p),
        None => global_plan().map_err(bad)?,
    };
    let cfg_json = serde_json::to_string(cfg).expect("config serializes");
    let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
    let key = format!("{cfg_json}|{names:?}|{warmup}|{measure}|iv{interval}");
    let key = format!("{:016x}", fnv1a(key.as_bytes()));
    let combined = dir.join(format!("{key}.json"));
    let partial_dir = dir.join(format!("partial-{key}"));

    if use_cache {
        if let Some(results) = load_combined(&combined, suite) {
            return Ok(SuiteRun::complete(results));
        }
        prune_cache_litter(dir, &partial_dir, MAX_PARTIAL_DIRS, MAX_QUARANTINED);
    }

    // Resume: adopt verified per-workload partials from a previous run.
    let mut prefilled: Vec<Option<RunResult>> = vec![None; suite.len()];
    if use_cache {
        for (i, spec) in suite.iter().enumerate() {
            prefilled[i] = load_partial(&partial_path(&partial_dir, i, spec), &spec.name);
        }
    }
    let resumed = prefilled.iter().flatten().count();

    let persist_fault = fault.clone();
    let persist = |i: usize, r: &RunResult| {
        if std::fs::create_dir_all(&partial_dir).is_err() {
            return;
        }
        if let Ok(text) = serde_json::to_string(r) {
            let _ = write_envelope(
                &partial_path(&partial_dir, i, &suite[i]),
                MODEL_VERSION,
                &text,
                persist_fault.as_deref(),
            );
        }
    };
    let run_opts = SuiteOptions {
        prefilled,
        fault,
        ..opts.clone()
    };
    let outcome = run_suite_outcome(
        suite,
        cfg,
        warmup,
        measure,
        &run_opts,
        use_cache.then_some(&persist as ucp_core::PersistFn<'_>),
    )?;

    let total = outcome.total();
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for o in outcome.outcomes {
        match o.outcome {
            Ok(r) => results.push(r),
            Err(e) => failures.push((o.workload, e)),
        }
    }
    let run = SuiteRun {
        results,
        failures,
        total,
        resumed,
    };
    if use_cache && run.is_complete() {
        let _ = std::fs::create_dir_all(dir);
        if let Ok(text) = serde_json::to_string(&run.results) {
            let _ = write_envelope(&combined, MODEL_VERSION, &text, run_opts.fault.as_deref());
        }
        // The combined entry supersedes the partials.
        let _ = std::fs::remove_dir_all(&partial_dir);
    }
    Ok(run)
}

fn partial_path(partial_dir: &Path, i: usize, spec: &WorkloadSpec) -> PathBuf {
    partial_dir.join(format!("{i:02}-{}.json", spec.name))
}

/// Loads and verifies the combined cache entry; quarantines anything
/// corrupt or misaligned (wrong suite length/order — a key collision or
/// a stale layout) and reports a miss.
fn load_combined(path: &Path, suite: &[WorkloadSpec]) -> Option<Vec<RunResult>> {
    match read_envelope(path, MODEL_VERSION) {
        Ok(payload) => match serde_json::from_str::<Vec<RunResult>>(&payload) {
            Ok(results)
                if results.len() == suite.len()
                    && results.iter().zip(suite).all(|(r, s)| r.workload == s.name) =>
            {
                Some(results)
            }
            Ok(_) => {
                eprintln!(
                    "warning: cache entry {} does not match the suite; quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
            Err(e) => {
                eprintln!(
                    "warning: cache entry {} holds unparseable payload ({e}); quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
        },
        Err(CacheReadError::Missing) => None,
        Err(CacheReadError::Corrupt(why)) => {
            eprintln!(
                "warning: cache entry {} is corrupt ({why}); quarantining",
                path.display()
            );
            quarantine(path);
            None
        }
    }
}

/// Loads and verifies one per-workload partial; quarantines corrupt or
/// misnamed entries and reports a miss (the workload just re-simulates).
fn load_partial(path: &Path, expect_workload: &str) -> Option<RunResult> {
    match read_envelope(path, MODEL_VERSION) {
        Ok(payload) => match serde_json::from_str::<RunResult>(&payload) {
            Ok(r) if r.workload == expect_workload => Some(r),
            _ => {
                eprintln!(
                    "warning: partial result {} is unusable; quarantining",
                    path.display()
                );
                quarantine(path);
                None
            }
        },
        Err(CacheReadError::Missing) => None,
        Err(CacheReadError::Corrupt(why)) => {
            eprintln!(
                "warning: partial result {} is corrupt ({why}); quarantining",
                path.display()
            );
            quarantine(path);
            None
        }
    }
}

/// [`cached_suite_run`] without the exit-on-error wrapper, for callers
/// that handle [`SimError`] themselves.
///
/// # Errors
///
/// [`SimError::BadConfig`] for malformed environment knobs.
pub fn try_cached_suite_run(cfg: &SimConfig, profile: Profile) -> Result<SuiteRun, SimError> {
    let suite = profile.suite();
    let (warmup, measure) = profile.lengths();
    let use_cache = std::env::var("UCP_NO_CACHE").is_err();
    suite_run_with_cache(
        cfg,
        &suite,
        warmup,
        measure,
        &cache_dir(),
        &SuiteOptions::default(),
        use_cache,
    )
}

/// Runs `cfg` over the profile's suite, caching results on disk. The cache
/// key covers the full configuration, the suite composition and the run
/// lengths, so distinct experiments never collide. Workload failures
/// degrade the returned [`SuiteRun`] (see [`SuiteRun::marker`]); only a
/// malformed environment terminates the process (exit 2).
pub fn cached_suite_run(cfg: &SimConfig, profile: Profile) -> SuiteRun {
    let run = try_cached_suite_run(cfg, profile).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for (name, e) in &run.failures {
        eprintln!("warning: workload `{name}` failed: {e}");
    }
    run
}

/// Sums the per-workload telemetry snapshots of a result set into one
/// suite-wide [`ucp_telemetry::RegistrySnapshot`]. Empty when every result
/// came from a cache written before telemetry existed — rerun with
/// `UCP_NO_CACHE=1` to repopulate.
pub fn merged_telemetry(results: &[RunResult]) -> ucp_telemetry::RegistrySnapshot {
    let mut total = ucp_telemetry::RegistrySnapshot::default();
    for r in results {
        total.merge(&r.telemetry);
    }
    total
}

/// Suite-wide cycle-accounting breakdown: the per-workload accounting
/// counters summed, then decoded. Empty (all-zero) when the results carry
/// no telemetry.
pub fn suite_breakdown(results: &[RunResult]) -> AccountingBreakdown {
    AccountingBreakdown::from_snapshot(&merged_telemetry(results))
}

/// Checks the cycle-accounting invariant on every result: the per-category
/// cycles must sum to the accounting total, which must equal the measured
/// cycle count. Returns one message per violating workload (empty = all
/// good). Results without telemetry (pre-accounting caches) are skipped —
/// there is nothing to check.
pub fn check_accounting(results: &[RunResult]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if r.telemetry.is_empty() {
            continue;
        }
        let b = AccountingBreakdown::from_snapshot(&r.telemetry);
        if let Err(e) = b.verify() {
            bad.push(format!("{}: {e}", r.workload));
        } else if b.total != r.stats.cycles {
            bad.push(format!(
                "{}: accounting charged {} cycles but the run measured {}",
                r.workload, b.total, r.stats.cycles
            ));
        }
    }
    bad
}

/// Renders a per-workload stall-breakdown table: one row per workload with
/// the percentage of measured cycles charged to each category, plus an
/// aggregate row. Category columns are ordered by the aggregate's largest
/// share first.
pub fn stall_breakdown_table(results: &[RunResult]) -> String {
    use ucp_telemetry::CycleCause;
    let agg = suite_breakdown(results);
    if agg.is_empty() {
        return "  (no accounting data — cache predates cycle accounting; \
                rerun with UCP_NO_CACHE=1)\n"
            .to_string();
    }
    let order: Vec<CycleCause> = agg.sorted().into_iter().map(|(c, _)| c).collect();
    let mut out = format!("  {:<10}", "workload");
    for c in &order {
        out += &format!(" {:>13}", c.name());
    }
    out.push('\n');
    let row = |label: &str, b: &AccountingBreakdown| {
        let mut line = format!("  {label:<10}");
        for c in &order {
            line += &format!(" {:>12.1}%", b.share_pct(*c));
        }
        line.push('\n');
        line
    };
    for r in results {
        let b = AccountingBreakdown::from_snapshot(&r.telemetry);
        if b.is_empty() {
            continue;
        }
        out += &row(&r.workload, &b);
    }
    out += &row("ALL", &agg);
    out
}

/// Arithmetic mean.
pub fn amean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders a sorted per-workload curve (the paper's "Sorted traces"
/// x-axes): one `name value` row per workload, ascending.
pub fn sorted_curve(pairs: &mut [(String, f64)], unit: &str) -> String {
    pairs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values"));
    let mut out = String::new();
    for (name, v) in pairs.iter() {
        out.push_str(&format!("  {name:<10} {v:>8.2} {unit}\n"));
    }
    out
}

/// Renders a `min / mean / max` summary line.
pub fn summary_line(label: &str, v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{label}: min {min:.2}  mean {:.2}  max {max:.2}\n",
        amean(v)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_lengths_monotone() {
        assert!(Profile::Quick.lengths().1 < Profile::Std.lengths().1);
        assert!(Profile::Std.lengths().1 < Profile::Full.lengths().1);
        assert_eq!(Profile::Quick.suite().len(), 8);
        assert_eq!(Profile::Std.suite().len(), 30);
    }

    #[test]
    fn fnv_distinguishes() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }

    #[test]
    fn sorted_curve_sorts() {
        let mut v = vec![("b".into(), 2.0), ("a".into(), 1.0)];
        let s = sorted_curve(&mut v, "%");
        let a_pos = s.find('a').unwrap();
        let b_pos = s.find('b').unwrap();
        assert!(a_pos < b_pos);
    }

    #[test]
    fn amean_basic() {
        assert_eq!(amean(&[1.0, 3.0]), 2.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn profile_parse_rejects_unknown_tags() {
        assert_eq!(Profile::parse("quick").unwrap(), Profile::Quick);
        assert_eq!(Profile::parse("full").unwrap(), Profile::Full);
        let e = Profile::parse("fast").unwrap_err();
        assert!(e.contains("quick, std, full"), "error lists tags: {e}");
        assert!(Profile::parse("Quick").is_err(), "tags are case-sensitive");
    }

    #[test]
    fn suite_run_marker_reports_degradation() {
        use ucp_core::SimStats;
        let ok = RunResult {
            workload: "a".into(),
            stats: SimStats::default(),
            telemetry: ucp_telemetry::RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
        };
        let complete = SuiteRun::complete(vec![ok.clone()]);
        assert!(complete.is_complete());
        assert_eq!(complete.marker(), None);
        let degraded = SuiteRun {
            results: vec![ok],
            failures: vec![(
                "b".into(),
                SimError::WorkloadPanic {
                    workload: "b".into(),
                    payload: "boom".into(),
                },
            )],
            total: 2,
            resumed: 0,
        };
        assert_eq!(degraded.marker().as_deref(), Some("DEGRADED (1/2)"));
        // Deref exposes only the successful results.
        assert_eq!(degraded.len(), 1);
    }

    #[test]
    fn merged_telemetry_sums_counters() {
        use ucp_core::RunResult;
        use ucp_core::SimStats;
        let mut a = ucp_telemetry::RegistrySnapshot::default();
        a.counters.insert("ucp.walks_started".into(), 2);
        let mut b = ucp_telemetry::RegistrySnapshot::default();
        b.counters.insert("ucp.walks_started".into(), 3);
        let results = vec![
            RunResult {
                workload: "a".into(),
                stats: SimStats::default(),
                telemetry: a,
                intervals: Vec::new(),
                digests: Vec::new(),
            },
            RunResult {
                workload: "b".into(),
                stats: SimStats::default(),
                telemetry: b,
                intervals: Vec::new(),
                digests: Vec::new(),
            },
        ];
        assert_eq!(merged_telemetry(&results).counters["ucp.walks_started"], 5);
    }

    fn result_with_accounting(workload: &str, cycles: u64, uop: u64, miss: u64) -> RunResult {
        use ucp_core::SimStats;
        use ucp_telemetry::{CycleCause, TOTAL_CYCLES_PATH};
        let mut snap = ucp_telemetry::RegistrySnapshot::default();
        snap.counters
            .insert(CycleCause::DeliverUop.counter_path(), uop);
        snap.counters
            .insert(CycleCause::L1iMiss.counter_path(), miss);
        snap.counters.insert(TOTAL_CYCLES_PATH.into(), uop + miss);
        let stats = SimStats {
            cycles,
            ..Default::default()
        };
        RunResult {
            workload: workload.into(),
            stats,
            telemetry: snap,
            intervals: Vec::new(),
            digests: Vec::new(),
        }
    }

    #[test]
    fn check_accounting_flags_mismatches_only() {
        let good = result_with_accounting("good", 10, 7, 3);
        let bad = result_with_accounting("bad", 11, 7, 3); // total != cycles
        let legacy = RunResult {
            workload: "legacy".into(),
            stats: ucp_core::SimStats::default(),
            telemetry: ucp_telemetry::RegistrySnapshot::default(),
            intervals: Vec::new(),
            digests: Vec::new(),
        };
        assert!(check_accounting(&[good.clone(), legacy]).is_empty());
        let msgs = check_accounting(&[good, bad]);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("bad:"), "{msgs:?}");
    }

    #[test]
    fn stall_table_orders_by_aggregate_share() {
        let r = vec![
            result_with_accounting("w0", 10, 7, 3),
            result_with_accounting("w1", 10, 6, 4),
        ];
        let table = stall_breakdown_table(&r);
        // deliver_uop dominates the aggregate, so its column comes first.
        let uop = table.find("deliver_uop").unwrap();
        let miss = table.find("l1i_miss").unwrap();
        assert!(uop < miss, "{table}");
        assert!(table.contains("ALL"));
        assert_eq!(suite_breakdown(&r).total, 20);
    }

    #[test]
    fn prune_cache_litter_caps_partials_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("ucp-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Four stale partial dirs plus the active one, three quarantined
        // files, and a combined entry that must never be touched.
        for i in 0..4 {
            std::fs::create_dir_all(dir.join(format!("partial-old{i}"))).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let active = dir.join("partial-active");
        std::fs::create_dir_all(&active).unwrap();
        for i in 0..3 {
            std::fs::write(dir.join(format!("e{i}.json.quarantined.0")), "x").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::fs::write(dir.join("abcd.json"), "{}").unwrap();

        prune_cache_litter(&dir, &active, 2, 1);

        assert!(!dir.join("partial-old0").exists(), "oldest partial evicted");
        assert!(
            !dir.join("partial-old1").exists(),
            "2nd-oldest partial evicted"
        );
        assert!(dir.join("partial-old2").exists(), "newest partials kept");
        assert!(dir.join("partial-old3").exists());
        assert!(active.exists(), "active partial never pruned");
        assert!(!dir.join("e0.json.quarantined.0").exists());
        assert!(!dir.join("e1.json.quarantined.0").exists());
        assert!(dir.join("e2.json.quarantined.0").exists(), "newest kept");
        assert!(dir.join("abcd.json").exists(), "combined entries untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
