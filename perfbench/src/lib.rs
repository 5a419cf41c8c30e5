//! Closed-loop batch benchmark of the UCP simulator.
//!
//! Every operation is one simulation of one workload program under one
//! configuration (`SimConfig::baseline()` = "base", `SimConfig::ucp()` =
//! "ucp"). Each thread runs one simulation at a time and starts the next
//! only when it is done, until the run's time is up. The benchmark calls
//! only the public APIs of the workspace crates; the traced run times those
//! calls from outside and replays each crate's hot calls over the workload's
//! own correct-path instruction stream (the `replay` module).
//!
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod replay;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ucp_core::{run_suite_outcome, SimConfig, SimError, SimStats, Simulator, SuiteOptions};
use ucp_telemetry::{AccountingBreakdown, CycleCause, RegistrySnapshot};
use ucp_workloads::{suite, Program, WorkloadSpec};

/// The two configurations every workload runs under.
pub const CONFIGS: [&str; 2] = ["base", "ucp"];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Time of one [`HostClock`] reference run on an uncontended core of the
/// host the benchmark was defined on (2 vCPUs at 2.1 GHz).
const REF_NOMINAL_S: f64 = 0.035;

/// How slow the host runs right now, measured with a fixed reference
/// kernel on the thread that runs the simulations. The kernel is benchmark
/// code, so no change to the simulator moves it. On a shared host, other
/// tenants slow a single-thread simulation by up to 2× for minutes at a
/// time; scaling each pass's throughput by the reference's slowdown around
/// that pass halved the run-to-run spread of the single-thread workloads.
/// Under the suite's multi-thread load the reference did not track the
/// host's speed, so suite passes are not scaled.
struct HostClock {
    table: Vec<u64>,
    last_s: f64,
}

impl HostClock {
    fn new() -> Self {
        let mut clock = HostClock {
            table: vec![0; 1 << 15],
            last_s: 0.0,
        };
        reference_kernel(&mut clock.table);
        clock.last_s = reference_kernel(&mut clock.table);
        clock
    }

    /// The host's slowdown against [`REF_NOMINAL_S`] since the previous
    /// call: the mean of the reference times at both ends of the interval.
    fn slowdown(&mut self) -> f64 {
        let now = reference_kernel(&mut self.table);
        let slowdown = (self.last_s + now) / 2.0 / REF_NOMINAL_S;
        self.last_s = now;
        slowdown
    }
}

/// The reference kernel: 4 M random read-modify-writes with a
/// data-dependent branch over `table` (256 KiB); returns its host time.
fn reference_kernel(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let t = Instant::now();
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
        if table[i] & 3 == 0 {
            acc = acc.wrapping_add(table[i.wrapping_mul(7) & mask]);
        } else {
            acc ^= x;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

fn config(name: &str) -> SimConfig {
    match name {
        "base" => SimConfig::baseline(),
        _ => SimConfig::ucp(),
    }
}

/// One named benchmark workload: the programs it simulates, their run
/// lengths, and whether it goes through the experiment layer.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// The programs simulated under each configuration. Outside the suite
    /// workload each spec keeps its suite seed, so the static program is
    /// the same on every run.
    pub specs: Vec<WorkloadSpec>,
    /// Behaviour seed of every simulation: it drives the program's
    /// dynamic branch outcomes, indirect targets and data addresses.
    /// `None` uses each spec's suite seed.
    pub seed: Option<u64>,
    /// Warm-up instructions per simulation (statistics off).
    pub warmup: u64,
    /// Measured instructions per simulation (statistics on).
    pub measure: u64,
    /// `true`: simulations run through `run_suite_outcome` with
    /// [`Workload::workers`] threads; `false`: one thread drives
    /// `Simulator` directly.
    pub suite: bool,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["srv_footprint", "crypto_hot", "quick_suite"];

impl Workload {
    /// Looks up a workload by name, with `seed` as the behaviour seed.
    pub fn named(name: &str, seed: Option<u64>) -> Option<Workload> {
        let single = |name, program| {
            Some(Workload {
                name,
                specs: vec![suite::by_name(program)?],
                seed,
                warmup: 200_000,
                measure: 800_000,
                suite: false,
            })
        };
        match name {
            "srv_footprint" => single("srv_footprint", "srv08"),
            "crypto_hot" => single("crypto_hot", "crypto02"),
            // `run_suite_outcome` uses a spec's seed for its program and
            // its behaviour alike, so here the seed changes the programs.
            "quick_suite" => Some(Workload {
                name: "quick_suite",
                specs: suite::quick_suite()
                    .into_iter()
                    .map(|mut s| {
                        s.seed = seed.unwrap_or(s.seed);
                        s
                    })
                    .collect(),
                seed,
                warmup: 100_000,
                measure: 400_000,
                suite: true,
            }),
            _ => None,
        }
    }

    /// The behaviour seed of `spec`'s simulations.
    pub fn seed_of(&self, spec: &WorkloadSpec) -> u64 {
        self.seed.unwrap_or(spec.seed)
    }

    /// Threads that run simulations at the same time.
    pub fn workers(&self) -> usize {
        if self.suite {
            nproc().min(self.specs.len()).max(1)
        } else {
            1
        }
    }
}

/// Host threads available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over the serialized statistics: two runs of the same
/// (workload, config, seed) must produce the same value.
fn fingerprint(stats: &SimStats) -> u64 {
    let text = serde_json::to_string(stats).expect("SimStats serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks every operation's output and counts the failures.
#[derive(Debug, Default)]
pub struct Checker {
    seen: BTreeMap<String, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Checker {
    /// Checks one operation. It fails if the simulator returned an error,
    /// if its accounting categories do not tile its measured cycles, if it
    /// committed fewer than `measure` instructions, or if its statistics
    /// differ from an earlier operation with the same `key`
    /// (workload, config, seed). Returns `true` when it passed.
    pub fn record(
        &mut self,
        key: &str,
        result: Result<(&SimStats, &RegistrySnapshot), &SimError>,
        measure: u64,
    ) -> bool {
        self.attempted += 1;
        let verdict = match result {
            Err(e) => Err(format!("simulator error: {e}")),
            Ok((stats, telemetry)) => self.check(key, stats, telemetry, measure),
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures.push(format!("{key}: {why}"));
                false
            }
        }
    }

    fn check(
        &mut self,
        key: &str,
        stats: &SimStats,
        telemetry: &RegistrySnapshot,
        measure: u64,
    ) -> Result<(), String> {
        let acct = AccountingBreakdown::from_snapshot(telemetry);
        acct.verify()?;
        if acct.total != stats.cycles {
            return Err(format!(
                "accounting charged {} cycles but the window ran {}",
                acct.total, stats.cycles
            ));
        }
        if stats.instructions < measure {
            return Err(format!(
                "committed {} of {measure} measured instructions",
                stats.instructions
            ));
        }
        let fp = fingerprint(stats);
        match self.seen.get(key) {
            Some(&first) if first != fp => Err(format!(
                "statistics fingerprint {fp:#018x} differs from the first repeat's {first:#018x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(key.to_string(), fp);
                Ok(())
            }
        }
    }
}

/// One simulation's output, as the checks and metrics need it.
#[derive(Clone, Debug)]
struct OpResult {
    /// Measurement-window statistics.
    stats: SimStats,
    /// Measurement-window registry delta.
    telemetry: RegistrySnapshot,
}

/// Sums simulated counts over one or more simulations of a configuration.
/// Rates are pooled over the sum; IPC is the geometric mean of the
/// per-program IPCs, so `ipc_ucp / ipc_base` is the suite's geomean
/// speed-up.
#[derive(Clone, Debug, Default)]
struct Totals {
    /// Summed statistics (scalar counters only).
    stats: SimStats,
    /// Merged registry deltas.
    telemetry: RegistrySnapshot,
    ipcs: Vec<f64>,
}

impl Totals {
    /// Adds one simulation's output.
    fn add(&mut self, r: &OpResult) {
        let (t, s) = (&mut self.stats, &r.stats);
        t.instructions += s.instructions;
        t.cycles += s.cycles;
        t.uops_from_uop_cache += s.uops_from_uop_cache;
        t.uops_from_decode += s.uops_from_decode;
        t.mode_switches += s.mode_switches;
        t.cond_branches += s.cond_branches;
        t.cond_mispredicts += s.cond_mispredicts;
        t.indirect_mispredicts += s.indirect_mispredicts;
        t.btb_resteers += s.btb_resteers;
        t.l1i_accesses += s.l1i_accesses;
        t.l1i_misses += s.l1i_misses;
        t.uop_lookups += s.uop_lookups;
        t.uop_hits += s.uop_hits;
        let (tu, su) = (&mut t.ucp, &s.ucp);
        tu.walks_started += su.walks_started;
        tu.lines_prefetched += su.lines_prefetched;
        tu.entries_inserted += su.entries_inserted;
        tu.timely_used += su.timely_used;
        tu.late_used += su.late_used;
        self.telemetry.merge(&r.telemetry);
        self.ipcs.push(s.ipc());
    }

    /// Geometric-mean IPC over the added simulations.
    fn ipc(&self) -> f64 {
        let n = self.ipcs.len().max(1) as f64;
        (self.ipcs.iter().map(|x| x.ln()).sum::<f64>() / n).exp()
    }

    /// `1000 · count / instructions`.
    fn pki(&self, count: u64) -> f64 {
        ratio(1000.0 * count as f64, self.stats.instructions as f64)
    }

    /// A registry counter of the merged window.
    fn counter(&self, path: &str) -> u64 {
        self.telemetry.counters.get(path).copied().unwrap_or(0)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 for an empty slice).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// One printed metric.
#[derive(Clone, Debug)]
struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    name: String,
    /// Unit.
    unit: &'static str,
    /// Value; always finite.
    value: f64,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Host and run metadata, printed before the metrics.
    meta: Vec<(String, String)>,
    /// Metrics that go into the final JSON line.
    metrics: Vec<Metric>,
    /// Extra human-readable lines (n.a. metrics, samples).
    notes: Vec<String>,
    /// Output checks.
    checker: Checker,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// True when at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.checker.attempted > 0 && self.checker.failed == 0
    }

    /// The run's standard output: metadata, one `metric` line per metric,
    /// notes, and as the last line the JSON result object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta {k} = {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} = {} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let _ = writeln!(
            out,
            "ops_attempted = {}\nops_failed = {}",
            self.checker.attempted, self.checker.failed
        );
        for f in &self.checker.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checker.attempted,
            self.checker.failed,
            metrics.join(", ")
        );
        out
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit of the checkout in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Set-up timings of one repeat: program builds, then `Simulator::new`
/// for both configurations of every program.
struct SetupSample {
    build_s: Vec<f64>,
    new_s: Vec<f64>,
}

fn setup_once(w: &Workload) -> (Vec<Program>, SetupSample) {
    let mut sample = SetupSample {
        build_s: Vec::new(),
        new_s: Vec::new(),
    };
    let mut progs = Vec::with_capacity(w.specs.len());
    for spec in &w.specs {
        let t = Instant::now();
        let prog = std::hint::black_box(spec.build());
        sample.build_s.push(t.elapsed().as_secs_f64());
        for name in CONFIGS {
            let cfg = config(name);
            let t = Instant::now();
            let sim = Simulator::new(&prog, w.seed_of(spec), &cfg);
            sample.new_s.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(sim));
        }
        progs.push(prog);
    }
    (progs, sample)
}

/// Host time of one simulation, split at the warm-up boundary when traced.
#[derive(Clone, Copy, Debug, Default)]
struct OpTime {
    warmup_s: f64,
    measure_s: f64,
}

/// Runs one simulation of `prog`. Untraced, it is exactly what a user
/// calls (`run_full`); traced, warm-up runs through `run_to_committed`
/// first so the two phases are timed apart. Both paths simulate the same
/// cycles, which the fingerprint check confirms.
fn simulate(prog: &Program, seed: u64, cfg: &SimConfig, w: &Workload, traced: bool) -> Op {
    let mut time = OpTime::default();
    let mut sim = Simulator::new(prog, seed, cfg);
    let t = Instant::now();
    if traced {
        if let Err(e) = sim.run_to_committed(w.warmup, w.warmup) {
            return (Err(e), time);
        }
        time.warmup_s = t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let out = sim.run_full(w.warmup, w.measure);
    time.measure_s = t.elapsed().as_secs_f64();
    let out = out.map(|o| OpResult {
        stats: o.stats,
        telemetry: o.telemetry,
    });
    (out, time)
}

/// One simulation's output and host time.
type Op = (Result<OpResult, SimError>, OpTime);

/// One pass: every program of the workload simulated once under one
/// configuration, by [`Workload::workers`] threads.
struct Pass {
    wall_s: f64,
    /// Per program, in suite order: key, result, host time, attempts.
    ops: Vec<(String, Result<OpResult, SimError>, OpTime, u32)>,
    /// Seconds from the pass start until the first worker ran dry.
    first_idle_s: f64,
}

impl Pass {
    /// Simulated instructions (warm-up + measured) per host µs of the pass.
    fn mips(&self, w: &Workload) -> f64 {
        let inst: u64 = self
            .ops
            .iter()
            .filter_map(|(_, r, _, _)| r.as_ref().ok())
            .map(|r| w.warmup + r.stats.instructions)
            .sum();
        ratio(inst as f64, self.wall_s * 1e6)
    }
}

fn op_key(spec: &WorkloadSpec, seed: u64, cfg: &str, attempts: u32) -> String {
    let retry = if attempts > 1 {
        format!(" attempt {attempts}")
    } else {
        String::new()
    };
    format!("{}/{cfg}/seed {:#x}{retry}", spec.name, seed)
}

/// Untraced suite pass through the experiment layer (`run_suite_outcome`),
/// which builds each program inside its own operation.
fn suite_pass(w: &Workload, cfg_name: &str) -> Result<Pass, SimError> {
    let cfg = config(cfg_name);
    let start = Instant::now();
    let done: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let persist = |_: usize, _: &ucp_core::RunResult| {
        done.lock()
            .expect("completion log poisoned")
            .push(start.elapsed().as_secs_f64());
    };
    let outcome = run_suite_outcome(
        &w.specs,
        &cfg,
        w.warmup,
        w.measure,
        &SuiteOptions::default(),
        Some(&persist),
    )?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("completion log poisoned");
    done.sort_by(f64::total_cmp);
    let ops = w
        .specs
        .iter()
        .zip(outcome.outcomes)
        .map(|(spec, o)| {
            let r = o.outcome.map(|r| OpResult {
                stats: r.stats,
                telemetry: r.telemetry,
            });
            (
                op_key(spec, w.seed_of(spec), cfg_name, o.attempts),
                r,
                OpTime::default(),
                o.attempts,
            )
        })
        .collect();
    Ok(Pass {
        wall_s,
        ops,
        first_idle_s: first_idle(&done, w.specs.len(), w.workers(), wall_s),
    })
}

/// With `workers` threads pulling `jobs` from one queue, the queue empties
/// when the last job is taken, at the `(jobs − workers)`-th completion; the
/// next completion is the first worker to find it empty.
fn first_idle(done: &[f64], jobs: usize, workers: usize, wall_s: f64) -> f64 {
    jobs.checked_sub(workers)
        .and_then(|i| done.get(i))
        .copied()
        .unwrap_or(wall_s)
}

/// Direct pass: [`Workload::workers`] threads run `Simulator`s, traced or
/// not. Single-thread workloads reuse the programs built at set-up; the
/// suite builds each program inside its operation, as `run_suite_outcome`
/// does, so traced and untraced suite passes time the same work.
fn direct_pass(w: &Workload, progs: &[Program], cfg_name: &str, traced: bool) -> Pass {
    let cfg = config(cfg_name);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Op>>> = w.specs.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(spec) = w.specs.get(i) else { break };
        let r = if w.suite {
            simulate(&spec.build(), spec.seed, &cfg, w, traced)
        } else {
            simulate(&progs[i], w.seed_of(spec), &cfg, w, traced)
        };
        *slots[i].lock().expect("result slot poisoned") = Some(r);
    };
    let start = Instant::now();
    // A single worker runs on the calling thread: a fresh thread would get
    // its own allocator arena, which makes the peak RSS vary between runs.
    if w.workers() == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..w.workers() {
                scope.spawn(work);
            }
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let ops = w
        .specs
        .iter()
        .zip(slots)
        .map(|(spec, s)| {
            let (r, t) = s
                .into_inner()
                .expect("result slot poisoned")
                .expect("every program simulated");
            (op_key(spec, w.seed_of(spec), cfg_name, 1), r, t, 1)
        })
        .collect();
    // Tail idle time is measured on the experiment layer's own passes.
    Pass {
        wall_s,
        ops,
        first_idle_s: wall_s,
    }
}

/// Per-configuration collections over a run.
#[derive(Default)]
struct ConfigRun {
    /// Untraced throughput, as measured.
    mips: Vec<f64>,
    /// Untraced throughput at the reference host speed (see [`HostClock`]).
    ref_mips: Vec<f64>,
    traced_mips: Vec<f64>,
    /// Outputs of the first pass, per program (for the simulated metrics).
    first: Vec<OpResult>,
    warmup_ns_per_inst: Vec<f64>,
    measure_ns_per_inst: Vec<f64>,
    ns_per_cycle: Vec<f64>,
    retries: u64,
    tail_idle_s: Vec<f64>,
}

impl ConfigRun {
    /// Records a pass's timings and checks its outputs. `slowdown` is the
    /// host's [`HostClock::slowdown`] over the pass.
    fn absorb(
        &mut self,
        w: &Workload,
        pass: Pass,
        traced: bool,
        slowdown: f64,
        checker: &mut Checker,
    ) {
        let mips = pass.mips(w);
        if traced {
            self.traced_mips.push(mips);
            let (mut warm_s, mut meas_s, mut inst, mut cycles) = (0.0, 0.0, 0u64, 0u64);
            for (_, r, t, _) in &pass.ops {
                if let Ok(r) = r {
                    warm_s += t.warmup_s;
                    meas_s += t.measure_s;
                    inst += r.stats.instructions;
                    cycles += r.stats.cycles;
                }
            }
            let n = pass.ops.len() as u64;
            self.warmup_ns_per_inst
                .push(ratio(warm_s * 1e9, (w.warmup * n) as f64));
            self.measure_ns_per_inst
                .push(ratio(meas_s * 1e9, inst as f64));
            self.ns_per_cycle.push(ratio(meas_s * 1e9, cycles as f64));
        } else {
            self.mips.push(mips);
            self.ref_mips.push(mips * slowdown);
            self.tail_idle_s.push(pass.wall_s - pass.first_idle_s);
        }
        let fill = self.first.is_empty();
        for (key, r, _, attempts) in pass.ops {
            self.retries += u64::from(attempts.saturating_sub(1));
            let ok = checker.record(
                &key,
                r.as_ref().map(|r| (&r.stats, &r.telemetry)),
                w.measure,
            );
            if fill && ok {
                if let Ok(r) = r {
                    self.first.push(r);
                }
            }
        }
    }

    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for r in &self.first {
            t.add(r);
        }
        t
    }
}

/// Host and run metadata printed with every result.
fn run_meta(w: &Workload, traced: bool) -> Vec<(String, String)> {
    vec![
        ("workload".into(), w.name.into()),
        (
            "seed".into(),
            match w.seed {
                Some(s) => s.to_string(),
                None => "suite default".into(),
            },
        ),
        (
            "mode".into(),
            if traced { "traced" } else { "untraced" }.into(),
        ),
        ("nproc".into(), nproc().to_string()),
        ("workers".into(), w.workers().to_string()),
        ("git_commit".into(), git_commit()),
        ("rustc".into(), rustc_version()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("warmup_inst".into(), w.warmup.to_string()),
        ("measure_inst".into(), w.measure.to_string()),
        (
            "programs".into(),
            w.specs
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ]
}

/// Runs `w` for about `seconds` of measurement and returns everything it
/// prints. Untraced runs report the end-to-end metrics; traced runs the
/// per-layer ones.
///
/// # Errors
///
/// When the run cannot produce a result at all: a configuration error from
/// the experiment layer, or no readable peak-RSS figure.
pub fn run(w: &Workload, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report {
        meta: run_meta(w, traced),
        ..Report::default()
    };

    // Set-up: build every program and create both simulators, several
    // times; the median repeat is `setup_s`.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut new_s = Vec::new();
    let mut progs = Vec::new();
    let mut clock = (w.workers() == 1).then(HostClock::new);
    let mut slowdown = || clock.as_mut().map_or(1.0, HostClock::slowdown);
    for _ in 0..SETUP_REPEATS {
        let (p, sample) = setup_once(w);
        setup_s.push(sample.build_s.iter().chain(&sample.new_s).sum::<f64>());
        build_s.push(sample.build_s.iter().sum::<f64>() / sample.build_s.len() as f64);
        new_s.push(sample.new_s.iter().sum::<f64>() / sample.new_s.len() as f64);
        progs = p;
    }
    let setup_slowdown = slowdown();

    let untraced_pass = |name| {
        if w.suite {
            suite_pass(w, name).map_err(|e| e.to_string())
        } else {
            Ok(direct_pass(w, &progs, name, false))
        }
    };
    // One untimed round first faults in the simulators' memory and warms
    // the host caches; its outputs are checked like every other round's.
    for name in CONFIGS {
        let pass = untraced_pass(name)?;
        ConfigRun::default().absorb(w, pass, false, 1.0, &mut report.checker);
    }
    slowdown();
    // Closed loop: each round runs every configuration once (untraced, and
    // traced too in a traced run) until the time is up.
    let mut runs: BTreeMap<&str, ConfigRun> = BTreeMap::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || runs.is_empty() {
        for name in CONFIGS {
            let entry = runs.entry(name).or_default();
            let pass = untraced_pass(name)?;
            entry.absorb(w, pass, false, slowdown(), &mut report.checker);
            if traced {
                let pass = direct_pass(w, &progs, name, true);
                entry.absorb(w, pass, true, slowdown(), &mut report.checker);
            }
        }
    }

    let base = &runs["base"];
    let ucp = &runs["ucp"];
    let (tb, tu) = (base.totals(), ucp.totals());
    for (name, r) in [("base", base), ("ucp", ucp)] {
        let mut sorted = r.mips.clone();
        sorted.sort_by(f64::total_cmp);
        let shown: Vec<String> = sorted.iter().map(|m| format!("{m:.4}")).collect();
        report.notes.push(format!(
            "sim_mips_{name} as measured: median {} Minst/s, samples (n = {}, sorted): {}",
            median(&r.mips),
            sorted.len(),
            shown.join(" ")
        ));
    }
    report.notes.push(if w.workers() == 1 {
        format!(
            "host slowdown against the reference: set-up {setup_slowdown:.3}, rounds {:.3}",
            median(&base.ref_mips) / median(&base.mips)
        )
    } else {
        "host slowdown: not measured under the suite's multi-thread load (reported as measured)"
            .into()
    });
    let speedup = (ratio(tu.ipc(), tb.ipc()) - 1.0) * 100.0;
    if !traced {
        report.metric("sim_mips_base", "Minst/s", median(&base.ref_mips));
        report.metric("sim_mips_ucp", "Minst/s", median(&ucp.ref_mips));
        report.metric("setup_s", "s", median(&setup_s) / setup_slowdown);
        report.metric("peak_rss_mb", "MB", peak_rss_mb()?);
        report.metric("ipc_base", "inst/cycle", tb.ipc());
        report.metric("ipc_ucp", "inst/cycle", tu.ipc());
        report.notes.push(format!(
            "ucp_speedup_pct = {speedup} % (per-layer metric of the traced run)"
        ));
        return Ok(report);
    }

    report.metric("ucp_speedup_pct", "%", speedup);

    let layers = replay::measure(w, &progs);
    report.metric("workloads.build_ms", "ms", median(&build_s) * 1e3);
    report.metric("workloads.oracle_ns_per_inst", "ns", layers.oracle_ns);
    report.metric("core.new_ms", "ms", median(&new_s) * 1e3);
    for (name, r) in [("base", base), ("ucp", ucp)] {
        report.metric(
            format!("core.warmup_ns_per_inst.{name}"),
            "ns",
            median(&r.warmup_ns_per_inst),
        );
        report.metric(
            format!("core.measure_ns_per_inst.{name}"),
            "ns",
            median(&r.measure_ns_per_inst),
        );
        report.metric(
            format!("core.ns_per_cycle.{name}"),
            "ns",
            median(&r.ns_per_cycle),
        );
    }
    report.metric(
        "ucp.host_overhead_pct",
        "%",
        (ratio(median(&base.mips), median(&ucp.mips)) - 1.0) * 100.0,
    );
    let u = &tu.stats.ucp;
    report.metric("ucp.walks_pki", "1/kinst", tu.pki(u.walks_started));
    report.metric(
        "ucp.entries_inserted_pki",
        "1/kinst",
        tu.pki(u.entries_inserted),
    );
    report.metric(
        "ucp.lines_per_walk",
        "lines",
        ratio(u.lines_prefetched as f64, u.walks_started as f64),
    );
    report.metric("ucp.prefetch_accuracy_pct", "%", u.prefetch_accuracy_pct());
    report.metric("ucp.late_use_pct", "%", u.late_use_pct());
    report.metric("bpred.tage_ns_per_branch", "ns", layers.tage_ns);
    report.metric("bpred.ittage_ns_per_indirect", "ns", layers.ittage_ns);
    report.metric(
        "bpred.cond_mpki.base",
        "1/kinst",
        tb.pki(tb.stats.cond_mispredicts),
    );
    report.metric(
        "bpred.indirect_mpki.base",
        "1/kinst",
        tb.pki(tb.stats.indirect_mispredicts),
    );
    report.metric("frontend.uopc_ns_per_lookup", "ns", layers.uopc_lookup_ns);
    report.metric("frontend.uopc_ns_per_insert", "ns", layers.uopc_insert_ns);
    report.metric("frontend.btb_ns_per_lookup", "ns", layers.btb_ns);
    report.metric(
        "frontend.uop_hit_pct.base",
        "%",
        tb.stats.uop_hit_rate_pct(),
    );
    report.metric("frontend.uop_hit_pct.ucp", "%", tu.stats.uop_hit_rate_pct());
    report.metric("frontend.switch_pki.base", "1/kinst", tb.stats.switch_pki());
    report.metric(
        "frontend.btb_resteer_pki.base",
        "1/kinst",
        tb.pki(tb.stats.btb_resteers),
    );
    report.metric("mem.inst_ns_per_access", "ns", layers.mem_inst_ns);
    report.metric("mem.data_ns_per_access", "ns", layers.mem_data_ns);
    report.metric("mem.l1i_mpki.base", "1/kinst", tb.pki(tb.stats.l1i_misses));
    report.metric("mem.l1i_mpki.ucp", "1/kinst", tu.pki(tu.stats.l1i_misses));
    for (name, t) in [("base", &tb), ("ucp", &tu)] {
        let acct = AccountingBreakdown::from_snapshot(&t.telemetry);
        for cause in CycleCause::ALL {
            report.metric(
                format!("acct.{}_pct.{name}", cause.name()),
                "%",
                acct.share_pct(cause),
            );
        }
    }

    // Upper bounds on what each layer could save: its replayed cost per
    // call times the calls the base pipeline made in its measured window,
    // as a share of that window's host time. Replays cover correct-path
    // calls only, so these are lower bounds on the layer's real share.
    let inst = tb.stats.instructions as f64;
    let measured_ns = median(&base.measure_ns_per_inst) * inst;
    let share = |ns: f64| ratio(100.0 * ns, measured_ns);
    report.metric("share.workloads_pct", "%", share(layers.oracle_ns * inst));
    report.metric(
        "share.bpred_pct",
        "%",
        share(
            layers.tage_ns * tb.stats.cond_branches as f64
                + layers.ittage_ns * layers.indirect_per_inst * inst,
        ),
    );
    report.metric(
        "share.frontend_pct",
        "%",
        share(
            layers.uopc_lookup_ns * tb.stats.uop_lookups as f64
                + layers.uopc_insert_ns * tb.counter("frontend.uopc.demand_fills") as f64
                + layers.btb_ns * layers.branch_per_inst * inst,
        ),
    );
    report.metric(
        "share.mem_pct",
        "%",
        share(
            layers.mem_inst_ns * tb.stats.l1i_accesses as f64
                + layers.mem_data_ns * layers.data_per_inst * inst,
        ),
    );
    for (name, r) in [("base", base), ("ucp", ucp)] {
        report.metric(
            format!("trace_overhead_pct.{name}"),
            "%",
            (ratio(median(&r.mips), median(&r.traced_mips)) - 1.0) * 100.0,
        );
    }
    // The experiment layer runs only on the suite workload. The JSON line
    // must still carry every per-layer metric, so the single-thread
    // workloads report 0 there and say so.
    let tail: Vec<f64> = base
        .tail_idle_s
        .iter()
        .chain(&ucp.tail_idle_s)
        .copied()
        .collect();
    let (tail, retries) = if w.suite {
        (median(&tail), (base.retries + ucp.retries) as f64)
    } else {
        report
            .notes
            .push("experiment.tail_idle_s and experiment.retries: n.a. (single thread, no experiment layer; reported as 0)".into());
        (0.0, 0.0)
    };
    report.metric("experiment.tail_idle_s", "s", tail);
    report.metric("experiment.retries", "count", retries);
    Ok(report)
}
