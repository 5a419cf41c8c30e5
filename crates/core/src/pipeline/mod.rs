//! The cycle-level pipeline: decoupled branch-prediction-driven address
//! generation (FDP), stream/build µ-op cache frontend, event-time
//! out-of-order backend, and all the evaluation idealizations.
//!
//! # Model summary (see DESIGN.md §3 for the rationale)
//!
//! * **Address generation** walks the *predicted* path through the real
//!   static code: the BTB supplies branch targets, TAGE-SC-L directions,
//!   ITTAGE indirect targets and the RAS return addresses. The oracle
//!   stream is consulted only to classify each prediction as
//!   correct/incorrect — after the first misprediction the walker is on
//!   the wrong path and keeps generating (and fetching, and polluting)
//!   until the branch resolves, exactly like a decoupled frontend.
//! * **Fetch/deliver** consumes FTQ blocks: stream mode hits the µ-op
//!   cache (8 µ-ops, 2 windows per cycle); a miss switches to build mode
//!   (1-cycle penalty) where blocks are read from the L1I, decoded 6-wide
//!   and rebuilt into µ-op cache entries under the paper's termination
//!   rules; enough consecutive µ-op cache hits switch back.
//! * **Dispatch/backend**: µ-ops younger than an unresolved misprediction
//!   are squashed at dispatch; everything else enters the event-time
//!   backend. A mispredicted branch's completion flushes the frontend and
//!   redirects it to the corrected — i.e. the *alternate* — path, whose
//!   refill speed is precisely what UCP accelerates.

pub mod backend;

use crate::config::{PrefetcherKind, SimConfig, UopCacheModel};
use crate::error::{watchdog_from_env, DiagSnapshot, SimError};
use crate::snapshot::{
    ckpt_from_env, ckpt_root, digest_from_env, latest_valid_checkpoint, remove_run_checkpoints,
    write_checkpoint, CheckpointMeta, CheckpointPolicy, DigestRecord,
};
use crate::stats::{paths, CondCounters, SimStats};
use crate::ucp::UcpEngine;
use backend::Backend;
use sim_isa::{fnv1a64, Addr, BranchClass, DynInst, Field, InstKind, StateIo};
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use ucp_bpred::{
    push_target_history, ConfidenceEstimator, HistCheckpoint, HistoryState, Ittage, IttageParams,
    IttagePrediction, SclPrediction, TageConf, TageScL, UcpConf,
};
use ucp_frontend::{BoundedQueue, Btb, EntryEnd, Ras, RasCheckpoint, UopCache, UopEntrySpec};
use ucp_mem::{Hierarchy, HitLevel};
use ucp_prefetch::{DJolt, Entangling, FnlMma, InstPrefetcher, Mrc, NoPrefetch};
use ucp_telemetry::interval::{interval_from_env, IntervalRecord, INSTRET_PATH};
use ucp_telemetry::{
    AccountingBreakdown, Category, Counter, CycleAccounting, CycleCause, FaultPlan, Histogram,
    RegistrySnapshot, Telemetry,
};
use ucp_workloads::{Oracle, Program, WorkloadSpec};

/// The most µ-op cache entries one 32 B window can build into: 8
/// instructions, and every entry but the last holds two branches.
const MAX_WINDOW_ENTRIES: usize = 4;

/// Builds µ-op cache entries for `n` instructions starting at `start`,
/// applying the paper's termination rules: entries never cross the 32 B
/// window (callers pass window-bounded blocks), never exceed 8 µ-ops, and
/// split when a third branch would need a target slot.
///
/// # Panics
///
/// Panics if the block builds more than [`MAX_WINDOW_ENTRIES`] entries,
/// which a window-bounded block cannot.
pub(crate) fn build_entries(
    prog: &Program,
    start: Addr,
    n: u8,
    prefetched: bool,
    trigger: u64,
) -> impl Iterator<Item = UopEntrySpec> {
    let mut out = [None; MAX_WINDOW_ENTRIES];
    let mut len = 0;
    let mut push = |entry_start, num_uops, end| {
        assert!(
            len < MAX_WINDOW_ENTRIES,
            "a {n}-instruction block built more than {MAX_WINDOW_ENTRIES} µ-op cache entries"
        );
        out[len] = Some(UopEntrySpec {
            start: entry_start,
            num_uops,
            end,
            prefetched,
            trigger,
        });
        len += 1;
    };
    let mut entry_start = start;
    let mut count: u8 = 0;
    let mut branches: u8 = 0;
    for i in 0..n {
        let pc = start.offset_insts(u64::from(i));
        let is_branch = prog.inst_at(pc).is_some_and(|x| x.is_branch());
        if is_branch && branches == 2 {
            // Third branch: terminate and start a new entry in the same
            // region (another way of the same set).
            push(entry_start, count, EntryEnd::BranchSlots);
            entry_start = pc;
            count = 0;
            branches = 0;
        }
        count += 1;
        branches += u8::from(is_branch);
    }
    if count > 0 {
        push(entry_start, count, EntryEnd::WindowBoundary);
    }
    out.into_iter().flatten()
}

/// Frontend delivery mode (§II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// µ-op cache streaming (fast path).
    Stream,
    /// L1I + decoders (slow path), building µ-op cache entries.
    Build,
}

/// The kind of branch a prediction record tracks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum RecKind {
    #[default]
    Cond,
    Indirect {
        is_call: bool,
    },
    Return,
}

/// One in-flight correct-path branch prediction. Wrong-path branches get
/// none: they are squashed at dispatch before they could resolve, and a
/// flush restores state from the mispredicting branch's own checkpoints.
#[derive(Default)]
struct PredRecord {
    pc: Addr,
    kind: RecKind,
    /// Correct-path position.
    pos: u64,
    actual_taken: bool,
    actual_next: Addr,
    mispredicted: bool,
    /// Indirect with no known target: fetch stalls until execution.
    no_target: bool,
    cp_bp: HistCheckpoint,
    cp_it: HistCheckpoint,
    cp_ras: RasCheckpoint,
    cp_alt: Option<(HistCheckpoint, HistCheckpoint)>,
    scl: Option<SclPrediction>,
    itt: Option<IttagePrediction>,
    alt_scl: Option<SclPrediction>,
    alt_itt: Option<IttagePrediction>,
    h2p_tage: bool,
    h2p_ucp: bool,
}

/// Branches that need a record (all but direct jumps and calls) one fetch
/// block may hold, on either path: the limit shapes the block.
const MAX_BLOCK_RECS: usize = 4;

/// One FTQ fetch block (≤ 8 instructions inside one 32 B window).
#[derive(Clone, Copy, Debug, Default)]
struct FetchBlock {
    start: Addr,
    n: u8,
    n_cond: u8,
    /// Correct-path position of the first instruction.
    pos: Option<u64>,
    /// Index of the first wrong-path instruction (`u8::MAX` = none).
    diverge_at: u8,
    /// L1I data-ready cycle once fetch was issued.
    fetch_ready: Option<u64>,
    /// (instruction offset, record id) pairs for the block's correct-path
    /// branches.
    recs: [(u8, u64); MAX_BLOCK_RECS],
    n_recs: u8,
}

impl FetchBlock {
    fn rec_at(&self, offset: u8) -> Option<u64> {
        self.recs[..self.n_recs as usize]
            .iter()
            .find(|&&(o, _)| o == offset)
            .map(|&(_, id)| id)
    }
}

/// One µ-op waiting to dispatch.
#[derive(Clone, Copy, Debug, Default)]
struct UopQEntry {
    /// Correct-path position (`None` = wrong path, squashed at dispatch).
    pos: Option<u64>,
    ready: u64,
    rec: Option<u64>,
}

/// Interval records a measurement window keeps; once full, the oldest
/// is dropped for each new one.
const INTERVAL_CAPACITY: usize = 4096;

/// The open measurement window: where it started, the registry snapshot
/// it is carved from, and its interval time series. It lives on the
/// simulator (not on `run_full`'s stack) so that a checkpoint taken
/// mid-window carries it, and a restored run closes the window and its
/// intervals against the *original* baselines — bit-identical to an
/// uninterrupted run.
#[derive(serde::Serialize, serde::Deserialize)]
struct MeasureState {
    start_cycle: u64,
    start_committed: u64,
    reg0: RegistrySnapshot,
    /// Registry snapshot at the last interval boundary.
    mark: RegistrySnapshot,
    /// Cycle of the last interval boundary.
    mark_cycle: u64,
    /// The newest [`INTERVAL_CAPACITY`] closed intervals, oldest first.
    intervals: Vec<IntervalRecord>,
    /// Intervals closed so far, dropped ones included.
    closed: u64,
}

impl MeasureState {
    /// Opens a window at cycle `now` over the registry state `reg0`.
    fn open(now: u64, committed: u64, reg0: RegistrySnapshot) -> Self {
        MeasureState {
            start_cycle: now,
            start_committed: committed,
            mark: reg0.clone(),
            reg0,
            mark_cycle: now,
            intervals: Vec::new(),
            closed: 0,
        }
    }

    /// Closes the interval `[mark_cycle, now)` against `snap`, the
    /// registry state at `now`. A no-op when no cycle has elapsed since
    /// the last boundary, so a window never ends in an empty record.
    fn close_interval(&mut self, now: u64, snap: RegistrySnapshot) {
        if now <= self.mark_cycle {
            return;
        }
        if self.intervals.len() == INTERVAL_CAPACITY {
            self.intervals.remove(0);
        }
        self.intervals.push(IntervalRecord {
            index: self.closed,
            start_cycle: self.mark_cycle,
            end_cycle: now,
            counters: snap.delta_since(&self.mark).counters,
        });
        self.closed += 1;
        self.mark = snap;
        self.mark_cycle = now;
    }
}

/// An armed checkpoint writer (`UCP_CKPT`): destination directory,
/// cadence, retention, and the metadata identifying this run's exact
/// trajectory (embedded, with its capture point, in every checkpoint so
/// offline tools can rebuild the simulation from the file alone).
struct CkptSink {
    dir: PathBuf,
    every: u64,
    keep: usize,
    run: CheckpointMeta,
    fault: Option<Arc<FaultPlan>>,
}

/// The simulator's own counters (`pipeline.*`, plus the
/// `frontend.*`/`prefetch.*` counters whose increment sites live in the
/// pipeline rather than in the component crates). They are the
/// pipeline's only statistics: [`SimStats`] is read back from them.
struct SimTelemetry {
    handle: Telemetry,
    flushes: Counter,
    resteers: Counter,
    indirect_mispredicts: Counter,
    cond: CondCounters,
    mode_switches: Counter,
    uop_hits: Counter,
    uops_from_uop_cache: Counter,
    uops_from_decode: Counter,
    mrc_streamed_uops: Counter,
    l1i_prefetches: Counter,
    committed: Counter,
    ftq_occupancy: Histogram,
    accounting: CycleAccounting,
}

impl SimTelemetry {
    fn bound_to(handle: Telemetry) -> Self {
        let reg = &handle.registry;
        SimTelemetry {
            flushes: reg.counter("pipeline.flushes"),
            resteers: reg.counter(paths::BTB_RESTEERS),
            indirect_mispredicts: reg.counter(paths::INDIRECT_MISPREDICTS),
            cond: CondCounters::bound_to(reg),
            mode_switches: reg.counter(paths::MODE_SWITCHES),
            uop_hits: reg.counter(paths::UOP_HITS),
            uops_from_uop_cache: reg.counter(paths::UOPS_FROM_UOP_CACHE),
            uops_from_decode: reg.counter(paths::UOPS_FROM_DECODE),
            mrc_streamed_uops: reg.counter(paths::MRC_STREAMED_UOPS),
            l1i_prefetches: reg.counter(paths::L1I_PREFETCHES_ISSUED),
            committed: reg.counter(INSTRET_PATH),
            ftq_occupancy: reg.histogram("frontend.ftq.occupancy"),
            accounting: CycleAccounting::bound_to(reg),
            handle,
        }
    }
}

/// Everything one instrumented run produces: aggregate statistics, the
/// measurement-window telemetry delta, and the interval time series
/// (empty when sampling is disabled via `UCP_INTERVAL=0`).
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Aggregate statistics over the measurement window.
    pub stats: SimStats,
    /// Registry delta over the measurement window.
    pub telemetry: RegistrySnapshot,
    /// Interval samples covering the measurement window, oldest first.
    pub intervals: Vec<IntervalRecord>,
    /// Determinism-auditor digest samples over the whole run, oldest
    /// first (empty unless `UCP_DIGEST` or
    /// [`Simulator::set_digest_interval`] enabled the auditor).
    pub digests: Vec<DigestRecord>,
}

/// The full-machine simulator for one workload.
pub struct Simulator<'p> {
    cfg: SimConfig,
    prog: &'p Program,
    oracle: Oracle<'p>,
    stream: VecDeque<DynInst>,
    stream_base: u64,
    now: u64,

    bp: TageScL,
    bp_hist: HistoryState,
    ittage: Ittage,
    it_hist: HistoryState,
    btb: Btb,
    ras: Ras,
    uop_cache: Option<UopCache>,
    uop_ideal: bool,
    hier: Hierarchy,
    prefetcher: Box<dyn InstPrefetcher>,
    prefetch_pq: BoundedQueue<Addr>,
    /// Reused buffer the prefetcher drains its candidates into.
    prefetch_drained: Vec<Addr>,
    mrc: Option<Mrc>,
    mrc_filling: bool,
    mrc_stream_left: u32,
    ucp: Option<UcpEngine>,

    // Address generation.
    agen_pc: Addr,
    agen_pos: Option<u64>,
    agen_stall_until: u64,
    agen_dead: bool,
    agen_window_penalty: u32,
    pending_mispredict: Option<u64>,
    demand_btb_banks: u64,

    ftq: BoundedQueue<FetchBlock>,
    uopq: BoundedQueue<UopQEntry>,
    mode: Mode,
    fetch_stall_until: u64,
    consec_uop_hits: u32,
    head_delivered: u8,
    ideal_brcond_left: u32,
    demand_uop_banks: [bool; 2],

    // In-flight branch records: slot `i` holds record `rec_base + i`, or
    // `None` once it resolved.
    records: VecDeque<Option<PredRecord>>,
    rec_base: u64,

    backend: Backend,
    resolve_q: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,

    committed: u64,
    last_commit_cycle: u64,
    last_retired_pc: Option<Addr>,
    measure_state: Option<MeasureState>,
    tele: SimTelemetry,
    /// Interval length in cycles (`None` = no interval time series).
    interval: Option<u64>,

    // Checkpointing (`UCP_CKPT`) and the determinism auditor
    // (`UCP_DIGEST`).
    ckpt: Option<CkptSink>,
    last_ckpt_committed: u64,
    digest_every: Option<u64>,
    last_digest_committed: u64,
    digests: Vec<DigestRecord>,

    // Resilience: hang watchdog window (None = disabled) and the
    // deterministic fault-injection hooks (`UCP_FAULT`).
    watchdog: Option<u64>,
    hang_injected: bool,
    skew_invariant: bool,

    // Per-cycle attribution scratch, reset at the top of `cycle()`.
    delivered_uop: bool,
    delivered_decode: bool,
    deliver_blocked: Option<CycleCause>,
    agen_stall_kind: CycleCause,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `prog` under `cfg`, with the workload's
    /// behavioural `seed`. Telemetry comes from the environment
    /// (`UCP_TRACE`); use [`Simulator::with_telemetry`] to supply a handle
    /// whose registry and trace buffer you keep.
    pub fn new(prog: &'p Program, seed: u64, cfg: &SimConfig) -> Self {
        Simulator::with_telemetry(prog, seed, cfg, Telemetry::from_env())
    }

    /// Creates a simulator wired to `telemetry`: every layer (µ-op cache,
    /// UCP engine, memory hierarchy, L1I prefetcher, the pipeline itself)
    /// registers its counters in `telemetry.registry` and emits trace
    /// events through `telemetry.tracer`.
    pub fn with_telemetry(
        prog: &'p Program,
        seed: u64,
        cfg: &SimConfig,
        telemetry: Telemetry,
    ) -> Self {
        let bp = TageScL::new(cfg.bpred);
        let bp_hist = bp.new_history();
        let ittage = Ittage::new(IttageParams::main_64k());
        let it_hist = ittage.new_history();
        let (mut uop_cache, uop_ideal) = match &cfg.uop_cache {
            UopCacheModel::None => (None, false),
            UopCacheModel::Ideal => (None, true),
            UopCacheModel::Real(c) => (Some(UopCache::new(c.clone())), false),
        };
        if let Some(uc) = uop_cache.as_mut() {
            uc.attach_telemetry(&telemetry);
        }
        let mut prefetcher: Box<dyn InstPrefetcher> = match cfg.prefetcher {
            PrefetcherKind::None => Box::new(NoPrefetch),
            PrefetcherKind::FnlMma => Box::new(FnlMma::new(false)),
            PrefetcherKind::FnlMmaPlusPlus => Box::new(FnlMma::new(true)),
            PrefetcherKind::DJolt => Box::new(DJolt::new()),
            PrefetcherKind::Ep => Box::new(Entangling::new(false)),
            PrefetcherKind::EpPlusPlus => Box::new(Entangling::new(true)),
        };
        prefetcher.attach_telemetry(&telemetry);
        let mut hier = Hierarchy::new(&cfg.mem);
        hier.attach_telemetry(&telemetry);
        let ucp = cfg.ucp.enabled.then(|| {
            let mut u = UcpEngine::new(cfg.ucp.clone());
            u.attach_telemetry(&telemetry);
            u
        });
        let entry = prog.entry();
        Simulator {
            oracle: Oracle::new(prog, seed),
            stream: VecDeque::with_capacity(4096),
            stream_base: 0,
            now: 0,
            bp,
            bp_hist,
            ittage,
            it_hist,
            btb: Btb::new(cfg.btb.clone()),
            ras: Ras::new(64),
            uop_cache,
            uop_ideal,
            hier,
            prefetcher,
            prefetch_pq: BoundedQueue::new(32),
            prefetch_drained: Vec::new(),
            mrc: cfg.mrc_entries.map(Mrc::new),
            mrc_filling: false,
            mrc_stream_left: 0,
            ucp,
            agen_pc: entry,
            agen_pos: Some(0),
            agen_stall_until: 0,
            agen_dead: false,
            agen_window_penalty: 0,
            pending_mispredict: None,
            demand_btb_banks: 0,
            ftq: BoundedQueue::new(cfg.frontend.ftq_entries),
            uopq: BoundedQueue::new(cfg.frontend.uop_queue_entries),
            mode: Mode::Build,
            fetch_stall_until: 0,
            consec_uop_hits: 0,
            head_delivered: 0,
            ideal_brcond_left: 0,
            demand_uop_banks: [false; 2],
            records: VecDeque::with_capacity(1024),
            rec_base: 1,
            backend: Backend::new(cfg.backend.clone()),
            resolve_q: BinaryHeap::new(),
            committed: 0,
            last_commit_cycle: 0,
            last_retired_pc: None,
            measure_state: None,
            tele: SimTelemetry::bound_to(telemetry),
            // Constructors cannot return Result without breaking every
            // embedding; malformed env knobs are hard errors here. Suite
            // runners validate the environment first and surface
            // `SimError::BadConfig` before any Simulator is built.
            interval: interval_from_env().unwrap_or_else(|e| panic!("{e}")),
            ckpt: None,
            last_ckpt_committed: 0,
            digest_every: digest_from_env().unwrap_or_else(|e| panic!("{e}")),
            last_digest_committed: 0,
            digests: Vec::new(),
            watchdog: watchdog_from_env().unwrap_or_else(|e| panic!("{e}")),
            hang_injected: false,
            skew_invariant: false,
            delivered_uop: false,
            delivered_decode: false,
            deliver_blocked: None,
            agen_stall_kind: CycleCause::Drained,
            prog,
            cfg: cfg.clone(),
        }
    }

    /// Replaces the interval length in cycles (read from `UCP_INTERVAL`
    /// by default). `None` disables the interval time series; tools like
    /// `trace_dump` pass an explicit length to force it on.
    pub fn set_interval(&mut self, cycles: Option<u64>) {
        self.interval = cycles;
    }

    /// Replaces the hang-watchdog window (constructed from `UCP_WATCHDOG`
    /// by default). `None` disables hang detection — a livelocked
    /// pipeline then spins until killed externally.
    pub fn set_watchdog(&mut self, cycles: Option<u64>) {
        self.watchdog = cycles;
    }

    /// Fault-injection hook (`UCP_FAULT=hang:...`): the run loop stops
    /// simulating, so nothing retires and the hang watchdog must
    /// terminate the run with [`SimError::Hang`].
    pub fn inject_hang(&mut self) {
        self.hang_injected = true;
    }

    /// Fault-injection hook (`UCP_FAULT=invariant:...`): counts one extra
    /// mode switch when the measurement window opens, and skews the
    /// end-of-run cycle-accounting total by one cycle, forcing
    /// [`SimError::InvariantViolation`].
    pub fn inject_invariant_skew(&mut self) {
        self.skew_invariant = true;
    }

    /// Captures the machine state for failure diagnostics (the
    /// divergence bisector also dumps a replayed and a recorded machine
    /// side by side through this).
    pub fn diagnostics(&mut self) -> DiagSnapshot {
        DiagSnapshot {
            cycle: self.now,
            committed: self.committed,
            last_commit_cycle: self.last_commit_cycle,
            last_retired_pc: self.last_retired_pc.map(Addr::raw),
            agen_pc: self.agen_pc.raw(),
            agen_dead: self.agen_dead,
            pending_mispredict: self.pending_mispredict.is_some(),
            ftq_depth: self.ftq.len(),
            uopq_depth: self.uopq.len(),
            rob_occupancy: self.backend.occupancy(),
            accounting: AccountingBreakdown::from_snapshot(&self.tele.handle.registry.snapshot()),
            state_digest: self.state_digest(),
        }
    }

    /// The hang watchdog: no retirement for a full window means the
    /// pipeline is livelocked (always a simulator bug, never a workload
    /// property) — terminate with a diagnostic snapshot instead of
    /// spinning forever.
    fn hang_check(&mut self) -> Result<(), SimError> {
        match self.watchdog {
            Some(window) if self.now - self.last_commit_cycle >= window => Err(SimError::Hang {
                workload: String::new(),
                window,
                snapshot: Box::new(self.diagnostics()),
            }),
            _ => Ok(()),
        }
    }

    /// The telemetry handle this simulator reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele.handle
    }

    /// Convenience: build the workload's program and run it, panicking on
    /// any [`SimError`] (tests and tools that prefer a crash to a
    /// degraded result). Honours `UCP_CKPT` like the suite runner: the
    /// run resumes from, and writes, mid-run checkpoints.
    pub fn run_spec(spec: &WorkloadSpec, cfg: &SimConfig, warmup: u64, measure: u64) -> SimStats {
        let prog = spec.build();
        let mut sim = Simulator::new(&prog, spec.seed, cfg);
        let out = sim
            .init_checkpointing(spec, warmup, measure, None)
            .and_then(|_| sim.run_full(warmup, measure))
            .unwrap_or_else(|e| panic!("{e}"));
        sim.finish_checkpointing();
        out.stats
    }

    /// Runs `warmup` instructions, then `measure` instructions in the
    /// measurement window, and returns the window's statistics, registry
    /// delta and interval time series. This is the one run entry point;
    /// failures are structured: the hang watchdog is checked every cycle,
    /// and the end-of-run cycle-accounting invariant (per-category cycles
    /// tile the measured total) is reported as
    /// [`SimError::InvariantViolation`] instead of aborting the process —
    /// one bad workload must not kill a 30-workload suite. Under
    /// `cfg(test)` the invariant stays a hard assert so unit tests fail
    /// loudly at the exact site.
    pub fn run_full(&mut self, warmup: u64, measure: u64) -> Result<RunOutput, SimError> {
        // A simulator restored from a mid-measurement checkpoint re-enters
        // here with its window already open — the restored
        // `measure_state` makes the resumed run retrace exactly the cycles
        // the interrupted one would have executed.
        loop {
            if self.measure_state.is_none() && self.committed >= warmup {
                self.begin_measurement();
            }
            if let Some(ms) = &self.measure_state {
                if self.committed >= ms.start_committed + measure {
                    break;
                }
            }
            self.step()?;
            self.maybe_checkpoint()?;
        }
        let mut ms = self.measure_state.take().expect("measurement window open");
        let snap = self.tele.handle.registry.snapshot();
        let telemetry = snap.delta_since(&ms.reg0);
        let stats = SimStats::from_window(&telemetry, self.now - ms.start_cycle);
        if self.interval.is_some() {
            ms.close_interval(self.now, snap);
        }
        // The charger runs exactly once per cycle, so over the window the
        // categories must tile the measured cycles exactly. A violation
        // here is always an attribution bug, never a workload property.
        // Unit tests keep the hard assert (fail loudly at the site);
        // everything else gets a structured error the suite runner can
        // isolate to the one affected workload.
        let mut breakdown = AccountingBreakdown::from_snapshot(&telemetry);
        if self.skew_invariant {
            // Fault injection: desynchronise the independently-counted
            // total from the per-category sum.
            breakdown.total += 1;
        }
        let violation = match breakdown.verify() {
            Err(e) => Some(e),
            Ok(()) if breakdown.total != stats.cycles => Some(format!(
                "cycle accounting charged {} cycles but the window ran {}",
                breakdown.total, stats.cycles,
            )),
            Ok(()) => None,
        };
        if let Some(detail) = violation {
            #[cfg(test)]
            panic!("cycle accounting: {detail}");
            #[cfg(not(test))]
            return Err(SimError::InvariantViolation {
                workload: String::new(),
                detail,
                snapshot: Box::new(self.diagnostics()),
            });
        }
        Ok(RunOutput {
            stats,
            telemetry,
            intervals: ms.intervals,
            digests: std::mem::take(&mut self.digests),
        })
    }

    /// One run-loop step: the hang watchdog, one machine cycle, and the
    /// determinism auditor's cadence. A pipeline invariant the cycle finds
    /// broken ends the run with [`SimError::InvariantViolation`].
    fn step(&mut self) -> Result<(), SimError> {
        self.hang_check()?;
        if self.hang_injected {
            // Fault injection: the machine is wedged. Time passes and
            // nothing retires until the watchdog notices.
            self.now += 1;
        } else if let Err(detail) = self.cycle() {
            return Err(SimError::InvariantViolation {
                workload: String::new(),
                detail,
                snapshot: Box::new(self.diagnostics()),
            });
        }
        self.maybe_digest();
        Ok(())
    }

    /// Opens the measurement window by snapshotting the registry (warm-up
    /// may overshoot by up to one commit width; measurement runs from the
    /// actual boundary).
    fn begin_measurement(&mut self) {
        let reg0 = self.tele.handle.registry.snapshot();
        if self.skew_invariant {
            // Fault injection: perturb one statistic inside the window, so
            // the determinism auditor's digest stream visibly diverges
            // from a clean run here (the end-of-run accounting skew alone
            // never touches the serialized state).
            self.tele.mode_switches.inc();
        }
        self.measure_state = Some(MeasureState::open(self.now, self.committed, reg0));
    }

    /// The materialized correct-path instruction at absolute position `pos`.
    fn oracle_at(&mut self, pos: u64) -> DynInst {
        while self.stream_base + self.stream.len() as u64 <= pos {
            self.stream.push_back(self.oracle.next_inst());
        }
        self.stream[(pos - self.stream_base) as usize]
    }

    /// One machine cycle. `Err` describes a broken pipeline invariant.
    fn cycle(&mut self) -> Result<(), String> {
        if self.tele.handle.tracer.is_active() {
            self.tele.handle.tracer.set_cycle(self.now);
        }
        self.demand_uop_banks = [false; 2];
        self.delivered_uop = false;
        self.delivered_decode = false;
        self.deliver_blocked = None;
        self.process_resolutions();
        self.commit_stage()?;
        self.dispatch_stage();
        self.fetch_schedule_stage();
        self.deliver_stage();
        self.ucp_stage();
        self.agen_stage()?;
        self.l1i_prefetch_stage();
        self.tele.accounting.charge(self.classify_cycle());
        self.tele.ftq_occupancy.observe(self.ftq.len() as u64);
        self.now += 1;
        if let (Some(every), Some(ms)) = (self.interval, self.measure_state.as_mut()) {
            if self.now - ms.mark_cycle >= every {
                ms.close_interval(self.now, self.tele.handle.registry.snapshot());
            }
        }
        // Livelock detection lives in the run loops (`hang_check`), which
        // report a structured `SimError::Hang` instead of asserting here.
        Ok(())
    }

    /// Attributes the cycle that just executed to one [`CycleCause`],
    /// applying the precedence order documented in
    /// `ucp_telemetry::accounting`: delivery beats every stall, then the
    /// most specific recorded blocker wins.
    fn classify_cycle(&self) -> CycleCause {
        if self.delivered_uop {
            return CycleCause::DeliverUop;
        }
        if self.delivered_decode {
            return CycleCause::DeliverDecode;
        }
        if self.now < self.fetch_stall_until {
            // Covers both an in-progress mode-switch penalty window and
            // the cycle the switch itself was taken.
            return CycleCause::ModeSwitch;
        }
        if let Some(cause) = self.deliver_blocked {
            return cause;
        }
        if self.ftq.is_empty() {
            if self.agen_dead {
                // No-target indirect/return: the frontend drains until
                // the branch executes and redirects.
                return CycleCause::Drained;
            }
            if self.now < self.agen_stall_until {
                // Either a BTB-miss re-steer bubble or a flush-redirect
                // penalty; `agen_stall_kind` remembers which stalled us.
                return self.agen_stall_kind;
            }
            return CycleCause::FtqEmpty;
        }
        CycleCause::Drained
    }

    // ------------------------------------------------------------------
    // Resolution & flush
    // ------------------------------------------------------------------

    fn process_resolutions(&mut self) {
        // Lazily drop the resolved slots at the old end of the ring.
        while let Some(None) = self.records.front() {
            self.records.pop_front();
            self.rec_base += 1;
        }
        while let Some(&std::cmp::Reverse((t, id))) = self.resolve_q.peek() {
            if t > self.now {
                break;
            }
            self.resolve_q.pop();
            self.resolve(id);
        }
    }

    fn resolve(&mut self, id: u64) {
        // A record enters the resolution calendar once, when its branch
        // dispatches, and a flush strands none: every branch younger than
        // the flushing one is wrong-path.
        let rec = self.records[(id - self.rec_base) as usize]
            .take()
            .expect("a branch record resolves once");
        // Train predictors with the architectural outcome.
        match rec.kind {
            RecKind::Cond => {
                if let Some(scl) = &rec.scl {
                    self.bp.update(rec.pc, scl, rec.actual_taken);
                    self.tele.cond.record(
                        scl.provider,
                        scl.confidence_value(),
                        rec.mispredicted,
                        rec.h2p_tage,
                        rec.h2p_ucp,
                    );
                }
                if let (Some(ucp), Some(alt)) = (self.ucp.as_mut(), rec.alt_scl.as_ref()) {
                    ucp.train_cond(rec.pc, alt, rec.actual_taken);
                }
                if rec.actual_taken {
                    // Keep the BTB's taken target fresh (and allocate
                    // never-taken-before branches).
                    self.btb
                        .insert(rec.pc, rec.actual_next, BranchClass::CondDirect);
                }
            }
            RecKind::Indirect { is_call } => {
                if let Some(itt) = &rec.itt {
                    self.ittage.update(rec.pc, itt, rec.actual_next);
                }
                if let (Some(ucp), Some(alt)) = (self.ucp.as_mut(), rec.alt_itt.as_ref()) {
                    ucp.train_indirect(rec.pc, alt, rec.actual_next);
                }
                self.btb.insert(
                    rec.pc,
                    rec.actual_next,
                    if is_call {
                        BranchClass::IndirectCall
                    } else {
                        BranchClass::IndirectJump
                    },
                );
                if rec.mispredicted && !rec.no_target {
                    self.tele.indirect_mispredicts.inc();
                }
            }
            RecKind::Return => {
                if rec.mispredicted {
                    self.tele.indirect_mispredicts.inc();
                }
            }
        }
        if rec.mispredicted {
            self.do_flush(rec);
        }
    }

    fn do_flush(&mut self, rec: PredRecord) {
        self.tele.flushes.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Pipeline, "flush", || {
                format!(
                    "pc={:#x} kind={:?} next={:#x}",
                    rec.pc.raw(),
                    rec.kind,
                    rec.actual_next.raw()
                )
            });
        // Restore speculative state to just before this branch, then apply
        // the architectural outcome.
        self.bp_hist.restore(&rec.cp_bp);
        self.it_hist.restore(&rec.cp_it);
        self.ras.restore(&rec.cp_ras);
        let transferred = rec.actual_next != rec.pc.next_inst() || rec.kind != RecKind::Cond;
        if rec.kind == RecKind::Cond {
            self.bp_hist.push(rec.actual_taken);
        }
        if transferred {
            push_target_history(&mut self.it_hist, rec.actual_next);
        }
        match rec.kind {
            RecKind::Indirect { is_call: true } => self.ras.push(rec.pc.next_inst()),
            RecKind::Return => {
                let _ = self.ras.pop();
            }
            _ => {}
        }
        if let Some(ucp) = self.ucp.as_mut() {
            let cps = rec.cp_alt.expect("UCP checkpoints present when enabled");
            ucp.on_flush(
                cps,
                (rec.kind == RecKind::Cond).then_some(rec.actual_taken),
                transferred.then_some(rec.actual_next),
            );
        }
        self.ftq.clear();
        self.uopq.clear();
        self.head_delivered = 0;
        self.agen_pc = rec.actual_next;
        self.agen_pos = Some(rec.pos + 1);
        self.agen_dead = false;
        self.pending_mispredict = None;
        self.agen_stall_until = self.now + self.cfg.frontend.redirect_penalty;
        self.agen_stall_kind = CycleCause::Drained;
        self.prefetcher.on_redirect();
        if rec.kind == RecKind::Cond {
            if let Some(n) = self.cfg.ideal_brcond {
                self.ideal_brcond_left = n;
            }
            if let Some(mrc) = self.mrc.as_mut() {
                if let Some(uops) = mrc.lookup(rec.actual_next) {
                    self.mrc_stream_left = uops;
                    self.tele.mrc_streamed_uops.add(u64::from(uops));
                }
                mrc.allocate(rec.actual_next);
                self.mrc_filling = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit & dispatch
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) -> Result<(), String> {
        let head = self.backend.head_pos();
        let n = self.backend.commit(self.now);
        if n == 0 {
            return Ok(());
        }
        // The ROB holds consecutive correct-path positions, so checking
        // each cycle's oldest retiree checks the whole commit order.
        if head != Some(self.stream_base) {
            return Err(format!(
                "out-of-order commit: retired position {head:?}, expected {}",
                self.stream_base
            ));
        }
        let n64 = u64::from(n);
        self.last_retired_pc = Some(self.stream[n as usize - 1].pc);
        self.stream.drain(..n as usize);
        self.stream_base += n64;
        self.committed += n64;
        if self.mrc_filling {
            if let Some(mrc) = self.mrc.as_mut() {
                for _ in 0..n {
                    mrc.fill_uop();
                }
            }
        }
        self.tele.committed.add(n64);
        self.last_commit_cycle = self.now;
        Ok(())
    }

    fn dispatch_stage(&mut self) {
        let mut budget = self.cfg.frontend.dispatch_width;
        while budget > 0 {
            let Some(e) = self.uopq.front().copied() else {
                break;
            };
            if e.ready > self.now {
                break;
            }
            let Some(pos) = e.pos else {
                // Wrong-path µ-op: squashed at dispatch.
                self.uopq.pop();
                budget -= 1;
                continue;
            };
            if !self.backend.has_space() {
                break;
            }
            let d = self.oracle_at(pos);
            let mem_ready = match d.inst.kind {
                InstKind::Load => match self.hier.access_data(d.mem_addr, self.now + 1, false) {
                    Ok(a) => Some(a.ready),
                    Err(_) => break, // L1D MSHR full: retry next cycle
                },
                InstKind::Store => {
                    // Stores update cache state in the background.
                    let _ = self.hier.access_data(d.mem_addr, self.now + 1, true);
                    None
                }
                _ => None,
            };
            let complete = self.backend.dispatch(self.now, &d, pos, mem_ready);
            if let Some(rec) = e.rec {
                self.resolve_q.push(std::cmp::Reverse((complete, rec)));
            }
            self.uopq.pop();
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch scheduling (FDP run-ahead) and delivery
    // ------------------------------------------------------------------

    /// Issues L1I fetches for FTQ blocks ahead of delivery — this is what
    /// makes the frontend *decoupled*: L1I misses (including wrong-path
    /// ones) overlap, and the standalone prefetcher observes the stream.
    #[allow(clippy::explicit_counter_loop)] // `scanned` caps work, `i` indexes
    fn fetch_schedule_stage(&mut self) {
        let mut issued = 0;
        let mut scanned = 0;
        for i in 0..self.ftq.len() {
            if issued >= self.cfg.frontend.l1i_fetches_per_cycle || scanned >= 8 {
                break;
            }
            let Some(blk) = self.ftq.get(i).copied() else {
                break;
            };
            scanned += 1;
            if blk.fetch_ready.is_some() {
                continue;
            }
            // Blocks already resident in the µ-op cache skip the L1I.
            if !self.uop_ideal {
                if let Some(uc) = &self.uop_cache {
                    if uc.probe(blk.start) {
                        self.demand_uop_banks[uc.bank_of(blk.start)] = true;
                        if let Some(b) = self.ftq.get_mut(i) {
                            b.fetch_ready = Some(self.now);
                        }
                        continue;
                    }
                }
            } else {
                if let Some(b) = self.ftq.get_mut(i) {
                    b.fetch_ready = Some(self.now);
                }
                continue;
            }
            match self.hier.access_inst(blk.start, self.now, false) {
                Ok(acc) => {
                    self.prefetcher
                        .on_access(blk.start.line(), acc.level == HitLevel::L1);
                    if let Some(b) = self.ftq.get_mut(i) {
                        b.fetch_ready = Some(acc.ready);
                    }
                    issued += 1;
                }
                Err(_) => break, // MSHR full
            }
        }
    }

    /// `true` if the head block should be treated as a µ-op cache hit.
    fn head_block_hits(&mut self, blk: &FetchBlock) -> (bool, bool, u64) {
        // Returns (hit, counts_as_forced, trigger_of_prefetched_entry).
        if self.uop_ideal {
            return (true, true, 0);
        }
        if self.ideal_brcond_left > 0 || self.mrc_stream_left > 0 {
            return (true, true, 0);
        }
        if let Some(uc) = self.uop_cache.as_mut() {
            self.demand_uop_banks[uc.bank_of(blk.start)] = true;
            if let Some(hit) = uc.lookup(blk.start) {
                if hit.num_uops >= blk.n {
                    self.tele.uop_hits.inc();
                    let trig = if hit.first_prefetch_use {
                        hit.trigger
                    } else {
                        0
                    };
                    return (true, false, trig);
                }
            }
            if self.cfg.l1i_hits_ideal && self.hier.probe_l1i(blk.start) {
                return (true, true, 0);
            }
            (false, false, 0)
        } else {
            (false, false, 0)
        }
    }

    fn deliver_block_uops(&mut self, blk: FetchBlock, ready: u64, from_cache: bool) -> bool {
        // Room check first: a block is delivered atomically.
        if self.uopq.free() < blk.n as usize {
            self.deliver_blocked = Some(CycleCause::BackendFull);
            return false;
        }
        for i in 0..blk.n {
            let pos = if i < blk.diverge_at {
                blk.pos.map(|p| p + u64::from(i))
            } else {
                None
            };
            let rec = blk.rec_at(i);
            self.uopq
                .push(UopQEntry { pos, ready, rec })
                .expect("room checked above");
        }
        if from_cache {
            self.delivered_uop = true;
            self.tele.uops_from_uop_cache.add(u64::from(blk.n));
        } else {
            self.delivered_decode = true;
            self.tele.uops_from_decode.add(u64::from(blk.n));
        }
        true
    }

    fn switch_mode(&mut self, to: Mode) {
        self.mode = to;
        self.consec_uop_hits = 0;
        self.fetch_stall_until = self.now + 1 + self.cfg.frontend.mode_switch_penalty;
        self.tele.mode_switches.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Frontend, "mode_switch", || format!("to={to:?}"));
    }

    fn deliver_stage(&mut self) {
        if self.now < self.fetch_stall_until {
            return;
        }
        let mut cache_uops = self.cfg.frontend.uops_from_cache_per_cycle;
        let mut decode_uops = self.cfg.frontend.decode_width;
        let mut windows = self.cfg.frontend.windows_per_cycle;
        let has_uop_path = self.uop_ideal || self.uop_cache.is_some();
        #[allow(clippy::while_let_loop)] // body also breaks mid-iteration
        loop {
            let Some(blk) = self.ftq.front().copied() else {
                break;
            };
            match self.mode {
                Mode::Stream => {
                    if windows == 0 || cache_uops < u32::from(blk.n) {
                        break;
                    }
                    let (hit, forced, trig) = self.head_block_hits(&blk);
                    if hit {
                        if !self.deliver_block_uops(
                            blk,
                            self.now + self.cfg.frontend.uop_path_delay,
                            true,
                        ) {
                            break;
                        }
                        if trig != 0 {
                            if let Some(ucp) = self.ucp.as_mut() {
                                ucp.record_entry_use(trig);
                            }
                        }
                        if forced {
                            self.consume_forced(&blk);
                        }
                        self.ftq.pop();
                        windows -= 1;
                        cache_uops -= u32::from(blk.n);
                        continue;
                    }
                    self.switch_mode(Mode::Build);
                    break;
                }
                Mode::Build => {
                    // Parallel µ-op cache probe at block starts.
                    if has_uop_path
                        && self.head_delivered == 0
                        && windows > 0
                        && cache_uops >= u32::from(blk.n)
                    {
                        let (hit, forced, trig) = self.head_block_hits(&blk);
                        if hit {
                            if !self.deliver_block_uops(
                                blk,
                                self.now + self.cfg.frontend.uop_path_delay,
                                true,
                            ) {
                                break;
                            }
                            if trig != 0 {
                                if let Some(ucp) = self.ucp.as_mut() {
                                    ucp.record_entry_use(trig);
                                }
                            }
                            if forced {
                                self.consume_forced(&blk);
                            }
                            self.ftq.pop();
                            windows -= 1;
                            cache_uops -= u32::from(blk.n);
                            self.consec_uop_hits += 1;
                            if self.consec_uop_hits >= self.cfg.frontend.stream_switch_hits {
                                self.switch_mode(Mode::Stream);
                                break;
                            }
                            continue;
                        }
                    }
                    // Decode (slow) path.
                    self.consec_uop_hits = 0;
                    let ready = match blk.fetch_ready {
                        Some(r) => r,
                        None => match self.hier.access_inst(blk.start, self.now, false) {
                            Ok(acc) => {
                                self.prefetcher
                                    .on_access(blk.start.line(), acc.level == HitLevel::L1);
                                if let Some(b) = self.ftq.front_mut() {
                                    b.fetch_ready = Some(acc.ready);
                                }
                                acc.ready
                            }
                            Err(_) => {
                                // L1I MSHR full: the instruction fetch
                                // itself cannot even be issued.
                                self.deliver_blocked = Some(CycleCause::L1iMiss);
                                break;
                            }
                        },
                    };
                    if ready > self.now {
                        self.deliver_blocked = Some(CycleCause::L1iMiss);
                        break;
                    }
                    let remaining = blk.n - self.head_delivered;
                    let take = (remaining as u32).min(decode_uops) as u8;
                    if take == 0 {
                        break;
                    }
                    // Deliver `take` µ-ops of the head block.
                    if self.uopq.free() < take as usize {
                        self.deliver_blocked = Some(CycleCause::BackendFull);
                        break;
                    }
                    let base_ready = self.now + self.cfg.frontend.decode_path_delay;
                    for k in 0..take {
                        let i = self.head_delivered + k;
                        let pos = if i < blk.diverge_at {
                            blk.pos.map(|p| p + u64::from(i))
                        } else {
                            None
                        };
                        let rec = blk.rec_at(i);
                        self.uopq
                            .push(UopQEntry {
                                pos,
                                ready: base_ready,
                                rec,
                            })
                            .expect("room checked");
                    }
                    self.delivered_decode = true;
                    self.tele.uops_from_decode.add(u64::from(take));
                    decode_uops -= u32::from(take);
                    self.head_delivered += take;
                    if self.head_delivered == blk.n {
                        // Block fully decoded: build µ-op cache entries.
                        if let Some(uc) = self.uop_cache.as_mut() {
                            for spec in build_entries(self.prog, blk.start, blk.n, false, 0) {
                                uc.insert(spec);
                            }
                        }
                        self.consume_forced(&blk);
                        self.ftq.pop();
                        self.head_delivered = 0;
                    }
                    if decode_uops == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// Decrements the IdealBRCond / MRC forced-hit allowances by the
    /// contents of a delivered block.
    fn consume_forced(&mut self, blk: &FetchBlock) {
        if self.ideal_brcond_left > 0 {
            self.ideal_brcond_left = self.ideal_brcond_left.saturating_sub(u32::from(blk.n_cond));
        }
        if self.mrc_stream_left > 0 {
            self.mrc_stream_left = self.mrc_stream_left.saturating_sub(u32::from(blk.n));
        }
    }

    // ------------------------------------------------------------------
    // UCP engine
    // ------------------------------------------------------------------

    fn ucp_stage(&mut self) {
        let Some(ucp) = self.ucp.as_mut() else {
            return;
        };
        let out = ucp.cycle(
            self.now,
            self.prog,
            &self.btb,
            self.uop_cache.as_mut(),
            &mut self.hier,
            self.demand_uop_banks,
            self.demand_btb_banks,
            self.mode == Mode::Stream,
        );
        if out.demand_window_steal {
            self.agen_window_penalty = 1;
        }
    }

    // ------------------------------------------------------------------
    // Address generation (the BPU of Fig. 1)
    // ------------------------------------------------------------------

    fn agen_stage(&mut self) -> Result<(), String> {
        self.demand_btb_banks = 0;
        if self.now < self.agen_stall_until || self.agen_dead {
            return Ok(());
        }
        let mut windows = self.cfg.frontend.windows_per_cycle;
        if self.agen_window_penalty > 0 {
            windows = windows.saturating_sub(self.agen_window_penalty);
            self.agen_window_penalty = 0;
        }
        for _ in 0..windows {
            if self.ftq.is_full() || self.agen_dead || self.now < self.agen_stall_until {
                break;
            }
            match self.gen_block()? {
                Some(blk) => {
                    let _ = self.ftq.push(blk);
                }
                None => break,
            }
        }
        Ok(())
    }

    fn new_record(&mut self, rec: PredRecord) -> u64 {
        let id = self.rec_base + self.records.len() as u64;
        self.records.push_back(Some(rec));
        id
    }

    /// The correct-path instruction at `pos`, where agen reached `pc`.
    /// `Err` if the two disagree: agen lost sync with the oracle.
    fn oracle_synced(&mut self, pos: u64, pc: Addr) -> Result<DynInst, String> {
        let d = self.oracle_at(pos);
        if d.pc != pc {
            return Err(format!(
                "agen desynchronized from the oracle: agen at {:#x}, correct path at {:#x} \
                 (position {pos})",
                pc.raw(),
                d.pc.raw()
            ));
        }
        Ok(d)
    }

    /// Generates one fetch block along the current (predicted) path.
    /// `Err` if agen finds itself out of sync with the oracle.
    fn gen_block(&mut self) -> Result<Option<FetchBlock>, String> {
        let start = self.agen_pc;
        let window_end = Addr::new(start.uop_window().raw() + 32);
        let pos0 = self.agen_pos;
        let mut pc = start;
        let mut cur_pos = pos0;
        let mut n: u8 = 0;
        let mut n_cond: u8 = 0;
        let mut diverge_at = u8::MAX;
        // `next` is definitely assigned on every loop exit path.
        let next;
        let mut recs = [(0u8, 0u64); MAX_BLOCK_RECS];
        let mut n_recs: u8 = 0;
        // Branches that need a record on the correct path, counted on both.
        let mut rec_slots = 0;

        loop {
            if pc == window_end || n == 8 {
                next = pc;
                break;
            }
            let Some(inst) = self.prog.inst_at(pc) else {
                // Wrong path walked off the code image: nothing to fetch.
                self.agen_dead = true;
                next = pc;
                break;
            };
            let inst = *inst;
            let Some(class) = inst.kind.branch_class() else {
                n += 1;
                pc = pc.next_inst();
                if let Some(p) = cur_pos {
                    cur_pos = Some(p + 1);
                }
                continue;
            };
            // Branch: make sure we can attach a record if one is needed.
            let needs_record = !matches!(class, BranchClass::UncondDirect | BranchClass::Call);
            if needs_record && rec_slots == MAX_BLOCK_RECS {
                next = pc;
                break;
            }
            let offset = n;
            n += 1;
            n_cond += u8::from(class == BranchClass::CondDirect);
            self.demand_btb_banks |= 1u64 << (self.btb.bank_of(pc) as u64 % 64);
            let btb_entry = self.btb.lookup(pc);

            // BTB-miss re-steer modelling (discovered at predecode): charge
            // the re-steer bubble for taken control flow.
            let btb_missed = btb_entry.is_none();

            // A wrong-path branch still predicts, pushes history and updates
            // the BTB and RAS: that shapes the wrong path it fetches. But it
            // is squashed before it can resolve, so it takes no checkpoints
            // and no record. UCP and its predicted-path mirrors follow the
            // correct path only: the paper's frontend (ChampSim) stops at an
            // unresolved misprediction, so wrong-path H2P branches never
            // trigger there, and a flush restores the mirrors anyway.
            let on_path = cur_pos.is_some();
            let cps = on_path.then(|| {
                (
                    self.bp_hist.checkpoint(),
                    self.it_hist.checkpoint(),
                    self.ras.checkpoint(),
                    self.ucp.as_ref().map(UcpEngine::checkpoints),
                )
            });

            let (predicted_taken, predicted_next, kind, scl, itt, alt_scl, alt_itt, no_target);
            match class {
                BranchClass::CondDirect => {
                    let target = inst.kind.direct_target().expect("cond direct");
                    let p = self.bp.predict(&self.bp_hist, pc);
                    let mut a_scl = None;
                    if let Some(ucp) = self.ucp.as_mut().filter(|_| on_path) {
                        // The trigger precedes the mirror push (the
                        // alternate GHR starts from the pre-branch state).
                        if ucp.is_h2p(&p) {
                            let alt_target = if p.taken {
                                pc.next_inst()
                            } else {
                                btb_entry.map(|e| e.target).unwrap_or(target)
                            };
                            ucp.trigger(alt_target, p.taken, &self.ras);
                        }
                        a_scl = Some(ucp.on_cond_predicted(pc, p.taken));
                    }
                    self.bp_hist.push(p.taken);
                    predicted_taken = p.taken;
                    predicted_next = if p.taken { target } else { pc.next_inst() };
                    if p.taken {
                        push_target_history(&mut self.it_hist, target);
                        if let Some(ucp) = self.ucp.as_mut().filter(|_| on_path) {
                            let _ = ucp.on_taken_target(pc, target, false);
                        }
                        if btb_missed {
                            self.charge_resteer();
                            self.btb.insert(pc, target, class);
                        }
                    }
                    kind = RecKind::Cond;
                    scl = Some(p);
                    itt = None;
                    alt_scl = a_scl;
                    alt_itt = None;
                    no_target = false;
                }
                BranchClass::UncondDirect | BranchClass::Call => {
                    let target = inst.kind.direct_target().expect("direct");
                    if class == BranchClass::Call {
                        self.ras.push(pc.next_inst());
                    }
                    push_target_history(&mut self.it_hist, target);
                    if let Some(ucp) = self.ucp.as_mut().filter(|_| on_path) {
                        let _ = ucp.on_taken_target(pc, target, false);
                    }
                    if btb_missed {
                        self.charge_resteer();
                        self.btb.insert(pc, target, class);
                    }
                    // Direct unconditional flow cannot mispredict: no record.
                    if let Some(p) = cur_pos {
                        let d = self.oracle_synced(p, pc)?;
                        if d.next_pc != target {
                            return Err(format!(
                                "direct branch at {:#x} goes to {:#x}, the oracle to {:#x}",
                                pc.raw(),
                                target.raw(),
                                d.next_pc.raw()
                            ));
                        }
                    }
                    self.agen_pos = if diverge_at != u8::MAX {
                        None
                    } else {
                        cur_pos.map(|p| p + 1)
                    };
                    self.agen_pc = target;
                    return Ok(Some(FetchBlock {
                        start,
                        n,
                        n_cond,
                        pos: pos0,
                        diverge_at,
                        fetch_ready: None,
                        recs,
                        n_recs,
                    }));
                }
                BranchClass::Return => {
                    let ras_target = self.ras.pop();
                    let fallback = btb_entry.map(|e| e.target).filter(|t| !t.is_null());
                    let t = ras_target.or(fallback);
                    if btb_missed {
                        self.charge_resteer();
                        self.btb.insert(pc, t.unwrap_or(Addr::NULL), class);
                    }
                    predicted_taken = true;
                    predicted_next = t.unwrap_or(Addr::NULL);
                    no_target = t.is_none();
                    if let Some(t) = t {
                        push_target_history(&mut self.it_hist, t);
                        if let Some(ucp) = self.ucp.as_mut().filter(|_| on_path) {
                            let _ = ucp.on_taken_target(pc, t, false);
                        }
                    }
                    kind = RecKind::Return;
                    scl = None;
                    itt = None;
                    alt_scl = None;
                    alt_itt = None;
                }
                BranchClass::IndirectJump | BranchClass::IndirectCall => {
                    let is_call = class == BranchClass::IndirectCall;
                    let p = self.ittage.predict(&self.it_hist, pc);
                    let fallback = btb_entry.map(|e| e.target).filter(|t| !t.is_null());
                    let t = p.target.or(fallback);
                    if btb_missed {
                        self.charge_resteer();
                    }
                    let mut a_itt = None;
                    predicted_taken = true;
                    predicted_next = t.unwrap_or(Addr::NULL);
                    no_target = t.is_none();
                    if let Some(t) = t {
                        if is_call {
                            self.ras.push(pc.next_inst());
                        }
                        if let Some(ucp) = self.ucp.as_mut().filter(|_| on_path) {
                            a_itt = ucp.on_taken_target(pc, t, true);
                        }
                        push_target_history(&mut self.it_hist, t);
                    }
                    kind = RecKind::Indirect { is_call };
                    scl = None;
                    itt = Some(p);
                    alt_scl = None;
                    alt_itt = a_itt;
                }
            }

            // Oracle comparison and the record (correct path only).
            let mut mispredicted = false;
            if let Some((p, (cp_bp, cp_it, cp_ras, cp_alt))) = cur_pos.zip(cps) {
                let d = self.oracle_synced(p, pc)?;
                mispredicted = no_target || d.next_pc != predicted_next;
                let id = self.new_record(PredRecord {
                    pc,
                    kind,
                    pos: p,
                    actual_taken: d.taken,
                    actual_next: d.next_pc,
                    mispredicted,
                    no_target,
                    cp_bp,
                    cp_it,
                    cp_ras,
                    cp_alt,
                    h2p_tage: scl.as_ref().is_some_and(|s| TageConf.is_h2p(s)),
                    h2p_ucp: scl.as_ref().is_some_and(|s| UcpConf.is_h2p(s)),
                    scl,
                    itt,
                    alt_scl,
                    alt_itt,
                });
                recs[n_recs as usize] = (offset, id);
                n_recs += 1;
                if mispredicted && self.pending_mispredict.is_none() {
                    self.pending_mispredict = Some(id);
                    if no_target {
                        self.tele.resteers.inc();
                    }
                }
            }
            rec_slots += 1;

            if no_target {
                // Cannot continue without a target: fetch stalls until the
                // branch executes (resolution redirects).
                self.agen_dead = true;
                pc = pc.next_inst();
                next = pc;
                break;
            }

            // Advance the walk along the predicted path.
            if mispredicted {
                // Everything after this instruction is wrong-path.
                diverge_at = n;
                cur_pos = None;
            } else if let Some(p) = cur_pos {
                cur_pos = Some(p + 1);
            }

            pc = pc.next_inst();
            if predicted_taken {
                next = predicted_next;
                break;
            }
        }

        self.agen_pc = next;
        self.agen_pos = if diverge_at != u8::MAX { None } else { cur_pos };
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(FetchBlock {
            start,
            n,
            n_cond,
            pos: pos0,
            diverge_at,
            fetch_ready: None,
            recs,
            n_recs,
        }))
    }

    fn charge_resteer(&mut self) {
        self.agen_stall_until =
            (self.now + self.cfg.frontend.btb_resteer_penalty).max(self.agen_stall_until);
        self.agen_stall_kind = CycleCause::Resteer;
        self.tele.resteers.inc();
        self.tele
            .handle
            .tracer
            .emit(Category::Frontend, "btb_resteer", String::new);
    }

    // ------------------------------------------------------------------
    // Standalone L1I prefetcher queue
    // ------------------------------------------------------------------

    fn l1i_prefetch_stage(&mut self) {
        self.prefetcher.drain(&mut self.prefetch_drained);
        for line in self.prefetch_drained.drain(..) {
            let _ = self.prefetch_pq.push(line);
        }
        if let Some(&line) = self.prefetch_pq.front() {
            if self.hier.probe_l1i(line) {
                self.prefetch_pq.pop();
            } else if self.hier.access_inst(line, self.now, true).is_ok() {
                self.prefetch_pq.pop();
                self.tele.l1i_prefetches.inc();
                self.tele
                    .handle
                    .tracer
                    .emit(Category::Prefetch, "l1i_issue", || {
                        format!("line={:#x}", line.raw())
                    });
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore and the determinism auditor
    // ------------------------------------------------------------------

    /// Arms `UCP_CKPT` checkpointing for this run and, when a valid
    /// checkpoint of the *same trajectory* (workload, seed, config, run
    /// lengths) exists on disk, restores the newest one instead of
    /// re-simulating from cycle zero. Returns the committed-instruction
    /// count resumed from, if any. `fault` arms the `torn_write` site on
    /// every checkpoint write.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] for a malformed `UCP_CKPT` value.
    pub fn init_checkpointing(
        &mut self,
        spec: &WorkloadSpec,
        warmup: u64,
        measure: u64,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<Option<u64>, SimError> {
        match ckpt_from_env().map_err(|detail| SimError::BadConfig { detail })? {
            Some(policy) => Ok(self.arm_checkpointing(spec, warmup, measure, policy, fault)),
            None => Ok(None),
        }
    }

    /// [`Simulator::init_checkpointing`] with an explicit policy instead
    /// of the environment knob (tests, offline tools).
    pub fn arm_checkpointing(
        &mut self,
        spec: &WorkloadSpec,
        warmup: u64,
        measure: u64,
        policy: CheckpointPolicy,
        fault: Option<Arc<FaultPlan>>,
    ) -> Option<u64> {
        let run = CheckpointMeta::for_run(
            spec,
            &self.cfg,
            warmup,
            measure,
            self.interval,
            self.digest_every,
        );
        let dir = ckpt_root().join(run.slug());
        let mut resumed = None;
        if let Some((meta, state)) = latest_valid_checkpoint(&dir) {
            // The slug already keys the directory by trajectory; verify
            // anyway — a slug collision must not resume a foreign machine.
            if meta.same_run(&run) {
                self.restore_from_bytes(&state);
                self.last_ckpt_committed = meta.committed;
                eprintln!(
                    "[ucp-ckpt] resuming {} (seed {}) at {} committed instructions",
                    spec.name, spec.seed, meta.committed
                );
                resumed = Some(meta.committed);
            } else {
                eprintln!(
                    "[ucp-ckpt] ignoring checkpoint for a different run in {}",
                    dir.display()
                );
            }
        }
        self.ckpt = Some(CkptSink {
            dir,
            every: policy.every,
            keep: policy.keep,
            run,
            fault,
        });
        resumed
    }

    /// Drops this run's checkpoints (a completed run can never be resumed
    /// again) and disarms the writer.
    pub fn finish_checkpointing(&mut self) {
        if let Some(sink) = self.ckpt.take() {
            remove_run_checkpoints(&sink.dir);
        }
    }

    /// Writes a checkpoint if the armed cadence says one is due.
    fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        let Some(every) = self.ckpt.as_ref().map(|s| s.every) else {
            return Ok(());
        };
        if self.committed < self.last_ckpt_committed + every {
            return Ok(());
        }
        let state = self.state_bytes();
        let sink = self.ckpt.as_ref().expect("checkpoint sink armed");
        let meta = CheckpointMeta {
            committed: self.committed,
            cycle: self.now,
            digest: fnv1a64(&state),
            ..sink.run.clone()
        };
        write_checkpoint(&sink.dir, &meta, &state, sink.keep, sink.fault.as_deref())?;
        // Fault injection (`UCP_FAULT=kill:<nth>`): die right after the
        // nth checkpoint write lands — the canonical mid-run kill the
        // resume path must recover from. The write above is atomic and
        // complete, so the checkpoint left behind is intact.
        let killed = sink.fault.as_deref().is_some_and(|p| p.should_fire("kill"));
        self.last_ckpt_committed = self.committed;
        if killed {
            panic!(
                "injected fault: killed after checkpoint at {} committed instructions",
                self.committed
            );
        }
        Ok(())
    }

    /// Records a determinism-auditor digest if the cadence says one is
    /// due. Retirement advances up to a commit width per cycle, so the
    /// threshold tracker jumps past every boundary the cycle crossed —
    /// one sample per crossing cycle, deterministically placed.
    fn maybe_digest(&mut self) {
        let Some(every) = self.digest_every else {
            return;
        };
        if self.committed < self.last_digest_committed + every {
            return;
        }
        while self.committed >= self.last_digest_committed + every {
            self.last_digest_committed += every;
        }
        let digest = self.state_digest();
        self.digests.push(DigestRecord {
            committed: self.committed,
            cycle: self.now,
            digest,
        });
    }

    /// The complete serialized machine state.
    fn state_bytes(&mut self) -> Vec<u8> {
        let mut io = StateIo::save();
        self.sync_state(&mut io);
        io.into_bytes()
    }

    /// FNV-1a digest of the complete serialized machine state.
    pub fn state_digest(&mut self) -> u64 {
        fnv1a64(&self.state_bytes())
    }

    /// The determinism auditor's digest samples so far.
    pub fn digests(&self) -> &[DigestRecord] {
        &self.digests
    }

    /// Replaces the digest cadence (constructed from `UCP_DIGEST` by
    /// default). `None` disables the determinism auditor.
    pub fn set_digest_interval(&mut self, every: Option<u64>) {
        self.digest_every = every;
    }

    /// Instructions committed so far (whole run, not the window).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Runs cycles until `target` committed instructions (whole-run
    /// count), opening the measurement window at the `warmup` boundary
    /// exactly as [`Simulator::run_full`] would, but never closing it —
    /// the divergence bisector's replay primitive. No checkpoints are
    /// written.
    ///
    /// # Errors
    ///
    /// [`SimError::Hang`] when the watchdog expires.
    pub fn run_to_committed(&mut self, target: u64, warmup: u64) -> Result<(), SimError> {
        while self.committed < target {
            if self.measure_state.is_none() && self.committed >= warmup {
                self.begin_measurement();
            }
            self.step()?;
        }
        Ok(())
    }

    /// Restores the machine from raw checkpoint state bytes.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not describe a machine built from the same
    /// workload and configuration (geometry asserts), or are truncated or
    /// corrupt (the integrity envelope normally rejects those first).
    pub fn restore_from_bytes(&mut self, state: &[u8]) {
        let mut io = StateIo::load(state);
        self.sync_state(&mut io);
        io.finish();
    }

    /// The complete mutable machine state as one checkpoint pass, every
    /// component in declaration order: [`StateIo::save`] serializes it,
    /// [`StateIo::load`] restores it. Geometry and configuration are never
    /// written — a load target must be built from the same program, seed
    /// and `SimConfig` (asserted where cheap). The resolution heap is
    /// saved sorted and records in ring-slot order, so identical machines
    /// always produce identical bytes.
    ///
    /// # Panics
    ///
    /// A load panics on any geometry or configuration mismatch, and on
    /// corrupt or truncated state (the integrity envelope rejects those
    /// before this runs; the suite layer catches the rest at its unwind
    /// boundary).
    pub fn sync_state(&mut self, io: &mut StateIo) {
        io.mark(0x5349_4d30);
        // Workload state: the oracle RNG and the materialized stream
        // (a load rebuilds the instructions from the program).
        self.oracle.sync_state(io);
        io.v(&mut self.stream_base);
        let mut stream: Vec<_> = self
            .stream
            .iter()
            .map(|d| (d.pc, d.next_pc, d.taken, d.mem_addr))
            .collect();
        io.v(&mut stream);
        if io.is_load() {
            self.stream = stream
                .into_iter()
                .map(|(pc, next_pc, taken, mem_addr)| DynInst {
                    pc,
                    inst: *self
                        .prog
                        .inst_at(pc)
                        .expect("checkpoint stream pc outside the program"),
                    next_pc,
                    taken,
                    mem_addr,
                })
                .collect();
        }
        io.v(&mut self.now);
        // Predictors.
        self.bp.sync_state(io);
        self.bp_hist.sync_state(io);
        self.ittage.sync_state(io);
        self.it_hist.sync_state(io);
        self.btb.sync_state(io);
        self.ras.sync_state(io);
        io.mark(0x5349_4d31);
        // µ-op cache, memory hierarchy, prefetchers, UCP engine.
        io.optional(
            self.uop_cache.as_mut(),
            "µ-op cache configuration",
            |io, uc| uc.sync_state(io),
        );
        self.hier.sync_state(io);
        self.prefetcher.sync_state(io);
        self.prefetch_pq.sync_state(io, "prefetch queue geometry");
        io.optional(self.mrc.as_mut(), "MRC configuration", |io, m| {
            m.sync_state(io)
        });
        io.v(&mut self.mrc_filling);
        io.v(&mut self.mrc_stream_left);
        io.optional(self.ucp.as_mut(), "UCP configuration", |io, u| {
            u.sync_state(io)
        });
        io.mark(0x5349_4d32);
        // Address generation.
        io.v(&mut self.agen_pc);
        io.v(&mut self.agen_pos);
        io.v(&mut self.agen_stall_until);
        io.v(&mut self.agen_dead);
        io.v(&mut self.agen_window_penalty);
        io.v(&mut self.pending_mispredict);
        io.v(&mut self.demand_btb_banks);
        io.choice(&mut self.agen_stall_kind, &CycleCause::ALL, "cycle cause");
        // FTQ, µ-op queue and delivery state.
        self.ftq.sync_state(io, "FTQ geometry");
        self.uopq.sync_state(io, "µ-op queue geometry");
        io.choice(&mut self.mode, &[Mode::Stream, Mode::Build], "mode");
        io.v(&mut self.fetch_stall_until);
        io.v(&mut self.consec_uop_hits);
        io.v(&mut self.head_delivered);
        io.v(&mut self.ideal_brcond_left);
        // In-flight prediction records: the id of slot 0, then the slots.
        io.v(&mut self.rec_base);
        io.v(&mut self.records);
        // Backend and the resolution calendar (heap iteration order is
        // arbitrary for equal keys: saved sorted, rebuilt on load).
        self.backend.sync_state(io);
        let mut rq: Vec<(u64, u64)> = self.resolve_q.iter().map(|x| x.0).collect();
        rq.sort_unstable();
        io.v(&mut rq);
        if io.is_load() {
            self.resolve_q = rq.into_iter().map(std::cmp::Reverse).collect();
        }
        io.mark(0x5349_4d33);
        // Commit bookkeeping and the measurement window.
        io.v(&mut self.committed);
        io.v(&mut self.last_commit_cycle);
        io.v(&mut self.last_retired_pc);
        // The registry holds every statistic and the window its baselines
        // and interval series; both go through their JSON form, whose
        // order is already stable. The interval length shapes the series,
        // so a load asserts it matches.
        let mut snap = self.tele.handle.registry.snapshot();
        sync_json(io, &mut snap, "registry snapshot");
        let mut interval = self.interval;
        io.v(&mut interval);
        assert_eq!(
            interval, self.interval,
            "interval length (UCP_INTERVAL) mismatch"
        );
        sync_json(io, &mut self.measure_state, "measurement window");
        // The determinism auditor.
        io.v(&mut self.last_digest_committed);
        io.v(&mut self.digests);
        io.mark(0x5349_4d34);
        if io.is_load() {
            self.tele.handle.registry.restore(&snap);
            // Per-cycle scratch is not serialized (it is dead between
            // cycles and reset at the top of `cycle()`); clear it
            // defensively.
            self.demand_uop_banks = [false; 2];
            self.delivered_uop = false;
            self.delivered_decode = false;
            self.deliver_blocked = None;
        }
    }
}

/// A value checkpointed through its JSON form (a length-prefixed string).
fn sync_json<T: serde::Serialize + serde::Deserialize>(io: &mut StateIo, v: &mut T, what: &str) {
    let mut json = if io.is_load() {
        String::new()
    } else {
        serde_json::to_string(v).unwrap_or_else(|e| panic!("{what} serializes: {e}"))
    };
    io.v(&mut json);
    if io.is_load() {
        *v =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("checkpoint {what} parses: {e}"));
    }
}

impl Field for PredRecord {
    fn sync_state(&mut self, io: &mut StateIo) {
        use RecKind as K;
        let kinds = [
            K::Cond,
            K::Indirect { is_call: false },
            K::Indirect { is_call: true },
            K::Return,
        ];
        io.v(&mut self.pc);
        io.choice(&mut self.kind, &kinds, "record kind");
        io.v(&mut self.pos);
        io.v(&mut self.actual_taken);
        io.v(&mut self.actual_next);
        io.v(&mut self.mispredicted);
        io.v(&mut self.no_target);
        io.v(&mut self.cp_bp);
        io.v(&mut self.cp_it);
        io.v(&mut self.cp_ras);
        io.v(&mut self.cp_alt);
        io.v(&mut self.scl);
        io.v(&mut self.itt);
        io.v(&mut self.alt_scl);
        io.v(&mut self.alt_itt);
        io.v(&mut self.h2p_tage);
        io.v(&mut self.h2p_ucp);
    }
}

impl Field for FetchBlock {
    fn sync_state(&mut self, io: &mut StateIo) {
        io.v(&mut self.start);
        io.v(&mut self.n);
        io.v(&mut self.n_cond);
        io.v(&mut self.pos);
        io.v(&mut self.diverge_at);
        io.v(&mut self.fetch_ready);
        io.v(&mut self.n_recs);
        io.each(&mut self.recs);
    }
}

impl Field for UopQEntry {
    fn sync_state(&mut self, io: &mut StateIo) {
        io.v(&mut self.pos);
        io.v(&mut self.ready);
        io.v(&mut self.rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::Registry;

    /// Runs a small baseline machine past its first 1 000 instructions,
    /// then lets `break_it` corrupt its private state, and returns the
    /// detail of the invariant violation the run stops with.
    fn violation_after(break_it: impl FnOnce(&mut Simulator)) -> String {
        let spec = WorkloadSpec::tiny("invariants", 7);
        let prog = spec.build();
        let cfg = SimConfig::baseline();
        let mut sim = Simulator::with_telemetry(&prog, spec.seed, &cfg, Telemetry::disabled());
        sim.set_interval(None);
        sim.set_digest_interval(None);
        sim.run_to_committed(1_000, 0).expect("clean warm-up");
        break_it(&mut sim);
        match sim.run_to_committed(20_000, 0) {
            Err(SimError::InvariantViolation { detail, .. }) => detail,
            other => panic!("expected an invariant violation, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_commit_stops_the_run() {
        let detail = violation_after(|sim| {
            // Make the oldest uncommitted position one older than the ROB
            // head, keeping every later position's instruction in place.
            let oldest = sim.stream[0];
            sim.stream.push_front(oldest);
            sim.stream_base -= 1;
        });
        assert!(detail.contains("out-of-order commit"), "{detail}");
    }

    #[test]
    fn agen_oracle_desync_stops_the_run() {
        let detail = violation_after(|sim| {
            while sim.agen_pos.is_none() || sim.agen_dead {
                sim.step().expect("clean run");
            }
            // Agen now believes it is one instruction further along the
            // correct path than it is.
            sim.agen_pos = sim.agen_pos.map(|p| p + 1);
        });
        assert!(detail.contains("desynchronized"), "{detail}");
    }

    #[test]
    fn window_keeps_the_newest_intervals() {
        let reg = Registry::default();
        let c = reg.counter("x");
        let mut ms = MeasureState::open(0, 0, reg.snapshot());
        let n = INTERVAL_CAPACITY as u64 + 5;
        for cycle in 1..=n {
            c.inc();
            ms.close_interval(cycle, reg.snapshot());
        }
        assert_eq!(ms.intervals.len(), INTERVAL_CAPACITY);
        assert_eq!(ms.closed, n);
        // The five oldest went first; indices keep counting across drops.
        assert_eq!(ms.intervals[0].index, 5);
        assert_eq!(ms.intervals[0].start_cycle, 5);
        for w in ms.intervals.windows(2) {
            assert_eq!(w[1].index, w[0].index + 1);
            assert_eq!(w[0].end_cycle, w[1].start_cycle);
        }
        assert!(ms.intervals.iter().all(|r| r.counter("x") == 1));
    }

    #[test]
    fn window_closing_on_a_boundary_adds_no_empty_record() {
        let reg = Registry::default();
        let c = reg.counter("warmup.noise");
        c.add(1000);
        let mut ms = MeasureState::open(50, 0, reg.snapshot());
        c.add(3);
        // The cadence closes [50, 60); the window then closes at 60 too.
        ms.close_interval(60, reg.snapshot());
        ms.close_interval(60, reg.snapshot());
        assert_eq!(ms.intervals.len(), 1);
        assert_eq!(ms.closed, 1);
        // Activity before the window opened is not in the delta.
        assert_eq!(ms.intervals[0].counter("warmup.noise"), 3);
        assert_eq!(
            (ms.intervals[0].start_cycle, ms.intervals[0].end_cycle),
            (50, 60)
        );
    }
}
