//! The UCP engine: alternate-path µ-op cache prefetching (§IV).
//!
//! On a low-confidence (H2P) conditional prediction, the engine starts
//! walking the *alternate* path — the direction the main predictor did not
//! choose — using its own small predictors (Alt-BP, Alt-Ind, Alt-RAS) and
//! the shared banked BTB. Generated fetch blocks flow through the Alt-FTQ,
//! a µ-op cache tag check, the µ-op cache MSHR and the L1I prefetch queue;
//! returning lines are decoded by dedicated alternate decoders and
//! inserted into the µ-op cache, ready to accelerate the pipeline refill if
//! the H2P branch indeed mispredicts.
//!
//! The stopping heuristic accumulates the paper's Table I weights into a
//! saturating counter and terminates the walk at a threshold (500 by
//! default, swept in Fig. 15), on a BTB miss, on an indirect branch without
//! Alt-Ind, or after 63 branch-free instructions.

use crate::config::{ConfKind, UcpConfig};
use crate::stats::paths;
use sim_isa::{Addr, BranchClass, Field, StateIo};
use ucp_bpred::{
    push_target_history, ConfidenceEstimator, HistCheckpoint, HistoryState, Ittage, IttageParams,
    IttagePrediction, Provider, SclPrediction, SclPreset, TageConf, TageScL, UcpConf,
};
use ucp_frontend::{BoundedQueue, Btb, Ras, UopCache};
use ucp_mem::Hierarchy;
use ucp_telemetry::{Category, Counter, Telemetry, Tracer};
use ucp_workloads::Program;

/// A fetch block generated on the alternate path.
#[derive(Clone, Copy, Debug, Default)]
pub struct AltBlock {
    /// First instruction address.
    pub start: Addr,
    /// Instructions in the block (≤ 8, within one 32 B window).
    pub n: u8,
    /// The H2P trigger instance that generated this block.
    pub trigger: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct PendingPf {
    block: AltBlock,
    ready: u64,
}

/// The active alternate-path walk.
#[derive(Debug)]
struct AltWalk {
    pc: Addr,
    hist: HistoryState,
    path_hist: HistoryState,
    weight: u32,
    threshold: u32,
    insts_since_branch: u32,
    trigger: u64,
    /// 3-bit saturating BTB-conflict delay counter (§IV-C).
    conflict_ctr: u8,
}

/// Why a walk ended (one `ucp.stopped_*` counter each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopReason {
    Threshold,
    BtbMiss,
    Indirect,
    NoBranch,
}

/// Per-cycle outputs the pipeline needs from the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct UcpCycleOut {
    /// The alternate path saturated its conflict counter and wins the BTB
    /// banks next cycle; the demand path loses one prediction window.
    pub demand_window_steal: bool,
}

/// The engine's statistics: one `ucp.*` registry counter per event
/// (paths in [`paths`]), detached until [`UcpEngine::attach_telemetry`].
/// The pipeline reads them back as a [`crate::UcpStats`] over its
/// measurement window.
#[derive(Debug, Default)]
struct UcpTelemetry {
    tracer: Tracer,
    walks_started: Counter,
    walks_preempted: Counter,
    walks_stopped: Counter,
    /// One counter per [`StopReason`], indexed by `reason as usize`.
    stopped: [Counter; 4],
    lines_prefetched: Counter,
    entries_inserted: Counter,
    timely_used: Counter,
    late_used: Counter,
    filtered_present: Counter,
    demand_steals: Counter,
    btb_conflicts: Counter,
    alt_decoded_uops: Counter,
}

impl UcpTelemetry {
    fn bound_to(t: &Telemetry) -> Self {
        let c = |path| t.registry.counter(path);
        UcpTelemetry {
            tracer: t.tracer.clone(),
            walks_started: c(paths::UCP_WALKS_STARTED),
            walks_preempted: c(paths::UCP_PREEMPTED),
            walks_stopped: c(paths::UCP_WALKS_STOPPED),
            stopped: [
                paths::UCP_STOPPED_THRESHOLD,
                paths::UCP_STOPPED_BTB_MISS,
                paths::UCP_STOPPED_INDIRECT,
                paths::UCP_STOPPED_NO_BRANCH,
            ]
            .map(c),
            lines_prefetched: c(paths::UCP_LINES_PREFETCHED),
            entries_inserted: c(paths::UCP_ENTRIES_INSERTED),
            timely_used: c(paths::UCP_TIMELY_USED),
            late_used: c(paths::UCP_LATE_USED),
            filtered_present: c(paths::UCP_FILTERED_PRESENT),
            demand_steals: c(paths::UCP_DEMAND_STEALS),
            btb_conflicts: c(paths::UCP_BTB_CONFLICTS),
            alt_decoded_uops: c(paths::UCP_ALT_DECODED_UOPS),
        }
    }
}

/// The UCP alternate-path prefetch engine.
#[derive(Debug)]
pub struct UcpEngine {
    cfg: UcpConfig,
    alt_bp: TageScL,
    /// Predicted-path GHR mirror for Alt-BP (§IV-C: "Alt-BP implements two
    /// GHRs"; the second is cloned per walk).
    alt_bp_mirror: HistoryState,
    alt_ind: Option<Ittage>,
    alt_ind_mirror: HistoryState,
    alt_ras: Ras,
    walk: Option<AltWalk>,
    alt_ftq: BoundedQueue<AltBlock>,
    l1i_pq: BoundedQueue<AltBlock>,
    pending: Vec<PendingPf>,
    decode_q: BoundedQueue<AltBlock>,
    decode_progress: u32,
    trigger_seq: u64,
    /// Trigger instances considered "current" for timeliness accounting.
    recent_triggers: std::collections::VecDeque<u64>,
    tele: UcpTelemetry,
}

impl UcpEngine {
    /// Creates the engine with the 8 KB Alt-BP and, if configured, the
    /// 4 KB Alt-Ind and a 16-entry Alt-RAS.
    pub fn new(cfg: UcpConfig) -> Self {
        let alt_bp = TageScL::new(SclPreset::Alt8K);
        let alt_bp_mirror = alt_bp.new_history();
        let alt_ind = cfg.use_alt_ind.then(|| Ittage::new(IttageParams::alt_4k()));
        let alt_ind_mirror = match &alt_ind {
            Some(i) => i.new_history(),
            // A minimal placeholder history keeps checkpoint plumbing
            // uniform when Alt-Ind is absent.
            None => Ittage::new(IttageParams::alt_4k()).new_history(),
        };
        UcpEngine {
            alt_bp_mirror,
            alt_bp,
            alt_ind,
            alt_ind_mirror,
            alt_ras: Ras::new(16),
            walk: None,
            alt_ftq: BoundedQueue::new(cfg.alt_ftq_entries),
            l1i_pq: BoundedQueue::new(8),
            pending: Vec::with_capacity(cfg.uop_mshr_entries),
            decode_q: BoundedQueue::new(cfg.alt_decode_queue),
            decode_progress: 0,
            trigger_seq: 0,
            recent_triggers: std::collections::VecDeque::with_capacity(16),
            tele: UcpTelemetry::default(),
            cfg,
        }
    }

    /// Binds the `ucp.*` counters and the `Ucp` trace category to `t`'s
    /// registry and tracer. A detached engine counts into cells nobody
    /// reads.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        self.tele = UcpTelemetry::bound_to(t);
    }

    /// The configuration.
    pub fn config(&self) -> &UcpConfig {
        &self.cfg
    }

    // ---- predicted-path mirror maintenance (called by the demand BPU) ----

    /// Mirrors a conditional-outcome push and returns the Alt-BP's own
    /// prediction for training at resolution.
    pub fn on_cond_predicted(&mut self, pc: Addr, predicted_taken: bool) -> SclPrediction {
        let p = self.alt_bp.predict(&self.alt_bp_mirror, pc);
        self.alt_bp_mirror.push(predicted_taken);
        p
    }

    /// Mirrors a taken-transfer target push and returns the Alt-Ind
    /// prediction (for indirect branches) for training at resolution.
    pub fn on_taken_target(
        &mut self,
        pc: Addr,
        target: Addr,
        indirect: bool,
    ) -> Option<IttagePrediction> {
        let pred = if indirect {
            self.alt_ind
                .as_ref()
                .map(|i| i.predict(&self.alt_ind_mirror, pc))
        } else {
            None
        };
        push_target_history(&mut self.alt_ind_mirror, target);
        pred
    }

    /// Checkpoints the mirror histories (stored in the branch record).
    pub fn checkpoints(&self) -> (HistCheckpoint, HistCheckpoint) {
        (
            self.alt_bp_mirror.checkpoint(),
            self.alt_ind_mirror.checkpoint(),
        )
    }

    /// Restores the mirrors on a pipeline flush, pushes the corrected
    /// outcome, and aborts any in-flight alternate work (the paper:
    /// terminating the alternate path only requires flushing the Alt-FTQ).
    pub fn on_flush(
        &mut self,
        cps: (HistCheckpoint, HistCheckpoint),
        actual_cond: Option<bool>,
        actual_target: Option<Addr>,
    ) {
        self.alt_bp_mirror.restore(&cps.0);
        self.alt_ind_mirror.restore(&cps.1);
        if let Some(t) = actual_cond {
            self.alt_bp_mirror.push(t);
        }
        if let Some(t) = actual_target {
            push_target_history(&mut self.alt_ind_mirror, t);
        }
        self.walk = None;
        self.alt_ftq.clear();
        // In-flight memory requests complete into the µ-op cache (the
        // lines were requested; fills proceed), mirroring real hardware
        // where MSHR entries drain; the decode queue survives too.
    }

    // ---- training (called at branch resolution) ----

    /// Trains Alt-BP with the resolved conditional outcome.
    pub fn train_cond(&mut self, pc: Addr, pred: &SclPrediction, taken: bool) {
        self.alt_bp.update(pc, pred, taken);
    }

    /// Trains Alt-Ind with the resolved indirect target.
    pub fn train_indirect(&mut self, pc: Addr, pred: &IttagePrediction, target: Addr) {
        if let Some(ind) = self.alt_ind.as_mut() {
            ind.update(pc, pred, target);
        }
    }

    // ---- triggering ----

    /// Classifies a main-path prediction as H2P under the configured
    /// estimator.
    pub fn is_h2p(&self, scl: &SclPrediction) -> bool {
        match self.cfg.conf {
            ConfKind::Tage => TageConf.is_h2p(scl),
            ConfKind::Ucp => UcpConf.is_h2p(scl),
        }
    }

    /// Starts (or restarts) an alternate-path walk at `alt_target`,
    /// opposite to the predicted direction of the H2P branch. The current
    /// walk, if any, is preempted (§IV-E case 1).
    pub fn trigger(&mut self, alt_target: Addr, h2p_predicted_taken: bool, main_ras: &Ras) {
        if self.walk.is_some() {
            self.tele.walks_preempted.inc();
        }
        self.trigger_seq += 1;
        self.tele.walks_started.inc();
        let trigger_seq = self.trigger_seq;
        self.tele.tracer.emit(Category::Ucp, "walk_start", || {
            format!(
                "target={:#x} trigger={trigger_seq} h2p_taken={h2p_predicted_taken}",
                alt_target.raw()
            )
        });
        if self.recent_triggers.len() >= 16 {
            self.recent_triggers.pop_front();
        }
        self.recent_triggers.push_back(self.trigger_seq);
        // Alternate GHR: copy the pre-H2P predicted-path history... the
        // mirror already holds the history *including* the H2P branch's
        // predicted outcome (pushed by on_cond_predicted). Clone it and
        // flip the last outcome by re-pushing the opposite on a fresh copy:
        // we instead clone the mirror and push the *opposite* outcome on
        // top of the pre-branch state, which the caller guarantees by
        // triggering before mirroring the predicted outcome.
        let mut hist = self.alt_bp_mirror.clone();
        hist.push(!h2p_predicted_taken);
        let mut path_hist = self.alt_ind_mirror.clone();
        push_target_history(&mut path_hist, alt_target);
        self.alt_ras.copy_from(main_ras);
        self.walk = Some(AltWalk {
            pc: alt_target,
            hist,
            path_hist,
            weight: 0,
            threshold: self.cfg.stop_threshold,
            insts_since_branch: 0,
            trigger: self.trigger_seq,
            conflict_ctr: 0,
        });
    }

    /// Records a demand hit on a prefetched entry (timeliness accounting).
    pub fn record_entry_use(&mut self, trigger: u64) {
        if self.recent_triggers.contains(&trigger) {
            self.tele.timely_used.inc();
        } else {
            self.tele.late_used.inc();
        }
    }

    /// `true` while a walk is generating addresses.
    pub fn walking(&self) -> bool {
        self.walk.is_some()
    }

    fn stop_walk(&mut self, reason: StopReason) {
        self.tele.walks_stopped.inc();
        self.tele
            .tracer
            .emit(Category::Ucp, "walk_stop", || format!("reason={reason:?}"));
        self.tele.stopped[reason as usize].inc();
        self.walk = None;
    }

    /// One engine cycle: advance the walk by one block, run the tag-check /
    /// prefetch / fill / decode pipeline.
    ///
    /// `demand_uop_banks` are the µ-op cache tag banks the demand path used
    /// this cycle; `demand_btb_banks` is a bitmask of BTB banks the demand
    /// BPU used; `demand_in_stream_mode` gates shared decoders.
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        now: u64,
        prog: &Program,
        btb: &Btb,
        uop_cache: Option<&mut UopCache>,
        hier: &mut Hierarchy,
        demand_uop_banks: [bool; 2],
        demand_btb_banks: u64,
        demand_in_stream_mode: bool,
    ) -> UcpCycleOut {
        let mut out = UcpCycleOut::default();
        self.step_walk(prog, btb, demand_btb_banks, &mut out);
        self.tag_check(uop_cache.as_deref(), demand_uop_banks);
        self.issue_prefetch(now, hier);
        self.fill(now);
        self.alt_decode(prog, uop_cache, demand_in_stream_mode);
        out
    }

    /// Generates one alternate-path fetch block.
    fn step_walk(
        &mut self,
        prog: &Program,
        btb: &Btb,
        demand_btb_banks: u64,
        out: &mut UcpCycleOut,
    ) {
        let Some(mut walk) = self.walk.take() else {
            return;
        };
        if self.alt_ftq.is_full() {
            self.walk = Some(walk);
            return;
        }
        // BTB bank arbitration at block granularity: the walk needs the
        // bank of its current PC; a conflict delays it unless the 3-bit
        // counter saturated (§IV-C).
        if !self.cfg.ideal_btb_banking {
            let bank = btb.bank_of(walk.pc);
            if demand_btb_banks & (1u64 << (bank as u64 % 64)) != 0 {
                if walk.conflict_ctr >= 7 {
                    out.demand_window_steal = true;
                    self.tele.demand_steals.inc();
                    self.tele
                        .tracer
                        .emit(Category::Ucp, "demand_window_steal", || {
                            format!("pc={:#x}", walk.pc.raw())
                        });
                    walk.conflict_ctr = 0;
                } else {
                    walk.conflict_ctr += 1;
                    self.tele.btb_conflicts.inc();
                    self.walk = Some(walk);
                    return;
                }
            }
        }

        let start = walk.pc;
        let window_end = Addr::new(start.uop_window().raw() + 32);
        let mut pc = start;
        let mut n: u8 = 0;
        let mut next = start;
        let mut stop: Option<StopReason> = None;
        loop {
            if pc == window_end || n == 8 {
                next = pc;
                break;
            }
            // Walked off the code image: nothing to prefetch here.
            if prog.inst_at(pc).is_none() {
                stop = Some(StopReason::BtbMiss);
                next = pc;
                break;
            }
            n += 1;
            walk.insts_since_branch += 1;
            if let Some(entry) = btb.probe(pc) {
                walk.insts_since_branch = 0;
                match entry.class {
                    BranchClass::CondDirect => {
                        let pred = self.alt_bp.predict(&walk.hist, pc);
                        let w = cond_stop_weight(&pred);
                        walk.weight = walk.weight.saturating_add(w);
                        if w == 1 {
                            // High-confidence branches extend the allowance.
                            walk.threshold = walk.threshold.saturating_add(1);
                        }
                        walk.hist.push(pred.taken);
                        if pred.taken {
                            push_target_history(&mut walk.path_hist, entry.target);
                            next = entry.target;
                            break;
                        }
                    }
                    BranchClass::UncondDirect => {
                        push_target_history(&mut walk.path_hist, entry.target);
                        next = entry.target;
                        break;
                    }
                    BranchClass::Call => {
                        self.alt_ras.push(pc.next_inst());
                        push_target_history(&mut walk.path_hist, entry.target);
                        next = entry.target;
                        break;
                    }
                    BranchClass::Return => {
                        walk.weight = walk.weight.saturating_add(1);
                        match self.alt_ras.pop() {
                            Some(ra) => {
                                push_target_history(&mut walk.path_hist, ra);
                                next = ra;
                            }
                            None => stop = Some(StopReason::BtbMiss),
                        }
                        break;
                    }
                    BranchClass::IndirectJump | BranchClass::IndirectCall => {
                        match &self.alt_ind {
                            Some(ind) => {
                                walk.weight = walk.weight.saturating_add(1);
                                let p = ind.predict(&walk.path_hist, pc);
                                match p.target.or(Some(entry.target)).filter(|t| !t.is_null()) {
                                    Some(t) => {
                                        if entry.class == BranchClass::IndirectCall {
                                            self.alt_ras.push(pc.next_inst());
                                        }
                                        push_target_history(&mut walk.path_hist, t);
                                        next = t;
                                    }
                                    None => stop = Some(StopReason::Indirect),
                                }
                            }
                            None => stop = Some(StopReason::Indirect),
                        }
                        break;
                    }
                }
            }
            pc = pc.next_inst();
            next = pc;
        }

        if n > 0 {
            let blk = AltBlock {
                start,
                n,
                trigger: walk.trigger,
            };
            let _ = self.alt_ftq.push(blk);
        }
        walk.pc = next;

        if stop.is_none() && walk.weight >= walk.threshold {
            stop = Some(StopReason::Threshold);
        }
        if stop.is_none() && walk.insts_since_branch >= 63 {
            stop = Some(StopReason::NoBranch);
        }
        match stop {
            Some(r) => self.stop_walk(r),
            None => self.walk = Some(walk),
        }
    }

    /// One µ-op cache tag check per cycle, arbitrated against demand.
    fn tag_check(&mut self, uop_cache: Option<&UopCache>, demand_banks: [bool; 2]) {
        let Some(blk) = self.alt_ftq.front().copied() else {
            return;
        };
        if self.pending.len() >= self.cfg.uop_mshr_entries || self.l1i_pq.is_full() {
            return;
        }
        if let Some(uc) = uop_cache {
            let bank = uc.bank_of(blk.start);
            if demand_banks[bank] {
                // Demand wins the banked tag array; retry next cycle.
                return;
            }
            if uc.probe(blk.start) {
                self.tele.filtered_present.inc();
                let _ = self.alt_ftq.pop();
                return;
            }
        }
        let _ = self.alt_ftq.pop();
        let _ = self.l1i_pq.push(blk);
    }

    /// One L1I prefetch request per cycle.
    fn issue_prefetch(&mut self, now: u64, hier: &mut Hierarchy) {
        let Some(blk) = self.l1i_pq.front().copied() else {
            return;
        };
        match hier.access_inst(blk.start.line(), now, true) {
            Ok(acc) => {
                let _ = self.l1i_pq.pop();
                self.tele.lines_prefetched.inc();
                self.tele.tracer.emit(Category::Ucp, "line_prefetch", || {
                    format!(
                        "line={:#x} trigger={} ready={}",
                        blk.start.line().raw(),
                        blk.trigger,
                        acc.ready
                    )
                });
                self.pending.push(PendingPf {
                    block: blk,
                    ready: acc.ready,
                });
            }
            Err(_) => { /* L1I MSHR full; retry next cycle */ }
        }
    }

    /// Moves completed prefetches into the alternate decode queue.
    fn fill(&mut self, now: u64) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].ready <= now {
                let pf = self.pending.swap_remove(i);
                if self.cfg.till_l1i {
                    // UCP-TillL1I: the line is in the L1I; no µ-op fill.
                    continue;
                }
                if self.decode_q.push(pf.block).is_err() {
                    // Decode queue full: the line misses its window
                    // (stays in L1I only).
                    continue;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Decodes queued alternate blocks and inserts µ-op cache entries.
    fn alt_decode(
        &mut self,
        prog: &Program,
        uop_cache: Option<&mut UopCache>,
        demand_in_stream_mode: bool,
    ) {
        let Some(uc) = uop_cache else {
            return;
        };
        if self.cfg.till_l1i {
            return;
        }
        let mut budget = if self.cfg.shared_decoders {
            // Shared decoders: the alternate path decodes only while the
            // demand path is streaming from the µ-op cache (§VI-F).
            if demand_in_stream_mode {
                self.cfg.alt_decoders
            } else {
                0
            }
        } else {
            self.cfg.alt_decoders
        };
        while budget > 0 {
            let Some(blk) = self.decode_q.front().copied() else {
                break;
            };
            let remaining = u32::from(blk.n) - self.decode_progress;
            let take = remaining.min(budget);
            self.decode_progress += take;
            budget -= take;
            self.tele.alt_decoded_uops.add(u64::from(take));
            if self.decode_progress >= u32::from(blk.n) {
                let _ = self.decode_q.pop();
                self.decode_progress = 0;
                for spec in
                    crate::pipeline::build_entries(prog, blk.start, blk.n, true, blk.trigger)
                {
                    uc.insert(spec);
                    self.tele.entries_inserted.inc();
                }
                self.tele.tracer.emit(Category::Ucp, "alt_fill", || {
                    format!(
                        "start={:#x} n={} trigger={}",
                        blk.start.raw(),
                        blk.n,
                        blk.trigger
                    )
                });
            }
        }
    }

    /// Checkpoint layout: both alternate predictors, the predicted-path
    /// mirrors, the Alt-RAS, the in-flight walk, and all queues.
    /// Telemetry handles are rebound on attach, not checkpointed.
    pub fn sync_state(&mut self, io: &mut StateIo) {
        io.mark(0x7cb0);
        self.alt_bp.sync_state(io);
        self.alt_bp_mirror.sync_state(io);
        let alt_ind = self.alt_ind.as_mut();
        io.optional(alt_ind, "UCP Alt-Ind configuration", |io, i| {
            i.sync_state(io)
        });
        self.alt_ind_mirror.sync_state(io);
        self.alt_ras.sync_state(io);
        let mut walking = self.walk.is_some();
        io.v(&mut walking);
        if walking != self.walk.is_some() {
            // A load found a walk. Its histories carry geometry: start
            // from the same-geometry mirrors, then overwrite them.
            self.walk = walking.then(|| AltWalk {
                pc: Addr::NULL,
                hist: self.alt_bp_mirror.clone(),
                path_hist: self.alt_ind_mirror.clone(),
                weight: 0,
                threshold: 0,
                insts_since_branch: 0,
                trigger: 0,
                conflict_ctr: 0,
            });
        }
        if let Some(walk) = &mut self.walk {
            io.v(&mut walk.pc);
            walk.hist.sync_state(io);
            walk.path_hist.sync_state(io);
            io.v(&mut walk.weight);
            io.v(&mut walk.threshold);
            io.v(&mut walk.insts_since_branch);
            io.v(&mut walk.trigger);
            io.v(&mut walk.conflict_ctr);
        }
        self.alt_ftq.sync_state(io, "alt queue geometry");
        self.l1i_pq.sync_state(io, "alt queue geometry");
        io.v(&mut self.pending);
        self.decode_q.sync_state(io, "alt queue geometry");
        io.v(&mut self.decode_progress);
        io.v(&mut self.trigger_seq);
        io.v(&mut self.recent_triggers);
        io.mark(0x7cb1);
    }
}

impl Field for AltBlock {
    fn sync_state(&mut self, io: &mut StateIo) {
        io.v(&mut self.start);
        io.v(&mut self.n);
        io.v(&mut self.trigger);
    }
}

impl Field for PendingPf {
    fn sync_state(&mut self, io: &mut StateIo) {
        io.v(&mut self.block);
        io.v(&mut self.ready);
    }
}

/// The paper's Table I stopping weights for conditional predictions on the
/// alternate path.
pub fn cond_stop_weight(p: &SclPrediction) -> u32 {
    match p.provider {
        Provider::Bimodal => match p.tage.provider_ctr {
            -2 | 1 => 1,
            _ => 2,
        },
        Provider::BimodalLow8 => match p.tage.provider_ctr {
            -2 | 1 => 2,
            _ => 6,
        },
        Provider::HitBank => match p.tage.provider_ctr {
            -4 | 3 => 1,
            -3 | 2 => 3,
            -2 | 1 => 4,
            _ => 6,
        },
        Provider::AltBank => match p.tage.provider_ctr {
            -4 | 3 => 5,
            _ => 7,
        },
        Provider::LoopPred => 1,
        Provider::Sc => {
            let m = p.sc.sum.unsigned_abs();
            if m >= 128 {
                3
            } else if m >= 64 {
                6
            } else if m >= 32 {
                8
            } else {
                10
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UcpStats;

    /// An engine whose counters land in a registry the test can read.
    fn engine() -> (UcpEngine, Telemetry) {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let t = Telemetry::disabled();
        e.attach_telemetry(&t);
        (e, t)
    }

    fn stats(t: &Telemetry) -> UcpStats {
        UcpStats::from_window(&t.registry.snapshot())
    }

    fn pred_with(provider: Provider, ctr: i8, sc_sum: i32) -> SclPrediction {
        let bp = TageScL::new(SclPreset::Alt8K);
        let h = bp.new_history();
        let mut p = bp.predict(&h, Addr::new(0x40));
        p.provider = provider;
        p.tage.provider_ctr = ctr;
        p.sc.sum = sc_sum;
        p
    }

    #[test]
    fn table1_weights() {
        assert_eq!(cond_stop_weight(&pred_with(Provider::Bimodal, 1, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Bimodal, 0, 0)), 2);
        assert_eq!(
            cond_stop_weight(&pred_with(Provider::BimodalLow8, -2, 0)),
            2
        );
        assert_eq!(
            cond_stop_weight(&pred_with(Provider::BimodalLow8, -1, 0)),
            6
        );
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 3, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, -3, 0)), 3);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 1, 0)), 4);
        assert_eq!(cond_stop_weight(&pred_with(Provider::HitBank, 0, 0)), 6);
        assert_eq!(cond_stop_weight(&pred_with(Provider::AltBank, 3, 0)), 5);
        assert_eq!(cond_stop_weight(&pred_with(Provider::AltBank, 0, 0)), 7);
        assert_eq!(cond_stop_weight(&pred_with(Provider::LoopPred, 0, 0)), 1);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 200)), 3);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, -70)), 6);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 40)), 8);
        assert_eq!(cond_stop_weight(&pred_with(Provider::Sc, 0, 10)), 10);
    }

    #[test]
    fn trigger_and_preempt() {
        let (mut e, t) = engine();
        let ras = Ras::new(64);
        e.trigger(Addr::new(0x1000), true, &ras);
        assert!(e.walking());
        assert_eq!(stats(&t).walks_started, 1);
        e.trigger(Addr::new(0x2000), false, &ras);
        assert_eq!(stats(&t).preempted, 1);
        assert_eq!(stats(&t).walks_started, 2);
    }

    #[test]
    fn flush_aborts_walk_and_clears_ftq() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let ras = Ras::new(64);
        let cps = e.checkpoints();
        e.trigger(Addr::new(0x1000), true, &ras);
        e.on_flush(cps, Some(true), None);
        assert!(!e.walking());
        assert!(e.alt_ftq.is_empty());
    }

    #[test]
    fn timeliness_window() {
        let (mut e, t) = engine();
        let ras = Ras::new(64);
        e.trigger(Addr::new(0x1000), true, &ras); // trigger 1
        e.record_entry_use(1);
        assert_eq!(stats(&t).timely_used, 1);
        for i in 0..17 {
            e.trigger(Addr::new(0x1000 + i * 4), true, &ras);
        }
        // Trigger 1 has aged out of the 16-deep window.
        e.record_entry_use(1);
        assert_eq!(stats(&t).late_used, 1);
    }

    #[test]
    fn mirror_predictions_are_returned_for_training() {
        let mut e = UcpEngine::new(UcpConfig {
            enabled: true,
            ..UcpConfig::default()
        });
        let pc = Addr::new(0x400);
        for i in 0..200u32 {
            let p = e.on_cond_predicted(pc, i % 2 == 0);
            e.train_cond(pc, &p, i % 2 == 0);
        }
        // After training, the Alt-BP should track the alternating pattern.
        let p = e.on_cond_predicted(pc, true);
        let _ = p;
    }
}
