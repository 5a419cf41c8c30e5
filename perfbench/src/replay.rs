//! Per-crate host cost, measured by replaying each crate's hot public calls
//! over a workload's own correct-path instruction stream.
//!
//! The stream comes from `Oracle::next_inst`, the same source the pipeline
//! consumes. Each replay runs one kind of call in a tight loop on a fresh
//! (or identically warmed) component, three times, and keeps the median, so
//! the cost per call is measured without per-call timer overhead. Replays
//! see only correct-path calls; the pipeline also makes wrong-path and
//! alternate-path ones.

use std::hint::black_box;
use std::time::Instant;

use sim_isa::{Addr, BranchClass, InstKind};
use ucp_bpred::{push_target_history, Ittage, IttageParams, TageScL};
use ucp_core::SimConfig;
use ucp_frontend::{Btb, EntryEnd, UopCache, UopCacheConfig, UopEntrySpec};
use ucp_mem::Hierarchy;
use ucp_workloads::{Oracle, Program};

use crate::{median, ratio, Workload};

const REPEATS: usize = 3;

/// Host ns per call of each replayed layer, and the stream's call rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `Oracle::next_inst`.
    pub oracle_ns: f64,
    /// TAGE-SC-L predict + update + history push, per conditional branch.
    pub tage_ns: f64,
    /// ITTAGE predict + update + target-history push, per indirect
    /// jump or call.
    pub ittage_ns: f64,
    /// `Btb::lookup` on a BTB warmed by the same stream.
    pub btb_ns: f64,
    /// `UopCache::lookup` per fetch block, on a µ-op cache warmed by the
    /// same stream in build mode.
    pub uopc_lookup_ns: f64,
    /// `UopCache::insert` of the entries that warming built.
    pub uopc_insert_ns: f64,
    /// `Hierarchy::access_inst` per fetched line.
    pub mem_inst_ns: f64,
    /// `Hierarchy::access_data` per load or store.
    pub mem_data_ns: f64,
    /// Indirect jumps and calls per instruction.
    pub indirect_per_inst: f64,
    /// Branches per instruction.
    pub branch_per_inst: f64,
    /// Loads and stores per instruction.
    pub data_per_inst: f64,
}

/// The parts of a correct-path stream each replay needs.
#[derive(Default)]
struct Stream {
    insts: u64,
    cond: Vec<(Addr, bool)>,
    indirect: Vec<(Addr, Addr)>,
    branches: Vec<(Addr, Addr, BranchClass)>,
    /// Fetch blocks: start and instruction count, ending at a redirect or
    /// at the 32 B µ-op cache window boundary.
    blocks: Vec<(Addr, u8)>,
    /// Instruction lines, consecutive repeats removed.
    lines: Vec<Addr>,
    data: Vec<(Addr, bool)>,
}

fn capture(prog: &Program, seed: u64, n: u64) -> Stream {
    let mut s = Stream {
        insts: n,
        ..Stream::default()
    };
    let mut oracle = Oracle::new(prog, seed);
    let mut block: Option<(Addr, u8)> = None;
    for _ in 0..n {
        let d = oracle.next_inst();
        let (start, len) = block.get_or_insert((d.pc, 0));
        *len += 1;
        if s.lines.last() != Some(&d.pc.line()) {
            s.lines.push(d.pc.line());
        }
        if d.redirects() || d.pc.next_inst().uop_window_offset() == 0 {
            s.blocks.push((*start, *len));
            block = None;
        }
        if let Some(class) = d.inst.kind.branch_class() {
            let target = d.inst.kind.direct_target().unwrap_or(d.next_pc);
            s.branches.push((d.pc, target, class));
            match class {
                BranchClass::CondDirect => s.cond.push((d.pc, d.taken)),
                BranchClass::IndirectJump | BranchClass::IndirectCall => {
                    s.indirect.push((d.pc, d.next_pc))
                }
                _ => {}
            }
        }
        if d.inst.kind.is_mem() {
            s.data.push((d.mem_addr, d.inst.kind == InstKind::Store));
        }
    }
    s
}

/// Summed host ns and calls of one replay over all programs.
#[derive(Default)]
struct Acc {
    ns: f64,
    calls: usize,
}

impl Acc {
    /// Times `body` [`REPEATS`] times, each on a fresh state from `init`,
    /// and adds the median time for `calls` calls.
    fn time<S>(&mut self, calls: usize, init: impl Fn() -> S, body: impl Fn(&mut S)) {
        let mut ns = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let mut state = init();
            let t = Instant::now();
            body(&mut state);
            ns.push(t.elapsed().as_secs_f64() * 1e9);
            black_box(state);
        }
        self.ns += median(&ns);
        self.calls += calls;
    }

    fn per_call(&self) -> f64 {
        ratio(self.ns, self.calls as f64)
    }
}

/// Replays every layer over each program's first `warmup + measure`
/// correct-path instructions and returns the pooled cost per call.
pub fn measure(w: &Workload, progs: &[Program]) -> Layers {
    let cfg = SimConfig::baseline();
    let uopc_cfg = UopCacheConfig::kops_4();
    let n = w.warmup + w.measure;
    let [mut oracle, mut tage, mut ittage, mut btb, mut lookup, mut insert, mut inst, mut data] =
        std::array::from_fn(|_| Acc::default());
    let (mut insts, mut indirects, mut branches, mut mem_ops) = (0u64, 0, 0, 0);
    for (prog, spec) in progs.iter().zip(&w.specs) {
        oracle.time(
            n as usize,
            || Oracle::new(prog, w.seed_of(spec)),
            |o| {
                for _ in 0..n {
                    black_box(o.next_inst());
                }
            },
        );
        let s = capture(prog, w.seed_of(spec), n);
        insts += s.insts;
        indirects += s.indirect.len();
        branches += s.branches.len();
        mem_ops += s.data.len();

        tage.time(
            s.cond.len(),
            || {
                let bp = TageScL::new(cfg.bpred);
                let hist = bp.new_history();
                (bp, hist)
            },
            |(bp, hist)| {
                for &(pc, taken) in &s.cond {
                    let p = bp.predict(hist, pc);
                    bp.update(pc, &p, taken);
                    hist.push(taken);
                }
            },
        );
        ittage.time(
            s.indirect.len(),
            || {
                let it = Ittage::new(IttageParams::main_64k());
                let hist = it.new_history();
                (it, hist)
            },
            |(it, hist)| {
                for &(pc, target) in &s.indirect {
                    let p = it.predict(hist, pc);
                    it.update(pc, &p, target);
                    push_target_history(hist, target);
                }
            },
        );

        let mut warm_btb = Btb::new(cfg.btb.clone());
        for &(pc, target, class) in &s.branches {
            if warm_btb.lookup(pc).is_none() {
                warm_btb.insert(pc, target, class);
            }
        }
        btb.time(
            s.branches.len(),
            || warm_btb.clone(),
            |b| {
                for &(pc, _, _) in &s.branches {
                    black_box(b.lookup(pc));
                }
            },
        );

        // Build mode: a block that misses is decoded and inserted.
        let mut warm_uopc = UopCache::new(uopc_cfg.clone());
        let mut built = Vec::new();
        for &(start, len) in &s.blocks {
            if warm_uopc.lookup(start).is_none_or(|h| h.num_uops < len) {
                let entry = UopEntrySpec {
                    start,
                    num_uops: len,
                    end: EntryEnd::WindowBoundary,
                    prefetched: false,
                    trigger: 0,
                };
                warm_uopc.insert(entry);
                built.push(entry);
            }
        }
        lookup.time(
            s.blocks.len(),
            || warm_uopc.clone(),
            |u| {
                for &(start, _) in &s.blocks {
                    black_box(u.lookup(start));
                }
            },
        );
        insert.time(
            built.len(),
            || UopCache::new(uopc_cfg.clone()),
            |u| {
                for &entry in &built {
                    black_box(u.insert(entry));
                }
            },
        );

        // The clock advances to each access's ready time, like a fetch
        // unit that waits for its line, so MSHRs drain between misses.
        inst.time(
            s.lines.len(),
            || (Hierarchy::new(&cfg.mem), 0u64),
            |(h, now)| {
                for &line in &s.lines {
                    *now = match h.access_inst(line, *now, false) {
                        Ok(a) => a.ready.max(*now + 1),
                        Err(_) => *now + 1,
                    };
                }
            },
        );
        data.time(
            s.data.len(),
            || (Hierarchy::new(&cfg.mem), 0u64),
            |(h, now)| {
                for &(addr, store) in &s.data {
                    *now = match h.access_data(addr, *now, store) {
                        Ok(a) => a.ready.max(*now + 1),
                        Err(_) => *now + 1,
                    };
                }
            },
        );
    }
    let per_inst = |c: usize| ratio(c as f64, insts as f64);
    Layers {
        oracle_ns: oracle.per_call(),
        tage_ns: tage.per_call(),
        ittage_ns: ittage.per_call(),
        btb_ns: btb.per_call(),
        uopc_lookup_ns: lookup.per_call(),
        uopc_insert_ns: insert.per_call(),
        mem_inst_ns: inst.per_call(),
        mem_data_ns: data.per_call(),
        indirect_per_inst: per_inst(indirects),
        branch_per_inst: per_inst(branches),
        data_per_inst: per_inst(mem_ops),
    }
}
