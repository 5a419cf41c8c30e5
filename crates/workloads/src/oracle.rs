//! The architectural oracle: executes the program's correct path.

use crate::behavior::{hash_event, splitmix64, Behavior, CondBehavior};
use crate::program::Program;
use sim_isa::{Addr, DynInst, InstKind};

/// Executes a [`Program`] architecturally, producing the committed dynamic
/// instruction stream (the "correct path").
///
/// The oracle owns all behavioural state: per-branch occurrence counters,
/// loop iteration counters, last outcomes for correlated branches, and the
/// call stack. Given the same program and seed, the stream is identical on
/// every run.
///
/// The stream is unbounded (workload drivers loop forever); callers decide
/// how many instructions to consume.
///
/// # Examples
///
/// ```
/// use ucp_workloads::{suite, Oracle};
/// let spec = &suite::workload_suite()[0];
/// let program = spec.build();
/// let mut o = Oracle::new(&program, spec.seed);
/// for _ in 0..100 {
///     let d = o.next_inst();
///     assert!(program.inst_at(d.pc).is_some());
/// }
/// ```
#[derive(Debug)]
pub struct Oracle<'p> {
    prog: &'p Program,
    seed: u64,
    pc: Addr,
    /// Per-instruction dynamic occurrence counters.
    occ: Vec<u64>,
    /// Last outcome of each conditional branch (for `Correlated`).
    last_outcome: Vec<bool>,
    /// Loop-branch state: iterations completed in the current trip.
    loop_iter: Vec<u32>,
    /// Loop-branch state: number of completed trips (re-seeds variable trips).
    loop_exits: Vec<u32>,
    call_stack: Vec<Addr>,
    retired: u64,
}

impl<'p> Oracle<'p> {
    /// Maximum modelled call depth; deeper calls still execute but the
    /// oldest return addresses are dropped (programs are generated as DAGs,
    /// so this never triggers in practice).
    pub const MAX_CALL_DEPTH: usize = 4096;

    /// Creates an oracle positioned at the program entry.
    pub fn new(prog: &'p Program, seed: u64) -> Self {
        let n = prog.len();
        Oracle {
            prog,
            seed,
            pc: prog.entry(),
            occ: vec![0; n],
            last_outcome: vec![false; n],
            loop_iter: vec![0; n],
            loop_exits: vec![0; n],
            call_stack: Vec::with_capacity(256),
            retired: 0,
        }
    }

    /// Total instructions produced so far.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current architectural PC (the next instruction to execute).
    #[inline]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Current call depth.
    #[inline]
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    fn eval_cond(&mut self, idx: usize, occ: u64, b: &CondBehavior) -> bool {
        match *b {
            CondBehavior::Biased { taken_prob_milli } => {
                hash_event(self.seed ^ ((idx as u64) << 32) ^ occ, taken_prob_milli)
            }
            CondBehavior::Loop { min_trip, max_trip } => {
                let trips = self.loop_exits[idx];
                let trip = if min_trip == max_trip {
                    min_trip
                } else {
                    let span = u64::from(max_trip - min_trip + 1);
                    min_trip
                        + (splitmix64(self.seed ^ ((idx as u64) << 24) ^ u64::from(trips)) % span)
                            as u32
                };
                let iter = self.loop_iter[idx] + 1;
                if iter >= trip.max(1) {
                    // Exit iteration: not taken.
                    self.loop_iter[idx] = 0;
                    self.loop_exits[idx] = trips.wrapping_add(1);
                    false
                } else {
                    self.loop_iter[idx] = iter;
                    true
                }
            }
            CondBehavior::Pattern { bits, len } => {
                let pos = (occ % u64::from(len.clamp(1, 64))) as u32;
                (bits >> pos) & 1 == 1
            }
            CondBehavior::Correlated {
                other,
                invert,
                noise_milli,
            } => {
                let base = self
                    .last_outcome
                    .get(other as usize)
                    .copied()
                    .unwrap_or(false)
                    ^ invert;
                if noise_milli > 0
                    && hash_event(self.seed ^ 0xC0FE ^ ((idx as u64) << 20) ^ occ, noise_milli)
                {
                    !base
                } else {
                    base
                }
            }
        }
    }

    /// Executes one instruction and returns its dynamic record.
    ///
    /// # Panics
    ///
    /// Panics if the PC ever leaves the program image (generator bug).
    pub fn next_inst(&mut self) -> DynInst {
        let pc = self.pc;
        let idx = self
            .prog
            .index_of(pc)
            .unwrap_or_else(|| panic!("oracle PC {pc} escaped the program image"));
        let inst = *self
            .prog
            .inst_at(pc)
            .expect("index_of succeeded, inst_at must too");
        let occ = self.occ[idx];
        self.occ[idx] = occ + 1;

        let mut taken = false;
        let mut mem_addr = Addr::NULL;
        let next_pc = match inst.kind {
            InstKind::Op(_) => pc.next_inst(),
            InstKind::Load | InstKind::Store => {
                if let Behavior::Mem(m) = self.prog.behavior(idx) {
                    mem_addr = m.addr(occ, self.seed ^ ((idx as u64) << 16));
                }
                pc.next_inst()
            }
            InstKind::CondBranch { target } => {
                let b = match self.prog.behavior(idx) {
                    Behavior::Cond(c) => c.clone(),
                    // A conditional branch without a model defaults to
                    // strongly not-taken.
                    _ => CondBehavior::Biased {
                        taken_prob_milli: 20,
                    },
                };
                taken = self.eval_cond(idx, occ, &b);
                self.last_outcome[idx] = taken;
                if taken {
                    target
                } else {
                    pc.next_inst()
                }
            }
            InstKind::Jump { target } => {
                taken = true;
                target
            }
            InstKind::Call { target } => {
                taken = true;
                self.push_return(pc.next_inst());
                target
            }
            InstKind::IndirectJump => {
                taken = true;
                self.indirect_target(idx, occ)
            }
            InstKind::IndirectCall => {
                taken = true;
                self.push_return(pc.next_inst());
                self.indirect_target(idx, occ)
            }
            InstKind::Return => {
                taken = true;
                // A return with an empty stack restarts the driver; the
                // generator terminates the driver with a jump so this is a
                // safety net only.
                self.call_stack.pop().unwrap_or_else(|| self.prog.entry())
            }
        };

        self.pc = next_pc;
        self.retired += 1;
        DynInst {
            pc,
            inst,
            next_pc,
            taken,
            mem_addr,
        }
    }

    fn push_return(&mut self, ra: Addr) {
        if self.call_stack.len() >= Self::MAX_CALL_DEPTH {
            self.call_stack.remove(0);
        }
        self.call_stack.push(ra);
    }

    fn indirect_target(&self, idx: usize, occ: u64) -> Addr {
        match self.prog.behavior(idx) {
            Behavior::Indirect(b) => b.target(occ, self.seed ^ ((idx as u64) << 8)),
            other => panic!(
                "indirect branch at index {idx} lacks an indirect behaviour (found {other:?})"
            ),
        }
    }

    /// Checkpoint layout of the full behavioural state. The program and
    /// seed are reconstruction parameters, not state; a load requires an
    /// oracle built over the same program with the same seed.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        let mut seed = self.seed;
        io.v(&mut seed);
        assert_eq!(seed, self.seed, "oracle seed mismatch");
        io.v(&mut self.pc);
        io.table(&mut self.occ, "oracle program-length", |io, o| io.v(o));
        io.each(&mut self.last_outcome);
        io.each(&mut self.loop_iter);
        io.each(&mut self.loop_exits);
        io.v(&mut self.call_stack);
        io.v(&mut self.retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Behavior, CondBehavior, IndirectBehavior};
    use crate::program::PROGRAM_BASE;
    use sim_isa::{ExecClass, StaticInst};

    fn addr(i: u64) -> Addr {
        Addr::new(PROGRAM_BASE + i * 4)
    }

    /// idx0: alu, idx1: loop branch back to 0, idx2: jump to 0 (after exit).
    fn loop_program(min_trip: u32, max_trip: u32) -> Program {
        let insts = vec![
            StaticInst::new(InstKind::Op(ExecClass::Alu)),
            StaticInst::new(InstKind::CondBranch { target: addr(0) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
        ];
        let behaviors = vec![
            Behavior::None,
            Behavior::Cond(CondBehavior::Loop { min_trip, max_trip }),
            Behavior::None,
        ];
        Program::new(insts, behaviors, addr(0))
    }

    #[test]
    fn fixed_loop_iterates_exactly_trip_times() {
        let p = loop_program(5, 5);
        let mut o = Oracle::new(&p, 1);
        let mut body_execs = 0;
        loop {
            let d = o.next_inst();
            if d.pc == addr(0) {
                body_execs += 1;
            }
            if d.pc == addr(1) && !d.taken {
                break;
            }
        }
        assert_eq!(body_execs, 5, "loop body must run `trip` times");
    }

    #[test]
    fn variable_loop_trip_stays_in_range() {
        let p = loop_program(2, 6);
        let mut o = Oracle::new(&p, 99);
        let mut trips = Vec::new();
        let mut body = 0;
        for _ in 0..2000 {
            let d = o.next_inst();
            if d.pc == addr(0) {
                body += 1;
            }
            if d.pc == addr(1) && !d.taken {
                trips.push(body);
                body = 0;
            }
        }
        assert!(trips.len() > 10);
        assert!(trips.iter().all(|&t| (2..=6).contains(&t)), "{trips:?}");
        // The variable trip must actually vary.
        assert!(trips.iter().any(|&t| t != trips[0]));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = loop_program(2, 9);
        let run = |seed| {
            let mut o = Oracle::new(&p, seed);
            (0..500).map(|_| o.next_inst()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn calls_and_returns_balance() {
        // 0: call 3 ; 1: jump 0 ; 2: (pad) ; 3: alu ; 4: ret
        let insts = vec![
            StaticInst::new(InstKind::Call { target: addr(3) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
            StaticInst::new(InstKind::Op(ExecClass::Alu)),
            StaticInst::new(InstKind::Op(ExecClass::Alu)),
            StaticInst::new(InstKind::Return),
        ];
        let behaviors = vec![Behavior::None; 5];
        let p = Program::new(insts, behaviors, addr(0));
        let mut o = Oracle::new(&p, 3);
        for _ in 0..100 {
            let d = o.next_inst();
            if d.inst.kind == InstKind::Return {
                assert_eq!(d.next_pc, addr(1), "return must resume after the call");
            }
            assert!(o.call_depth() <= 1);
        }
    }

    #[test]
    fn indirect_jump_follows_behavior() {
        let insts = vec![
            StaticInst::new(InstKind::IndirectJump),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
        ];
        let behaviors = vec![
            Behavior::Indirect(IndirectBehavior::Rotate {
                targets: vec![addr(1), addr(2)].into(),
            }),
            Behavior::None,
            Behavior::None,
        ];
        let p = Program::new(insts, behaviors, addr(0));
        let mut o = Oracle::new(&p, 0);
        let d0 = o.next_inst();
        assert_eq!(d0.next_pc, addr(1));
        o.next_inst(); // jump back
        let d1 = o.next_inst();
        assert_eq!(d1.next_pc, addr(2));
    }

    #[test]
    fn pattern_branch_repeats() {
        let insts = vec![
            StaticInst::new(InstKind::CondBranch { target: addr(2) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
        ];
        let behaviors = vec![
            Behavior::Cond(CondBehavior::Pattern {
                bits: 0b0110,
                len: 4,
            }),
            Behavior::None,
            Behavior::None,
        ];
        let p = Program::new(insts, behaviors, addr(0));
        let mut o = Oracle::new(&p, 0);
        let mut outcomes = Vec::new();
        for _ in 0..16 {
            let d = o.next_inst();
            if d.pc == addr(0) {
                outcomes.push(d.taken);
            }
        }
        assert_eq!(&outcomes[..4], &[false, true, true, false]);
        assert_eq!(&outcomes[..4], &outcomes[4..8]);
    }

    #[test]
    fn correlated_branch_follows_other() {
        // 0: cond (biased 50%) -> 2 ; 1: nop path... then 2: correlated -> 4
        let insts = vec![
            StaticInst::new(InstKind::CondBranch { target: addr(1) }),
            StaticInst::new(InstKind::CondBranch { target: addr(2) }),
            StaticInst::new(InstKind::Jump { target: addr(0) }),
        ];
        let behaviors = vec![
            Behavior::Cond(CondBehavior::Biased {
                taken_prob_milli: 500,
            }),
            Behavior::Cond(CondBehavior::Correlated {
                other: 0,
                invert: false,
                noise_milli: 0,
            }),
            Behavior::None,
        ];
        let p = Program::new(insts, behaviors, addr(0));
        let mut o = Oracle::new(&p, 11);
        let mut last0 = None;
        for _ in 0..300 {
            let d = o.next_inst();
            if d.pc == addr(0) {
                last0 = Some(d.taken);
            }
            if d.pc == addr(1) {
                assert_eq!(Some(d.taken), last0);
            }
        }
    }

    #[test]
    fn retired_counts() {
        let p = loop_program(3, 3);
        let mut o = Oracle::new(&p, 0);
        for _ in 0..42 {
            o.next_inst();
        }
        assert_eq!(o.retired(), 42);
    }
}
