//! Property-based tests over the cross-crate invariants: arbitrary
//! workload recipes must always produce valid programs, deterministic
//! streams, and a simulator that completes with exact accounting.

use proptest::prelude::*;
use std::collections::BTreeMap;
use ucp_sim::bpred::{FoldSpec, HistoryState};
use ucp_sim::core::{SimConfig, Simulator};
use ucp_sim::frontend::{EntryEnd, UopCache, UopCacheConfig, UopEntrySpec};
use ucp_sim::isa::Addr;
use ucp_sim::telemetry::{AccountingBreakdown, Telemetry};
use ucp_sim::workloads::{CondMix, Oracle, WorkloadSpec};

/// An arbitrary-but-small workload recipe.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u64..10_000,
        4usize..40,
        2u32..8,
        (2u32..5, 5u32..9),
        0u16..400,
        0u16..300,
        0u16..500,
    )
        .prop_map(|(seed, funcs, stmts, block, call, loop_m, if_m)| {
            let mut s = WorkloadSpec::tiny("prop", seed);
            s.num_funcs = funcs.max(2);
            s.stmts_per_func = (stmts, stmts + 4);
            s.block_len = block;
            s.call_milli = call;
            s.loop_milli = loop_m;
            s.if_milli = if_m;
            s.cond_mix = CondMix {
                easy_milli: 600,
                pattern_milli: 100,
                correlated_milli: 100,
            };
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated program is internally consistent and the oracle
    /// never leaves the code image.
    #[test]
    fn generated_programs_are_valid(spec in arb_spec()) {
        let p = spec.build();
        p.validate();
        let mut o = Oracle::new(&p, spec.seed);
        for _ in 0..5_000 {
            let d = o.next_inst();
            prop_assert!(p.inst_at(d.pc).is_some());
            prop_assert!(p.inst_at(d.next_pc).is_some());
        }
    }

    /// The oracle stream is a pure function of (spec, seed).
    #[test]
    fn oracle_streams_are_deterministic(spec in arb_spec()) {
        let p1 = spec.build();
        let p2 = spec.build();
        let mut a = Oracle::new(&p1, spec.seed);
        let mut b = Oracle::new(&p2, spec.seed);
        for _ in 0..2_000 {
            prop_assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    /// The full pipeline commits exactly the requested instructions on any
    /// generated workload, under baseline and UCP configurations.
    #[test]
    fn simulator_completes_on_arbitrary_workloads(spec in arb_spec(), ucp in any::<bool>()) {
        let cfg = if ucp { SimConfig::ucp() } else { SimConfig::baseline() };
        let stats = Simulator::run_spec(&spec, &cfg, 2_000, 10_000);
        prop_assert!((10_000..10_016).contains(&stats.instructions), "{}", stats.instructions);
        prop_assert!(stats.cycles > 0);
        prop_assert!(stats.ipc() > 0.05, "IPC collapsed: {}", stats.ipc());
        prop_assert!(stats.ipc() < 10.0, "IPC impossible: {}", stats.ipc());
    }

    /// Cycle accounting holds on arbitrary workloads: every measured
    /// cycle is charged to exactly one category (categories sum to the
    /// independent total, which equals the measured cycle count), and the
    /// interval samples tile the window exactly (per-counter sums over
    /// intervals reproduce the end-of-run aggregate delta).
    #[test]
    fn cycle_accounting_tiles_arbitrary_runs(spec in arb_spec(), ucp in any::<bool>()) {
        let cfg = if ucp { SimConfig::ucp() } else { SimConfig::baseline() };
        let prog = spec.build();
        let mut sim = Simulator::with_telemetry(&prog, spec.seed, &cfg, Telemetry::disabled());
        // Short intervals so small runs still produce several records.
        sim.set_interval(Some(2_000));
        let out = sim.run_full(2_000, 10_000).expect("run completes");

        let breakdown = AccountingBreakdown::from_snapshot(&out.telemetry);
        prop_assert!(breakdown.verify().is_ok(), "{:?}", breakdown.verify());
        prop_assert_eq!(breakdown.total, out.stats.cycles);

        prop_assert!(!out.intervals.is_empty());
        let sampled_cycles: u64 = out.intervals.iter().map(|iv| iv.cycles()).sum();
        prop_assert_eq!(sampled_cycles, out.stats.cycles);
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for iv in &out.intervals {
            prop_assert!(iv.breakdown().verify().is_ok(), "interval {} broken", iv.index);
            for (path, v) in &iv.counters {
                *summed.entry(path.clone()).or_insert(0) += v;
            }
        }
        prop_assert_eq!(&summed, &out.telemetry.counters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folded histories survive arbitrary checkpoint/wrong-path/restore
    /// interleavings: the state after restore+replay equals never having
    /// speculated.
    #[test]
    fn history_restore_equals_no_speculation(
        prefix in proptest::collection::vec(any::<bool>(), 0..300),
        wrong in proptest::collection::vec(any::<bool>(), 1..80),
        suffix in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let specs = [
            FoldSpec { olen: 5, clen: 5 },
            FoldSpec { olen: 31, clen: 10 },
            FoldSpec { olen: 130, clen: 11 },
        ];
        let mut a = HistoryState::new(&specs);
        let mut b = HistoryState::new(&specs);
        for &x in &prefix {
            a.push(x);
            b.push(x);
        }
        let cp = a.checkpoint();
        for &x in &wrong {
            a.push(x);
        }
        a.restore(&cp);
        for &x in &suffix {
            a.push(x);
            b.push(x);
        }
        for i in 0..specs.len() {
            prop_assert_eq!(a.folded(i), b.folded(i), "fold {} diverged", i);
        }
    }

    /// The µ-op cache never stores more entries than its geometry allows
    /// and every inserted entry is immediately findable.
    #[test]
    fn uop_cache_capacity_and_findability(
        starts in proptest::collection::vec(0u64..4096, 1..200),
    ) {
        let cfg = UopCacheConfig { sets: 4, ways: 2, uops_per_entry: 8 };
        let capacity = cfg.sets * cfg.ways;
        let mut uc = UopCache::new(cfg);
        for &s in &starts {
            let start = Addr::new(0x1000 + s * 4);
            uc.insert(UopEntrySpec {
                start,
                num_uops: 4,
                end: EntryEnd::WindowBoundary,
                prefetched: false,
                trigger: 0,
            });
            prop_assert!(uc.probe(start), "just-inserted entry must be present");
            prop_assert!(uc.occupancy() <= capacity);
        }
    }

    /// Address helpers partition addresses consistently.
    #[test]
    fn addr_window_partition(raw in 0u64..u64::MAX / 2) {
        let a = Addr::new(raw & !3);
        prop_assert_eq!(a.uop_window().raw() % 32, 0);
        prop_assert!(a.uop_window().raw() <= a.raw());
        prop_assert!(a.raw() - a.uop_window().raw() < 32);
        prop_assert_eq!(a.line().raw() % 64, 0);
        prop_assert!(a.same_line(a));
    }
}
