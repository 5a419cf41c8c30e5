//! Property-based tests for the memory hierarchy: LRU/capacity invariants,
//! MSHR bounds, timing monotonicity, and inclusion behaviour under random
//! access streams.

use proptest::prelude::*;
use sim_isa::Addr;
use ucp_mem::{
    CacheConfig, Hierarchy, HierarchyConfig, Mshr, SetAssocCache, L1I_DEMAND_LOOKUPS_PATH,
};
use ucp_telemetry::Telemetry;

fn small_cache() -> SetAssocCache {
    SetAssocCache::new(CacheConfig {
        name: "p",
        sets: 4,
        ways: 2,
        latency: 3,
    })
}

proptest! {
    /// A cache never holds more lines than its geometry allows, and a
    /// just-filled line is always present.
    #[test]
    fn cache_capacity_invariant(lines in proptest::collection::vec(0u64..64, 1..200)) {
        let mut c = small_cache();
        for &l in &lines {
            let a = Addr::new(l * 64);
            c.fill(a, 0);
            prop_assert!(c.probe(a));
            prop_assert!(c.occupancy() <= 8);
        }
    }

    /// LRU property: with at most `ways` distinct lines per set, nothing is
    /// ever evicted.
    #[test]
    fn no_conflict_no_eviction(
        seq in proptest::collection::vec(0usize..2, 1..100),
    ) {
        let mut c = small_cache();
        // Two lines mapping to the same set (sets=4 → stride 4 lines).
        let lines = [Addr::new(0), Addr::new(4 * 64)];
        c.fill(lines[0], 0);
        c.fill(lines[1], 0);
        for (i, &k) in seq.iter().enumerate() {
            match c.lookup(lines[k], i as u64) {
                ucp_mem::cache::LookupResult::Hit { .. } => {}
                other => prop_assert!(false, "unexpected miss: {other:?}"),
            }
        }
    }

    /// The MSHR never exceeds its capacity and merging never rejects.
    #[test]
    fn mshr_bounded(reqs in proptest::collection::vec(0u64..16, 1..100)) {
        let mut m = Mshr::new(4);
        for (i, &l) in reqs.iter().enumerate() {
            let a = Addr::new(l * 64);
            if m.pending(a).is_some() {
                prop_assert!(m.allocate(a, i as u64 + 10), "merge must always succeed");
            } else {
                let _ = m.allocate(a, i as u64 + 10);
            }
            prop_assert!(m.occupancy() <= 4);
            m.drain(i as u64);
        }
    }

    /// Hierarchy timing is causal: every access completes strictly after it
    /// starts, and a repeat access to the same line completes no later
    /// (same cycle start) than the first did.
    #[test]
    fn hierarchy_timing_causal(lines in proptest::collection::vec(0u64..512, 1..60)) {
        let mut h = Hierarchy::new(&HierarchyConfig::alder_lake());
        let mut now = 0u64;
        for &l in &lines {
            let a = Addr::new(0x10_0000 + l * 64);
            // The 16-entry MSHR legitimately back-pressures dense miss
            // streams: wait out full windows like the pipeline does.
            let first = loop {
                match h.access_inst(a, now, false) {
                    Ok(acc) => break acc,
                    Err(_) => now += 50,
                }
            };
            prop_assert!(first.ready > now, "completion after start");
            let again = h.access_inst(a, now, false).unwrap();
            prop_assert!(again.ready <= first.ready + 8, "repeat no slower (merge)");
            now += 3;
        }
    }

    /// Prefetch accesses fill the L1I without counting as demand lookups.
    #[test]
    fn prefetch_stats_isolated(lines in proptest::collection::vec(0u64..128, 1..60)) {
        let t = Telemetry::disabled();
        let mut h = Hierarchy::new(&HierarchyConfig::alder_lake());
        h.attach_telemetry(&t);
        let mut filled = 0;
        for &l in &lines {
            let a = Addr::new(0x20_0000 + l * 64);
            // A full MSHR rejects the prefetch; an accepted one is resident.
            if h.access_inst(a, 0, true).is_ok() {
                prop_assert!(h.probe_l1i(a));
                filled += 1;
            }
        }
        prop_assert!(filled > 0);
        let snap = t.registry.snapshot();
        prop_assert_eq!(
            snap.counters.get(L1I_DEMAND_LOOKUPS_PATH).copied().unwrap_or(0),
            0,
            "prefetches must not count as demand"
        );
    }
}
