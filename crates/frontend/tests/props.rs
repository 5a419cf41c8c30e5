//! Property-based tests for the frontend structures: queue FIFO/model
//! equivalence, RAS LIFO semantics under wrap, BTB consistency, and µ-op
//! cache capacity/LRU invariants.

use proptest::prelude::*;
use sim_isa::{Addr, BranchClass};
use ucp_frontend::{
    BoundedQueue, Btb, BtbConfig, EntryEnd, Ras, UopCache, UopCacheConfig, UopEntrySpec,
    UOPC_HITS_PATH, UOPC_MISSES_PATH,
};
use ucp_telemetry::Telemetry;

proptest! {
    /// BoundedQueue behaves exactly like a capacity-limited VecDeque model.
    #[test]
    fn queue_matches_model(ops in proptest::collection::vec((any::<bool>(), 0u8..255), 1..300)) {
        let mut q: BoundedQueue<u8> = BoundedQueue::new(5);
        let mut model: std::collections::VecDeque<u8> = Default::default();
        for &(push, v) in &ops {
            if push {
                let r = q.push(v);
                if model.len() < 5 {
                    prop_assert!(r.is_ok());
                    model.push_back(v);
                } else {
                    prop_assert_eq!(r, Err(v));
                }
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.front(), model.front());
            prop_assert_eq!(q.is_full(), model.len() == 5);
        }
    }

    /// RAS is LIFO for the youngest `capacity` entries regardless of the
    /// push/pop interleaving.
    #[test]
    fn ras_is_lifo_within_capacity(ops in proptest::collection::vec((any::<bool>(), 1u64..1000), 1..200)) {
        let mut ras = Ras::new(8);
        let mut model: Vec<Addr> = Vec::new();
        for &(push, v) in &ops {
            if push {
                let a = Addr::new(v * 4);
                ras.push(a);
                model.push(a);
                if model.len() > 8 {
                    model.remove(0); // wrap drops the oldest
                }
            } else {
                prop_assert_eq!(ras.pop(), model.pop());
            }
            prop_assert_eq!(ras.depth(), model.len());
            prop_assert_eq!(ras.peek(), model.last().copied());
        }
    }

    /// BTB: after inserting a branch, probing returns exactly what was
    /// inserted (most recent wins), and lookups never invent entries.
    #[test]
    fn btb_probe_returns_last_insert(
        inserts in proptest::collection::vec((0u64..64, 1u64..1024), 1..100),
    ) {
        let mut btb = Btb::new(BtbConfig { total_entries: 256, ways: 4, banks: 4 });
        let mut last: std::collections::HashMap<u64, Addr> = Default::default();
        for &(pc_i, tgt) in &inserts {
            let pc = Addr::new(0x1000 + pc_i * 4);
            let target = Addr::new(tgt * 4);
            btb.insert(pc, target, BranchClass::CondDirect);
            last.insert(pc.raw(), target);
            // Just-inserted entry must be visible with the right target.
            let e = btb.probe(pc);
            prop_assert!(e.is_some());
            prop_assert_eq!(e.unwrap().target, target);
        }
        // Any surviving entry must carry its most recent target.
        for (&pc, &target) in &last {
            if let Some(e) = btb.probe(Addr::new(pc)) {
                prop_assert_eq!(e.target, target, "stale target for {:#x}", pc);
            }
        }
    }

    /// µ-op cache: occupancy bounded, duplicate inserts update in place,
    /// and hit statistics balance.
    #[test]
    fn uop_cache_invariants(
        ops in proptest::collection::vec((0u64..256, 1u8..9, any::<bool>()), 1..200),
    ) {
        let cfg = UopCacheConfig { sets: 8, ways: 2, uops_per_entry: 8 };
        let cap = cfg.sets * cfg.ways;
        let mut uc = UopCache::new(cfg);
        let telemetry = Telemetry::disabled();
        uc.attach_telemetry(&telemetry);
        let mut lookups = 0u64;
        for &(slot, n, is_lookup) in &ops {
            let start = Addr::new(0x4000 + slot * 4);
            if is_lookup {
                let _ = uc.lookup(start);
                lookups += 1;
            } else {
                uc.insert(UopEntrySpec {
                    start,
                    num_uops: n,
                    end: EntryEnd::WindowBoundary,
                    prefetched: false,
                    trigger: 0,
                });
                prop_assert!(uc.probe(start));
            }
            prop_assert!(uc.occupancy() <= cap);
        }
        let snap = telemetry.registry.snapshot();
        let hits = snap.counter(UOPC_HITS_PATH);
        prop_assert_eq!(hits + snap.counter(UOPC_MISSES_PATH), lookups);
        prop_assert!(hits <= lookups);
    }

    /// Banks partition addresses deterministically.
    #[test]
    fn uop_banks_are_stable(addr in 0u64..1_000_000) {
        let uc = UopCache::new(UopCacheConfig::kops_4());
        let a = Addr::new(addr * 4);
        prop_assert_eq!(uc.bank_of(a), uc.bank_of(a));
        prop_assert!(uc.bank_of(a) < 2);
    }
}
