//! The cycle loop does not allocate: after warm-up, simulating srv08
//! under the baseline, UCP and every standalone L1I prefetcher makes
//! fewer than one heap allocation per thousand simulated instructions.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests can run in parallel and the harness's own threads do not count.
//! Interval sampling and state digests are off (both allocate by design,
//! once per interval or digest), and the measurement window opens at
//! instruction 0, so its one-off registry snapshot lands before counting
//! starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ucp_sim::core::{PrefetcherKind, SimConfig, Simulator};
use ucp_sim::telemetry::Telemetry;
use ucp_sim::workloads::suite;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// tally is a plain `Cell` with a const initializer, so counting never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARMUP: u64 = 50_000;
const COUNTED: u64 = 200_000;

/// Runs srv08 under `cfg` and returns (allocations, instructions) over
/// the counted stretch after warm-up.
fn steady_state_allocs(cfg: &SimConfig) -> (u64, u64) {
    let spec = suite::by_name("srv08").expect("srv08 is in the suite");
    let prog = spec.build();
    let mut sim = Simulator::with_telemetry(&prog, spec.seed, cfg, Telemetry::disabled());
    sim.set_interval(None);
    sim.set_digest_interval(None);
    sim.run_to_committed(WARMUP, 0).expect("warm-up completes");
    let (a0, i0) = (allocs(), sim.committed());
    sim.run_to_committed(i0 + COUNTED, 0)
        .expect("counted stretch completes");
    (allocs() - a0, sim.committed() - i0)
}

fn check(what: &str, cfg: &SimConfig) {
    let (n, insts) = steady_state_allocs(cfg);
    println!("{what}: {n} heap allocations in {insts} instructions after warm-up");
    assert!(insts >= COUNTED, "{what}: ran {insts} instructions");
    assert!(
        n * 1000 < insts,
        "{what}: {n} heap allocations in {insts} instructions after warm-up"
    );
}

fn with_prefetcher(kind: PrefetcherKind) -> SimConfig {
    let mut c = SimConfig::baseline();
    c.prefetcher = kind;
    c
}

#[test]
fn baseline_cycle_loop_does_not_allocate() {
    check("baseline", &SimConfig::baseline());
}

#[test]
fn ucp_cycle_loop_does_not_allocate() {
    check("ucp", &SimConfig::ucp());
}

#[test]
fn fnl_mma_cycle_loop_does_not_allocate() {
    check("FNL-MMA", &with_prefetcher(PrefetcherKind::FnlMma));
}

#[test]
fn fnl_mma_pp_cycle_loop_does_not_allocate() {
    check(
        "FNL-MMA++",
        &with_prefetcher(PrefetcherKind::FnlMmaPlusPlus),
    );
}

#[test]
fn djolt_cycle_loop_does_not_allocate() {
    check("D-JOLT", &with_prefetcher(PrefetcherKind::DJolt));
}

#[test]
fn ep_cycle_loop_does_not_allocate() {
    check("EP", &with_prefetcher(PrefetcherKind::Ep));
}

#[test]
fn ep_pp_cycle_loop_does_not_allocate() {
    check("EP++", &with_prefetcher(PrefetcherKind::EpPlusPlus));
}
