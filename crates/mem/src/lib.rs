//! Memory hierarchy for the UCP reproduction.
//!
//! Models the hierarchy of the paper's Table II: a 32 KB L1I, 48 KB L1D,
//! 1.25 MB L2, 30 MB LLC and a banked DRAM with tRP/tRCD/tCAS timing, plus
//! ITLB/DTLB/STLB. Timing follows the *latency-propagation* style: caches
//! are updated in place and every line carries the cycle at which its fill
//! completes, so a hit under an outstanding fill naturally behaves like an
//! MSHR merge. Explicit [`Mshr`] occupancy bounds the number of outstanding
//! misses per level, back-pressuring the frontend exactly where the paper's
//! ChampSim model does.
//!
//! # Examples
//!
//! ```
//! use ucp_mem::{Hierarchy, HierarchyConfig, HitLevel};
//! use sim_isa::Addr;
//!
//! let mut h = Hierarchy::new(&HierarchyConfig::alder_lake());
//! let a = h.access_inst(Addr::new(0x4000), 0, false).unwrap();
//! assert_eq!(a.level, HitLevel::Dram); // cold miss
//! let b = h.access_inst(Addr::new(0x4000), a.ready, false).unwrap();
//! assert_eq!(b.level, HitLevel::L1);   // now resident
//! ```

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod mshr;
pub mod tlb;

pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{
    Access, Hierarchy, HierarchyConfig, HitLevel, MshrFull, L1I_DEMAND_LOOKUPS_PATH,
    L1I_DEMAND_LOOKUP_MISSES_PATH,
};
pub use mshr::Mshr;
pub use tlb::{Tlb, TlbConfig};
