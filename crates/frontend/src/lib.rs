//! Frontend structures for the UCP reproduction: the banked BTB, the
//! return-address stack, bounded frontend queues (FTQ/Alt-FTQ/decode
//! buffers) and the µ-op cache.
//!
//! These are the hardware structures of the paper's Fig. 1 and Fig. 8; the
//! cycle-level control logic that drives them (stream/build modes, FDP
//! address generation, UCP's alternate walker) lives in `ucp-core`.
//!
//! # Examples
//!
//! ```
//! use ucp_frontend::{UopCache, UopCacheConfig, UopEntrySpec, EntryEnd};
//! use sim_isa::Addr;
//!
//! let mut uc = UopCache::new(UopCacheConfig::kops_4());
//! uc.insert(UopEntrySpec {
//!     start: Addr::new(0x1_0000),
//!     num_uops: 8,
//!     end: EntryEnd::WindowBoundary,
//!     prefetched: false,
//!     trigger: 0,
//! });
//! assert!(uc.lookup(Addr::new(0x1_0000)).is_some());
//! ```

pub mod btb;
pub mod queue;
pub mod ras;
pub mod uop_cache;

pub use btb::{Btb, BtbConfig, BtbEntry};
pub use queue::BoundedQueue;
pub use ras::{Ras, RasCheckpoint};
pub use uop_cache::{
    EntryEnd, Evicted, UopCache, UopCacheConfig, UopEntrySpec, UopHit, UOPC_HITS_PATH,
    UOPC_MISSES_PATH,
};
