//! Translation lookaside buffers.
//!
//! The simulated machine uses identity mapping (virtual == physical), so
//! TLBs only contribute *timing*: a miss in the first-level TLB probes the
//! STLB, and an STLB miss pays a fixed page-walk latency.

use crate::cache::{CacheConfig, LookupResult, SetAssocCache};
use serde::{Deserialize, Serialize};
use sim_isa::Addr;

const PAGE_BITS: u64 = 12;

/// Geometry and latency of a TLB level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TlbConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl Deserialize for TlbConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |key: &str| {
            serde::value_get(v, key).ok_or_else(|| serde::DeError::missing_field("TlbConfig", key))
        };
        Ok(TlbConfig {
            name: crate::cache::intern_name(&String::from_value(field("name")?)?),
            entries: usize::from_value(field("entries")?)?,
            ways: usize::from_value(field("ways")?)?,
            latency: u64::from_value(field("latency")?)?,
        })
    }
}

/// A TLB modelled as a set-associative cache of 4 KB page translations.
#[derive(Clone, Debug)]
pub struct Tlb {
    inner: SetAssocCache,
    latency: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways` or the resulting set
    /// count is not a power of two.
    pub fn new(cfg: &TlbConfig) -> Self {
        assert_eq!(cfg.entries % cfg.ways, 0, "entries must divide by ways");
        let sets = cfg.entries / cfg.ways;
        Tlb {
            inner: SetAssocCache::new(CacheConfig {
                name: cfg.name,
                sets,
                ways: cfg.ways,
                latency: 0,
            }),
            latency: cfg.latency,
        }
    }

    #[inline]
    fn page_key(addr: Addr) -> Addr {
        // Feed the page number through as a "line address" by shifting the
        // page into line-address position (the inner cache strips 6 bits).
        Addr::new((addr.raw() >> PAGE_BITS) << 6)
    }

    /// Looks up the page of `addr`. On a hit, returns `Some(extra_latency)`
    /// (the TLB hit latency); on a miss returns `None` — the caller decides
    /// the walk cost and then [`Tlb::fill`]s.
    pub fn lookup(&mut self, addr: Addr, now: u64) -> Option<u64> {
        match self.inner.lookup(Self::page_key(addr), now) {
            LookupResult::Hit { .. } => Some(self.latency),
            LookupResult::Miss => None,
        }
    }

    /// Installs the translation for the page of `addr`.
    pub fn fill(&mut self, addr: Addr) {
        self.inner.fill(Self::page_key(addr), 0);
    }

    /// Checkpoint layout: the inner cache's.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        self.inner.sync_state(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&TlbConfig {
            name: "itlb",
            entries: 8,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = tlb();
        let a = Addr::new(0x1234_5678);
        assert_eq!(t.lookup(a, 0), None);
        t.fill(a);
        assert_eq!(t.lookup(a, 1), Some(1));
    }

    #[test]
    fn same_page_shares_entry() {
        let mut t = tlb();
        t.fill(Addr::new(0x40_0000));
        assert!(t.lookup(Addr::new(0x40_0fff), 0).is_some());
        assert!(
            t.lookup(Addr::new(0x40_1000), 0).is_none(),
            "next page misses"
        );
    }

    #[test]
    fn capacity_evicts() {
        let mut t = Tlb::new(&TlbConfig {
            name: "t",
            entries: 2,
            ways: 2,
            latency: 1,
        });
        for p in 0..3u64 {
            t.fill(Addr::new(p << 12));
        }
        let present = (0..3u64)
            .filter(|&p| t.lookup(Addr::new(p << 12), 0).is_some())
            .count();
        assert_eq!(present, 2);
    }
}
