//! Generic set-associative cache with LRU replacement and per-line fill
//! timestamps.

use serde::{Deserialize, Serialize};
use sim_isa::Addr;

/// Geometry and latency of one cache level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// Human-readable level name (diagnostics only).
    pub name: &'static str,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Total capacity in bytes (64 B lines).
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * 64
    }
}

/// Maps a deserialized level name back to a `&'static str`. The standard
/// hierarchy names are interned; anything else leaks (bounded: configs are
/// deserialized only by offline tools, never in the simulation loop).
pub(crate) fn intern_name(s: &str) -> &'static str {
    for known in ["L1I", "L1D", "L2", "LLC", "ITLB", "DTLB", "STLB"] {
        if s == known {
            return known;
        }
    }
    Box::leak(s.to_owned().into_boxed_str())
}

impl Deserialize for CacheConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |key: &str| {
            serde::value_get(v, key)
                .ok_or_else(|| serde::DeError::missing_field("CacheConfig", key))
        };
        Ok(CacheConfig {
            name: intern_name(&String::from_value(field("name")?)?),
            sets: usize::from_value(field("sets")?)?,
            ways: usize::from_value(field("ways")?)?,
            latency: u64::from_value(field("latency")?)?,
        })
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU stamp (bigger = more recent).
    lru: u64,
    /// Cycle at which the fill completes; hits before this merge with the
    /// outstanding fill.
    ready: u64,
}

/// A set-associative, LRU, 64 B-line cache.
///
/// Lookups and fills operate on *line addresses* derived internally from
/// byte addresses; callers pass full [`Addr`]s.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    stamp: u64,
}

/// Result of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present; data available at the given cycle (accounts for an
    /// in-flight fill plus the hit latency).
    Hit {
        /// Cycle when data is available.
        ready: u64,
    },
    /// Line absent.
    Miss,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if sets or ways are zero or sets is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two() && cfg.sets > 0,
            "sets must be a power of two"
        );
        assert!(cfg.ways > 0, "ways must be nonzero");
        let n = cfg.sets * cfg.ways;
        SetAssocCache {
            cfg,
            lines: vec![Line::default(); n],
            stamp: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_ways(&mut self, addr: Addr) -> (&mut [Line], u64) {
        let line = addr.raw() >> 6;
        let set = (line as usize) & (self.cfg.sets - 1);
        let base = set * self.cfg.ways;
        (&mut self.lines[base..base + self.cfg.ways], line)
    }

    /// Checks presence without touching LRU (tag probe).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = addr.raw() >> 6;
        let set = (line as usize) & (self.cfg.sets - 1);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == line)
    }

    /// Demand lookup at cycle `now`: updates LRU.
    pub fn lookup(&mut self, addr: Addr, now: u64) -> LookupResult {
        self.stamp += 1;
        let stamp = self.stamp;
        let latency = self.cfg.latency;
        let (ways, line) = self.set_ways(addr);
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.lru = stamp;
                let ready = l.ready.max(now) + latency;
                return LookupResult::Hit { ready };
            }
        }
        LookupResult::Miss
    }

    /// Installs a line whose fill completes at `ready`. Returns the evicted
    /// line address, if a valid line was displaced.
    pub fn fill(&mut self, addr: Addr, ready: u64) -> Option<Addr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let (ways, line) = self.set_ways(addr);
        // Already present (racing fills): refresh.
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == line) {
            l.ready = l.ready.min(ready);
            l.lru = stamp;
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways is nonempty");
        let evicted = victim.valid.then(|| Addr::new(victim.tag << 6));
        *victim = Line {
            tag: line,
            valid: true,
            lru: stamp,
            ready,
        };
        evicted
    }

    /// Invalidates a line if present; returns whether it was present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (ways, line) = self.set_ways(addr);
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.valid = false;
                return true;
            }
        }
        false
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Checkpoint layout: lines and LRU stamp.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.table(&mut self.lines, "cache geometry", |io, l| {
            io.v(&mut l.tag);
            io.v(&mut l.valid);
            io.v(&mut l.lru);
            io.v(&mut l.ready);
        });
        io.v(&mut self.stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            name: "t",
            sets: 2,
            ways: 2,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let a = Addr::new(0x1000);
        assert_eq!(c.lookup(a, 0), LookupResult::Miss);
        c.fill(a, 10);
        match c.lookup(a, 20) {
            LookupResult::Hit { ready } => assert_eq!(ready, 23),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hit_under_fill_merges() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 100);
        match c.lookup(a, 5) {
            LookupResult::Hit { ready } => assert_eq!(ready, 103, "waits for the fill"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Same set: set index from line bits; sets=2 → bit 6 picks the set.
        let a = Addr::new(0x000);
        let b = Addr::new(0x100);
        let d = Addr::new(0x200);
        c.fill(a, 0);
        c.fill(b, 0);
        c.lookup(a, 1); // a most recent
        let evicted = c.fill(d, 2);
        assert_eq!(evicted, Some(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        // Same set; `a` is filled first, so it is the LRU victim.
        let a = Addr::new(0x000);
        let b = Addr::new(0x100);
        c.fill(a, 0);
        c.fill(b, 0);
        assert!(c.probe(a));
        assert!(!c.probe(Addr::new(0x200)));
        // A lookup would have made `a` most recent; a probe must not.
        assert_eq!(c.fill(Addr::new(0x200), 1), Some(a));
    }

    #[test]
    fn same_line_offsets_alias() {
        let mut c = tiny();
        c.fill(Addr::new(0x1000), 0);
        assert!(c.probe(Addr::new(0x103f)));
        assert!(!c.probe(Addr::new(0x1040)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 0);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn duplicate_fill_keeps_single_copy() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.fill(a, 10);
        c.fill(a, 5);
        assert_eq!(c.occupancy(), 1);
        match c.lookup(a, 0) {
            LookupResult::Hit { ready } => assert_eq!(ready, 8, "earlier fill wins"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn capacity_bytes() {
        let cfg = CacheConfig {
            name: "l1i",
            sets: 64,
            ways: 8,
            latency: 4,
        };
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            name: "x",
            sets: 3,
            ways: 1,
            latency: 1,
        });
    }
}
