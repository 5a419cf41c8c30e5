//! The Misprediction Recovery Cache (Nanda, Bondi & Dutta, 1998), the
//! paper's closest prior work (§VI-F).
//!
//! A fully-associative cache tagged by the *corrected branch target*. Each
//! entry stores the 64 µ-ops that followed that target last time. On a
//! misprediction, a tag match streams those µ-ops directly to the backend,
//! skipping the frontend refill; a miss allocates an entry that fills as
//! the corrected path retires.

use sim_isa::Addr;

/// µ-ops stored per MRC entry.
pub const MRC_UOPS_PER_ENTRY: usize = 64;

#[derive(Clone, Copy, Debug)]
struct MrcSlot {
    tag: Addr,
    valid: bool,
    /// µ-ops captured so far (an entry streams only what it holds).
    filled: u8,
    lru: u64,
}

/// The misprediction recovery cache.
#[derive(Clone, Debug)]
pub struct Mrc {
    slots: Vec<MrcSlot>,
    stamp: u64,
    /// Entry currently being filled by the retiring corrected path.
    filling: Option<usize>,
}

impl Mrc {
    /// Creates an MRC with `entries` fully-associative entries.
    /// 64 entries ≈ 16.5 KB; the paper evaluates 16.5/33/66/132 KB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        Mrc {
            slots: vec![
                MrcSlot {
                    tag: Addr::NULL,
                    valid: false,
                    filled: 0,
                    lru: 0
                };
                entries
            ],
            stamp: 0,
            filling: None,
        }
    }

    /// Builds the size (in entries) for a given paper storage point in KB
    /// (16.5 → 64, 33 → 128, 66 → 256, 132 → 512).
    pub fn with_storage_kb(kb: f64) -> Self {
        let entries = ((kb * 8192.0) / Self::bits_per_entry() as f64)
            .round()
            .max(1.0) as usize;
        Mrc::new(entries)
    }

    fn bits_per_entry() -> u64 {
        // tag(46) + 64 µ-ops × 32 + valid/fill/lru(18) = 2112 bits, giving
        // the paper's 16.5 KB at 64 entries.
        46 + (MRC_UOPS_PER_ENTRY as u64) * 32 + 18
    }

    /// Looks up a corrected branch target on a misprediction. On a hit,
    /// returns how many µ-ops the entry can stream.
    pub fn lookup(&mut self, corrected_target: Addr) -> Option<u32> {
        self.stamp += 1;
        for s in &mut self.slots {
            if s.valid && s.tag == corrected_target {
                s.lru = self.stamp;
                return Some(u32::from(s.filled));
            }
        }
        None
    }

    /// Allocates (or refreshes) an entry for a corrected target and starts
    /// filling it; subsequent [`Mrc::fill_uop`] calls append retired µ-ops.
    pub fn allocate(&mut self, corrected_target: Addr) {
        self.stamp += 1;
        // Refresh in place if present.
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.valid && s.tag == corrected_target)
        {
            self.slots[i].lru = self.stamp;
            self.filling = Some(i);
            return;
        }
        let victim = (0..self.slots.len())
            .min_by_key(|&i| {
                if self.slots[i].valid {
                    self.slots[i].lru
                } else {
                    0
                }
            })
            .expect("nonempty");
        self.slots[victim] = MrcSlot {
            tag: corrected_target,
            valid: true,
            filled: 0,
            lru: self.stamp,
        };
        self.filling = Some(victim);
    }

    /// Appends one retired corrected-path µ-op to the filling entry.
    /// Filling stops at entry capacity or on the next [`Mrc::allocate`].
    pub fn fill_uop(&mut self) {
        if let Some(i) = self.filling {
            let s = &mut self.slots[i];
            if (s.filled as usize) < MRC_UOPS_PER_ENTRY {
                s.filled += 1;
            } else {
                self.filling = None;
            }
        }
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.slots.len() as u64 * Self::bits_per_entry()
    }

    /// Storage in KB.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8192.0
    }

    /// Checkpoint layout: slots, LRU stamp and fill pointer (a presence
    /// byte, then the slot index or 0).
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.table(&mut self.slots, "MRC geometry", |io, s| {
            io.v(&mut s.tag);
            io.v(&mut s.valid);
            io.v(&mut s.filled);
            io.v(&mut s.lru);
        });
        io.v(&mut self.stamp);
        let (mut filling, mut slot) = (self.filling.is_some(), self.filling.unwrap_or(0));
        io.v(&mut filling);
        io.v(&mut slot);
        self.filling = filling.then_some(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_fill_then_hit() {
        let mut m = Mrc::new(4);
        let t = Addr::new(0x4000);
        assert_eq!(m.lookup(t), None);
        m.allocate(t);
        for _ in 0..30 {
            m.fill_uop();
        }
        assert_eq!(m.lookup(t), Some(30));
    }

    #[test]
    fn fill_saturates_at_capacity() {
        let mut m = Mrc::new(2);
        m.allocate(Addr::new(0x10));
        for _ in 0..100 {
            m.fill_uop();
        }
        assert_eq!(m.lookup(Addr::new(0x10)), Some(MRC_UOPS_PER_ENTRY as u32));
    }

    #[test]
    fn lru_replacement() {
        let mut m = Mrc::new(2);
        m.allocate(Addr::new(0x10));
        m.allocate(Addr::new(0x20));
        let _ = m.lookup(Addr::new(0x10)); // refresh
        m.allocate(Addr::new(0x30)); // evicts 0x20
        assert!(m.lookup(Addr::new(0x10)).is_some());
        assert!(m.lookup(Addr::new(0x20)).is_none());
    }

    #[test]
    fn storage_points_match_paper() {
        for (kb, entries) in [(16.5, 64), (33.0, 128), (66.0, 256), (132.0, 512)] {
            let m = Mrc::with_storage_kb(kb);
            assert_eq!(m.slots.len(), entries, "for {kb} KB");
            assert!((m.storage_kb() - kb).abs() / kb < 0.05);
        }
    }

    #[test]
    fn lookup_hits_only_allocated_targets() {
        let mut m = Mrc::new(2);
        m.allocate(Addr::new(0x10));
        assert_eq!(
            m.lookup(Addr::new(0x10)),
            Some(0),
            "allocated, nothing filled yet"
        );
        assert_eq!(m.lookup(Addr::new(0x20)), None);
    }
}
