//! Banked instruction BTB (branch target buffer).
//!
//! Table II: 64K-entry, 16-bank instruction BTB with LRU. UCP (§IV-C)
//! doubles the banks to 32 and shares them between the predicted and
//! alternate paths; conflicts are arbitrated by the pipeline using
//! [`Btb::bank_of`] and a 3-bit alternate-delay counter.

use serde::{Deserialize, Serialize};
use sim_isa::{Addr, BranchClass};

/// BTB geometry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbConfig {
    /// Total entries (sets × ways).
    pub total_entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Number of banks (address-interleaved).
    pub banks: usize,
}

impl BtbConfig {
    /// Table II baseline: 64K entries, 4-way, 16 banks.
    pub fn baseline() -> Self {
        BtbConfig {
            total_entries: 64 * 1024,
            ways: 4,
            banks: 16,
        }
    }

    /// UCP configuration: same capacity, 32 banks (§IV-C).
    pub fn ucp_32_banks() -> Self {
        BtbConfig {
            total_entries: 64 * 1024,
            ways: 4,
            banks: 32,
        }
    }
}

/// One BTB entry as returned by a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Predicted target (last seen taken target for conditionals).
    pub target: Addr,
    /// Branch class recorded at insertion.
    pub class: BranchClass,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    valid: bool,
    tag: u32,
    target: Addr,
    class: BranchClass,
    lru: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            valid: false,
            tag: 0,
            target: Addr::NULL,
            class: BranchClass::CondDirect,
            lru: 0,
        }
    }
}

/// A set-associative, banked BTB.
#[derive(Clone, Debug)]
pub struct Btb {
    cfg: BtbConfig,
    sets: usize,
    slots: Vec<Slot>,
    stamp: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count or banks is 0.
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.banks > 0);
        assert_eq!(cfg.total_entries % cfg.ways, 0);
        let sets = cfg.total_entries / cfg.ways;
        assert!(sets.is_power_of_two(), "BTB sets must be a power of two");
        Btb {
            sets,
            slots: vec![Slot::default(); cfg.total_entries],
            stamp: 0,
            cfg,
        }
    }

    /// The geometry.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, pc: Addr) -> u32 {
        (((pc.raw() >> 2) >> self.sets.trailing_zeros()) & 0xffff) as u32
    }

    /// The bank an access to `pc` uses (for conflict modelling).
    #[inline]
    pub fn bank_of(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) as usize) % self.cfg.banks
    }

    /// Looks up `pc`, updating LRU.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.stamp += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        for s in &mut self.slots[base..base + self.cfg.ways] {
            if s.valid && s.tag == tag {
                s.lru = self.stamp;
                return Some(BtbEntry {
                    target: s.target,
                    class: s.class,
                });
            }
        }
        None
    }

    /// Presence/content check without LRU effects.
    pub fn probe(&self, pc: Addr) -> Option<BtbEntry> {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        self.slots[base..base + self.cfg.ways]
            .iter()
            .find(|s| s.valid && s.tag == tag)
            .map(|s| BtbEntry {
                target: s.target,
                class: s.class,
            })
    }

    /// Inserts or updates the entry for the branch at `pc`.
    pub fn insert(&mut self, pc: Addr, target: Addr, class: BranchClass) {
        self.stamp += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.ways;
        // Update in place on a tag match.
        if let Some(s) = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .find(|s| s.valid && s.tag == tag)
        {
            s.target = target;
            s.class = class;
            s.lru = self.stamp;
            return;
        }
        let victim = self.slots[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("ways nonempty");
        *victim = Slot {
            valid: true,
            tag,
            target,
            class,
            lru: self.stamp,
        };
    }

    /// Storage in bits: tag(16) + target(32, compressed) + class(3) +
    /// valid(1) + LRU(2) per entry.
    pub fn storage_bits(&self) -> u64 {
        self.cfg.total_entries as u64 * 54
    }

    /// Checkpoint layout: slots and LRU stamp.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.table(&mut self.slots, "BTB geometry", |io, s| {
            io.v(&mut s.valid);
            io.v(&mut s.tag);
            io.v(&mut s.target);
            io.choice(&mut s.class, &BranchClass::ALL, "branch class");
            io.v(&mut s.lru);
        });
        io.v(&mut self.stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Btb {
        Btb::new(BtbConfig {
            total_entries: 64,
            ways: 4,
            banks: 8,
        })
    }

    #[test]
    fn insert_then_lookup() {
        let mut b = small();
        let pc = Addr::new(0x1000);
        assert_eq!(b.lookup(pc), None);
        b.insert(pc, Addr::new(0x2000), BranchClass::CondDirect);
        assert_eq!(
            b.lookup(pc),
            Some(BtbEntry {
                target: Addr::new(0x2000),
                class: BranchClass::CondDirect
            })
        );
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut b = small();
        let pc = Addr::new(0x1000);
        b.insert(pc, Addr::new(0x2000), BranchClass::IndirectJump);
        b.insert(pc, Addr::new(0x3000), BranchClass::IndirectJump);
        assert_eq!(b.probe(pc).unwrap().target, Addr::new(0x3000));
    }

    #[test]
    fn lru_within_set() {
        let mut b = small();
        // 16 sets; same set = pcs 4 instructions apart × 16 sets.
        let pcs: Vec<Addr> = (0..5).map(|i| Addr::new(0x1000 + i * 16 * 4)).collect();
        for &pc in &pcs[..4] {
            b.insert(pc, Addr::new(0x9000), BranchClass::UncondDirect);
        }
        let _ = b.lookup(pcs[0]); // refresh oldest
        b.insert(pcs[4], Addr::new(0x9000), BranchClass::UncondDirect);
        assert!(b.probe(pcs[0]).is_some(), "recently used survives");
        assert!(b.probe(pcs[1]).is_none(), "LRU victim evicted");
    }

    #[test]
    fn banks_interleave_by_pc() {
        let b = small();
        assert_ne!(b.bank_of(Addr::new(0x1000)), b.bank_of(Addr::new(0x1004)));
        assert_eq!(
            b.bank_of(Addr::new(0x1000)),
            b.bank_of(Addr::new(0x1000 + 8 * 4))
        );
    }

    #[test]
    fn lookup_hits_only_inserted_pcs() {
        let mut b = small();
        b.insert(Addr::new(0x40), Addr::new(0x80), BranchClass::Call);
        assert_eq!(
            b.lookup(Addr::new(0x40)),
            Some(BtbEntry {
                target: Addr::new(0x80),
                class: BranchClass::Call
            })
        );
        assert_eq!(b.lookup(Addr::new(0x44)), None);
    }

    #[test]
    fn baseline_storage_is_hundreds_of_kb() {
        let b = Btb::new(BtbConfig::baseline());
        let kb = b.storage_bits() / 8192;
        assert!((300..600).contains(&kb), "got {kb} KB");
    }
}
