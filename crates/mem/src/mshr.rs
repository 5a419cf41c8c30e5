//! Miss status holding registers: bounded outstanding-miss tracking.

use sim_isa::Addr;

/// A bounded set of outstanding line misses.
///
/// Each entry records the line address and the cycle its fill completes.
/// Requests to an already-tracked line *merge* (no new entry); a full MSHR
/// rejects new misses, which back-pressures the requester.
#[derive(Clone, Debug)]
pub struct Mshr {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (line, ready_cycle)
}

impl Mshr {
    /// Creates an MSHR with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Mshr {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Retires entries whose fill completed at or before `now`.
    pub fn drain(&mut self, now: u64) {
        self.entries.retain(|&(_, ready)| ready > now);
    }

    /// If the line is already outstanding, returns its completion cycle.
    pub fn pending(&self, addr: Addr) -> Option<u64> {
        let line = addr.raw() >> 6;
        self.entries
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    /// Allocates an entry completing at `ready`. Returns `false` (and
    /// allocates nothing) when full.
    pub fn allocate(&mut self, addr: Addr, ready: u64) -> bool {
        let line = addr.raw() >> 6;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 = e.1.min(ready);
            return true;
        }
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((line, ready));
        true
    }

    /// Current number of outstanding entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no more misses can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Checkpoint layout: capacity, then the outstanding entries.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.geometry(self.capacity, "MSHR capacity");
        io.v(&mut self.entries);
        assert!(
            self.entries.len() <= self.capacity,
            "MSHR occupancy exceeds capacity"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = Mshr::new(2);
        assert!(m.allocate(Addr::new(0x000), 10));
        assert!(m.allocate(Addr::new(0x040), 10));
        assert!(m.is_full());
        assert!(!m.allocate(Addr::new(0x080), 10));
        // Same line merges even when full.
        assert!(m.allocate(Addr::new(0x000), 5));
        assert_eq!(m.pending(Addr::new(0x000)), Some(5));
    }

    #[test]
    fn drain_frees_completed() {
        let mut m = Mshr::new(1);
        assert!(m.allocate(Addr::new(0x0), 10));
        m.drain(9);
        assert!(m.is_full());
        m.drain(10);
        assert!(!m.is_full());
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn pending_matches_by_line() {
        let mut m = Mshr::new(4);
        m.allocate(Addr::new(0x1000), 42);
        assert_eq!(m.pending(Addr::new(0x1020)), Some(42), "same 64B line");
        assert_eq!(m.pending(Addr::new(0x1040)), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
