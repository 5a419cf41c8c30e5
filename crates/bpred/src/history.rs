//! Speculative global history with folded (compressed) views and O(1)
//! checkpoint/restore.
//!
//! TAGE-family predictors index their tables with hashes of very long
//! global histories. Recomputing those hashes per prediction would be
//! O(history length), so each (table, use) pair keeps a *folded history*: a
//! `clen`-bit register updated incrementally as bits are pushed. Restoring
//! after a misprediction restores the folded registers and the write
//! pointer from a fixed-size [`HistCheckpoint`]; the underlying circular
//! bit buffer never needs rewinding because positions ahead of the restored
//! pointer are rewritten before they are ever read back.

use serde::Serialize;

/// Capacity of the circular history buffer in bits. Must exceed the longest
/// history length plus the deepest speculative run-ahead.
const GHR_CAPACITY_BITS: usize = 8192;

/// Maximum folded registers a [`HistoryState`] can carry.
pub const MAX_FOLDS: usize = 56;

/// Specification of one folded history register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct FoldSpec {
    /// Original (uncompressed) history length in bits.
    pub olen: u32,
    /// Compressed register width in bits (1..=16).
    pub clen: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct Fold {
    comp: u32,
    olen: u32,
    clen: u32,
    outpoint: u32,
}

impl Fold {
    fn new(spec: FoldSpec) -> Self {
        assert!(spec.clen >= 1 && spec.clen <= 16, "clen out of range");
        assert!(spec.olen >= 1, "olen must be nonzero");
        Fold {
            comp: 0,
            olen: spec.olen,
            clen: spec.clen,
            outpoint: spec.olen % spec.clen,
        }
    }

    #[inline]
    fn push(&mut self, new_bit: u32, out_bit: u32) {
        self.comp = (self.comp << 1) | new_bit;
        self.comp ^= out_bit << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1 << self.clen) - 1;
    }
}

/// Fixed-size snapshot of a [`HistoryState`], taken before each prediction
/// and restored on a pipeline flush.
#[derive(Clone, Copy, Debug)]
pub struct HistCheckpoint {
    ptr: u64,
    n: u8,
    comps: [u32; MAX_FOLDS],
}

impl Default for HistCheckpoint {
    fn default() -> Self {
        HistCheckpoint {
            ptr: 0,
            n: 0,
            comps: [0; MAX_FOLDS],
        }
    }
}

/// A speculative global history: circular bit buffer plus folded views.
///
/// The same type serves conditional-outcome history (TAGE, SC) and
/// target/path history (ITTAGE); what the bits mean is up to the pusher.
#[derive(Clone)]
pub struct HistoryState {
    bits: Vec<u64>,
    /// Monotonic bit write position (mod capacity when indexing).
    ptr: u64,
    folds: Vec<Fold>,
    max_olen: u32,
}

impl std::fmt::Debug for HistoryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryState")
            .field("ptr", &self.ptr)
            .field("folds", &self.folds.len())
            .field("max_olen", &self.max_olen)
            .finish()
    }
}

impl HistoryState {
    /// Creates a history with the given folded views.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FOLDS`] folds are requested or any history
    /// length exceeds the buffer's safe window.
    pub fn new(specs: &[FoldSpec]) -> Self {
        assert!(specs.len() <= MAX_FOLDS, "too many folded histories");
        let max_olen = specs.iter().map(|s| s.olen).max().unwrap_or(1);
        assert!(
            (max_olen as usize) < GHR_CAPACITY_BITS / 2,
            "history length {max_olen} too large for buffer"
        );
        HistoryState {
            bits: vec![0; GHR_CAPACITY_BITS / 64],
            ptr: 0,
            folds: specs.iter().copied().map(Fold::new).collect(),
            max_olen,
        }
    }

    #[inline]
    fn bit_at(&self, pos: u64) -> u32 {
        let p = (pos % GHR_CAPACITY_BITS as u64) as usize;
        ((self.bits[p / 64] >> (p % 64)) & 1) as u32
    }

    #[inline]
    fn set_bit(&mut self, pos: u64, bit: u32) {
        let p = (pos % GHR_CAPACITY_BITS as u64) as usize;
        let w = &mut self.bits[p / 64];
        *w = (*w & !(1u64 << (p % 64))) | ((bit as u64) << (p % 64));
    }

    /// Pushes one history bit, updating every folded view.
    pub fn push(&mut self, bit: bool) {
        let new_bit = u32::from(bit);
        let ptr = self.ptr;
        self.set_bit(ptr, new_bit);
        for i in 0..self.folds.len() {
            // The bit leaving this fold's window was written `olen` pushes
            // ago; position ptr - olen (guarded for the cold start).
            let olen = u64::from(self.folds[i].olen);
            let out_bit = if ptr >= olen {
                self.bit_at(ptr - olen)
            } else {
                0
            };
            self.folds[i].push(new_bit, out_bit);
        }
        self.ptr = ptr + 1;
    }

    /// The folded value of view `i`.
    #[inline]
    pub fn folded(&self, i: usize) -> u32 {
        self.folds[i].comp
    }

    /// Number of folded views.
    #[inline]
    pub fn num_folds(&self) -> usize {
        self.folds.len()
    }

    /// Total bits pushed so far.
    #[inline]
    pub fn position(&self) -> u64 {
        self.ptr
    }

    /// The most recent `n` bits (LSB = most recent), for short-history
    /// consumers. `n` must be ≤ 64.
    pub fn recent(&self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for i in 0..u64::from(n) {
            if self.ptr > i {
                v |= u64::from(self.bit_at(self.ptr - 1 - i)) << i;
            }
        }
        v
    }

    /// Captures the folded registers and write pointer.
    pub fn checkpoint(&self) -> HistCheckpoint {
        let mut cp = HistCheckpoint {
            ptr: self.ptr,
            n: self.folds.len() as u8,
            comps: [0; MAX_FOLDS],
        };
        for (i, f) in self.folds.iter().enumerate() {
            cp.comps[i] = f.comp;
        }
        cp
    }

    /// Overwrites this history with `other`'s bits, write pointer and
    /// folded registers, in place: no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the two histories have different fold geometry.
    pub fn copy_from(&mut self, other: &HistoryState) {
        assert_eq!(
            self.folds.len(),
            other.folds.len(),
            "history fold-count mismatch"
        );
        self.bits.copy_from_slice(&other.bits);
        self.ptr = other.ptr;
        self.folds.copy_from_slice(&other.folds);
        self.max_olen = other.max_olen;
    }

    /// Restores a checkpoint taken earlier on this history.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the checkpoint's fold count mismatches.
    pub fn restore(&mut self, cp: &HistCheckpoint) {
        debug_assert_eq!(cp.n as usize, self.folds.len(), "checkpoint shape mismatch");
        self.ptr = cp.ptr;
        for (i, f) in self.folds.iter_mut().enumerate() {
            f.comp = cp.comps[i];
        }
    }
}

/// Checkpoint layout of a checkpoint held by an in-flight branch record.
impl sim_isa::Field for HistCheckpoint {
    fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.v(&mut self.ptr);
        io.v(&mut self.n);
        io.each(&mut self.comps);
    }
}

impl HistoryState {
    /// Checkpoint layout: write pointer, bit buffer, folded registers.
    /// Geometry (fold specs) is not written: a load target must be
    /// constructed with the same specs, which the fold-count check below
    /// cross-checks.
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo) {
        io.v(&mut self.ptr);
        io.table(&mut self.bits, "history buffer geometry", |io, w| io.v(w));
        io.table(&mut self.folds, "history fold-count", |io, f| {
            io.v(&mut f.comp)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<FoldSpec> {
        vec![
            FoldSpec { olen: 5, clen: 5 },
            FoldSpec { olen: 16, clen: 11 },
            FoldSpec {
                olen: 130,
                clen: 11,
            },
        ]
    }

    /// Reference: recompute the fold from the raw history.
    fn fold_reference(history: &[bool], spec: FoldSpec) -> u32 {
        let mut f = Fold::new(spec);
        let mut past: Vec<u32> = Vec::new();
        for &b in history {
            let out = if past.len() >= spec.olen as usize {
                past[past.len() - spec.olen as usize]
            } else {
                0
            };
            f.push(u32::from(b), out);
            past.push(u32::from(b));
        }
        f.comp
    }

    #[test]
    fn folds_match_reference_recomputation() {
        let mut h = HistoryState::new(&specs());
        let mut raw = Vec::new();
        let mut x = 0x12345u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 62) & 1 == 1;
            h.push(b);
            raw.push(b);
        }
        for (i, s) in specs().iter().enumerate() {
            assert_eq!(h.folded(i), fold_reference(&raw, *s), "fold {i}");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut h = HistoryState::new(&specs());
        for i in 0..300 {
            h.push(i % 3 == 0);
        }
        let cp = h.checkpoint();
        let saved: Vec<u32> = (0..h.num_folds()).map(|i| h.folded(i)).collect();
        // Wrong-path pushes.
        for i in 0..50 {
            h.push(i % 2 == 0);
        }
        h.restore(&cp);
        let now: Vec<u32> = (0..h.num_folds()).map(|i| h.folded(i)).collect();
        assert_eq!(saved, now);
        assert_eq!(h.position(), 300);
    }

    #[test]
    fn restore_then_divergent_future_stays_consistent() {
        // After restore, pushing the *correct* outcomes must give the same
        // folds as a history that never went down the wrong path.
        let mut a = HistoryState::new(&specs());
        let mut b = HistoryState::new(&specs());
        let outcome = |i: u64| (i * 2654435761) % 7 < 3;
        for i in 0..400 {
            a.push(outcome(i));
            b.push(outcome(i));
        }
        let cp = a.checkpoint();
        for i in 0..60 {
            a.push(i % 2 == 1); // wrong path
        }
        a.restore(&cp);
        for i in 400..900 {
            a.push(outcome(i));
            b.push(outcome(i));
        }
        for i in 0..a.num_folds() {
            assert_eq!(a.folded(i), b.folded(i), "fold {i} diverged after restore");
        }
    }

    #[test]
    fn copy_from_matches_a_clone() {
        let mut src = HistoryState::new(&specs());
        for i in 0..500 {
            src.push(i % 5 < 2);
        }
        let mut dst = HistoryState::new(&specs());
        dst.push(true);
        dst.copy_from(&src);
        let mut twin = src.clone();
        for i in 0..200 {
            dst.push(i % 3 == 0);
            twin.push(i % 3 == 0);
        }
        assert_eq!(dst.position(), twin.position());
        assert_eq!(dst.recent(64), twin.recent(64));
        for i in 0..dst.num_folds() {
            assert_eq!(dst.folded(i), twin.folded(i), "fold {i}");
        }
    }

    #[test]
    fn recent_returns_lsb_most_recent() {
        let mut h = HistoryState::new(&specs());
        h.push(true);
        h.push(false);
        h.push(true); // history (new→old): 1,0,1
        assert_eq!(h.recent(3), 0b101);
        assert_eq!(h.recent(2), 0b01);
        assert_eq!(h.recent(1), 0b1);
    }

    #[test]
    fn different_histories_give_different_folds() {
        let mut a = HistoryState::new(&specs());
        let mut b = HistoryState::new(&specs());
        for i in 0..64 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_ne!(a.folded(2), b.folded(2));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_history_rejected() {
        let _ = HistoryState::new(&[FoldSpec {
            olen: 5000,
            clen: 12,
        }]);
    }
}
