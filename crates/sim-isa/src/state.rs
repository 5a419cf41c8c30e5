//! Binary state codec for checkpoint/restore.
//!
//! Every stateful component of the simulator describes its *mutable*
//! state (never fixed geometry, which is reconstructed from the config)
//! once, in a `sync_state(&mut self, io: &mut StateIo)` pass. The same
//! pass saves, restores and digests: a [`StateIo::save`] pass appends
//! each visited field to a buffer, a [`StateIo::load`] pass overwrites
//! each visited field from checkpoint bytes. The encoding is a flat
//! little-endian byte stream with no self-description: the component
//! itself is the schema, and the whole-checkpoint envelope (see
//! `ucp-core::snapshot`) carries the version and checksum that make a
//! mismatched read detectable before any component decodes a byte.
//!
//! A load pass panics on underflow, on a failed [`StateIo::mark`], on a
//! [`StateIo::geometry`] mismatch and on an out-of-range code. That is
//! deliberate: the envelope checksum and version are validated *before*
//! decoding starts, so a panic here means either a bug or in-memory
//! corruption, and the suite runner's `catch_unwind` isolation converts
//! it into a structured per-workload error instead of a process abort.
//!
//! Determinism contract: a component must visit its state in an order
//! that is a pure function of that state — no `HashMap` iteration order,
//! no addresses, no timestamps. The 64-bit FNV-1a digest of the encoded
//! bytes ([`fnv1a64`]) is then a stable fingerprint of the component
//! state, comparable across runs, machines and platforms.

use crate::Addr;
use std::collections::VecDeque;

/// FNV-1a 64-bit hash — the digest function for component and
/// whole-checkpoint state fingerprints. Same constants as the result
/// cache's key hash, kept dependency-free here so every crate in the
/// workspace can digest its own state.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Decoder over checkpoint bytes: the load backend.
#[derive(Debug)]
struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.remaining() >= n,
            "checkpoint state underflow: need {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }
}

#[derive(Debug)]
enum Backend<'a> {
    /// The bytes saved so far.
    Save(Vec<u8>),
    Load(StateReader<'a>),
}

/// One checkpoint pass over component state, in either direction.
///
/// ```
/// use sim_isa::{Addr, StateIo};
///
/// #[derive(Default)]
/// struct Widget {
///     pc: Addr,
///     ctrs: Vec<i8>,
/// }
///
/// impl Widget {
///     fn sync_state(&mut self, io: &mut StateIo) {
///         io.v(&mut self.pc);
///         io.v(&mut self.ctrs);
///     }
/// }
///
/// let mut w = Widget { pc: Addr::new(0x40), ctrs: vec![1, -2] };
/// let mut io = StateIo::save();
/// w.sync_state(&mut io);
/// let bytes = io.into_bytes();
///
/// let mut restored = Widget::default();
/// let mut io = StateIo::load(&bytes);
/// restored.sync_state(&mut io);
/// io.finish();
/// assert_eq!((restored.pc, restored.ctrs), (w.pc, w.ctrs));
/// ```
#[derive(Debug)]
pub struct StateIo<'a>(Backend<'a>);

/// A value with a fixed encoding that [`StateIo::v`] can save or load.
///
/// Fixed-width integers and `bool` are little-endian; `usize` is a `u64`
/// so checkpoints are portable across pointer widths; [`Addr`] is its
/// raw `u64`; `String` is a `usize` length then UTF-8 bytes; `Option`
/// is a presence byte then the value; `Vec` and `VecDeque` are a `usize`
/// length then the elements; tuples are their elements in order.
pub trait Field {
    /// Saves `self` into, or overwrites it from, the pass.
    fn sync_state(&mut self, io: &mut StateIo);
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn sync_state(&mut self, io: &mut StateIo) {
                *self = <$t>::from_le_bytes(io.raw(self.to_le_bytes()));
            }
        }
    )*};
}
int_fields!(u8, u16, u32, u64, i8, i32, i64);

impl Field for bool {
    fn sync_state(&mut self, io: &mut StateIo) {
        *self = match io.raw([u8::from(*self)]) {
            [0] => false,
            [1] => true,
            [b] => panic!("checkpoint state corrupt: bool byte {b:#x}"),
        };
    }
}

impl Field for usize {
    fn sync_state(&mut self, io: &mut StateIo) {
        let mut v = *self as u64;
        v.sync_state(io);
        *self = usize::try_from(v).expect("checkpoint state corrupt: usize overflow");
    }
}

impl Field for Addr {
    fn sync_state(&mut self, io: &mut StateIo) {
        let mut v = self.raw();
        v.sync_state(io);
        *self = Addr::new(v);
    }
}

impl Field for String {
    fn sync_state(&mut self, io: &mut StateIo) {
        let n = io.len(self.len());
        match &mut io.0 {
            Backend::Save(buf) => buf.extend_from_slice(self.as_bytes()),
            Backend::Load(r) => {
                *self = std::str::from_utf8(r.take(n))
                    .expect("checkpoint state corrupt: non-UTF-8 string")
                    .to_owned();
            }
        }
    }
}

impl<T: Field + Default> Field for Option<T> {
    fn sync_state(&mut self, io: &mut StateIo) {
        let mut some = self.is_some();
        some.sync_state(io);
        if some {
            self.get_or_insert_with(T::default).sync_state(io);
        } else {
            *self = None;
        }
    }
}

macro_rules! seq_fields {
    ($($seq:ident :: $push:ident),*) => {$(
        impl<T: Field + Default> Field for $seq<T> {
            fn sync_state(&mut self, io: &mut StateIo) {
                let n = io.len(self.len());
                if io.is_load() {
                    self.clear();
                    for _ in 0..n {
                        let mut x = T::default();
                        x.sync_state(io);
                        self.$push(x);
                    }
                } else {
                    self.iter_mut().for_each(|x| x.sync_state(io));
                }
            }
        }
    )*};
}
seq_fields!(Vec::push, VecDeque::push_back);

macro_rules! tuple_fields {
    ($(($($t:ident . $i:tt),*)),*) => {$(
        impl<$($t: Field),*> Field for ($($t,)*) {
            fn sync_state(&mut self, io: &mut StateIo) {
                $(self.$i.sync_state(io);)*
            }
        }
    )*};
}
tuple_fields!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

impl StateIo<'static> {
    /// A save pass: every visited field is appended to a fresh buffer.
    pub fn save() -> Self {
        StateIo(Backend::Save(Vec::new()))
    }
}

impl<'a> StateIo<'a> {
    /// A load pass: every visited field is overwritten from `bytes`.
    pub fn load(bytes: &'a [u8]) -> Self {
        StateIo(Backend::Load(StateReader { buf: bytes, pos: 0 }))
    }

    /// `true` for a load pass — for the few layouts that must rebuild
    /// derived state after reading, or sort before writing.
    pub fn is_load(&self) -> bool {
        matches!(self.0, Backend::Load(_))
    }

    /// Saves `le` and returns it, or returns the next `N` bytes.
    fn raw<const N: usize>(&mut self, le: [u8; N]) -> [u8; N] {
        match &mut self.0 {
            Backend::Save(buf) => {
                buf.extend_from_slice(&le);
                le
            }
            Backend::Load(r) => r.take(N).try_into().expect("took N bytes"),
        }
    }

    /// Saves or loads one field.
    pub fn v<T: Field>(&mut self, x: &mut T) {
        x.sync_state(self);
    }

    /// Saves or loads a fixed-size array element by element, with no
    /// length prefix.
    pub fn each<T: Field>(&mut self, xs: &mut [T]) {
        xs.iter_mut().for_each(|x| x.sync_state(self));
    }

    /// A `usize` length: saves `n` and returns it, or returns the length
    /// read. The caller saves or loads that many elements after it.
    pub fn len(&mut self, n: usize) -> usize {
        let mut n = n;
        n.sync_state(self);
        n
    }

    /// A configuration-fixed size: saves `n`; a load asserts the saved
    /// value equals `n` ("`what` mismatch").
    pub fn geometry(&mut self, n: usize, what: &str) {
        let got = self.len(n);
        assert_eq!(got, n, "{what} mismatch");
    }

    /// A fixed-geometry table: [`StateIo::geometry`] of its length, then
    /// `f` once per element.
    pub fn table<T>(&mut self, xs: &mut [T], what: &str, mut f: impl FnMut(&mut Self, &mut T)) {
        self.geometry(xs.len(), what);
        xs.iter_mut().for_each(|x| f(self, x));
    }

    /// A component the configuration fixes as present or absent: a
    /// presence byte a load asserts against `x` ("`what` mismatch"), then
    /// `f` on the component when present.
    pub fn optional<T>(
        &mut self,
        x: Option<&mut T>,
        what: &str,
        f: impl FnOnce(&mut Self, &mut T),
    ) {
        let mut some = x.is_some();
        some.sync_state(self);
        assert_eq!(some, x.is_some(), "{what} mismatch");
        if let Some(x) = x {
            f(self, x);
        }
    }

    /// A fieldless enum as its `u8` index into `all`, the explicit
    /// checkpoint-code order. A load panics on an index outside `all`.
    ///
    /// # Panics
    ///
    /// Panics on save if `all` does not list `*v`.
    pub fn choice<T: Copy + PartialEq>(&mut self, v: &mut T, all: &[T], what: &str) {
        let code = all
            .iter()
            .position(|x| x == v)
            .expect("the choice list names every variant");
        let code = u8::try_from(code).expect("a choice list has at most 256 variants");
        let [code] = self.raw([code]);
        *v = *all
            .get(usize::from(code))
            .unwrap_or_else(|| panic!("checkpoint state corrupt: {what} {code}"));
    }

    /// A structural marker. A load verifies it, so a layout that drifts
    /// between save and load fails fast at the drift point instead of
    /// silently mis-decoding everything after it.
    pub fn mark(&mut self, tag: u32) {
        let mut got = tag ^ 0x5AFE_5AFE;
        got.sync_state(self);
        let got = got ^ 0x5AFE_5AFE;
        assert_eq!(
            got, tag,
            "checkpoint state corrupt: marker {got:#x} where {tag:#x} expected"
        );
    }

    /// The bytes of a save pass.
    ///
    /// # Panics
    ///
    /// Panics on a load pass.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.0 {
            Backend::Save(buf) => buf,
            Backend::Load(_) => panic!("into_bytes on a load pass"),
        }
    }

    /// Ends a pass. A load asserts every byte was consumed, so trailing
    /// garbage (a layout-drift symptom) is caught.
    pub fn finish(self) {
        if let Backend::Load(r) = self.0 {
            assert_eq!(
                r.remaining(),
                0,
                "checkpoint state corrupt: {} trailing bytes",
                r.remaining()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Dir {
        Up,
        Down,
    }

    #[derive(Debug, Default, PartialEq)]
    struct All {
        a: u8,
        b: bool,
        c: bool,
        d: u16,
        e: u32,
        f: u64,
        g: i8,
        h: i32,
        i: i64,
        j: usize,
        k: Addr,
        s: String,
        some: Option<u64>,
        none: Option<u64>,
        list: Vec<(u8, u64)>,
        deque: VecDeque<(usize, u64, u64)>,
        arr: [u16; 3],
        table: Vec<i8>,
        dir: Option<Dir>,
    }

    impl All {
        fn sync_state(&mut self, io: &mut StateIo) {
            io.mark(1);
            io.v(&mut self.a);
            io.v(&mut self.b);
            io.v(&mut self.c);
            io.v(&mut self.d);
            io.v(&mut self.e);
            io.v(&mut self.f);
            io.v(&mut self.g);
            io.v(&mut self.h);
            io.v(&mut self.i);
            io.v(&mut self.j);
            io.v(&mut self.k);
            io.v(&mut self.s);
            io.v(&mut self.some);
            io.v(&mut self.none);
            io.v(&mut self.list);
            io.v(&mut self.deque);
            io.each(&mut self.arr);
            io.table(&mut self.table, "test table", |io, x| io.v(x));
            let dir = self.dir.as_mut();
            io.optional(dir, "direction", |io, d| {
                io.choice(d, &[Dir::Up, Dir::Down], "direction")
            });
            io.mark(2);
        }
    }

    fn saved(x: &mut All) -> Vec<u8> {
        let mut io = StateIo::save();
        x.sync_state(&mut io);
        io.into_bytes()
    }

    #[test]
    fn roundtrip_all_primitives() {
        let mut x = All {
            a: 0xAB,
            b: true,
            c: false,
            d: 0xBEEF,
            e: 0xDEAD_BEEF,
            f: u64::MAX - 3,
            g: -7,
            h: -123_456,
            i: i64::MIN + 1,
            j: 42,
            k: Addr::new(0x4000),
            s: "µop".into(),
            some: Some(9),
            none: None,
            list: vec![(1, 2), (3, 4)],
            deque: VecDeque::from([(5, 6, 7)]),
            arr: [1, 2, 3],
            table: vec![-1, 0, 1],
            dir: Some(Dir::Down),
        };
        let bytes = saved(&mut x);
        // The encodings are fixed: spot-check the head of the stream.
        assert_eq!(bytes[..4], (1u32 ^ 0x5AFE_5AFE).to_le_bytes());
        assert_eq!(bytes[4..8], [0xAB, 1, 0, 0xEF]);

        let mut y = All {
            some: Some(1),
            none: Some(1),
            list: vec![(9, 9); 5],
            table: vec![0; 3],
            dir: Some(Dir::Up),
            ..All::default()
        };
        let mut io = StateIo::load(&bytes);
        y.sync_state(&mut io);
        io.finish();
        assert_eq!(y, x);
        assert_eq!(
            saved(&mut y),
            bytes,
            "a load pass reproduces the save bytes"
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn load_panics_on_underflow() {
        StateIo::load(&[1, 2]).v(&mut 0u64);
    }

    #[test]
    #[should_panic(expected = "marker")]
    fn load_panics_on_marker_mismatch() {
        let mut io = StateIo::save();
        io.mark(7);
        StateIo::load(&io.into_bytes()).mark(8);
    }

    #[test]
    #[should_panic(expected = "test table mismatch")]
    fn load_panics_on_geometry_mismatch() {
        let mut io = StateIo::save();
        io.geometry(4, "test table");
        StateIo::load(&io.into_bytes()).geometry(5, "test table");
    }

    #[test]
    #[should_panic(expected = "checkpoint state corrupt: direction 2")]
    fn load_panics_on_out_of_range_choice() {
        let mut d = Dir::Up;
        StateIo::load(&[2]).choice(&mut d, &[Dir::Up, Dir::Down], "direction");
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn finish_rejects_trailing_bytes() {
        let mut io = StateIo::load(&[0, 0]);
        io.v(&mut 0u8);
        io.finish();
    }
}
