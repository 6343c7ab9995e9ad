//! Nibble paths and hex-prefix compaction for the Merkle Patricia Trie.
//!
//! MPT splits keys into 4-bit *nibbles* (§3.4.1: "the key is split into
//! sequential characters, namely nibbles"). Branch nodes fan out over one
//! nibble; extension and leaf nodes store a run of nibbles compacted back
//! into bytes with Ethereum's *hex-prefix* encoding, whose flag nibble
//! records (a) whether the run has odd length and (b) whether the node is a
//! leaf.
//!
//! [`Nibbles`] holds a path unpacked, one nibble per byte; the trie itself
//! reads paths through [`NibbleView`], which compares and re-encodes packed
//! nibbles where they lie — in a key or in a stored page.

use std::fmt;

/// A sequence of nibbles (each 0..=15), the unit of MPT path navigation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nibbles(Vec<u8>);

impl Nibbles {
    /// Unpack a byte key into nibbles, high nibble first.
    pub fn from_key(key: &[u8]) -> Self {
        let mut out = Vec::with_capacity(key.len() * 2);
        for &b in key {
            out.push(b >> 4);
            out.push(b & 0x0f);
        }
        Nibbles(out)
    }

    /// Build from raw nibble values; panics in debug builds if any is > 15.
    pub fn from_raw(nibbles: Vec<u8>) -> Self {
        debug_assert!(nibbles.iter().all(|&n| n <= 0x0f), "nibble out of range");
        Nibbles(nibbles)
    }

    pub fn empty() -> Self {
        Nibbles(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    pub fn at(&self, i: usize) -> u8 {
        self.0[i]
    }

    /// The sub-path starting at `from`.
    pub fn suffix(&self, from: usize) -> Nibbles {
        Nibbles(self.0[from..].to_vec())
    }

    /// The sub-path `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Nibbles {
        Nibbles(self.0[from..to].to_vec())
    }

    /// Number of leading nibbles shared with `other`.
    pub fn common_prefix_len(&self, other: &Nibbles) -> usize {
        self.0.iter().zip(other.0.iter()).take_while(|(a, b)| a == b).count()
    }

    pub fn starts_with(&self, prefix: &Nibbles) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// Concatenate `self`, one nibble, and `rest` — used when collapsing a
    /// branch during structural reasoning/tests.
    pub fn join(&self, nib: u8, rest: &Nibbles) -> Nibbles {
        debug_assert!(nib <= 0x0f);
        let mut out = Vec::with_capacity(self.0.len() + 1 + rest.0.len());
        out.extend_from_slice(&self.0);
        out.push(nib);
        out.extend_from_slice(&rest.0);
        Nibbles(out)
    }

    /// Repack an even-length nibble path into bytes. Returns `None` for odd
    /// lengths (callers that need a byte key must have consumed whole bytes).
    pub fn to_key(&self) -> Option<Vec<u8>> {
        if !self.0.len().is_multiple_of(2) {
            return None;
        }
        Some(self.0.chunks_exact(2).map(|p| p[0] << 4 | p[1]).collect())
    }

    /// Hex-prefix encode this path (Ethereum yellow paper appendix C).
    ///
    /// Layout: flag nibble `0b00LO` where L=leaf, O=odd, then the nibbles.
    /// Even paths get a zero pad nibble after the flag so the result is
    /// whole bytes.
    pub fn hex_prefix_encode(&self, is_leaf: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.hex_prefix_encoded_len());
        self.hex_prefix_encode_into(is_leaf, &mut out);
        out
    }

    /// Exact byte length of [`Nibbles::hex_prefix_encode`]'s output.
    pub fn hex_prefix_encoded_len(&self) -> usize {
        self.0.len() / 2 + 1
    }

    /// Stream the hex-prefix encoding into `out` — no temporary nibble
    /// buffer, used by allocation-free node codecs.
    pub fn hex_prefix_encode_into(&self, is_leaf: bool, out: &mut Vec<u8>) {
        let odd = self.0.len() % 2 == 1;
        let flag: u8 = match (is_leaf, odd) {
            (false, false) => 0x0,
            (false, true) => 0x1,
            (true, false) => 0x2,
            (true, true) => 0x3,
        };
        let mut rest: &[u8] = &self.0;
        if odd {
            out.push(flag << 4 | rest[0]);
            rest = &rest[1..];
        } else {
            out.push(flag << 4);
        }
        for pair in rest.chunks_exact(2) {
            out.push(pair[0] << 4 | pair[1]);
        }
    }

    /// Decode a hex-prefix encoding; returns the path and the leaf flag.
    pub fn hex_prefix_decode(encoded: &[u8]) -> Option<(Nibbles, bool)> {
        let first = *encoded.first()?;
        let flag = first >> 4;
        if flag > 3 {
            return None;
        }
        let is_leaf = flag & 0x2 != 0;
        let odd = flag & 0x1 != 0;
        let mut nibs = Vec::with_capacity(encoded.len() * 2);
        if odd {
            nibs.push(first & 0x0f);
        } else if first & 0x0f != 0 {
            return None; // pad nibble must be zero
        }
        for &b in &encoded[1..] {
            nibs.push(b >> 4);
            nibs.push(b & 0x0f);
        }
        Some((Nibbles(nibs), is_leaf))
    }
}

/// A run of nibbles read in place from packed bytes, two to a byte, high
/// nibble first: nibble `i` of the view is nibble `start + i` of `bytes`.
///
/// The borrowed counterpart of [`Nibbles`]. A key, or a hex-prefix path
/// inside a stored page, is compared, sliced and re-encoded through a view
/// without being unpacked, so walking a trie path copies nothing. Equality
/// is by content, whatever the alignment of either side.
#[derive(Clone, Copy)]
pub struct NibbleView<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
}

impl<'a> NibbleView<'a> {
    /// Nibbles `start..start + len` of `bytes`.
    ///
    /// # Panics
    /// Panics if the run does not fit in `bytes`.
    pub fn new(bytes: &'a [u8], start: usize, len: usize) -> Self {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= bytes.len() * 2),
            "nibbles {start}+{len} of a {}-byte buffer",
            bytes.len()
        );
        NibbleView { bytes, start, len }
    }

    /// Every nibble of a byte key.
    pub fn key(key: &'a [u8]) -> Self {
        NibbleView { bytes: key, start: 0, len: key.len() * 2 }
    }

    /// The path of a hex-prefix encoding, read in place, and its leaf flag
    /// (the borrowed [`Nibbles::hex_prefix_decode`]).
    pub fn hex_prefix(encoded: &'a [u8]) -> Option<(Self, bool)> {
        let first = *encoded.first()?;
        let flag = first >> 4;
        if flag > 3 {
            return None;
        }
        let odd = flag & 0x1 != 0;
        if !odd && first & 0x0f != 0 {
            return None; // pad nibble must be zero
        }
        let skip = if odd { 1 } else { 2 };
        Some((
            NibbleView { bytes: encoded, start: skip, len: encoded.len() * 2 - skip },
            flag & 0x2 != 0,
        ))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the run starts in the buffer it was read from, in nibbles.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Nibble `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len, "nibble {i} of {}", self.len);
        let n = self.start + i;
        let b = self.bytes[n / 2];
        if n.is_multiple_of(2) {
            b >> 4
        } else {
            b & 0x0f
        }
    }

    /// The run from nibble `from` on.
    pub fn suffix(self, from: usize) -> Self {
        assert!(from <= self.len, "suffix {from} of {}", self.len);
        NibbleView { bytes: self.bytes, start: self.start + from, len: self.len - from }
    }

    /// Number of leading nibbles shared with `other`. Two runs at the same
    /// alignment compare whole bytes at a time.
    pub fn common_prefix_len(self, other: NibbleView<'_>) -> usize {
        let n = self.len.min(other.len);
        let mut i = 0;
        if self.start % 2 == other.start % 2 {
            if self.start % 2 == 1 && n > 0 {
                if self.at(0) != other.at(0) {
                    return 0;
                }
                i = 1;
            }
            let whole = (n - i) / 2;
            let a = &self.bytes[(self.start + i) / 2..][..whole];
            let b = &other.bytes[(other.start + i) / 2..][..whole];
            i += 2 * a.iter().zip(b).take_while(|(x, y)| x == y).count();
        }
        while i < n && self.at(i) == other.at(i) {
            i += 1;
        }
        i
    }

    pub fn starts_with(self, prefix: NibbleView<'_>) -> bool {
        prefix.len <= self.len && self.common_prefix_len(prefix) == prefix.len
    }

    /// The nibbles in order.
    pub fn iter(self) -> impl Iterator<Item = u8> + 'a {
        (0..self.len).map(move |i| self.at(i))
    }

    /// The run unpacked into an owned path.
    pub fn to_nibbles(self) -> Nibbles {
        Nibbles(self.iter().collect())
    }

    /// Exact byte length of [`NibbleView::hex_prefix_encode_into`]'s output.
    pub fn hex_prefix_encoded_len(&self) -> usize {
        self.len / 2 + 1
    }

    /// Stream the hex-prefix encoding of the run into `out`, byte-identical
    /// to [`Nibbles::hex_prefix_encode`] of the same nibbles. A run whose
    /// body starts on a byte boundary is copied as bytes.
    pub fn hex_prefix_encode_into(self, is_leaf: bool, out: &mut Vec<u8>) {
        let odd = self.len % 2 == 1;
        let flag = (u8::from(is_leaf) << 1 | u8::from(odd)) << 4;
        let body = if odd {
            out.push(flag | self.at(0));
            self.suffix(1)
        } else {
            out.push(flag);
            self
        };
        if body.start.is_multiple_of(2) {
            out.extend_from_slice(&body.bytes[body.start / 2..][..body.len / 2]);
        } else {
            out.extend((0..body.len / 2).map(|j| body.at(2 * j) << 4 | body.at(2 * j + 1)));
        }
    }
}

impl PartialEq for NibbleView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.common_prefix_len(*other) == self.len
    }
}

impl Eq for NibbleView<'_> {}

impl fmt::Debug for NibbleView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NibbleView(")?;
        for n in self.iter() {
            write!(f, "{n:x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Nibbles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nibbles(")?;
        for n in &self.0 {
            write!(f, "{n:x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_key_unpacks_high_nibble_first() {
        let n = Nibbles::from_key(&[0xAB, 0xCD]);
        assert_eq!(n.as_slice(), &[0xA, 0xB, 0xC, 0xD]);
    }

    #[test]
    fn to_key_round_trip() {
        let key = b"round-trip-key".to_vec();
        assert_eq!(Nibbles::from_key(&key).to_key().unwrap(), key);
        assert!(Nibbles::from_raw(vec![1, 2, 3]).to_key().is_none());
    }

    #[test]
    fn common_prefix() {
        let a = Nibbles::from_key(b"abcdef");
        let b = Nibbles::from_key(b"abcxyz");
        assert_eq!(a.common_prefix_len(&b), 6); // "abc" = 6 nibbles
        assert!(a.starts_with(&a.slice(0, 6)));
        assert!(!a.starts_with(&b));
    }

    #[test]
    fn hex_prefix_spec_vectors() {
        // Yellow paper appendix C examples.
        // [1,2,3,4,5] extension (odd) -> 0x11 23 45
        let p = Nibbles::from_raw(vec![1, 2, 3, 4, 5]);
        assert_eq!(p.hex_prefix_encode(false), vec![0x11, 0x23, 0x45]);
        // [0,1,2,3,4,5] extension (even) -> 0x00 01 23 45
        let p = Nibbles::from_raw(vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.hex_prefix_encode(false), vec![0x00, 0x01, 0x23, 0x45]);
        // [0,f,1,c,b,8] leaf? no — [f,1,c,b,8] odd leaf -> 0x3f 1c b8
        let p = Nibbles::from_raw(vec![0xf, 0x1, 0xc, 0xb, 0x8]);
        assert_eq!(p.hex_prefix_encode(true), vec![0x3f, 0x1c, 0xb8]);
        // [0,f,1,c,b,8] even leaf -> 0x20 0f 1c b8
        let p = Nibbles::from_raw(vec![0x0, 0xf, 0x1, 0xc, 0xb, 0x8]);
        assert_eq!(p.hex_prefix_encode(true), vec![0x20, 0x0f, 0x1c, 0xb8]);
    }

    #[test]
    fn hex_prefix_round_trip() {
        for len in 0..9 {
            for leaf in [false, true] {
                let p = Nibbles::from_raw((0..len).map(|i| (i % 16) as u8).collect());
                let enc = p.hex_prefix_encode(leaf);
                assert_eq!(enc.len(), p.hex_prefix_encoded_len());
                let (dec, dec_leaf) = Nibbles::hex_prefix_decode(&enc).unwrap();
                assert_eq!(dec, p, "len {len} leaf {leaf}");
                assert_eq!(dec_leaf, leaf);
            }
        }
    }

    #[test]
    fn hex_prefix_decode_rejects_garbage() {
        assert!(Nibbles::hex_prefix_decode(&[]).is_none());
        assert!(Nibbles::hex_prefix_decode(&[0x40]).is_none(), "flag > 3");
        assert!(Nibbles::hex_prefix_decode(&[0x05]).is_none(), "nonzero pad");
    }

    #[test]
    fn views_agree_with_unpacked_paths() {
        let key = b"\x12\x34\x56\x78\x9a";
        let all = Nibbles::from_key(key);
        let view = NibbleView::key(key);
        assert_eq!(view.to_nibbles(), all);
        for from in 0..all.len() {
            for to in from..=all.len() {
                let v = NibbleView::new(key, from, to - from);
                let want = all.slice(from, to);
                assert_eq!(v.to_nibbles(), want, "{from}..{to}");
                for leaf in [false, true] {
                    let mut out = Vec::new();
                    v.hex_prefix_encode_into(leaf, &mut out);
                    assert_eq!(out, want.hex_prefix_encode(leaf), "{from}..{to} leaf {leaf}");
                    assert_eq!(out.len(), v.hex_prefix_encoded_len());
                    let (back, back_leaf) = NibbleView::hex_prefix(&out).unwrap();
                    assert_eq!((back, back_leaf), (v, leaf));
                }
            }
        }
    }

    #[test]
    fn view_comparisons_ignore_alignment() {
        let a = NibbleView::key(b"\xab\xcd\xef");
        // The same nibbles one position later in another buffer.
        let b = NibbleView::new(b"\x0a\xbc\xde\xf0", 1, 6);
        assert_eq!(a, b);
        assert_eq!(a.common_prefix_len(b), 6);
        assert_eq!(a.suffix(1).common_prefix_len(b.suffix(1)), 5);
        let c = NibbleView::key(b"\xab\xc0");
        assert_eq!(a.common_prefix_len(c), 3);
        assert_eq!(b.common_prefix_len(c), 3);
        let abc = NibbleView::new(b"\xab\xc0", 0, 3);
        assert!(a.starts_with(abc) && b.starts_with(abc));
        assert!(!a.starts_with(c) && !c.starts_with(a));
        assert_ne!(a, NibbleView::new(b"\xab\xcd\xef", 0, 5));
        assert!(a.starts_with(NibbleView::new(b"", 0, 0)));
    }

    #[test]
    fn view_hex_prefix_rejects_garbage() {
        assert!(NibbleView::hex_prefix(&[]).is_none());
        assert!(NibbleView::hex_prefix(&[0x40]).is_none(), "flag > 3");
        assert!(NibbleView::hex_prefix(&[0x05]).is_none(), "nonzero pad");
    }

    #[test]
    fn join_and_suffix() {
        let a = Nibbles::from_raw(vec![1, 2]);
        let b = Nibbles::from_raw(vec![4, 5]);
        assert_eq!(a.join(3, &b).as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.join(3, &b).suffix(2).as_slice(), &[3, 4, 5]);
    }
}
