//! Rabin-style rolling fingerprint over a fixed-size sliding window.
//!
//! POS-Tree partitions its bottom (data) layer with content-defined chunking:
//! a window slides over the serialized record stream and a node boundary is
//! declared wherever the window fingerprint matches a pattern such as "the
//! last q bits are all ones" (§3.4.3 of the paper). Content-defined chunking
//! avoids the boundary-shifting problem of fixed-size chunking [Eshghi &
//! Tang 2005].
//!
//! The fingerprint here is a *buzhash* (cyclic polynomial): each byte is
//! mapped through a fixed random table and combined with rotations. Like a
//! true Rabin polynomial fingerprint it supports O(1) slide (add one byte,
//! expel the oldest) and has uniformly distributed low bits, which is the
//! only property chunking needs.

/// Window size used when callers do not choose one. 67 bytes matches the
/// Noms default quoted in §5.6.2 of the paper.
pub const DEFAULT_WINDOW: usize = 67;

/// 256 pseudo-random 64-bit values, one per byte value, from a SplitMix64
/// sequence with a fixed seed — evaluated at compile time, so chunk
/// boundaries are stable across runs and platforms (structural invariance
/// depends on this) and the hot loops index a plain static.
const fn splitmix_table(seed: u64) -> [u64; 256] {
    let mut state = seed;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Buzhash byte table.
static BUZ_TABLE: [u64; 256] = splitmix_table(0x9E37_79B9_7F4A_7C15);

/// A rolling fingerprint over the last `window` bytes fed in.
///
/// ```
/// use siri_crypto::RollingHash;
/// let mut r = RollingHash::new(4);
/// for b in b"abcdef" {
///     r.push(*b);
/// }
/// // The fingerprint depends only on the final window ("cdef"):
/// let mut fresh = RollingHash::new(4);
/// for b in b"cdef" {
///     fresh.push(*b);
/// }
/// assert_eq!(r.fingerprint(), fresh.fingerprint());
/// ```
#[derive(Clone)]
pub struct RollingHash {
    /// The last `min(filled, window)` bytes, oldest at `head`.
    ring: Box<[u8]>,
    head: usize,
    filled: usize,
    value: u64,
    /// `BUZ_TABLE` pre-rotated by `window % 64`: the contribution a byte
    /// still has in `value` at the moment it leaves the window, so expelling
    /// it is one lookup and one XOR.
    expel: Box<[u64; 256]>,
}

impl RollingHash {
    /// Create a roller with the given window size (must be > 0).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling hash window must be positive");
        let rot = (window % 64) as u32;
        let mut expel = Box::new(BUZ_TABLE);
        for slot in expel.iter_mut() {
            *slot = slot.rotate_left(rot);
        }
        RollingHash {
            ring: vec![0; window].into_boxed_slice(),
            head: 0,
            filled: 0,
            value: 0,
            expel,
        }
    }

    pub fn with_default_window() -> Self {
        Self::new(DEFAULT_WINDOW)
    }

    pub fn window(&self) -> usize {
        self.ring.len()
    }

    /// Slide the window forward by one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.roll::<false>(&[byte], 0);
    }

    /// Feed a whole slice.
    #[inline]
    pub fn push_slice(&mut self, bytes: &[u8]) {
        self.roll::<false>(bytes, 0);
    }

    /// Feed a whole slice and report whether `fingerprint() & mask == mask`
    /// held after any byte of it at which the window was fully populated —
    /// the content-defined boundary test, fused into the slide. A cold
    /// window never fires: right after a node boundary the decision would
    /// depend on too few bytes — in the worst case firing deterministically
    /// inside a repeated max-key prefix and growing an unbounded tower of
    /// single-child nodes.
    #[inline]
    pub fn push_slice_fires(&mut self, bytes: &[u8], mask: u64) -> bool {
        self.roll::<true>(bytes, mask)
    }

    /// The slice kernel. Two phases: a cold fill until the window is
    /// populated, then a warm loop that never computes a ring index per
    /// byte — the outgoing byte comes from the ring for the first `window`
    /// bytes of the call and from the slice itself after that, and the ring
    /// is brought up to date once, at the end.
    fn roll<const TEST: bool>(&mut self, bytes: &[u8], mask: u64) -> bool {
        let window = self.ring.len();
        let mut v = self.value;
        let mut fired = false;

        // Cold: nothing leaves the window yet. The ring is written in
        // arrival order from slot 0 (`reset` rewinds `head`), so it cannot
        // wrap here.
        let cold = (window - self.filled).min(bytes.len());
        let (fill, warm) = bytes.split_at(cold);
        if cold > 0 {
            for &b in fill {
                v = v.rotate_left(1) ^ BUZ_TABLE[b as usize];
            }
            self.ring[self.filled..self.filled + cold].copy_from_slice(fill);
            self.filled += cold;
            // Only the byte that completes the window is testable.
            fired = TEST && self.filled == window && v & mask == mask;
        }

        // Warm: the outgoing bytes are the ring from `head` round to `head`
        // again, then the slice's own bytes `window` positions back.
        let n = warm.len();
        let from_ring = n.min(window);
        let unwrapped = from_ring.min(window - self.head);
        for (outgoing, incoming) in [
            (&self.ring[self.head..self.head + unwrapped], &warm[..unwrapped]),
            (&self.ring[..from_ring - unwrapped], &warm[unwrapped..from_ring]),
            (&warm[..n - from_ring], &warm[from_ring..]),
        ] {
            let (slid, hit) = buz_slide::<TEST>(v, &self.expel, outgoing, incoming, mask);
            v = slid;
            fired |= hit;
        }
        if n >= window {
            self.ring.copy_from_slice(&warm[n - window..]);
            self.head = 0;
        } else {
            // Fewer than `window` new bytes: overwrite the `n` oldest,
            // wrapping by compare, not by division.
            self.ring[self.head..self.head + unwrapped].copy_from_slice(&warm[..unwrapped]);
            self.ring[..n - unwrapped].copy_from_slice(&warm[unwrapped..]);
            self.head += n;
            if self.head >= window {
                self.head -= window;
            }
        }
        self.value = v;
        fired
    }

    /// Current window fingerprint. Only meaningful once at least `window`
    /// bytes have been pushed, but it is defined (and deterministic) before
    /// that too.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.value
    }

    /// Whether the window is fully populated.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.filled >= self.ring.len()
    }

    /// Reset to the empty state, keeping the window size *and the ring
    /// allocation*. O(1): stale ring contents need no clearing because a
    /// byte is only read back out of the ring once `filled == window`, by
    /// which point every slot has been freshly written. Chunkers reset at
    /// every node boundary, so this runs once per chunk on the build hot
    /// path.
    pub fn reset(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.value = 0;
    }
}

/// The warm buzhash loop over two equally long runs: each step expels one
/// `outgoing` byte and admits one `incoming` byte, optionally OR-ing the
/// boundary test of every position into the returned flag (branch-free).
#[inline(always)]
fn buz_slide<const TEST: bool>(
    mut v: u64,
    expel: &[u64; 256],
    outgoing: &[u8],
    incoming: &[u8],
    mask: u64,
) -> (u64, bool) {
    let mut fired = false;
    for (&out, &inc) in outgoing.iter().zip(incoming) {
        v = v.rotate_left(1) ^ (expel[out as usize] ^ BUZ_TABLE[inc as usize]);
        if TEST {
            fired |= v & mask == mask;
        }
    }
    (v, fired)
}

/// The per-byte definition the fingerprint had before the slice kernel:
/// `% window` ring indexing, a rotate per expelled byte, a lazily built table
/// and a warm check per byte. Kept as the oracle the kernel is tested
/// against — it shares no code with it, the table generator included.
#[cfg(test)]
mod reference {
    fn table(seed: u64) -> [u64; 256] {
        let mut state = seed;
        let mut table = [0u64; 256];
        for slot in table.iter_mut() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        table
    }

    pub struct RollingHash {
        table: [u64; 256],
        window: usize,
        ring: Vec<u8>,
        head: usize,
        filled: usize,
        value: u64,
    }

    impl RollingHash {
        pub fn new(window: usize) -> Self {
            RollingHash {
                table: table(0x9E37_79B9_7F4A_7C15),
                window,
                ring: vec![0; window],
                head: 0,
                filled: 0,
                value: 0,
            }
        }

        pub fn push(&mut self, byte: u8) {
            let outgoing = self.ring[self.head];
            self.ring[self.head] = byte;
            self.head = (self.head + 1) % self.window;
            if self.filled < self.window {
                self.filled += 1;
                self.value = self.value.rotate_left(1) ^ self.table[byte as usize];
            } else {
                let w = (self.window % 64) as u32;
                self.value = self.value.rotate_left(1)
                    ^ self.table[outgoing as usize].rotate_left(w)
                    ^ self.table[byte as usize];
            }
        }

        pub fn fingerprint(&self) -> u64 {
            self.value
        }

        pub fn is_warm(&self) -> bool {
            self.filled >= self.window
        }

        pub fn reset(&mut self) {
            self.head = 0;
            self.filled = 0;
            self.value = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feed `$stream` to a kernel in the ragged call lengths `$cuts` (then
    /// the rest in one call), to a second kernel one byte per call, and to
    /// the per-byte oracle; all three are reset before call `$reset_call`.
    /// The one-byte kernel must fire at exactly the oracle's positions, a
    /// ragged call must fire exactly when one of its positions does, and
    /// fingerprint and warm flag must agree after every call. Odd calls go
    /// through `push_slice`, which must leave the same state behind.
    macro_rules! assert_kernel_matches_reference {
        ($kernel:expr, $oracle:expr, $stream:expr, $cuts:expr, $reset_call:expr, $mask:expr) => {{
            let (mut ragged, mut bytewise, mut oracle) = ($kernel, $kernel, $oracle);
            let (stream, mask): (&[u8], u64) = ($stream, $mask);
            let mut pos = 0;
            for (call, len) in $cuts.iter().copied().chain([usize::MAX]).enumerate() {
                if call == $reset_call {
                    ragged.reset();
                    bytewise.reset();
                    oracle.reset();
                }
                let span = &stream[pos..pos + len.min(stream.len() - pos)];
                let mut expected = false;
                for (i, &b) in span.iter().enumerate() {
                    oracle.push(b);
                    let fires = oracle.is_warm() && oracle.fingerprint() & mask == mask;
                    assert_eq!(bytewise.push_slice_fires(&[b], mask), fires, "at {}", pos + i);
                    expected |= fires;
                }
                if call % 2 == 0 {
                    assert_eq!(ragged.push_slice_fires(span, mask), expected, "call at {pos}");
                } else {
                    ragged.push_slice(span);
                }
                pos += span.len();
                assert_eq!(ragged.fingerprint(), oracle.fingerprint(), "ragged at {pos}");
                assert_eq!(bytewise.fingerprint(), oracle.fingerprint(), "bytewise at {pos}");
                assert_eq!(ragged.is_warm(), oracle.is_warm(), "warm flag at {pos}");
            }
        }};
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn buzhash_kernel_equals_per_byte_reference(
            stream in proptest::collection::vec(proptest::num::u8::ANY, 0..700),
            cuts in proptest::collection::vec(0usize..300, 0..12),
            reset_call in 0usize..14,
            bits in 1u32..6,
        ) {
            for window in [1usize, 2, 63, 64, 65, 67, 128] {
                assert_kernel_matches_reference!(
                    RollingHash::new(window),
                    reference::RollingHash::new(window),
                    &stream,
                    cuts,
                    reset_call,
                    (1u64 << bits) - 1
                );
            }
        }

    }

    #[test]
    fn depends_only_on_window_contents() {
        let window = 16;
        let long: Vec<u8> = (0..200u8).collect();
        let mut a = RollingHash::new(window);
        a.push_slice(&long);
        let mut b = RollingHash::new(window);
        b.push_slice(&long[long.len() - window..]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_windows_differ() {
        let fingerprint = |data: &[u8]| {
            let mut r = RollingHash::new(4);
            r.push_slice(data);
            r.fingerprint()
        };
        assert_ne!(fingerprint(b"the quick brown fox"), fingerprint(b"the quick brown fix"));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut r = RollingHash::new(8);
        r.push_slice(b"some data here");
        r.reset();
        let fresh = RollingHash::new(8);
        assert_eq!(r.fingerprint(), fresh.fingerprint());
        assert!(!r.is_warm());
    }

    #[test]
    fn warm_flag() {
        let mut r = RollingHash::new(4);
        r.push_slice(b"abc");
        assert!(!r.is_warm());
        r.push(b'd');
        assert!(r.is_warm());
    }

    #[test]
    fn low_bits_are_roughly_uniform() {
        // Chunking quality depends on the low bits behaving uniformly: count
        // how often the low 6 bits are all ones over a pseudo-random stream.
        // Expectation is 1/64; allow a generous band.
        let mut r = RollingHash::new(32);
        let mut hits = 0u32;
        let mut x: u64 = 42;
        const N: u32 = 200_000;
        for _ in 0..N {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            r.push((x >> 33) as u8);
            if r.is_warm() && r.fingerprint() & 0x3f == 0x3f {
                hits += 1;
            }
        }
        let rate = hits as f64 / N as f64;
        assert!((rate - 1.0 / 64.0).abs() < 0.006, "boundary rate {rate} too far from 1/64");
    }

    #[test]
    fn buzhash_reset_is_equivalent_to_fresh_state() {
        // reset() no longer zeroes the ring; the stale contents must be
        // invisible: a reset roller must produce identical fingerprints to
        // a brand-new one on every prefix.
        let mut used = RollingHash::new(16);
        used.push_slice(&(0..200u8).collect::<Vec<_>>());
        used.reset();
        let mut fresh = RollingHash::new(16);
        for b in 0..100u8 {
            used.push(b);
            fresh.push(b);
            assert_eq!(used.fingerprint(), fresh.fingerprint(), "after byte {b}");
        }
    }

    #[test]
    fn window_of_64_and_65_edge_cases() {
        // rotate_left(window % 64) must still cancel correctly at the
        // wrap-around sizes.
        for window in [63usize, 64, 65, 128] {
            let data: Vec<u8> = (0..255u8).cycle().take(window * 3).collect();
            let mut a = RollingHash::new(window);
            a.push_slice(&data);
            let mut b = RollingHash::new(window);
            b.push_slice(&data[data.len() - window..]);
            assert_eq!(a.fingerprint(), b.fingerprint(), "window {window}");
        }
    }
}
