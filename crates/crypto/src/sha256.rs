//! SHA-256 as specified in FIPS 180-4, with hardware-accelerated backends.
//!
//! This is the content-addressing hash for every index page in the
//! repository, and therefore the single hottest primitive on the write
//! path. Three backends implement the same compression function:
//!
//! * **scalar** — the portable FIPS 180-4 compressor, always compiled and
//!   always correct. It is the reference the other backends are tested
//!   against, and the fallback on machines without crypto extensions.
//! * **sha-ni** — x86_64 SHA New Instructions (`sha256rnds2` /
//!   `sha256msg1` / `sha256msg2`), selected at runtime via
//!   `is_x86_feature_detected!`.
//! * **neon** — aarch64 SHA2 crypto extensions (`vsha256hq_u32` family),
//!   selected at runtime via `is_aarch64_feature_detected!`.
//!
//! Backend choice never changes a digest: all backends compute the same
//! function, block for block, and the differential tests in this module
//! and in `tests/hash_backends.rs` pin that. The process backend comes from
//! CPU detection alone; [`digest_with`] and [`Sha256::with_backend`] reach
//! every backend the machine can run, so the tests check each one.

use crate::digest::Hash;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Which compression-function implementation is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sha256Backend {
    /// Portable FIPS 180-4 compressor.
    Scalar,
    /// x86_64 SHA New Instructions.
    ShaNi,
    /// aarch64 SHA2 crypto extensions.
    Neon,
}

impl Sha256Backend {
    /// Stable display name (`scalar`, `sha-ni`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            Sha256Backend::Scalar => "scalar",
            Sha256Backend::ShaNi => "sha-ni",
            Sha256Backend::Neon => "neon",
        }
    }
}

/// Fastest backend the current CPU supports.
fn detect_backend() -> Sha256Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Sha256Backend::ShaNi;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("sha2") {
            return Sha256Backend::Neon;
        }
    }
    Sha256Backend::Scalar
}

/// The backend all digests in this process use: the fastest the CPU
/// supports, detected once.
pub fn active_backend() -> Sha256Backend {
    use std::sync::OnceLock;
    static ACTIVE: OnceLock<Sha256Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect_backend)
}

/// Every backend this binary can run on this machine. Scalar is always
/// present; an accelerated backend is added when the CPU supports it.
/// The differential tests iterate this so accelerated paths are exercised
/// exactly where they can be.
pub fn available_backends() -> Vec<Sha256Backend> {
    let mut v = vec![Sha256Backend::Scalar];
    if detect_backend() != Sha256Backend::Scalar {
        v.push(detect_backend());
    }
    v
}

/// Compress a run of whole 64-byte blocks (`data.len() % 64 == 0`) with
/// the given backend. The single dispatch point: everything else in this
/// module funnels through here.
#[inline]
fn compress_blocks(backend: Sha256Backend, state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    match backend {
        Sha256Backend::Scalar => {
            for block in data.chunks_exact(64) {
                compress_scalar(state, block);
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `ShaNi` variant is only ever produced by
        // `detect_backend` after `is_x86_feature_detected!` confirmed the
        // `sha`, `ssse3` and `sse4.1` features on this CPU, which is
        // exactly the kernel's `#[target_feature]` precondition. `state`
        // is a valid `&mut [u32; 8]` and `data.len() % 64 == 0` (asserted
        // above), so every 16-byte intrinsic load stays in bounds.
        Sha256Backend::ShaNi => unsafe { sha_ni::compress(state, data) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: the `Neon` variant is only produced by `detect_backend`
        // after runtime detection confirmed the `sha2` crypto extension,
        // matching the kernel's `#[target_feature]` precondition. `state`
        // is a valid `&mut [u32; 8]` and `data.len() % 64 == 0` (asserted
        // above), so every 16-byte vector load stays in bounds.
        Sha256Backend::Neon => unsafe { neon::compress(state, data) },
        #[allow(unreachable_patterns)]
        _ => unreachable!("backend unavailable on this architecture"),
    }
}

/// Portable FIPS 180-4 compression of one 64-byte block.
fn compress_scalar(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(target_arch = "x86_64")]
mod sha_ni {
    //! SHA-NI compressor, a faithful translation of the canonical
    //! intrinsics sequence (Gulley et al., "Intel SHA Extensions").
    //! `sha256rnds2` advances two rounds over an (ABEF, CDGH) register
    //! split; the message schedule rotates through four xmm registers with
    //! `sha256msg1`/`sha256msg2` doing the W-extension.

    use super::K;
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// * The caller must have verified the `sha`, `ssse3` and `sse4.1`
    ///   CPU features at runtime (`is_x86_feature_detected!`); calling
    ///   this on a CPU without them is immediate undefined behavior.
    /// * `data.len()` must be a multiple of 64: the block loop issues
    ///   four unchecked 16-byte `_mm_loadu_si128` loads per block, so a
    ///   ragged tail would read out of bounds.
    /// * `state` is a plain `&mut` reference — validity and aliasing are
    ///   guaranteed by the borrow checker; both 16-byte halves are read
    ///   and written through unaligned intrinsics, so no alignment
    ///   precondition beyond the reference itself.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Byte shuffle turning 16 little-endian loaded bytes into 4
        // big-endian u32 lanes.
        let mask = _mm_set_epi64x(0x0c0d0e0f08090a0bu64 as i64, 0x0405060700010203u64 as i64);

        // Repack [a,b,c,d],[e,f,g,h] into the (ABEF, CDGH) order the
        // rnds2 instruction wants.
        let tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let mut state1 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let tmp = _mm_shuffle_epi32::<0xB1>(tmp); // CDAB
        state1 = _mm_shuffle_epi32::<0x1B>(state1); // EFGH
        let mut state0 = _mm_alignr_epi8::<8>(tmp, state1); // ABEF
        state1 = _mm_blend_epi16::<0xF0>(state1, tmp); // CDGH

        for block in data.chunks_exact(64) {
            let save0 = state0;
            let save1 = state1;
            let mut msgs = [_mm_setzero_si128(); 4];
            for i in 0..16 {
                let m = if i < 4 {
                    let raw = _mm_loadu_si128(block.as_ptr().add(16 * i) as *const __m128i);
                    let m = _mm_shuffle_epi8(raw, mask);
                    msgs[i] = m;
                    m
                } else {
                    msgs[i % 4]
                };
                let mut msg =
                    _mm_add_epi32(m, _mm_loadu_si128(K.as_ptr().add(4 * i) as *const __m128i));
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                if (3..=14).contains(&i) {
                    // Begin extending the schedule quad that will be
                    // consumed four quads from now.
                    let tmp = _mm_alignr_epi8::<4>(m, msgs[(i + 3) % 4]);
                    let j = (i + 1) % 4;
                    msgs[j] = _mm_add_epi32(msgs[j], tmp);
                    msgs[j] = _mm_sha256msg2_epu32(msgs[j], m);
                }
                msg = _mm_shuffle_epi32::<0x0E>(msg);
                state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
                if (1..=12).contains(&i) {
                    let j = (i + 3) % 4;
                    msgs[j] = _mm_sha256msg1_epu32(msgs[j], m);
                }
            }
            state0 = _mm_add_epi32(state0, save0);
            state1 = _mm_add_epi32(state1, save1);
        }

        // Unpack (ABEF, CDGH) back to [a..d],[e..h].
        let tmp = _mm_shuffle_epi32::<0x1B>(state0); // FEBA
        state1 = _mm_shuffle_epi32::<0xB1>(state1); // DCHG
        state0 = _mm_blend_epi16::<0xF0>(tmp, state1); // DCBA
        state1 = _mm_alignr_epi8::<8>(state1, tmp); // HGFE
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, state1);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! aarch64 SHA2 crypto-extension compressor. `vsha256hq`/`vsha256h2q`
    //! advance four rounds over the (abcd, efgh) halves; `vsha256su0q` /
    //! `vsha256su1q` extend the message schedule.

    use super::K;
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// * The caller must have verified the `sha2` crypto extension at
    ///   runtime (`std::arch::is_aarch64_feature_detected!`); executing
    ///   the SHA instructions without it is undefined behavior.
    /// * `data.len()` must be a multiple of 64: each block iteration
    ///   issues four unchecked 16-byte `vld1q_u8` loads, so a ragged
    ///   tail would read out of bounds.
    /// * `state` is a plain `&mut` reference — validity and aliasing are
    ///   guaranteed by the borrow checker; `vld1q_u32`/`vst1q_u32` have
    ///   no alignment requirement beyond the element type.
    #[target_feature(enable = "sha2")]
    pub unsafe fn compress(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        let mut abcd = vld1q_u32(state.as_ptr());
        let mut efgh = vld1q_u32(state.as_ptr().add(4));
        for block in data.chunks_exact(64) {
            let save_abcd = abcd;
            let save_efgh = efgh;
            let mut msgs = [
                vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(block.as_ptr()))),
                vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(block.as_ptr().add(16)))),
                vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(block.as_ptr().add(32)))),
                vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(block.as_ptr().add(48)))),
            ];
            let mut wk = vaddq_u32(msgs[0], vld1q_u32(K.as_ptr()));
            for i in 0..16 {
                let abcd_prev = abcd;
                if i < 12 {
                    msgs[i % 4] = vsha256su0q_u32(msgs[i % 4], msgs[(i + 1) % 4]);
                }
                abcd = vsha256hq_u32(abcd, efgh, wk);
                efgh = vsha256h2q_u32(efgh, abcd_prev, wk);
                if i < 12 {
                    msgs[i % 4] =
                        vsha256su1q_u32(msgs[i % 4], msgs[(i + 2) % 4], msgs[(i + 3) % 4]);
                }
                if i < 15 {
                    wk = vaddq_u32(msgs[(i + 1) % 4], vld1q_u32(K.as_ptr().add(4 * (i + 1))));
                }
            }
            abcd = vaddq_u32(abcd, save_abcd);
            efgh = vaddq_u32(efgh, save_efgh);
        }
        vst1q_u32(state.as_mut_ptr(), abcd);
        vst1q_u32(state.as_mut_ptr().add(4), efgh);
    }
}

/// The 1–2 padding-bearing final blocks of a message of length `len` whose
/// last `len % 64` bytes are `tail`: 0x80 terminator, zeros, 8-byte
/// big-endian bit length.
fn pad_tail(tail: &[u8], len: u64) -> ([u8; 128], usize) {
    debug_assert!(tail.len() < 64);
    let mut buf = [0u8; 128];
    buf[..tail.len()].copy_from_slice(tail);
    buf[tail.len()] = 0x80;
    let blocks = if tail.len() < 56 { 1 } else { 2 };
    buf[blocks * 64 - 8..blocks * 64].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (buf, blocks)
}

fn state_to_hash(state: [u32; 8]) -> Hash {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Hash::from_bytes(out)
}

/// One-shot digest with an explicit backend. Diagnostic/testing surface:
/// production code uses [`Sha256::digest`], which picks the active backend.
pub fn digest_with(backend: Sha256Backend, data: &[u8]) -> Hash {
    let mut state = H0;
    let full = data.len() - data.len() % 64;
    compress_blocks(backend, &mut state, &data[..full]);
    let (pad, blocks) = pad_tail(&data[full..], data.len() as u64);
    compress_blocks(backend, &mut state, &pad[..blocks * 64]);
    state_to_hash(state)
}

/// One digest per input, in order: [`sha256`] of each.
pub fn hash_many(inputs: &[&[u8]]) -> Vec<Hash> {
    inputs.iter().map(|d| sha256(d)).collect()
}

/// Streaming SHA-256 state.
///
/// ```
/// use siri_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    backend: Sha256Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self::with_backend(active_backend())
    }

    /// Streaming state pinned to an explicit backend (testing surface).
    pub fn with_backend(backend: Sha256Backend) -> Self {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0, backend }
    }

    /// One-shot digest of a single slice. Prefer this over
    /// `new`/`update`/`finalize` when the whole message is in hand: it
    /// skips the streaming buffer entirely and feeds the backend maximal
    /// block runs.
    pub fn digest(data: &[u8]) -> Hash {
        digest_with(active_backend(), data)
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(self.backend, &mut self.state, &block);
                self.buf_len = 0;
            } else {
                // Input fit entirely in the partial buffer; nothing more to do.
                return;
            }
        }
        let full = rest.len() - rest.len() % 64;
        compress_blocks(self.backend, &mut self.state, &rest[..full]);
        let tail = &rest[full..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish the computation and return the digest.
    pub fn finalize(mut self) -> Hash {
        let (pad, blocks) = pad_tail(&self.buf[..self.buf_len], self.len);
        compress_blocks(self.backend, &mut self.state, &pad[..blocks * 64]);
        state_to_hash(self.state)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash {
    Sha256::digest(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / well-known vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (b"hello world", "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"),
    ];

    #[test]
    fn nist_vectors_every_backend() {
        for backend in available_backends() {
            for (msg, want) in VECTORS {
                assert_eq!(
                    digest_with(backend, msg).to_hex(),
                    *want,
                    "backend {backend:?} message {msg:?}"
                );
                let mut h = Sha256::with_backend(backend);
                h.update(msg);
                assert_eq!(h.finalize().to_hex(), *want, "streaming {backend:?}");
            }
        }
    }

    #[test]
    fn million_a_every_backend() {
        for backend in available_backends() {
            let mut h = Sha256::with_backend(backend);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize().to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "backend {backend:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for backend in available_backends() {
            for split in 0..=data.len() {
                let mut h = Sha256::with_backend(backend);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "backend {backend:?} split {split}");
            }
        }
    }

    #[test]
    fn length_boundaries_around_block_size_every_backend() {
        // Exercise messages whose padded length straddles one vs two blocks,
        // on every backend, streamed byte by byte vs one-shot.
        for backend in available_backends() {
            for len in 54..=66usize {
                let data = vec![0xABu8; len];
                let a = digest_with(backend, &data);
                let mut h = Sha256::with_backend(backend);
                for b in &data {
                    h.update(std::slice::from_ref(b));
                }
                assert_eq!(h.finalize(), a, "backend {backend:?} len {}", len);
            }
        }
    }

    #[test]
    fn backends_agree_on_block_boundary_lengths() {
        let backends = available_backends();
        let data: Vec<u8> = (0..1024usize).map(|i| (i * 31 % 251) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 256, 1000, 1024] {
            let want = digest_with(Sha256Backend::Scalar, &data[..len]);
            for &b in &backends {
                assert_eq!(digest_with(b, &data[..len]), want, "backend {b:?} len {len}");
            }
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Sha256Backend::Scalar.name(), "scalar");
        assert_eq!(Sha256Backend::ShaNi.name(), "sha-ni");
        assert_eq!(Sha256Backend::Neon.name(), "neon");
        // The active backend is always one of the available ones.
        assert!(available_backends().contains(&active_backend()));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
        assert_ne!(sha256(b"ab"), sha256(b"a\0b"));
    }
}
