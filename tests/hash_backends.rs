//! Differential tests of the SHA-256 backend dispatch: every available
//! backend (scalar always; SHA-NI / NEON when the CPU has them) must
//! produce bit-identical digests on arbitrary inputs, one-shot and
//! streamed. Content addressing makes the digest the page's identity, so a
//! single diverging bit would fork every structure built on top — these
//! tests are the contract that the accelerated paths are pure speedups.
//! The process uses the backend CPU detection picks; `digest_with` tests
//! every backend this machine can run regardless.

use proptest::prelude::*;
use siri::crypto::{
    active_backend, available_backends, digest_with, hash_many, sha256, Sha256Backend,
};

/// NIST FIPS 180-4 vectors, checked against every backend at the
/// integration level (the unit tests cover them too; this guards the
/// facade re-exports).
#[test]
fn nist_vectors_on_every_available_backend() {
    let vectors: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for backend in available_backends() {
        for (msg, want) in vectors {
            assert_eq!(digest_with(backend, msg).to_hex(), *want, "{backend:?} on {msg:?}");
        }
    }
}

#[test]
fn active_backend_is_available_and_sha256_uses_it() {
    let active = active_backend();
    assert!(available_backends().contains(&active));
    let data = b"the active backend must be the one sha256() dispatches to";
    assert_eq!(sha256(data), digest_with(active, data));
    let inputs: [&[u8]; 4] = [data, b"", &[7u8; 64], &[9u8; 200]];
    let want: Vec<_> = inputs.iter().map(|d| sha256(d)).collect();
    assert_eq!(hash_many(&inputs), want, "hash_many is sha256 per input");
}

proptest! {
    /// Arbitrary inputs: every backend agrees with the scalar reference.
    #[test]
    fn backends_agree_on_arbitrary_input(
        data in proptest::collection::vec(proptest::num::u8::ANY, 0..2048)
    ) {
        let want = digest_with(Sha256Backend::Scalar, &data);
        for backend in available_backends() {
            prop_assert_eq!(digest_with(backend, &data), want, "backend {:?}", backend);
        }
    }

    /// Boundary sweep around the 64-byte block size with arbitrary fill —
    /// the padding logic is where accelerated implementations diverge
    /// first if they are going to.
    #[test]
    fn block_boundary_lengths_agree(fill in proptest::num::u8::ANY, len in 0usize..200) {
        let data = vec![fill; len];
        let want = digest_with(Sha256Backend::Scalar, &data);
        for backend in available_backends() {
            prop_assert_eq!(digest_with(backend, &data), want, "backend {:?} len {}", backend, len);
        }
    }
}
