//! Merkle proofs — the tamper-evidence contract.
//!
//! A proof is the ordered list of raw pages a read fetched, root first
//! ("the nodes on the path to the root", §2.3). A verifier holding only the
//! trusted root digest re-runs that read over the pages, each served only
//! by its content hash and only in its turn — so a forged, tampered,
//! missing or surplus page anywhere is detected (see `verify.rs`).

use bytes::Bytes;

use siri_crypto::{sha256, Hash};
use siri_encoding::{ByteReader, ByteWriter, CodecError};

/// Serialized-proof codec version byte.
const PROOF_CODEC_VERSION: u8 = 1;

/// Upper bound on pages per serialized proof — a decode-time cap, far
/// above any honest proof (a full MBT walk over the default 1024-bucket
/// skeleton is ~2k pages).
pub const MAX_PROOF_PAGES: usize = 1 << 16;

/// An ordered list of raw pages, anchor page first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    pages: Vec<Bytes>,
}

impl Proof {
    pub fn new(pages: Vec<Bytes>) -> Self {
        Proof { pages }
    }

    pub fn pages(&self) -> &[Bytes] {
        &self.pages
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total byte size — the "proof size" verifiers ship over the network.
    pub fn byte_size(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// Check that the first page hashes to `root` — the anchoring rule
    /// every proof obeys (an empty proof anchors only at the zero digest).
    pub fn root_page_matches(&self, root: Hash) -> bool {
        match self.pages.first() {
            Some(first) => sha256(first) == root,
            None => root.is_zero(),
        }
    }

    /// Consume the proof, yielding its pages.
    pub fn into_pages(self) -> Vec<Bytes> {
        self.pages
    }

    /// Failure-injection helper for tests: flip bit `bit` of page
    /// `page_idx`, addressing bits linearly (`bit / 8` is the byte offset,
    /// `bit % 8` the bit within it). Returns `true` iff a bit was actually
    /// flipped; a missing page, an empty page, or a bit offset past the end
    /// of the page leaves the proof untouched and returns `false` — so a
    /// tamper matrix can tell "this flip is checked by the verifier" from
    /// "this flip never happened".
    pub fn tamper(&mut self, page_idx: usize, bit: usize) -> bool {
        let Some(page) = self.pages.get_mut(page_idx) else {
            return false;
        };
        let byte = bit / 8;
        if byte >= page.len() {
            return false;
        }
        let mut raw = page.to_vec();
        raw[byte] ^= 1 << (bit % 8);
        *page = Bytes::from(raw);
        true
    }

    /// Compact serialized form: version byte, varint page count, then
    /// length-prefixed pages. This is the artifact/CLI representation; the
    /// wire protocol frames pages itself.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(1 + 4 + self.byte_size() + self.pages.len() * 4);
        w.put_u8(PROOF_CODEC_VERSION);
        w.put_varint(self.pages.len() as u64);
        for p in &self.pages {
            w.put_bytes(p);
        }
        w.into_vec()
    }

    /// Decode [`Proof::encode`] output. Total and allocation-capped:
    /// malformed input — truncation, trailing bytes, an implausible page
    /// count, or a length prefix past the buffer — is a [`CodecError`],
    /// never a panic or an attacker-sized allocation.
    pub fn decode(raw: &[u8]) -> Result<Proof, CodecError> {
        let mut r = ByteReader::new(raw);
        let version = r.get_u8()?;
        if version != PROOF_CODEC_VERSION {
            return Err(CodecError::BadTag(version));
        }
        let count = r.get_varint()? as usize;
        if count > MAX_PROOF_PAGES {
            return Err(CodecError::BadLength { what: "proof page count" });
        }
        let mut pages = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            pages.push(Bytes::copy_from_slice(r.get_bytes()?));
        }
        r.finish()?;
        Ok(Proof::new(pages))
    }
}

/// Outcome of verifying a [`Proof`] against a trusted root digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofVerdict {
    /// The proof is valid and shows `key → value`.
    Present(Bytes),
    /// The proof is valid and shows the key is absent.
    Absent,
    /// The proof does not verify against the root (tampering, truncation,
    /// or a path that does not actually lead to the key).
    Invalid(&'static str),
}

impl ProofVerdict {
    pub fn is_valid(&self) -> bool {
        !matches!(self, ProofVerdict::Invalid(_))
    }

    pub fn value(&self) -> Option<&Bytes> {
        match self {
            ProofVerdict::Present(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_page_check() {
        let page = Bytes::from_static(b"root page bytes");
        let proof = Proof::new(vec![page.clone()]);
        assert!(proof.root_page_matches(sha256(&page)));
        assert!(!proof.root_page_matches(sha256(b"other")));
    }

    #[test]
    fn empty_proof_matches_only_zero_root() {
        let proof = Proof::new(Vec::new());
        assert!(proof.root_page_matches(Hash::ZERO));
        assert!(!proof.root_page_matches(sha256(b"x")));
    }

    #[test]
    fn tamper_changes_hash() {
        let page = Bytes::from_static(b"page");
        let mut proof = Proof::new(vec![page.clone()]);
        assert!(proof.tamper(0, 5));
        assert!(!proof.root_page_matches(sha256(&page)));
        assert_eq!(proof.byte_size(), 4);
    }

    #[test]
    fn tamper_bits_address_linearly_and_never_alias() {
        // Flipping two distinct in-range bits must touch two distinct
        // positions (the old `(bit / 8) % len` mapping aliased them).
        let page = Bytes::from_static(b"abcd");
        let mut a = Proof::new(vec![page.clone()]);
        let mut b = Proof::new(vec![page.clone()]);
        assert!(a.tamper(0, 0));
        assert!(b.tamper(0, 8));
        assert_ne!(a.pages()[0], b.pages()[0], "distinct bits must hit distinct bytes");
        // Flip-twice restores the page: the mapping is deterministic.
        assert!(a.tamper(0, 0));
        assert_eq!(a.pages()[0], page);
    }

    #[test]
    fn tamper_out_of_range_is_a_detectable_noop() {
        let page = Bytes::from_static(b"pg");
        let mut proof = Proof::new(vec![page.clone(), Bytes::new()]);
        assert!(!proof.tamper(0, 16), "bit past the page must not wrap");
        assert!(!proof.tamper(1, 0), "empty page cannot be tampered");
        assert!(!proof.tamper(9, 0), "missing page cannot be tampered");
        assert_eq!(proof.pages()[0], page, "failed tampers leave the proof untouched");
    }

    #[test]
    fn serialized_form_round_trips() {
        for proof in [
            Proof::new(Vec::new()),
            Proof::new(vec![
                Bytes::from_static(b"a page"),
                Bytes::new(),
                Bytes::from(vec![7; 300]),
            ]),
        ] {
            let raw = proof.encode();
            assert_eq!(Proof::decode(&raw).unwrap(), proof);
        }
    }

    #[test]
    fn decode_is_total() {
        let good =
            Proof::new(vec![Bytes::from_static(b"page one"), Bytes::from_static(b"two")]).encode();
        for cut in 0..good.len() {
            assert!(Proof::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(Proof::decode(&trailing), Err(CodecError::TrailingBytes)));
        // Wrong version byte.
        let mut bad_ver = good.clone();
        bad_ver[0] = 9;
        assert!(Proof::decode(&bad_ver).is_err());
        // An implausible page count is rejected before any allocation.
        let mut w = ByteWriter::with_capacity(10);
        w.put_u8(1);
        w.put_varint(u64::MAX);
        assert!(Proof::decode(w.as_slice()).is_err());
    }

    #[test]
    fn verdict_accessors() {
        let v = ProofVerdict::Present(Bytes::from_static(b"v"));
        assert!(v.is_valid());
        assert_eq!(v.value().unwrap(), &Bytes::from_static(b"v"));
        assert!(ProofVerdict::Absent.is_valid());
        assert!(ProofVerdict::Absent.value().is_none());
        assert!(!ProofVerdict::Invalid("bad").is_valid());
    }
}
