//! MPT's [`ProofScheme`]: a proof is a recorded read (DESIGN.md §14) — "the
//! nodes on the path to the root" (§2.3) — so all there is to say is how to
//! open a reader over a page source. Absence is proven by the node where
//! the lookup stops: a leaf with a different tail, a branch with an empty
//! slot, or an extension whose run the key does not share.

use std::ops::Bound;

use bytes::Bytes;
use siri_core::{EntryCursor, ProofScheme, Result, SiriIndex};
use siri_crypto::Hash;
use siri_store::SharedStore;

use crate::MerklePatriciaTrie;

/// The dyn-safe handle clients verify MPT proofs with.
pub struct MptProofScheme;

impl ProofScheme for MptProofScheme {
    fn structure(&self) -> &'static str {
        "mpt"
    }

    fn get(&self, pages: SharedStore, root: Hash, key: &[u8]) -> Result<Option<Bytes>> {
        MerklePatriciaTrie::reader(pages, root).get(key)
    }

    fn range(
        &self,
        pages: SharedStore,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> EntryCursor {
        MerklePatriciaTrie::reader(pages, root).range(start, end)
    }
}

#[cfg(test)]
mod tests {
    use crate::MerklePatriciaTrie;
    use siri_core::{Bytes, Entry, Hash, MemStore, Proof, ProofVerdict, SiriIndex};

    fn trie() -> MerklePatriciaTrie {
        let mut t = MerklePatriciaTrie::new(MemStore::new_shared());
        t.batch_insert(
            (0..150)
                .map(|i| {
                    Entry::new(format!("addr{i:03}").into_bytes(), format!("bal{i}").into_bytes())
                })
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence() {
        let t = trie();
        let p = t.prove(b"addr099").unwrap();
        assert_eq!(
            MerklePatriciaTrie::verify_proof(t.root(), b"addr099", &p),
            ProofVerdict::Present(Bytes::from_static(b"bal99"))
        );
    }

    #[test]
    fn absence_variants() {
        let t = trie();
        for key in [&b"addr999"[..], b"zzz", b"addr0991", b"addr09"] {
            let p = t.prove(key).unwrap();
            assert_eq!(
                MerklePatriciaTrie::verify_proof(t.root(), key, &p),
                ProofVerdict::Absent,
                "key {:?}",
                String::from_utf8_lossy(key)
            );
        }
    }

    #[test]
    fn every_page_is_tamper_sensitive() {
        let t = trie();
        let proof = t.prove(b"addr077").unwrap();
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 11);
            assert!(
                !MerklePatriciaTrie::verify_proof(t.root(), b"addr077", &p).is_valid(),
                "page {page}"
            );
        }
    }

    #[test]
    fn proof_not_transferable_to_other_keys() {
        let t = trie();
        let p = t.prove(b"addr001").unwrap();
        let verdict = MerklePatriciaTrie::verify_proof(t.root(), b"addr002", &p);
        assert!(verdict.value().is_none(), "must not prove a different key present");
    }

    #[test]
    fn empty_trie_proof() {
        let t = MerklePatriciaTrie::new(MemStore::new_shared());
        let p = t.prove(b"k").unwrap();
        assert_eq!(MerklePatriciaTrie::verify_proof(t.root(), b"k", &p), ProofVerdict::Absent);
        // One zero-root rule for every structure: the zero digest names no
        // page, so it vouches for absence and tolerates no evidence.
        let none = Proof::new(Vec::new());
        let junk = Proof::new(vec![bytes::Bytes::from_static(b"junk")]);
        assert_eq!(
            MerklePatriciaTrie::verify_proof(Hash::ZERO, b"any", &none),
            ProofVerdict::Absent
        );
        assert!(!MerklePatriciaTrie::verify_proof(Hash::ZERO, b"any", &junk).is_valid());
    }

    #[test]
    fn truncated_proof_rejected() {
        let t = trie();
        let p = t.prove(b"addr077").unwrap();
        assert!(p.len() >= 2);
        let truncated = Proof::new(p.pages()[..p.len() - 1].to_vec());
        assert!(!MerklePatriciaTrie::verify_proof(t.root(), b"addr077", &truncated).is_valid());
    }
}
