//! POS-Tree's [`ProofScheme`]: a proof is a recorded read (DESIGN.md §14),
//! so all there is to say is how to open a reader over a page source.

use std::ops::Bound;

use bytes::Bytes;
use siri_core::{EntryCursor, ProofScheme, Result, SiriIndex};
use siri_crypto::Hash;
use siri_store::SharedStore;

use crate::PosTree;

/// The dyn-safe handle clients verify POS-Tree proofs with.
pub struct PosProofScheme;

impl ProofScheme for PosProofScheme {
    fn structure(&self) -> &'static str {
        "pos-tree"
    }

    fn get(&self, pages: SharedStore, root: Hash, key: &[u8]) -> Result<Option<Bytes>> {
        PosTree::reader(pages, root).get(key)
    }

    fn range(
        &self,
        pages: SharedStore,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> EntryCursor {
        PosTree::reader(pages, root).range(start, end)
    }
}

#[cfg(test)]
mod tests {
    use crate::{PosParams, PosTree};
    use siri_core::{Entry, Hash, MemStore, Proof, ProofVerdict, SiriIndex};

    fn tree() -> PosTree {
        let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
        t.batch_insert(
            (0..2000)
                .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence_and_absence() {
        let t = tree();
        let p = t.prove(b"key01234").unwrap();
        match PosTree::verify_proof(t.root(), b"key01234", &p) {
            ProofVerdict::Present(v) => assert_eq!(v.len(), 100),
            other => panic!("expected Present, got {other:?}"),
        }
        let p = t.prove(b"key01234x").unwrap();
        assert_eq!(PosTree::verify_proof(t.root(), b"key01234x", &p), ProofVerdict::Absent);
    }

    #[test]
    fn tamper_detection_everywhere() {
        let t = tree();
        let proof = t.prove(b"key00999").unwrap();
        assert!(proof.len() >= 2);
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 21);
            assert!(!PosTree::verify_proof(t.root(), b"key00999", &p).is_valid(), "page {page}");
        }
    }

    #[test]
    fn proofs_bound_to_root_version() {
        let t = tree();
        let v1 = t.clone();
        let mut v2 = t;
        v2.insert(b"key00999", bytes::Bytes::from_static(b"new")).unwrap();
        let p1 = v1.prove(b"key00999").unwrap();
        // The old proof must not verify the key against the *new* root.
        let verdict = PosTree::verify_proof(v2.root(), b"key00999", &p1);
        assert!(!verdict.is_valid());
    }

    #[test]
    fn empty_tree_proofs() {
        let t = PosTree::new(MemStore::new_shared(), PosParams::default());
        let p = t.prove(b"any").unwrap();
        assert_eq!(PosTree::verify_proof(t.root(), b"any", &p), ProofVerdict::Absent);
        // One zero-root rule for every structure: the zero digest names no
        // page, so it vouches for absence and tolerates no evidence.
        let none = Proof::new(Vec::new());
        let junk = Proof::new(vec![bytes::Bytes::from_static(b"junk")]);
        assert_eq!(PosTree::verify_proof(Hash::ZERO, b"any", &none), ProofVerdict::Absent);
        assert!(!PosTree::verify_proof(Hash::ZERO, b"any", &junk).is_valid());
    }
}
