//! MVMB+-Tree's [`ProofScheme`]: a proof is a recorded read (DESIGN.md
//! §14), so all there is to say is how to open a reader over a page source.
//! The baseline gets the same verified-read surface as the SIRI structures,
//! which is essential on sharded branches: its collapsed root is not
//! derivable from the shard sub-roots, so manifest-anchored proofs are the
//! *only* sound ones.

use std::ops::Bound;

use bytes::Bytes;
use siri_core::{EntryCursor, ProofScheme, Result, SiriIndex};
use siri_crypto::Hash;
use siri_store::SharedStore;

use crate::MvmbTree;

/// The dyn-safe handle clients verify MVMB+-Tree proofs with.
pub struct MvmbProofScheme;

impl ProofScheme for MvmbProofScheme {
    fn structure(&self) -> &'static str {
        "mvmb+-tree"
    }

    fn get(&self, pages: SharedStore, root: Hash, key: &[u8]) -> Result<Option<Bytes>> {
        MvmbTree::reader(pages, root).get(key)
    }

    fn range(
        &self,
        pages: SharedStore,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> EntryCursor {
        MvmbTree::reader(pages, root).range(start, end)
    }
}

#[cfg(test)]
mod tests {
    use crate::{MvmbParams, MvmbTree};
    use siri_core::{Bytes, Entry, Hash, MemStore, Proof, ProofVerdict, SiriIndex};

    fn tree() -> MvmbTree {
        let mut t = MvmbTree::new(MemStore::new_shared(), MvmbParams::default());
        t.batch_insert(
            (0..200)
                .map(|i| {
                    Entry::new(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
                })
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn presence_and_absence() {
        let t = tree();
        let p = t.prove(b"key0123").unwrap();
        assert_eq!(
            MvmbTree::verify_proof(t.root(), b"key0123", &p),
            ProofVerdict::Present(Bytes::from_static(b"v123"))
        );
        let p = t.prove(b"key0123a").unwrap();
        assert_eq!(MvmbTree::verify_proof(t.root(), b"key0123a", &p), ProofVerdict::Absent);
    }

    #[test]
    fn tampering_detected_at_every_level() {
        let t = tree();
        let proof = t.prove(b"key0050").unwrap();
        assert!(proof.len() >= 2, "need a multi-level tree");
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 7);
            assert!(!MvmbTree::verify_proof(t.root(), b"key0050", &p).is_valid());
        }
    }

    #[test]
    fn empty_tree_proofs() {
        let t = MvmbTree::new(MemStore::new_shared(), MvmbParams::default());
        let p = t.prove(b"anything").unwrap();
        assert_eq!(MvmbTree::verify_proof(t.root(), b"anything", &p), ProofVerdict::Absent);
        // One zero-root rule for every structure: the zero digest names no
        // page, so it vouches for absence and tolerates no evidence.
        let none = Proof::new(Vec::new());
        let junk = Proof::new(vec![bytes::Bytes::from_static(b"junk")]);
        assert_eq!(MvmbTree::verify_proof(Hash::ZERO, b"any", &none), ProofVerdict::Absent);
        assert!(!MvmbTree::verify_proof(Hash::ZERO, b"any", &junk).is_valid());
    }

    #[test]
    fn proof_bound_to_queried_key() {
        let t = tree();
        let p = t.prove(b"key0002").unwrap();
        // Verifying a different key against this path must not produce a
        // false Present.
        let verdict = MvmbTree::verify_proof(t.root(), b"key0199", &p);
        assert!(verdict.value().is_none());
    }
}
