//! MBT's [`ProofScheme`]: a proof is a recorded read (DESIGN.md §14), so
//! all there is to say is how to open a reader over a page source — which,
//! every page embedding (B, fanout), needs nothing beyond the trusted digest.

use std::ops::Bound;

use bytes::Bytes;
use siri_core::{EntryCursor, ProofScheme, Result, SiriIndex};
use siri_crypto::Hash;
use siri_store::SharedStore;

use crate::MerkleBucketTree;

/// The dyn-safe handle clients verify MBT proofs with.
pub struct MbtProofScheme;

impl ProofScheme for MbtProofScheme {
    fn structure(&self) -> &'static str {
        "mbt"
    }

    fn get(&self, pages: SharedStore, root: Hash, key: &[u8]) -> Result<Option<Bytes>> {
        MerkleBucketTree::reader(pages, root)?.get(key)
    }

    fn range(
        &self,
        pages: SharedStore,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> EntryCursor {
        match MerkleBucketTree::reader(pages, root) {
            Ok(tree) => tree.range(start, end),
            Err(e) => EntryCursor::fail(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Bound;

    use crate::{MbtProofScheme, MerkleBucketTree, Node};
    use siri_core::{
        verify_anchored_range, Entry, Hash, MemStore, Proof, ProofVerdict, RangeVerdict, SiriIndex,
    };

    fn tree_with_data() -> MerkleBucketTree {
        let mut t = MerkleBucketTree::new(MemStore::new_shared(), 32, 4).unwrap();
        let entries: Vec<Entry> = (0..100)
            .map(|i| {
                Entry::new(format!("key{i:03}").into_bytes(), format!("value{i}").into_bytes())
            })
            .collect();
        t.batch_insert(entries).unwrap();
        t
    }

    #[test]
    fn proves_presence() {
        let t = tree_with_data();
        let proof = t.prove(b"key042").unwrap();
        match MerkleBucketTree::verify_proof(t.root(), b"key042", &proof) {
            ProofVerdict::Present(v) => assert_eq!(v.as_ref(), b"value42"),
            other => panic!("expected Present, got {other:?}"),
        }
    }

    #[test]
    fn proves_absence() {
        let t = tree_with_data();
        let proof = t.prove(b"missing-key").unwrap();
        assert_eq!(
            MerkleBucketTree::verify_proof(t.root(), b"missing-key", &proof),
            ProofVerdict::Absent
        );
    }

    #[test]
    fn tampered_page_is_rejected() {
        let t = tree_with_data();
        let mut proof = t.prove(b"key042").unwrap();
        for page in 0..proof.len() {
            let mut p = proof.clone();
            p.tamper(page, 13);
            assert!(
                !MerkleBucketTree::verify_proof(t.root(), b"key042", &p).is_valid(),
                "tampering page {page} must invalidate the proof"
            );
        }
        // Untampered control.
        proof.tamper(usize::MAX, 0); // no-op
        assert!(MerkleBucketTree::verify_proof(t.root(), b"key042", &proof).is_valid());
    }

    #[test]
    fn proof_for_wrong_key_is_rejected() {
        let t = tree_with_data();
        let proof = t.prove(b"key001").unwrap();
        // key in a different bucket: the arithmetic path will not match.
        let verdict = MerkleBucketTree::verify_proof(t.root(), b"key002", &proof);
        // Either invalid (different path length impossible here, so link
        // check fails) or a *correct* Absent — never a false Present.
        assert!(verdict.value().is_none());
    }

    #[test]
    fn wrong_root_rejected() {
        let t = tree_with_data();
        let proof = t.prove(b"key001").unwrap();
        let wrong = siri_crypto::sha256(b"forged root");
        assert!(!MerkleBucketTree::verify_proof(wrong, b"key001", &proof).is_valid());
    }

    #[test]
    fn empty_tree_proofs() {
        // An MBT is never rootless — the skeleton exists from birth — so an
        // empty tree still proves absence with a full path.
        let t = MerkleBucketTree::new(MemStore::new_shared(), 32, 4).unwrap();
        let p = t.prove(b"any").unwrap();
        assert_eq!(p.len(), t.topology().height());
        assert_eq!(MerkleBucketTree::verify_proof(t.root(), b"any", &p), ProofVerdict::Absent);
        // One zero-root rule for every structure: the zero digest names no
        // page, so it vouches for absence and tolerates no evidence.
        let none = Proof::new(Vec::new());
        let junk = Proof::new(vec![bytes::Bytes::from_static(b"junk")]);
        assert_eq!(MerkleBucketTree::verify_proof(Hash::ZERO, b"any", &none), ProofVerdict::Absent);
        assert!(!MerkleBucketTree::verify_proof(Hash::ZERO, b"any", &junk).is_valid());
    }

    #[test]
    fn truncated_proof_rejected() {
        let t = tree_with_data();
        let proof = t.prove(b"key001").unwrap();
        let truncated = Proof::new(proof.pages()[..proof.len() - 1].to_vec());
        assert!(!MerkleBucketTree::verify_proof(t.root(), b"key001", &truncated).is_valid());
    }

    #[test]
    fn a_proof_cannot_state_an_oversized_shape() {
        // Every level of this fanout-2 tree repeats one page, so 21 pages
        // name 2^20 buckets. Taken on trust, that shape made a range read
        // decode 2^21 pages and answer `Complete`; the shape check refuses
        // it before the first bucket is read.
        let (buckets, fanout) = (1u64 << 20, 2u64);
        let mut pages = vec![Node::encode_bucket(buckets, fanout, &[])];
        for _ in 0..20 {
            let child = siri_crypto::sha256(&pages[pages.len() - 1]);
            pages.push(Node::encode_internal(buckets, fanout, &[child, child]));
        }
        pages.reverse(); // root first
        let root = siri_crypto::sha256(&pages[0]);
        let verdict = verify_anchored_range(
            &MbtProofScheme,
            root,
            Bound::Unbounded,
            Bound::Unbounded,
            &Proof::new(pages),
        );
        assert!(matches!(verdict, RangeVerdict::Invalid(_)), "{verdict:?}");
    }

    #[test]
    fn the_largest_paper_shape_proves_a_range() {
        // Table 3's sweep tops out at 10,000 buckets × fanout 32.
        let mut t = MerkleBucketTree::new(MemStore::new_shared(), 10_000, 32).unwrap();
        let entries: Vec<Entry> =
            (0..300).map(|i| Entry::new(format!("key{i:03}").into_bytes(), vec![1])).collect();
        t.batch_insert(entries.clone()).unwrap();
        let (start, end) = (Bound::Included(&b"key100"[..]), Bound::Excluded(&b"key120"[..]));
        let proof = t.prove_range(start, end).unwrap();
        assert_eq!(
            verify_anchored_range(&MbtProofScheme, t.root(), start, end, &proof),
            RangeVerdict::Complete(entries[100..120].to_vec())
        );
    }
}
