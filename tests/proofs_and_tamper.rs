//! Tamper evidence across all structures: proofs verify, forgeries fail,
//! and corrupted stores are caught by verification (failure injection).

mod matrix;

use std::sync::Arc;

use matrix::{Config, STORES};
use siri::workloads::YcsbConfig;
use siri::{
    Entry, MemStore, MerkleBucketTree, MerklePatriciaTrie, MvmbParams, MvmbTree, PosParams,
    PosTree, ProofVerdict, SharedStore, SiriIndex,
};

fn dataset(n: usize) -> Vec<Entry> {
    YcsbConfig::default().dataset(n)
}

macro_rules! proof_suite {
    ($name:ident, $ty:ty, $make:expr) => {
        #[test]
        fn $name() {
            let mem = Arc::new(MemStore::new());
            let store: SharedStore = mem.clone();
            let make: fn(SharedStore) -> $ty = $make;
            let mut idx = make(store);
            let entries = dataset(1_500);
            idx.batch_insert(entries.clone()).unwrap();
            let root = idx.root();
            let ycsb = YcsbConfig::default();

            // Present keys verify to the right value.
            for i in (0..1_500u64).step_by(333) {
                let key = ycsb.key(i);
                let proof = idx.prove(&key).unwrap();
                match <$ty>::verify_proof(root, &key, &proof) {
                    ProofVerdict::Present(v) => {
                        assert_eq!(v, idx.get(&key).unwrap().unwrap(), "key {i}")
                    }
                    other => panic!("expected Present for key {i}, got {other:?}"),
                }
            }

            // Absent keys verify as absent — never as present.
            let absent = b"absolutely-not-a-key";
            let proof = idx.prove(absent).unwrap();
            assert_eq!(<$ty>::verify_proof(root, absent, &proof), ProofVerdict::Absent);

            // Any single-bit flip anywhere in the proof is caught.
            let key = ycsb.key(777);
            let good = idx.prove(&key).unwrap();
            for page in 0..good.len() {
                for bit in [0usize, 9, 100] {
                    let mut bad = good.clone();
                    bad.tamper(page, bit);
                    if bad == good {
                        continue; // tamper hit an identical bit pattern
                    }
                    assert!(
                        !<$ty>::verify_proof(root, &key, &bad).is_valid(),
                        "tampered page {page} bit {bit} accepted"
                    );
                }
            }

            // Proofs do not transfer across versions.
            let mut v2 = idx.clone();
            v2.insert(&key, bytes::Bytes::from_static(b"rewritten")).unwrap();
            assert!(<$ty>::verify_proof(v2.root(), &key, &good).value().is_none());

            // Failure injection: corrupt the root page in the store; a
            // freshly generated proof no longer verifies against the
            // trusted digest.
            assert!(mem.corrupt_page(&root, 42));
            match idx.prove(&key) {
                Ok(proof) => {
                    assert!(!<$ty>::verify_proof(root, &key, &proof).is_valid());
                }
                Err(_) => {} // decode failure is also a detection
            }
        }
    };
}

proof_suite!(pos_tree_proofs, PosTree, |s| PosTree::new(s, PosParams::default()));
proof_suite!(mpt_proofs, MerklePatriciaTrie, |s| MerklePatriciaTrie::new(s));
proof_suite!(mbt_proofs, MerkleBucketTree, |s| MerkleBucketTree::new(s, 128, 8).unwrap());
proof_suite!(mvmb_proofs, MvmbTree, |s| MvmbTree::new(s, MvmbParams::default()));

/// Regression (ISSUE 10 headline): on a sharded branch, `Session::prove`
/// used to anchor at the *collapsed* logical root, which differs from
/// `branch_digest()` — the manifest digest that is the only hash a light
/// client holds (for MVMB+ the collapsed root is not even derivable from
/// the shard sub-roots). Proofs must anchor at the published digest.
#[test]
fn sharded_branch_proofs_anchor_at_branch_digest() {
    use siri::{
        Forkbase, MbtFactory, MptFactory, MvmbFactory, PosFactory, Session, ShardingPolicy,
        WriteBatch,
    };

    fn check<F: siri::IndexFactory>(factory: F) {
        let scheme = factory.scheme();
        let engine =
            Forkbase::with_sharding(factory, MemStore::new_shared(), ShardingPolicy::pinned(4), 0);
        let mut batch = WriteBatch::new();
        for i in (0u16..=255).step_by(3) {
            let key = vec![i as u8, (i / 3) as u8];
            batch.put(key.clone(), format!("v{i}").into_bytes());
        }
        Session::commit(&engine, "master", batch).unwrap();
        assert_eq!(engine.shard_count("master").unwrap(), 4, "branch must actually shard");
        let digest = Session::branch_digest(&engine, "master").unwrap();

        let key = [99u8, 33];
        let (root, proof) = Session::prove(&engine, "master", &key).unwrap();
        assert_eq!(
            root, digest,
            "prove must anchor at the published branch digest, not the collapsed root"
        );
        assert!(
            proof.root_page_matches(digest),
            "first proof page must hash to the branch digest (the shard manifest)"
        );

        // And the anchored verifier accepts it end-to-end: membership …
        match siri::verify_anchored_membership(scheme, digest, &key, &proof) {
            ProofVerdict::Present(v) => assert_eq!(v.as_ref(), b"v99"),
            other => {
                panic!("{}: expected Present over the manifest, got {other:?}", scheme.structure())
            }
        }
        // … non-membership …
        let (_, absent) = Session::prove(&engine, "master", b"no-such-key").unwrap();
        assert_eq!(
            siri::verify_anchored_membership(scheme, digest, b"no-such-key", &absent),
            ProofVerdict::Absent,
            "{}: non-membership over the manifest",
            scheme.structure()
        );
        // … a cross-shard range (spans all four sub-roots) …
        use std::ops::Bound;
        let (rr, range) =
            Session::prove_range(&engine, "master", Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(rr, digest);
        let verdict =
            siri::verify_anchored_range(scheme, digest, Bound::Unbounded, Bound::Unbounded, &range);
        let entries = verdict
            .entries()
            .unwrap_or_else(|| panic!("{}: range proof rejected: {verdict:?}", scheme.structure()));
        assert_eq!(entries.len(), 86, "{}: full scan entry count", scheme.structure());
        // … and a batch that routes to several shards.
        let keys: Vec<siri::Bytes> = [[3u8, 1], [99, 33], [201, 67], [7, 7]]
            .iter()
            .map(|k| siri::Bytes::copy_from_slice(k))
            .collect();
        let (br, batch_proof) = Session::prove_batch(&engine, "master", &keys).unwrap();
        assert_eq!(br, digest);
        match siri::verify_anchored_batch(scheme, digest, &keys, &batch_proof) {
            siri::BatchVerdict::Verified(vs) => {
                assert!(matches!(vs[0], ProofVerdict::Present(_)));
                assert!(matches!(vs[1], ProofVerdict::Present(_)));
                assert!(matches!(vs[2], ProofVerdict::Present(_)));
                assert_eq!(vs[3], ProofVerdict::Absent);
            }
            other => panic!("{}: batch proof rejected: {other:?}", scheme.structure()),
        }
    }

    check(PosFactory(PosParams::default()));
    check(MptFactory);
    check(MbtFactory { buckets: 64, fanout: 4 });
    check(MvmbFactory(MvmbParams::default()));
}

/// Tamper matrix: {membership, non-membership, range, batched} × all four
/// structures, proven over a sharded branch and verified through the
/// anchored path. Runs on both stores of `matrix::STORES`, so the same
/// matrix is exercised against the durable backend. A proof verifies
/// only if it is exactly the page sequence the read fetches (DESIGN.md
/// §14), so every mutation below — not just a flipped bit — must be
/// `Invalid`, and none may panic: a dropped, truncated or reordered page is
/// a missing page, a duplicated or foreign one is left over, and a proof
/// for one query is the wrong page sequence for another.
#[test]
fn anchored_tamper_matrix_rejects_every_bit_flip() {
    use std::ops::Bound;

    use siri::{
        Bytes, Forkbase, MbtFactory, MptFactory, MvmbFactory, PosFactory, Proof, Session,
        ShardingPolicy, WriteBatch,
    };

    /// Every single-step corruption of `good`'s page list.
    fn mutations(good: &Proof, foreign: &Bytes) -> Vec<(String, Proof)> {
        let pages = good.pages();
        let mut out = Vec::new();
        let mut push = |what: String, pages: Vec<Bytes>| {
            let bad = Proof::new(pages);
            if bad != *good {
                out.push((what, bad)); // else: the mutation hit an identical pattern
            }
        };
        for at in 0..pages.len() {
            for bit in [0usize, 9, 100] {
                let mut bad = good.clone();
                bad.tamper(at, bit);
                push(format!("flip page {at} bit {bit}"), bad.into_pages());
            }
            let mut dropped = pages.to_vec();
            dropped.remove(at);
            push(format!("drop page {at}"), dropped);
            for to in [at + 1, pages.len()] {
                let mut doubled = pages.to_vec();
                doubled.insert(to, pages[at].clone());
                push(format!("duplicate page {at} at {to}"), doubled);
            }
            for other in [at + 1, pages.len() - 1] {
                if other < pages.len() {
                    let mut swapped = pages.to_vec();
                    swapped.swap(at, other);
                    push(format!("swap pages {at} and {other}"), swapped);
                }
            }
            for keep in [pages[at].len() - 1, pages[at].len() / 2, 0] {
                let mut cut = pages.to_vec();
                cut[at] = pages[at].slice(..keep);
                push(format!("truncate page {at} to {keep}"), cut);
            }
            let mut padded = pages.to_vec();
            padded.insert(at, foreign.clone());
            push(format!("foreign page before {at}"), padded);
        }
        let mut padded = pages.to_vec();
        padded.push(foreign.clone());
        push("foreign page appended".into(), padded);
        out
    }

    fn check<F: siri::IndexFactory>(cfg: Config, factory: F) {
        let scheme = factory.scheme();
        let engine = Forkbase::with_sharding(factory, cfg.store(), ShardingPolicy::pinned(4), 0);
        // Enough under every first byte that each of the four shards is a
        // multi-page tree.
        let mut batch = WriteBatch::new();
        for i in (0u16..=255).step_by(5) {
            for j in [3u8, 7, 11] {
                batch.put(vec![i as u8, j], format!("val{i}-{j}-{}", "x".repeat(40)).into_bytes());
            }
        }
        Session::commit(&engine, "master", batch).unwrap();
        let digest = Session::branch_digest(&engine, "master").unwrap();
        // A perfectly valid page of some *other* tree.
        Session::fork(&engine, "master", "other").unwrap();
        let mut other = WriteBatch::new();
        other.put(vec![120u8, 7], b"something else".to_vec());
        Session::commit(&engine, "other", other).unwrap();
        let (_, other_proof) = Session::prove(&engine, "other", &[120u8, 7]).unwrap();
        let foreign = other_proof.pages().last().unwrap().clone();

        // Shards are [..64), [64..128), [128..192), [192..]: the queries
        // below leave at least one shard untouched, and each "wrong query"
        // reaches into a shard its proof never visited.
        let present = [120u8, 7];
        let absent = b"no-such-key";
        let elsewhere = [200u8, 7];
        let keys_of = |ks: &[[u8; 2]]| -> Vec<Bytes> {
            ks.iter().map(|k| Bytes::copy_from_slice(k)).collect()
        };
        let batch_keys = keys_of(&[[10, 7], [120, 7], [255, 255]]);
        let other_keys = keys_of(&[[10, 7], [150, 7], [255, 255]]);
        let window = (Bound::Included(&[70u8][..]), Bound::Excluded(&[200u8][..]));
        let narrower = (Bound::Included(&[130u8][..]), Bound::Excluded(&[200u8][..]));
        let wider = (Bound::Unbounded, Bound::Excluded(&[200u8][..]));

        let (_, membership) = Session::prove(&engine, "master", &present).unwrap();
        let (_, non_membership) = Session::prove(&engine, "master", absent).unwrap();
        let (_, range) = Session::prove_range(&engine, "master", window.0, window.1).unwrap();
        let (_, batched) = Session::prove_batch(&engine, "master", &batch_keys).unwrap();
        assert!(!membership.pages().contains(&foreign) && !range.pages().contains(&foreign));

        let member = |key: &[u8], p: &Proof| {
            siri::verify_anchored_membership(scheme, digest, key, p).is_valid()
        };
        let ranged = |w: (Bound<&[u8]>, Bound<&[u8]>), p: &Proof| {
            siri::verify_anchored_range(scheme, digest, w.0, w.1, p).is_valid()
        };
        let many = |keys: &[Bytes], p: &Proof| {
            siri::verify_anchored_batch(scheme, digest, keys, p).is_valid()
        };

        type Check<'a> = Box<dyn Fn(&Proof) -> bool + 'a>;
        // (label, proof, its own query, the same proof under other queries)
        type Case<'a> = (&'a str, Proof, Check<'a>, Vec<(&'a str, Check<'a>)>);
        let cases: Vec<Case> = vec![
            (
                "membership",
                membership,
                Box::new(|p| member(&present, p)),
                vec![("a different key", Box::new(|p| member(&elsewhere, p)))],
            ),
            (
                "non-membership",
                non_membership,
                Box::new(|p| member(absent, p)),
                vec![("a different key", Box::new(|p| member(&elsewhere, p)))],
            ),
            (
                "range",
                range,
                Box::new(|p| ranged(window, p)),
                vec![
                    ("a narrower window", Box::new(|p| ranged(narrower, p))),
                    ("a wider window", Box::new(|p| ranged(wider, p))),
                ],
            ),
            (
                "batched",
                batched,
                Box::new(|p| many(&batch_keys, p)),
                vec![
                    ("a different key set", Box::new(|p| many(&other_keys, p))),
                    ("fewer keys", Box::new(|p| many(&batch_keys[..2], p))),
                ],
            ),
        ];

        for (label, good, valid, wrong_queries) in &cases {
            let who = scheme.structure();
            assert!(valid(good), "{who}: untampered {label} proof must verify");
            assert!(good.len() >= 3, "{who}: {label} proof should span manifest + a real path");
            for (what, bad) in mutations(good, &foreign) {
                assert!(!valid(&bad), "{who}: {label} proof accepted after: {what}");
            }
            for (what, wrong) in wrong_queries {
                assert!(!wrong(good), "{who}: {label} proof accepted for {what}");
            }
        }
    }

    matrix::each(STORES, |cfg| {
        check(cfg, PosFactory(PosParams::default()));
        check(cfg, MptFactory);
        check(cfg, MbtFactory { buckets: 16, fanout: 4 });
        check(cfg, MvmbFactory(MvmbParams::default()));
    });
}

#[test]
fn digests_bind_the_entire_content() {
    // Two indexes differing in one byte anywhere must differ in root.
    let entries = dataset(500);
    let mut a = PosTree::new(MemStore::new_shared(), PosParams::default());
    a.batch_insert(entries.clone()).unwrap();
    let mut tweaked = entries;
    let mut v = tweaked[250].value.to_vec();
    v[0] ^= 1;
    tweaked[250].value = bytes::Bytes::from(v);
    let mut b = PosTree::new(MemStore::new_shared(), PosParams::default());
    b.batch_insert(tweaked).unwrap();
    assert_ne!(a.root(), b.root());
}
