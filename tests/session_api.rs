//! Behavioral battery over the [`siri::Session`] trait, run on every
//! configuration of [`matrix::SESSIONS`]: the in-process engine and a
//! loopback `siri-server` reached through the client crate, each over
//! both stores and a single-shard or 8-shard head. Across the wire every
//! commit, scan page and proof crosses TCP, and nothing here may notice.

mod matrix;

use std::ops::Bound;

use matrix::SESSIONS;
use siri::{IndexError, WriteBatch};

fn batch(pairs: &[(&str, &str)]) -> WriteBatch {
    let mut b = WriteBatch::new();
    for (k, v) in pairs {
        b.put(k.as_bytes().to_vec(), v.as_bytes().to_vec());
    }
    b
}

#[test]
fn commit_get_and_receipt_chain() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        let first = s.commit("master", batch(&[("alice", "100"), ("bob", "75")])).unwrap();
        assert_eq!(first.root, s.branch_digest("master").unwrap());
        assert_eq!(s.get("master", b"alice").unwrap().unwrap().as_ref(), b"100");
        assert_eq!(s.get("master", b"nope").unwrap(), None);

        // The receipt chain: each commit's parent is the previous root.
        let second = s.commit("master", batch(&[("carol", "10")])).unwrap();
        assert_eq!(second.parent, first.root);
        assert_ne!(second.root, first.root);
        assert_eq!(second.root, s.branch_digest("master").unwrap());
    });
}

#[test]
fn deletes_are_part_of_the_atomic_batch() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        s.commit("master", batch(&[("a", "1"), ("b", "2")])).unwrap();
        let mut b = WriteBatch::new();
        b.put(&b"c"[..], &b"3"[..]).delete(&b"a"[..]);
        s.commit("master", b).unwrap();
        assert_eq!(s.get("master", b"a").unwrap(), None);
        assert_eq!(s.get("master", b"c").unwrap().unwrap().as_ref(), b"3");
    });
}

#[test]
fn range_and_scan_prefix_stream_in_order() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        let mut b = WriteBatch::new();
        for i in 0..600u32 {
            b.put(format!("key{i:04}").into_bytes(), format!("val{i}").into_bytes());
        }
        s.commit("master", b).unwrap();

        // Full scan: every key, sorted, with the right values — across enough
        // entries that a remote session needs several pages.
        let all: Vec<_> = s
            .range("master", Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 600);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key), "scan must be sorted");
        assert_eq!(all[17].key.as_ref(), b"key0017");
        assert_eq!(all[17].value.as_ref(), b"val17");

        // Half-open window with an excluded start.
        let window: Vec<_> = s
            .range("master", Bound::Excluded(&b"key0009"[..]), Bound::Included(&b"key0012"[..]))
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();
        let keys: Vec<&[u8]> = window.iter().map(|e| e.key.as_ref()).collect();
        assert_eq!(keys, vec![&b"key0010"[..], b"key0011", b"key0012"]);

        // Prefix scan is the range sugar: key001* is exactly ten records.
        let ten: Vec<_> =
            s.scan_prefix("master", b"key001").unwrap().collect::<siri::Result<_>>().unwrap();
        assert_eq!(ten.len(), 10);
        assert!(ten.iter().all(|e| e.key.starts_with(b"key001")));
    });
}

#[test]
fn fork_diverges_and_branches_list() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        s.commit("master", batch(&[("base", "v0")])).unwrap();
        s.fork("master", "feature").unwrap();
        assert_eq!(
            s.branch_digest("feature").unwrap(),
            s.branch_digest("master").unwrap(),
            "a fork starts at the parent's head"
        );

        s.commit("feature", batch(&[("base", "v1"), ("extra", "yes")])).unwrap();
        assert_eq!(s.get("master", b"base").unwrap().unwrap().as_ref(), b"v0");
        assert_eq!(s.get("feature", b"base").unwrap().unwrap().as_ref(), b"v1");
        assert_eq!(s.get("master", b"extra").unwrap(), None);

        assert_eq!(s.branches().unwrap(), vec!["feature".to_string(), "master".to_string()]);
    });
}

#[test]
fn deleted_branches_disappear() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        s.fork("master", "doomed").unwrap();
        s.commit("doomed", batch(&[("k", "v")])).unwrap();
        s.delete_branch("doomed").unwrap();
        assert_eq!(s.branches().unwrap(), vec!["master".to_string()]);
        assert!(matches!(s.get("doomed", b"k"), Err(IndexError::Unsupported("unknown branch"))));
    });
}

#[test]
fn unknown_branch_errors_are_uniform() {
    // The exact same variant surfaces locally and across the wire (the
    // protocol carries known engine errors as codes, not strings).
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        assert!(matches!(s.get("ghost", b"k"), Err(IndexError::Unsupported("unknown branch"))));
        assert!(matches!(
            s.commit("ghost", batch(&[("k", "v")])),
            Err(IndexError::Unsupported("unknown branch"))
        ));
        assert!(matches!(s.branch_digest("ghost"), Err(IndexError::Unsupported("unknown branch"))));
        assert!(matches!(s.fork("ghost", "child"), Err(IndexError::Unsupported("unknown branch"))));
        assert!(matches!(
            s.range("ghost", Bound::Unbounded, Bound::Unbounded)
                .and_then(|c| c.collect::<siri::Result<Vec<_>>>()),
            Err(IndexError::Unsupported("unknown branch"))
        ));
    });
}

#[test]
fn proofs_verify_offline_against_the_branch_digest() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        s.commit("master", batch(&[("alice", "100"), ("bob", "75"), ("carol", "10")])).unwrap();
        let (root, proof) = s.prove("master", b"bob").unwrap();

        // The anchor root is exactly the published digest, so a verifier that
        // learned the digest out of band needs nothing else from the server.
        // The anchored verifier resolves a shard-manifest first page (the
        // 8-shard configurations) the same as a bare tree root.
        assert_eq!(root, s.branch_digest("master").unwrap());
        let scheme = &siri::PosProofScheme;
        let verdict = siri::verify_anchored_membership(scheme, root, b"bob", &proof);
        assert_eq!(verdict.value().unwrap().as_ref(), b"75");

        // An absent key needs its own proof (the anchored verifier insists
        // every supplied page participate in the walk).
        let (aroot, aproof) = s.prove("master", b"mallory").unwrap();
        assert_eq!(aroot, root);
        let absent = siri::verify_anchored_membership(scheme, root, b"mallory", &aproof);
        assert!(absent.is_valid());
        assert_eq!(absent.value(), None);

        // Tamper check: one flipped bit and the proof no longer verifies.
        let mut forged = proof.clone();
        forged.tamper(0, 3);
        assert!(!siri::verify_anchored_membership(scheme, root, b"bob", &forged).is_valid());
    });
}

#[test]
fn range_and_batch_proofs_verify_offline() {
    use siri::{
        verify_anchored_batch, verify_anchored_range, BatchVerdict, PosProofScheme, ProofVerdict,
    };

    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        s.commit(
            "master",
            batch(&[("alice", "100"), ("bob", "75"), ("carol", "10"), ("dave", "0")]),
        )
        .unwrap();
        let digest = s.branch_digest("master").unwrap();

        // A range proof carries its window completely: exactly the covered
        // entries come back, in order, and the anchor is the branch digest.
        // (Across the loopback the RemoteSession has already verified this
        // proof against the digest before handing it over.)
        let (root, proof) = s
            .prove_range("master", Bound::Included(&b"b"[..]), Bound::Excluded(&b"d"[..]))
            .unwrap();
        assert_eq!(root, digest);
        let verdict = verify_anchored_range(
            &PosProofScheme,
            digest,
            Bound::Included(&b"b"[..]),
            Bound::Excluded(&b"d"[..]),
            &proof,
        );
        let entries = verdict.entries().expect("range proof must verify");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key.as_ref(), b"bob");
        assert_eq!(entries[1].key.as_ref(), b"carol");
        assert_eq!(entries[1].value.as_ref(), b"10");

        // A batched proof answers several keys from one deduplicated page set,
        // mixing membership and non-membership verdicts.
        let keys = vec![siri::Bytes::from_static(b"alice"), siri::Bytes::from_static(b"mallory")];
        let (root, bp) = s.prove_batch("master", &keys).unwrap();
        assert_eq!(root, digest);
        match verify_anchored_batch(&PosProofScheme, digest, &keys, &bp) {
            BatchVerdict::Verified(vs) => {
                assert_eq!(vs[0].value().unwrap().as_ref(), b"100");
                assert_eq!(vs[1], ProofVerdict::Absent);
            }
            other => panic!("batch proof rejected: {other:?}"),
        }
    });
}

#[test]
fn empty_scan_and_empty_branch_behave() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        let none: Vec<_> = s
            .range("master", Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();
        assert!(none.is_empty());
        let none: Vec<_> =
            s.scan_prefix("master", b"zzz").unwrap().collect::<siri::Result<_>>().unwrap();
        assert!(none.is_empty());
    });
}

/// `cursor.take(n)` — the take a remote cursor pushes down to the server —
/// yields exactly what `Iterator::take` yields over the same cursor, which
/// is the first `n` entries of the full scan: for every take count, over a
/// full scan, a mid-range start and an end bound that cuts before `n`,
/// for nested takes, and after part of the cursor was already read.
fn check_takes(label: &str, range: impl Fn(Bound<&[u8]>, Bound<&[u8]>) -> siri::EntryCursor) {
    use Bound::{Excluded, Included, Unbounded};

    let drain = |c: siri::EntryCursor| c.collect::<siri::Result<Vec<_>>>().unwrap();
    let windows = [
        (Unbounded, Unbounded),
        (Included(&b"key0250"[..]), Unbounded),
        (Excluded(&b"key0100"[..]), Included(&b"key0130"[..])),
    ];
    for (start, end) in windows {
        let full = drain(range(start, end));
        let len = full.len();
        let first = |n: usize| &full[..n.min(len)];
        for n in [0, 1, 20, 64, 65, 300, len, len + 5] {
            let pushed = drain(range(start, end).take(n));
            let plain: Vec<_> =
                Iterator::take(range(start, end), n).collect::<siri::Result<_>>().unwrap();
            assert_eq!(pushed, plain, "{label}: take({n}) over {start:?}..{end:?}");
            assert_eq!(pushed, first(n), "{label}: take({n}) over {start:?}..{end:?}");
        }
        assert_eq!(drain(range(start, end).take(50).take(10)), first(10), "{label}");
        assert_eq!(drain(range(start, end).take(10).take(50)), first(10), "{label}");

        let mut cursor = range(start, end);
        let read = cursor.by_ref().take(3).count();
        let rest = &full[read..];
        assert_eq!(drain(cursor.take(100)), rest[..100.min(rest.len())], "{label}");
    }
}

fn numbered(n: u32) -> Vec<siri::Entry> {
    (0..n)
        .map(|i| {
            siri::Entry::new(format!("key{i:04}").into_bytes(), format!("val{i}").into_bytes())
        })
        .collect()
}

#[test]
fn cursor_take_is_iterator_take() {
    matrix::each(SESSIONS, |cfg| {
        let s = cfg.session();
        let mut b = WriteBatch::new();
        for e in numbered(600) {
            b.put(e.key, e.value);
        }
        s.commit("master", b).unwrap();
        check_takes(&cfg.to_string(), |start, end| s.range("master", start, end).unwrap());
    });
}

#[test]
fn cursor_take_is_iterator_take_on_every_structure() {
    use siri::{
        IndexFactory, MbtFactory, MemStore, MptFactory, MvmbFactory, MvmbParams, PosFactory,
        PosParams, SiriIndex,
    };

    fn on<F: IndexFactory>(factory: F) {
        let mut idx = factory.empty(MemStore::new_shared());
        idx.batch_insert(numbered(600)).unwrap();
        check_takes(idx.kind(), |start, end| idx.range(start, end));
    }
    on(PosFactory(PosParams::default()));
    on(MptFactory);
    on(MbtFactory { buckets: 64, fanout: 8 });
    on(MvmbFactory(MvmbParams::default()));
}
