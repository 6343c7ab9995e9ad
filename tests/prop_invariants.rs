//! Property-based tests over the whole stack: for arbitrary record sets,
//! the three SIRI structures are order-insensitive, all four agree with a
//! model map, and diff/merge round-trip.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use siri::{
    diff_by_scan, merge, Bytes, Entry, Hash, IndexFactory, MbtFactory, MemStore, MergeStrategy,
    MptFactory, MvmbFactory, MvmbParams, NodeStore, PosFactory, PosParams, Proof, ProofVerdict,
    Session, ShardRouter, SharedStore, SiriIndex, StoreResult, StoreStats,
};

/// Random small key/value pairs; keys constrained to provoke shared
/// prefixes (MPT extensions) and duplicates (last-write-wins).
fn arb_entries(max: usize) -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::num::u8::ANY, 1..6),
            proptest::collection::vec(proptest::num::u8::ANY, 0..24),
        ),
        1..max,
    )
}

fn to_entries(raw: &[(Vec<u8>, Vec<u8>)]) -> Vec<Entry> {
    raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()
}

fn model(raw: &[(Vec<u8>, Vec<u8>)]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    raw.iter().cloned().collect()
}

fn check_matches_model<I: SiriIndex>(idx: &I, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    assert_eq!(idx.len().unwrap(), model.len(), "{}", idx.kind());
    for (k, v) in model {
        assert_eq!(
            idx.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "{} missing key {k:?}",
            idx.kind()
        );
    }
    let scan = idx.scan().unwrap();
    assert!(scan.windows(2).all(|w| w[0].key < w[1].key), "{} scan unsorted", idx.kind());
    assert_eq!(scan.len(), model.len());
}

/// A store that remembers which pages were fetched through it.
struct CountingStore {
    inner: SharedStore,
    fetched: Mutex<HashSet<Hash>>,
}

impl NodeStore for CountingStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        self.inner.try_put(page)
    }
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        let page = self.inner.try_get(hash)?;
        if page.is_some() {
            self.fetched.lock().unwrap().insert(*hash);
        }
        Ok(page)
    }
    fn contains(&self, hash: &Hash) -> bool {
        self.inner.contains(hash)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// What a reader holding only `digest` must do, spelled out independently
/// of the prover and the verifier: resolve the digest to its partition and
/// sub-roots (`siri::open_head`, which fetches the page it names), and run
/// `read` on a fresh-cache handle for each non-empty sub-root in
/// `pick(router)` order. Returns what the reads returned and the distinct
/// pages fetched on the way.
fn reference_read<F: IndexFactory, T>(
    factory: &F,
    store: &Arc<CountingStore>,
    digest: Hash,
    pick: impl Fn(&ShardRouter) -> Vec<usize>,
    read: impl Fn(F::Index) -> T,
) -> (Vec<T>, HashSet<Hash>) {
    store.fetched.lock().unwrap().clear();
    let (router, shards) = siri::open_head(store.as_ref(), digest).unwrap();
    let roots: Vec<Hash> = pick(&router).into_iter().map(|i| shards[i]).collect();
    let open = |root: Hash| {
        // A digest is all this reader holds, so it learns a tree's shape
        // (MBT's bucket count and fanout) from the root page itself.
        store.try_get(&root).unwrap();
        read(factory.open(store.clone(), root))
    };
    let out = roots.into_iter().filter(|root| !root.is_zero()).map(open).collect();
    (out, std::mem::take(&mut *store.fetched.lock().unwrap()))
}

fn page_set(proof: &Proof) -> HashSet<Hash> {
    let set: HashSet<Hash> = proof.pages().iter().map(|p| siri::crypto::sha256(p)).collect();
    assert_eq!(set.len(), proof.len(), "a proof lists each page once");
    set
}

/// Proof ≡ recorded read, for one structure at one shard count.
fn check_proofs_are_recorded_reads<F: IndexFactory>(
    factory: F,
    shards: usize,
    raw: &[(Vec<u8>, Vec<u8>)],
    probes: &[Vec<u8>],
    (start, end): (Bound<&[u8]>, Bound<&[u8]>),
) {
    use siri::{Forkbase, ShardingPolicy, WriteBatch};

    let who = format!("{} × {shards} shard(s)", factory.name());
    let scheme = factory.scheme();
    let store = Arc::new(CountingStore {
        inner: MemStore::new_shared(),
        fetched: Mutex::new(HashSet::new()),
    });
    let engine =
        Forkbase::with_sharding(factory.clone(), store.clone(), ShardingPolicy::pinned(shards), 0);
    let mut batch = WriteBatch::new();
    for (k, v) in raw {
        batch.put(k.clone(), v.clone());
    }
    let digest = Session::commit(&engine, "master", batch).unwrap().root;

    // Point lookups, present and absent — and the same keys as one batch:
    // the union of the paths, each page once.
    let (mut union, mut expect) = (HashSet::new(), Vec::new());
    for key in probes {
        let (got, fetched) = reference_read(
            &factory,
            &store,
            digest,
            |router| vec![router.shard_of(key)],
            |idx| idx.get(key).unwrap(),
        );
        let value = got.into_iter().next().flatten();
        let (root, proof) = Session::prove(&engine, "master", key).unwrap();
        assert_eq!(root, digest);
        assert_eq!(page_set(&proof), fetched, "{who}: membership proof of {key:?}");
        let verdict = siri::verify_anchored_membership(scheme, digest, key, &proof);
        expect.push(value.map_or(ProofVerdict::Absent, ProofVerdict::Present));
        assert_eq!(Some(&verdict), expect.last(), "{who}");
        union.extend(fetched);
    }
    let keys: Vec<Bytes> = probes.iter().map(|k| Bytes::from(k.clone())).collect();
    let (_, proof) = Session::prove_batch(&engine, "master", &keys).unwrap();
    assert_eq!(page_set(&proof), union, "{who}: batch proof");
    let verdicts = siri::verify_anchored_batch(scheme, digest, &keys, &proof);
    assert_eq!(verdicts.verdicts(), Some(&expect[..]), "{who}");

    // A window: every covering shard's cursor, drained in partition order.
    let (got, fetched) = reference_read(
        &factory,
        &store,
        digest,
        |router| {
            let (lo, hi) = router.covering(start, end);
            (lo..=hi).collect()
        },
        |idx| idx.range(start, end).collect_entries().unwrap(),
    );
    let entries: Vec<Entry> = got.into_iter().flatten().collect();
    let (_, proof) = Session::prove_range(&engine, "master", start, end).unwrap();
    assert_eq!(page_set(&proof), fetched, "{who}: range proof of {start:?}..{end:?}");
    let verdict = siri::verify_anchored_range(scheme, digest, start, end, &proof);
    assert_eq!(verdict.entries(), Some(&entries[..]), "{who}");
}

/// The same equivalence on trees deep enough to have interior levels in
/// every structure (the random cases above mostly fit one POS-Tree leaf):
/// a window inside one leaf run, one crossing many, and an inverted one.
#[test]
fn proofs_are_recorded_reads_on_multi_level_trees() {
    let data = siri::workloads::YcsbConfig::default().dataset(1_500);
    let raw: Vec<(Vec<u8>, Vec<u8>)> =
        data.iter().map(|e| (e.key.to_vec(), e.value.to_vec())).collect();
    let sorted: Vec<Vec<u8>> = model(&raw).into_keys().collect();
    let mut probes: Vec<Vec<u8>> = sorted.iter().step_by(311).cloned().collect();
    probes.push(b"absolutely-not-a-key".to_vec());
    probes.push(vec![0xff; 3]);
    for (lo, hi) in [(700, 705), (200, 1_300), (900, 100)] {
        let window = (Bound::Included(&sorted[lo][..]), Bound::Excluded(&sorted[hi][..]));
        for shards in [1usize, 4] {
            check_proofs_are_recorded_reads(
                PosFactory(PosParams::default()),
                shards,
                &raw,
                &probes,
                window,
            );
            check_proofs_are_recorded_reads(MptFactory, shards, &raw, &probes, window);
            check_proofs_are_recorded_reads(
                MbtFactory { buckets: 64, fanout: 4 },
                shards,
                &raw,
                &probes,
                window,
            );
            check_proofs_are_recorded_reads(
                MvmbFactory(MvmbParams::default()),
                shards,
                &raw,
                &probes,
                window,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_indexes_match_a_model_map(raw in arb_entries(120)) {
        let entries = to_entries(&raw);
        let m = model(&raw);

        macro_rules! check {
            ($factory:expr) => {{
                let mut idx = $factory.empty(MemStore::new_shared());
                idx.batch_insert(entries.clone()).unwrap();
                check_matches_model(&idx, &m);
            }};
        }
        check!(PosFactory(PosParams::default()));
        check!(MptFactory);
        check!(MbtFactory { buckets: 32, fanout: 4 });
        check!(MvmbFactory(MvmbParams::default()));
    }

    #[test]
    fn siri_roots_are_insertion_order_invariant(raw in arb_entries(80), seed in 0u64..1000) {
        // Deduplicate keys first: with duplicates, last-write-wins makes
        // different orders legitimately produce different *content*.
        let entries: Vec<Entry> =
            model(&raw).into_iter().map(|(k, v)| Entry::new(k, v)).collect();
        // A deterministic permutation + different batching from the seed.
        let mut shuffled = entries.clone();
        let n = shuffled.len();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let chunk = (seed as usize % 7) + 1;

        macro_rules! invariant {
            ($factory:expr) => {{
                let factory = $factory;
                let mut a = factory.empty(MemStore::new_shared());
                a.batch_insert(entries.clone()).unwrap();
                let mut b = factory.empty(MemStore::new_shared());
                for c in shuffled.chunks(chunk) {
                    b.batch_insert(c.to_vec()).unwrap();
                }
                prop_assert_eq!(a.root(), b.root(), "structure {} not invariant", a.kind());
            }};
        }
        invariant!(PosFactory(PosParams::default()));
        invariant!(MptFactory);
        invariant!(MbtFactory { buckets: 32, fanout: 4 });
    }

    #[test]
    fn diff_matches_scan_reference_and_merge_roundtrips(
        left_raw in arb_entries(60),
        right_raw in arb_entries(60),
    ) {
        let factory = PosFactory(PosParams::default());
        let store = MemStore::new_shared();
        let mut left = factory.empty(store.clone());
        left.batch_insert(to_entries(&left_raw)).unwrap();
        let mut right = factory.empty(store);
        right.batch_insert(to_entries(&right_raw)).unwrap();

        // Structure-aware diff ≡ scan-based reference diff.
        let structural = left.diff(&right).unwrap();
        let reference = diff_by_scan(&left, &right).unwrap();
        prop_assert_eq!(&structural, &reference);

        // merge(left, right, PreferRight) contains exactly model-left ∪
        // model-right with right winning conflicts.
        let outcome = merge(&left, &right, MergeStrategy::PreferRight).unwrap();
        let mut expect = model(&left_raw);
        for (k, v) in model(&right_raw) {
            expect.insert(k, v);
        }
        let merged_scan = outcome.merged.scan().unwrap();
        prop_assert_eq!(merged_scan.len(), expect.len());
        for e in &merged_scan {
            prop_assert_eq!(expect.get(e.key.as_ref()).map(|v| v.as_slice()), Some(e.value.as_ref()));
        }

        // And merging right into the merged index is then conflict-free.
        let again = merge(&outcome.merged, &right, MergeStrategy::Strict).unwrap();
        prop_assert_eq!(again.added_from_right, 0);
    }

    #[test]
    fn proofs_verify_for_arbitrary_content(raw in arb_entries(60)) {
        let entries = to_entries(&raw);
        let m = model(&raw);
        let mut idx = PosFactory(PosParams::default()).empty(MemStore::new_shared());
        idx.batch_insert(entries).unwrap();
        let root = idx.root();
        for (k, v) in m.iter().take(5) {
            let proof = idx.prove(k).unwrap();
            let verdict = siri::PosTree::verify_proof(root, k, &proof);
            prop_assert_eq!(verdict.value().map(|b| b.as_ref()), Some(v.as_slice()));
        }
        let proof = idx.prove(b"\xff\xff\xff absent").unwrap();
        prop_assert!(matches!(
            siri::PosTree::verify_proof(root, b"\xff\xff\xff absent", &proof),
            siri::ProofVerdict::Absent
        ));
    }

    /// A proof is a recorded read (DESIGN.md §14): for arbitrary content,
    /// keys and windows — inverted ones included — on every structure,
    /// sharded or not, the pages of `prove*` are exactly the distinct pages
    /// a fresh-cache read fetches, and the verifier returns exactly what
    /// that read returned.
    #[test]
    fn proofs_are_recorded_reads(
        raw in arb_entries(60),
        extra in proptest::collection::vec(proptest::collection::vec(proptest::num::u8::ANY, 1..6), 1..4),
        lo in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
        hi in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
        inclusive_end in proptest::bool::ANY,
    ) {
        // A few stored keys plus a few arbitrary (mostly absent) ones.
        let mut probes: Vec<Vec<u8>> = model(&raw).into_keys().step_by(7).take(4).collect();
        probes.extend(extra);
        let end = if inclusive_end { Bound::Included(&hi[..]) } else { Bound::Excluded(&hi[..]) };
        let window = (Bound::Included(&lo[..]), end);
        for shards in [1usize, 4] {
            check_proofs_are_recorded_reads(
                PosFactory(PosParams::default()), shards, &raw, &probes, window);
            check_proofs_are_recorded_reads(MptFactory, shards, &raw, &probes, window);
            check_proofs_are_recorded_reads(
                MbtFactory { buckets: 16, fanout: 4 }, shards, &raw, &probes, window);
            check_proofs_are_recorded_reads(
                MvmbFactory(MvmbParams::default()), shards, &raw, &probes, window);
        }
    }

    /// Anchored range proofs are *complete*: for arbitrary content on a
    /// sharded branch and an arbitrary window, the verified entry list is
    /// byte-for-byte the cursor scan over the same window — nothing
    /// dropped, nothing invented, nothing reordered across shards.
    #[test]
    fn range_proofs_match_the_cursor_scan(
        raw in arb_entries(60),
        lo in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
        hi in proptest::collection::vec(proptest::num::u8::ANY, 0..4),
    ) {
        use siri::{Forkbase, ShardingPolicy, WriteBatch};

        let engine = Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::pinned(3),
            0,
        );
        let mut batch = WriteBatch::new();
        for (k, v) in &raw {
            batch.put(k.clone(), v.clone());
        }
        Session::commit(&engine, "master", batch).unwrap();
        let digest = Session::branch_digest(&engine, "master").unwrap();

        let (start, end) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let sb = Bound::Included(&start[..]);
        let eb = Bound::Excluded(&end[..]);
        let scanned: Vec<siri::Entry> = Session::range(&engine, "master", sb, eb)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();

        let (root, proof) = Session::prove_range(&engine, "master", sb, eb).unwrap();
        prop_assert_eq!(root, digest, "range proofs must anchor at the branch digest");
        let verdict =
            siri::verify_anchored_range(&siri::PosProofScheme, digest, sb, eb, &proof);
        let entries = verdict.entries().unwrap_or_else(|| panic!("rejected: {verdict:?}"));
        prop_assert_eq!(entries, scanned.as_slice());
    }
}
