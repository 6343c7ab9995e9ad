//! MBT-specific property tests: arbitrary shapes (B, fanout), model
//! equivalence, order invariance, topology laws, and range reads across
//! the edges of the cursor's 8-byte key-prefix column.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use siri_core::{verify_anchored_range, Entry, MemStore, RangeVerdict, SiriIndex};
use siri_mbt::{MbtProofScheme, MerkleBucketTree, Topology};

/// Key pieces whose concatenations hit every edge of an 8-byte prefix:
/// the empty key, keys shorter than 8 bytes, `ab` / `ab\0` / `ab\0\0`
/// (equal prefixes, different keys), shared stems of 8 bytes and more, and
/// `0xFF` runs.
const PIECES: [&[u8]; 9] = [
    b"ab",
    b"\0",
    b"\0\0",
    b"abcdefgh",
    b"abcdefg",
    b"\xff",
    b"\xff\xff\xff\xff\xff\xff\xff\xff",
    b"x",
    b"\x01",
];

fn prefix_edge_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..PIECES.len(), 0..4)
        .prop_map(|pieces| pieces.into_iter().flat_map(|i| PIECES[i].iter().copied()).collect())
}

fn bound(kind: u8, key: &[u8]) -> Bound<&[u8]> {
    match kind {
        0 => Bound::Included(key),
        1 => Bound::Excluded(key),
        _ => Bound::Unbounded,
    }
}

fn within(key: &[u8], start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
    let after_start = match start {
        Bound::Included(s) => key >= s,
        Bound::Excluded(s) => key > s,
        Bound::Unbounded => true,
    };
    let before_end = match end {
        Bound::Included(e) => key <= e,
        Bound::Excluded(e) => key < e,
        Bound::Unbounded => true,
    };
    after_start && before_end
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn topology_laws(buckets in 1usize..500, fanout in 2usize..12) {
        let t = Topology::new(buckets, fanout).unwrap();
        // Level sizes shrink by ~fanout and end at 1.
        prop_assert_eq!(t.nodes_on_level(0), buckets);
        prop_assert_eq!(t.nodes_on_level(t.height() - 1), 1);
        for level in 1..t.height() {
            prop_assert_eq!(
                t.nodes_on_level(level),
                t.nodes_on_level(level - 1).div_ceil(fanout)
            );
        }
        // Every bucket's path is consistent with parent/child arithmetic.
        for bucket in [0, buckets / 2, buckets - 1] {
            let path = t.path_to_bucket(bucket);
            prop_assert_eq!(path.len(), t.height());
            for pair in path.windows(2) {
                prop_assert_eq!(t.parent(pair[1]), Some(pair[0]));
                let (first, count) = t.children_span(pair[0]);
                let slot = t.slot_in_parent(pair[1]);
                prop_assert!(slot < count);
                prop_assert_eq!(first + slot, pair[1].1);
            }
        }
    }

    #[test]
    fn mbt_matches_model_for_arbitrary_shapes(
        raw in proptest::collection::vec(
            (proptest::collection::vec(proptest::num::u8::ANY, 1..8),
             proptest::collection::vec(proptest::num::u8::ANY, 0..16)),
            1..80,
        ),
        buckets in 1usize..40,
        fanout in 2usize..6,
    ) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = raw.iter().cloned().collect();
        let mut t = MerkleBucketTree::new(MemStore::new_shared(), buckets, fanout).unwrap();
        t.batch_insert(raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect())
            .unwrap();
        prop_assert_eq!(t.len().unwrap(), model.len());
        for (k, v) in &model {
            let got = t.get(k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
    }

    #[test]
    fn mbt_root_is_order_invariant(
        raw in proptest::collection::vec(
            (proptest::collection::vec(proptest::num::u8::ANY, 1..6),
             proptest::collection::vec(proptest::num::u8::ANY, 1..8)),
            1..50,
        ),
        seed in 0u64..500,
    ) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> = raw.iter().cloned().collect();
        let entries: Vec<Entry> =
            model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect();
        let mut shuffled = entries.clone();
        let n = shuffled.len();
        for i in (1..n).rev() {
            let j = (seed.wrapping_add(i as u64 * 2654435761) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut a = MerkleBucketTree::new(MemStore::new_shared(), 16, 4).unwrap();
        a.batch_insert(entries).unwrap();
        let mut b = MerkleBucketTree::new(MemStore::new_shared(), 16, 4).unwrap();
        for chunk in shuffled.chunks(7) {
            b.batch_insert(chunk.to_vec()).unwrap();
        }
        prop_assert_eq!(a.root(), b.root());
    }

    #[test]
    fn range_matches_model_across_prefix_edges(
        keys in proptest::collection::vec(prefix_edge_key(), 1..120),
        buckets in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
        windows in proptest::collection::vec(
            (0u8..3, prefix_edge_key(), 0u8..3, prefix_edge_key()),
            1..8,
        ),
    ) {
        let model: BTreeMap<Vec<u8>, Vec<u8>> =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), i.to_le_bytes().to_vec())).collect();
        let mut t = MerkleBucketTree::new(MemStore::new_shared(), buckets, 4).unwrap();
        t.batch_insert(model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect())
            .unwrap();
        for (start_kind, start_key, end_kind, end_key) in &windows {
            let (start, end) = (bound(*start_kind, start_key), bound(*end_kind, end_key));
            let expected: Vec<Entry> = model
                .iter()
                .filter(|(k, _)| within(k, start, end))
                .map(|(k, v)| Entry::new(k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(t.range(start, end).collect_entries().unwrap(), expected.clone());
            let proof = t.prove_range(start, end).unwrap();
            prop_assert_eq!(
                verify_anchored_range(&MbtProofScheme, t.root(), start, end, &proof),
                RangeVerdict::Complete(expected)
            );
        }
        // A warm scan pins every node out of the cache and reads no page.
        t.scan().unwrap();
        let before = t.node_cache_stats();
        prop_assert_eq!(t.scan().unwrap().len(), model.len());
        let after = t.node_cache_stats();
        prop_assert_eq!(after.hits - before.hits, t.topology().total_nodes() as u64);
        prop_assert_eq!(after.misses, before.misses);
    }
}
