//! The POS-Tree killer invariant, fuzzed: an incremental streaming update
//! must be bit-identical to a from-scratch build of the merged content —
//! for any base set, any edit batch, any parameterisation.

use std::collections::BTreeMap;

use proptest::prelude::*;
use siri_core::{Entry, MemStore, SiriIndex, WriteBatch};
use siri_pos_tree::{PosParams, PosTree};

fn arb_kv(max: usize) -> impl Strategy<Value = Vec<(u16, u8)>> {
    // Compact id/value pairs keep the search space dense enough to hit
    // leaf-boundary edge cases (same leaf, adjacent leaves, appends).
    proptest::collection::vec((proptest::num::u16::ANY, proptest::num::u8::ANY), 0..max)
}

fn entries(raw: &[(u16, u8)], value_len: usize) -> Vec<Entry> {
    raw.iter()
        .map(|(id, v)| Entry::new(format!("key{id:05}").into_bytes(), vec![*v; value_len]))
        .collect()
}

/// Pseudo-random bytes. A constant run has one window fingerprint, so it
/// almost never ends a leaf by itself and every window across an entry
/// seam looks alike; these values do neither.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// (id, value length) pairs over a small id space, so edits hit old keys.
fn arb_puts(max: usize) -> impl Strategy<Value = Vec<(u16, usize)>> {
    proptest::collection::vec((0u16..2000, 1usize..=300), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Mixed-length pseudo-random values, overwrites, inserts and runs of
    /// deletes, under windows of 1, 2, 67 and 128 bytes: a streaming update
    /// still equals a fresh build.
    #[test]
    fn random_values_and_deletes_equal_fresh_build(
        base in arb_puts(400),
        puts in arb_puts(60),
        // (start, length) runs of deletes among the keys present.
        dels in proptest::collection::vec((proptest::num::usize::ANY, 1usize..6), 0..12),
        seed in proptest::num::u64::ANY,
    ) {
        let key = |id: u16| format!("key{id:05}").into_bytes();
        let mut model = BTreeMap::new();
        for (i, (id, len)) in base.iter().enumerate() {
            model.insert(key(*id), noise(seed ^ i as u64, *len));
        }
        let base_entries: Vec<Entry> =
            model.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect();
        let mut batch = WriteBatch::new();
        for (i, (id, len)) in puts.iter().enumerate() {
            let value = noise(!seed ^ i as u64, *len);
            model.insert(key(*id), value.clone());
            batch.put(key(*id), value);
        }
        let present: Vec<Vec<u8>> = model.keys().cloned().collect();
        for (start, run) in &dels {
            for k in present.iter().cycle().skip(start % present.len().max(1)).take(*run) {
                model.remove(k);
                batch.delete(k.clone());
            }
        }
        let merged: Vec<Entry> = model.into_iter().map(|(k, v)| Entry::new(k, v)).collect();
        for window in [1, 2, 67, 128] {
            let params = PosParams { window, ..PosParams::default().with_node_bytes(512) };
            let store = MemStore::new_shared();
            let mut incremental = PosTree::new(store.clone(), params);
            incremental.batch_insert(base_entries.clone()).unwrap();
            incremental.commit(batch.clone()).unwrap();
            let mut fresh = PosTree::new(store, params);
            fresh.batch_insert(merged.clone()).unwrap();
            prop_assert_eq!(incremental.root(), fresh.root(), "window {}", window);
        }
    }

    #[test]
    fn incremental_equals_fresh_build(
        base in arb_kv(300),
        edits in arb_kv(60),
        value_len in 1usize..150,
    ) {
        let store = MemStore::new_shared();
        let params = PosParams::default().with_node_bytes(512); // small nodes → more boundaries
        let base_entries = entries(&base, value_len);
        let edit_entries = entries(&edits, value_len.saturating_sub(1).max(1));

        // Incremental: build base, then apply edits as one batch.
        let mut incremental = PosTree::new(store.clone(), params);
        incremental.batch_insert(base_entries.clone()).unwrap();
        incremental.batch_insert(edit_entries.clone()).unwrap();

        // Fresh: single build over the merged multiset (edits win).
        let mut merged = base_entries;
        merged.extend(edit_entries);
        let mut fresh = PosTree::new(store, params);
        fresh.batch_insert(merged).unwrap();

        prop_assert_eq!(
            incremental.root(),
            fresh.root(),
            "structural invariance violated"
        );
    }

    #[test]
    fn many_small_batches_equal_one_big_batch(
        raw in arb_kv(250),
        chunk in 1usize..40,
    ) {
        let params = PosParams::default().with_node_bytes(512);
        let all = entries(&raw, 60);
        let mut big = PosTree::new(MemStore::new_shared(), params);
        big.batch_insert(all.clone()).unwrap();
        let mut small = PosTree::new(MemStore::new_shared(), params);
        for c in all.chunks(chunk) {
            small.batch_insert(c.to_vec()).unwrap();
        }
        prop_assert_eq!(big.root(), small.root());
        prop_assert_eq!(big.scan().unwrap(), small.scan().unwrap());
    }

    #[test]
    fn lookups_match_model_after_updates(
        base in arb_kv(200),
        edits in arb_kv(50),
    ) {
        let mut model = std::collections::BTreeMap::new();
        for (id, v) in base.iter().chain(edits.iter()) {
            model.insert(format!("key{id:05}").into_bytes(), vec![*v; 40]);
        }
        let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
        t.batch_insert(entries(&base, 40)).unwrap();
        t.batch_insert(entries(&edits, 40)).unwrap();
        prop_assert_eq!(t.len().unwrap(), model.len());
        for (k, v) in model.iter().take(20) {
            let got = t.get(k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
    }
}
