//! Merkle Patricia Trie (MPT) — §3.4.1 of the paper.
//!
//! A radix-16 trie with path compaction and cryptographic authentication,
//! modelled on Ethereum's state trie (the paper ports Ethereum's
//! implementation, §5.2). Keys are split into nibbles; shared runs are
//! compacted into extension nodes; every node is RLP-encoded and referenced
//! by its SHA-256 digest, so the root digest authenticates the entire
//! key/value set.
//!
//! MPT is *Structurally Invariant by construction*: "the position of the
//! node only depends on the sequence of the stored key bytes" (§3.3), so
//! any insertion order of the same records yields the same root.
//!
//! ```
//! use siri_core::{MemStore, SiriIndex};
//! use siri_mpt::MerklePatriciaTrie;
//!
//! let mut t = MerklePatriciaTrie::new(MemStore::new_shared());
//! t.insert(b"key", bytes::Bytes::from_static(b"value")).unwrap();
//! assert_eq!(t.get(b"key").unwrap().unwrap().as_ref(), b"value");
//! ```

mod cursor;
mod diff;
mod mem;
mod node;
mod proof;

use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use siri_core::{
    own_bound, DiffEntry, EntryCursor, IndexError, LookupTracer, PageReader, Proof, ProofVerdict,
    Recorder, Result, SiriIndex, StructureReport, StructureStats, WriteBatch,
};
use siri_crypto::Hash;
use siri_encoding::NibbleView;
use siri_store::{
    reachable_pages, CacheStats, PageBatch, PageSet, SharedStore, DEFAULT_NODE_CACHE_CAPACITY,
};

pub use cursor::RangeCursor;
use node::Path;
pub use node::{Branch, Extension, Leaf, Node};
pub use proof::MptProofScheme;

/// Handle to one MPT version: `(store, root digest)` plus the decoded-node
/// cache every clone of this handle shares. Content addressing keeps the
/// cache coherent across versions for free: a digest names one immutable
/// node forever, so snapshots and their successors warm each other.
#[derive(Clone)]
pub struct MerklePatriciaTrie {
    reader: PageReader<Node>,
    root: Hash,
}

impl MerklePatriciaTrie {
    /// An empty trie (root = zero digest, the paper's *null* node).
    pub fn new(store: SharedStore) -> Self {
        Self::open(store, Hash::ZERO)
    }

    /// Re-open an existing version by root digest.
    pub fn open(store: SharedStore, root: Hash) -> Self {
        MerklePatriciaTrie { reader: PageReader::new(store, DEFAULT_NODE_CACHE_CAPACITY), root }
    }

    /// A cache-less reader at `root` over a bare page source — what proofs
    /// are verified with (DESIGN.md §14).
    pub(crate) fn reader(store: SharedStore, root: Hash) -> Self {
        MerklePatriciaTrie { reader: PageReader::new(store, 0), root }
    }

    /// Replace the node cache with one bounded to `capacity` decoded nodes
    /// (0 disables caching — every fetch decodes). Benchmarks use this for
    /// cache-size sweeps; clones made *after* this call share the new cache.
    pub fn with_node_cache_capacity(mut self, capacity: usize) -> Self {
        self.reader = PageReader::new(self.reader.store().clone(), capacity);
        self
    }

    /// Hit/miss/eviction counters of the shared decoded-node cache.
    pub fn node_cache_stats(&self) -> CacheStats {
        self.reader.cache_stats()
    }

    /// Depth statistics over all leaf positions: (average, maximum), in
    /// *nodes traversed*. Drives the L̄ term of the §4.2.2 MPT analysis and
    /// Table 3's key-length sweep.
    pub fn depth_stats(&self) -> Result<(f64, u32)> {
        if self.root.is_zero() {
            return Ok((0.0, 0));
        }
        let mut total = 0u64;
        let mut count = 0u64;
        let mut max = 0u32;
        let mut stack: Vec<(Hash, u32)> = vec![(self.root, 1)];
        while let Some((h, depth)) = stack.pop() {
            match &*self.reader.fetch(&h)?.0 {
                Node::Leaf(_) => {
                    total += depth as u64;
                    count += 1;
                    max = max.max(depth);
                }
                Node::Extension(e) => stack.push((e.child(), depth + 1)),
                Node::Branch(b) => {
                    if b.has_value() {
                        total += depth as u64;
                        count += 1;
                        max = max.max(depth);
                    }
                    stack.extend(b.children().map(|(_, c)| (c, depth + 1)));
                }
            }
        }
        Ok((total as f64 / count.max(1) as f64, max))
    }
}

/// The byte key whose nibbles are `head` (one per byte) then `tail`; keys
/// always have even nibble length because they are built from whole bytes.
pub(crate) fn key_of(head: &[u8], tail: NibbleView<'_>) -> Result<Bytes> {
    let len = head.len() + tail.len();
    if !len.is_multiple_of(2) {
        return Err(IndexError::CorruptStructure("odd-length key path"));
    }
    let mut key = Vec::with_capacity(len / 2);
    let mut nibbles = head.iter().copied().chain(tail.iter());
    while let (Some(hi), Some(lo)) = (nibbles.next(), nibbles.next()) {
        key.push(hi << 4 | lo);
    }
    Ok(Bytes::from(key))
}

impl SiriIndex for MerklePatriciaTrie {
    fn kind(&self) -> &'static str {
        "mpt"
    }

    fn store(&self) -> &SharedStore {
        self.reader.store()
    }

    fn root(&self) -> Hash {
        self.root
    }

    fn at_root(&self, root: Hash) -> Self {
        let mut handle = self.clone();
        handle.root = root;
        handle
    }

    fn lookup(&self, key: &[u8], t: &mut impl LookupTracer) -> Result<Option<Bytes>> {
        if self.root.is_zero() {
            return Ok(None);
        }
        let nibbles = NibbleView::key(key);
        let mut offset = 0usize;
        let mut hash = self.root;
        let found = loop {
            let (node, cached) = self.reader.fetch(&hash)?;
            t.node(cached);
            let rest = nibbles.suffix(offset);
            match &*node {
                Node::Leaf(l) => {
                    t.probe();
                    break (rest == l.path()).then(|| l.value());
                }
                Node::Extension(e) => {
                    let path = e.path();
                    if !rest.starts_with(path) {
                        break None;
                    }
                    offset += path.len();
                    hash = e.child();
                }
                Node::Branch(b) => {
                    if rest.is_empty() {
                        break b.value();
                    }
                    match b.child(rest.at(0) as usize) {
                        Some(child) => {
                            offset += 1;
                            hash = child;
                        }
                        None => break None,
                    }
                }
            }
        };
        t.loaded();
        Ok(found)
    }

    fn stage(&self, batch: WriteBatch, pages: &mut PageBatch) -> Result<Self> {
        let ops = batch.normalize();
        if ops.is_empty() {
            return Ok(self.clone());
        }
        let mut overlay = mem::Overlay::new(self);
        let mut root = (!self.root.is_zero()).then(|| overlay.stored(self.root));
        for op in ops {
            let key = Path::key(&op.key);
            root = match op.value {
                Some(value) => Some(overlay.insert(root, &key, 0, value)?),
                None => overlay.remove(root, &key, 0)?,
            };
        }
        let root = match root {
            Some(root) => overlay.commit(root, self.store(), pages)?,
            None => Hash::ZERO, // every record deleted
        };
        Ok(self.at_root(root))
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor {
        EntryCursor::new(cursor::RangeCursor::new(self.clone(), own_bound(start), own_bound(end)))
    }

    fn page_set(&self) -> PageSet {
        reachable_pages(self.store().as_ref(), self.root, Node::children_of_page)
    }

    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>> {
        diff::diff(self, other)
    }

    fn recording(&self, rec: &Arc<Recorder>) -> Result<Self> {
        Ok(MerklePatriciaTrie { reader: self.reader.recording(rec, self.root)?, root: self.root })
    }

    fn verify_proof(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict {
        siri_core::verify_anchored_membership(&MptProofScheme, root, key, proof)
    }
}

impl StructureStats for MerklePatriciaTrie {
    fn structure_stats(&self) -> Result<StructureReport> {
        let pages = self.page_set();
        let (_, height) = self.depth_stats()?;
        let entries = self.len()? as u64;
        let nodes = pages.len() as u64;
        Ok(StructureReport {
            nodes,
            bytes: pages.byte_size(),
            height,
            entries,
            // MPT leaves hold one key suffix each; entries-per-node is the
            // meaningful density (path compaction pushes it toward 1).
            leaf_occupancy: if nodes == 0 { 0.0 } else { entries as f64 / nodes as f64 },
        })
    }

    fn node_cache_stats(&self) -> CacheStats {
        MerklePatriciaTrie::node_cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::{Entry, MemStore};

    fn make() -> MerklePatriciaTrie {
        MerklePatriciaTrie::new(MemStore::new_shared())
    }

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn empty_trie() {
        let t = make();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x").unwrap(), None);
        assert!(t.scan().unwrap().is_empty());
        assert_eq!(t.page_set().len(), 0);
    }

    #[test]
    fn paper_example_keys() {
        // The Figure 3 walkthrough: keys "1", "8", then "10" diverging at a
        // leaf and splitting it.
        let mut t = make();
        t.insert(b"8", Bytes::from_static(b"v8")).unwrap();
        t.insert(b"1", Bytes::from_static(b"v1")).unwrap();
        t.insert(b"10", Bytes::from_static(b"v10")).unwrap();
        assert_eq!(t.get(b"8").unwrap().unwrap().as_ref(), b"v8");
        assert_eq!(t.get(b"1").unwrap().unwrap().as_ref(), b"v1");
        assert_eq!(t.get(b"10").unwrap().unwrap().as_ref(), b"v10");
        assert_eq!(t.get(b"9").unwrap(), None);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn prefix_keys_coexist() {
        // "a" is a strict prefix of "ab": the shorter key's value lands in
        // a branch value slot.
        let mut t = make();
        t.insert(b"a", Bytes::from_static(b"short")).unwrap();
        t.insert(b"ab", Bytes::from_static(b"long")).unwrap();
        t.insert(b"abc", Bytes::from_static(b"longer")).unwrap();
        assert_eq!(t.get(b"a").unwrap().unwrap().as_ref(), b"short");
        assert_eq!(t.get(b"ab").unwrap().unwrap().as_ref(), b"long");
        assert_eq!(t.get(b"abc").unwrap().unwrap().as_ref(), b"longer");
        assert_eq!(t.get(b"abcd").unwrap(), None);
        let scan = t.scan().unwrap();
        assert_eq!(scan.len(), 3);
        assert!(scan.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn structurally_invariant_under_insertion_order() {
        let entries: Vec<Entry> =
            (0..300).map(|i| e(&format!("user{i:04}"), &format!("profile-{i}"))).collect();
        let mut forward = make();
        forward.batch_insert(entries.clone()).unwrap();
        let mut backward = make();
        for en in entries.iter().rev() {
            backward.insert(&en.key, en.value.clone()).unwrap();
        }
        let mut chunked = make();
        for c in entries.chunks(37) {
            chunked.batch_insert(c.to_vec()).unwrap();
        }
        assert_eq!(forward.root(), backward.root());
        assert_eq!(forward.root(), chunked.root());
    }

    #[test]
    fn overwrite_changes_digest_and_keeps_history() {
        let mut t = make();
        t.insert(b"acct", Bytes::from_static(b"100")).unwrap();
        let v1 = t.clone();
        t.insert(b"acct", Bytes::from_static(b"250")).unwrap();
        assert_ne!(v1.root(), t.root());
        assert_eq!(v1.get(b"acct").unwrap().unwrap().as_ref(), b"100");
        assert_eq!(t.get(b"acct").unwrap().unwrap().as_ref(), b"250");
    }

    #[test]
    fn update_rewrites_only_the_path() {
        let mut t = make();
        t.batch_insert((0..200).map(|i| e(&format!("key{i:03}"), "v")).collect()).unwrap();
        let before = t.page_set();
        let mut v2 = t.clone();
        v2.insert(b"key100", Bytes::from_static(b"changed")).unwrap();
        let fresh = v2.page_set().difference(&before);
        let (_, max_depth) = t.depth_stats().unwrap();
        assert!(
            fresh.len() as u32 <= max_depth + 1,
            "one path only: {} new pages vs depth {}",
            fresh.len(),
            max_depth
        );
    }

    #[test]
    fn scan_round_trips_binary_keys() {
        let mut t = make();
        let entries: Vec<Entry> =
            (0..=255u8).map(|b| Entry::new(vec![b, b ^ 0x5a], vec![b])).collect();
        t.batch_insert(entries.clone()).unwrap();
        let mut expected = entries;
        expected.sort();
        assert_eq!(t.scan().unwrap(), expected);
    }

    #[test]
    fn depth_grows_with_record_count_not_shared_prefixes() {
        // Path compaction folds long shared prefixes into one extension
        // node, so depth is driven by the number of divergence points —
        // i.e. by N — not by raw key length.
        let mut small = make();
        small.batch_insert((0..16).map(|i| e(&format!("k{i:04}"), "v")).collect()).unwrap();
        let mut large = make();
        large.batch_insert((0..4096).map(|i| e(&format!("k{i:04}"), "v")).collect()).unwrap();
        let (avg_small, _) = small.depth_stats().unwrap();
        let (avg_large, _) = large.depth_stats().unwrap();
        assert!(avg_large > avg_small, "large {avg_large} vs small {avg_small}");

        // And a single long-shared-prefix cluster stays shallow thanks to
        // compaction.
        let mut clustered = make();
        clustered
            .batch_insert((0..16).map(|i| e(&format!("shared/deep/prefix/{i:04}"), "v")).collect())
            .unwrap();
        let (avg_clustered, _) = clustered.depth_stats().unwrap();
        assert!(avg_clustered <= avg_small + 2.0, "compaction keeps it shallow");
    }

    #[test]
    fn trace_counts_path_nodes() {
        let mut t = make();
        t.batch_insert((0..100).map(|i| e(&format!("k{i:02}"), "v")).collect()).unwrap();
        let (v, trace) = t.get_traced(b"k42").unwrap();
        assert!(v.is_some());
        assert!(trace.height >= 2);
        assert_eq!(trace.pages_loaded, trace.height);
    }

    #[test]
    fn scan_prefix_returns_exactly_the_subtree() {
        let mut t = make();
        t.batch_insert(vec![
            e("app/alpha", "1"),
            e("app/beta", "2"),
            e("app", "3"),
            e("apple", "4"),
            e("banana", "5"),
        ])
        .unwrap();
        let r = t.scan_prefix(b"app/").collect_entries().unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].key.as_ref(), b"app/alpha");
        let r = t.scan_prefix(b"app").collect_entries().unwrap();
        assert_eq!(r.len(), 4, "app, app/*, apple");
        assert_eq!(t.scan_prefix(b"zzz").count(), 0);
        assert_eq!(t.scan_prefix(b"").count(), 5, "empty prefix = full scan");
        assert_eq!(t.scan_prefix(b"banana").count(), 1);
        assert_eq!(t.scan_prefix(b"bananas").count(), 0);
    }

    #[test]
    fn range_cursor_respects_bounds_and_is_lazy() {
        let mut t = make();
        t.batch_insert((0..300).map(|i| e(&format!("k{i:03}"), "v")).collect()).unwrap();
        let r =
            t.range(Bound::Included(b"k100"), Bound::Excluded(b"k110")).collect_entries().unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key.as_ref(), b"k100");
        assert_eq!(r[9].key.as_ref(), b"k109");
        // Exclusive start, inclusive end.
        let r =
            t.range(Bound::Excluded(b"k100"), Bound::Included(b"k103")).collect_entries().unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].key.as_ref(), b"k101");
        // A narrow window must not walk the whole trie.
        let gets_before = t.store().stats().gets + t.node_cache_stats().hits;
        let _ =
            t.range(Bound::Included(b"k200"), Bound::Excluded(b"k202")).collect_entries().unwrap();
        let touched = t.store().stats().gets + t.node_cache_stats().hits - gets_before;
        assert!(touched < 40, "narrow range touched {touched} nodes");
        // Inverted and empty windows.
        assert_eq!(t.range(Bound::Included(b"z"), Bound::Excluded(b"a")).count(), 0);
        assert_eq!(t.range(Bound::Included(b"k100"), Bound::Excluded(b"k100")).count(), 0);
    }

    #[test]
    fn delete_removes_and_restores_root() {
        let mut t = make();
        t.batch_insert((0..100).map(|i| e(&format!("user{i:03}"), "v")).collect()).unwrap();
        let full_root = t.root();
        t.delete(b"user042").unwrap();
        assert_eq!(t.get(b"user042").unwrap(), None);
        assert_eq!(t.len().unwrap(), 99);
        assert_ne!(t.root(), full_root);
        // Structural invariance: reinserting restores the identical digest.
        t.insert(b"user042", Bytes::from_static(b"v")).unwrap();
        assert_eq!(t.root(), full_root);
        // And the deleted-only set matches a fresh build.
        let mut fresh = make();
        fresh
            .batch_insert(
                (0..100).filter(|i| *i != 42).map(|i| e(&format!("user{i:03}"), "v")).collect(),
            )
            .unwrap();
        t.delete(b"user042").unwrap();
        assert_eq!(t.root(), fresh.root());
    }

    #[test]
    fn delete_collapses_branches_and_extensions() {
        let mut t = make();
        // "a" sits in a branch value slot above "ab"/"ac"; deleting "ab"
        // then "ac" must collapse the branch back into a leaf for "a".
        t.insert(b"a", Bytes::from_static(b"va")).unwrap();
        let only_a = t.root();
        t.insert(b"ab", Bytes::from_static(b"vab")).unwrap();
        t.insert(b"ac", Bytes::from_static(b"vac")).unwrap();
        t.delete(b"ab").unwrap();
        t.delete(b"ac").unwrap();
        assert_eq!(t.root(), only_a, "collapse must re-compact to the single-leaf trie");
        assert_eq!(t.get(b"a").unwrap().unwrap().as_ref(), b"va");
        // Deleting the last key empties the trie entirely.
        t.delete(b"a").unwrap();
        assert!(t.is_empty());
        assert_eq!(t.root(), Hash::ZERO);
    }

    #[test]
    fn delete_branch_value_keeps_subtree() {
        let mut t = make();
        t.insert(b"a", Bytes::from_static(b"short")).unwrap();
        t.insert(b"ab", Bytes::from_static(b"long")).unwrap();
        t.insert(b"ac", Bytes::from_static(b"other")).unwrap();
        t.delete(b"a").unwrap();
        assert_eq!(t.get(b"a").unwrap(), None);
        assert_eq!(t.get(b"ab").unwrap().unwrap().as_ref(), b"long");
        assert_eq!(t.get(b"ac").unwrap().unwrap().as_ref(), b"other");
        let mut fresh = make();
        fresh.insert(b"ab", Bytes::from_static(b"long")).unwrap();
        fresh.insert(b"ac", Bytes::from_static(b"other")).unwrap();
        assert_eq!(t.root(), fresh.root());
    }

    #[test]
    fn mixed_batch_resolves_per_key() {
        let mut t = make();
        t.insert(b"keep", Bytes::from_static(b"1")).unwrap();
        t.insert(b"drop", Bytes::from_static(b"2")).unwrap();
        let mut batch = WriteBatch::new();
        batch.delete(&b"drop"[..]);
        batch.put(&b"new"[..], &b"3"[..]);
        batch.delete(&b"new"[..]); // later op wins: never lands
        batch.put(&b"drop"[..], &b"2'"[..]); // resurrect in the same batch
        t.commit(batch).unwrap();
        assert_eq!(t.get(b"drop").unwrap().unwrap().as_ref(), b"2'");
        assert_eq!(t.get(b"new").unwrap(), None);
        assert_eq!(t.len().unwrap(), 2);
        // Deleting an absent key is a no-op on the digest.
        let root = t.root();
        t.delete(b"ghost").unwrap();
        assert_eq!(t.root(), root);
    }

    #[test]
    fn values_at_branch_slots_survive_deep_inserts() {
        let mut t = make();
        t.insert(b"", Bytes::from_static(b"empty-key")).unwrap();
        t.insert(b"x", Bytes::from_static(b"x")).unwrap();
        assert_eq!(t.get(b"").unwrap().unwrap().as_ref(), b"empty-key");
        assert_eq!(t.get(b"x").unwrap().unwrap().as_ref(), b"x");
        assert_eq!(t.len().unwrap(), 2);
    }
}
