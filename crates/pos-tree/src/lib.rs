//! Pattern-Oriented-Split Tree (POS-Tree) — §3.4.3 of the paper, the
//! structure the paper ultimately recommends for indexing immutable data.
//!
//! POS-Tree is "a probabilistically balanced search tree … a customized
//! Merkle tree built upon pattern-aware partitions of the dataset". The
//! bottom layer is the sorted record sequence, chunked by a rolling-hash
//! boundary pattern (content-defined chunking); internal layers hold
//! `(split key, child digest)` runs chunked by testing the boundary pattern
//! directly on the child digests. The node layout is B+-tree-like, so
//! lookups are ordinary `O(log_m N)` descents; the chunking makes the
//! structure a pure function of its content — Structurally Invariant —
//! which is what buys cheap diff/merge and high deduplication.
//!
//! This crate also houses:
//! * the §5.5 ablations — [`PosTree::new_forced_split`] (disables
//!   Structural Invariance) and [`PosTree::new_copy_all`] (disables
//!   Recursive Identity);
//! * the Noms/Prolly-tree variant ([`PosParams::noms`]) whose internal
//!   layers pay sliding-window hashing, used by the §5.6.2 comparison.
//!
//! ```
//! use siri_core::{MemStore, SiriIndex};
//! use siri_pos_tree::{PosParams, PosTree};
//!
//! let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
//! t.insert(b"key", bytes::Bytes::from_static(b"value")).unwrap();
//! assert_eq!(t.get(b"key").unwrap().unwrap().as_ref(), b"value");
//! ```

mod builder;
mod diff;
mod node;
mod params;
mod proof;
mod update;

use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use siri_core::ordered::{self, OrderedNode};
use siri_core::{
    apply_ops, own_bound, DiffEntry, EntryCursor, LookupTracer, PageReader, Proof, ProofVerdict,
    Recorder, Result, SiriIndex, StructureReport, StructureStats, WriteBatch,
};
use siri_crypto::Hash;
use siri_store::{
    reachable_pages, CacheStats, PageBatch, PageSet, SharedStore, DEFAULT_NODE_CACHE_CAPACITY,
};

pub use builder::{Builders, DeferredSeal, LeafBuilder, LevelBuilder};
pub use node::Node;
pub use params::{ChunkerKind, InternalChunking, PosParams, SplitPolicy};
pub use proof::PosProofScheme;

/// Handle to one POS-Tree version. Clones (= version snapshots) share the
/// decoded-node cache: content addressing keeps it coherent across
/// versions, and the shared spine of adjacent versions warms it for free.
#[derive(Clone)]
pub struct PosTree {
    reader: PageReader<Node>,
    params: PosParams,
    root: Hash,
    /// Per-version page salt; stays 0 unless `copy_all` is set.
    salt: u64,
    /// §5.5.2 ablation: rebuild every page on every batch so no page is
    /// ever shared between versions.
    copy_all: bool,
}

impl PosTree {
    fn at(store: SharedStore, params: PosParams, root: Hash, cache_capacity: usize) -> Self {
        let reader = PageReader::new(store, cache_capacity);
        PosTree { reader, params, root, salt: 0, copy_all: false }
    }

    /// An empty tree with the given chunking parameters.
    pub fn new(store: SharedStore, params: PosParams) -> Self {
        Self::at(store, params, Hash::ZERO, DEFAULT_NODE_CACHE_CAPACITY)
    }

    /// Re-open an existing version by root digest.
    pub fn open(store: SharedStore, params: PosParams, root: Hash) -> Self {
        Self::at(store, params, root, DEFAULT_NODE_CACHE_CAPACITY)
    }

    /// A cache-less reader at `root` over a bare page source — what proofs
    /// are verified with (DESIGN.md §14). Reads never consult the chunking
    /// parameters, so the defaults open any tree.
    pub(crate) fn reader(store: SharedStore, root: Hash) -> Self {
        Self::at(store, PosParams::default(), root, 0)
    }

    /// §5.5.1 ablation: forced splits + leaf-local splice updates. The
    /// resulting structure depends on insertion order (non-SI).
    pub fn new_forced_split(store: SharedStore) -> Self {
        Self::new(store, PosParams::forced_split())
    }

    /// §5.5.2 ablation: every batch rewrites every node (with a version
    /// salt), so consecutive versions share zero pages (non-RI).
    /// `namespace` seeds the salt so that *instances* (e.g. different
    /// collaborating parties) cannot share pages either — under content
    /// addressing, un-salted identical pages would still deduplicate,
    /// which is exactly the property this ablation removes.
    pub fn new_copy_all(store: SharedStore, params: PosParams, namespace: u64) -> Self {
        let tree = Self::new(store, params);
        PosTree { salt: namespace << 20, copy_all: true, ..tree }
    }

    pub fn params(&self) -> &PosParams {
        &self.params
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

    /// Per-level statistics: for each level from the leaves up,
    /// (node count, total bytes). The Table 3 diagnostic for how the
    /// boundary pattern shapes the tree.
    pub fn level_stats(&self) -> Result<Vec<(usize, u64)>> {
        let mut levels: Vec<(usize, u64)> = Vec::new();
        if self.root.is_zero() {
            return Ok(levels);
        }
        let mut stack = vec![self.root];
        let mut seen = siri_crypto::FxHashSet::default();
        while let Some(h) = stack.pop() {
            if !seen.insert(h) {
                continue;
            }
            let node = self.reader.load(&h)?;
            stack.extend(node.children().iter().map(|c| c.hash()));
            let level = node.level() as usize;
            if levels.len() <= level {
                levels.resize(level + 1, (0, 0));
            }
            levels[level].0 += 1;
            // Stored pages are canonical encodings: this is the page length.
            levels[level].1 += node.encoded_len() as u64;
        }
        Ok(levels)
    }

    /// Number of levels (0 for an empty tree).
    pub fn height(&self) -> Result<u32> {
        ordered::height(&self.reader, self.root)
    }
}

impl SiriIndex for PosTree {
    fn kind(&self) -> &'static str {
        match (self.copy_all, self.params.split_policy) {
            (true, _) => "pos-tree(non-ri)",
            (false, SplitPolicy::ForcedSplice { .. }) => "pos-tree(non-si)",
            (false, SplitPolicy::Pattern) => match self.params.internal_chunking {
                InternalChunking::HashPattern => "pos-tree",
                InternalChunking::RollingWindow => "prolly-tree",
            },
        }
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

    fn recursively_identical(&self) -> bool {
        !self.copy_all
    }

    fn lookup(&self, key: &[u8], t: &mut impl LookupTracer) -> Result<Option<Bytes>> {
        ordered::lookup(&self.reader, self.root, key, t)
    }

    fn stage(&self, batch: WriteBatch, pages: &mut PageBatch) -> Result<Self> {
        let ops = batch.normalize();
        if ops.is_empty() {
            return Ok(self.clone());
        }
        let (reader, params, root) = (&self.reader, &self.params, self.root);
        let mut next = self.clone();
        let piece = if self.copy_all {
            // "Forcibly copying all nodes in the tree": merge, bump the
            // salt, rebuild everything — zero page sharing with the
            // previous version.
            let merged = apply_ops(&self.scan()?, &ops);
            next.salt += 1;
            update::build_from_entries(reader, params, next.salt, &merged, pages)?
        } else {
            match params.split_policy {
                SplitPolicy::Pattern => {
                    update::streaming_update(reader, params, self.salt, root, &ops, pages)?
                }
                SplitPolicy::ForcedSplice { .. } => {
                    update::splice_update(reader, params, self.salt, root, &ops, pages)?
                }
            }
        };
        next.root = piece.map_or(Hash::ZERO, |p| p.hash);
        Ok(next)
    }

    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor {
        EntryCursor::new(ordered::RangeCursor::new(
            self.reader.clone(),
            self.root,
            own_bound(start),
            own_bound(end),
        ))
    }

    fn len(&self) -> Result<usize> {
        ordered::count(&self.reader, self.root)
    }

    fn page_set(&self) -> PageSet {
        reachable_pages(self.store().as_ref(), self.root, Node::children_of_page)
    }

    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>> {
        diff::diff(self, other)
    }

    fn recording(&self, rec: &Arc<Recorder>) -> Result<Self> {
        Ok(PosTree { reader: self.reader.recording(rec, self.root)?, ..self.clone() })
    }

    fn verify_proof(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict {
        siri_core::verify_anchored_membership(&PosProofScheme, root, key, proof)
    }
}

impl StructureStats for PosTree {
    fn structure_stats(&self) -> Result<StructureReport> {
        let levels = self.level_stats()?;
        let nodes: u64 = levels.iter().map(|(n, _)| *n as u64).sum();
        let bytes: u64 = levels.iter().map(|(_, b)| *b).sum();
        let leaves = levels.first().map(|(n, _)| *n as u64).unwrap_or(0);
        let entries = self.len()? as u64;
        Ok(StructureReport {
            nodes,
            bytes,
            height: self.height()?,
            entries,
            leaf_occupancy: if leaves == 0 { 0.0 } else { entries as f64 / leaves as f64 },
        })
    }

    fn node_cache_stats(&self) -> CacheStats {
        PosTree::node_cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::{Entry, MemStore};

    fn e(i: usize) -> Entry {
        Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100])
    }

    fn make() -> PosTree {
        PosTree::new(MemStore::new_shared(), PosParams::default())
    }

    #[test]
    fn empty_tree() {
        let t = make();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.height().unwrap(), 0);
    }

    #[test]
    fn insert_lookup_scan() {
        let mut t = make();
        t.batch_insert((0..3000).map(e).collect()).unwrap();
        assert_eq!(t.get(b"key01500").unwrap().unwrap().len(), 100);
        assert_eq!(t.get(b"nope").unwrap(), None);
        let s = t.scan().unwrap();
        assert_eq!(s.len(), 3000);
        assert!(s.windows(2).all(|w| w[0].key < w[1].key));
        assert!(t.height().unwrap() >= 2);
    }

    #[test]
    fn structurally_invariant_across_orders_and_batchings() {
        let entries: Vec<Entry> = (0..1500).map(e).collect();
        let mut bulk = make();
        bulk.batch_insert(entries.clone()).unwrap();
        let mut reversed = make();
        reversed.batch_insert(entries.iter().rev().cloned().collect()).unwrap();
        let mut trickled = make();
        for chunk in entries.chunks(101) {
            trickled.batch_insert(chunk.to_vec()).unwrap();
        }
        assert_eq!(bulk.root(), reversed.root());
        assert_eq!(bulk.root(), trickled.root(), "incremental must equal bulk");
    }

    #[test]
    fn versions_share_pages() {
        let mut t = make();
        t.batch_insert((0..2000).map(e).collect()).unwrap();
        let v1 = t.clone();
        t.insert(b"key01000", Bytes::from_static(b"next")).unwrap();
        let p1 = v1.page_set();
        let p2 = t.page_set();
        let shared = p1.intersection(&p2);
        // Recursively Identical: shared pages dominate replaced ones.
        assert!(shared.len() >= p2.difference(&p1).len());
        assert_eq!(v1.get(b"key01000").unwrap().unwrap().len(), 100);
        assert_eq!(t.get(b"key01000").unwrap().unwrap().as_ref(), b"next");
    }

    #[test]
    fn forced_split_variant_is_order_dependent_but_correct() {
        let store = MemStore::new_shared();
        let entries: Vec<Entry> = (0..600).map(e).collect();
        let mut bulk = PosTree::new_forced_split(store.clone());
        bulk.batch_insert(entries.clone()).unwrap();
        // Insert evens first, then odds: mid-stream inserts shift the
        // forced boundaries, which splice updates never re-align.
        let mut trickled = PosTree::new_forced_split(store);
        let (evens, odds): (Vec<Entry>, Vec<Entry>) =
            entries.iter().cloned().partition(|en| en.key[en.key.len() - 1] % 2 == 0);
        trickled.batch_insert(evens).unwrap();
        trickled.batch_insert(odds).unwrap();
        assert_eq!(bulk.scan().unwrap(), trickled.scan().unwrap(), "content equal");
        assert_ne!(bulk.root(), trickled.root(), "structure order-dependent");
        assert_eq!(trickled.get(b"key00300").unwrap().unwrap().len(), 100);
    }

    #[test]
    fn copy_all_variant_shares_nothing_between_versions_or_instances() {
        let store = MemStore::new_shared();
        let mut t = PosTree::new_copy_all(store.clone(), PosParams::default(), 1);
        t.batch_insert((0..500).map(e).collect()).unwrap();
        let v1 = t.clone();
        t.batch_insert(vec![e(100)]).unwrap();
        let shared = v1.page_set().intersection(&t.page_set());
        assert_eq!(shared.len(), 0, "non-RI ablation must share zero pages");
        // Content is still correct.
        assert_eq!(t.len().unwrap(), 500);
        // A second instance with identical content shares nothing either.
        let mut other = PosTree::new_copy_all(store, PosParams::default(), 2);
        other.batch_insert((0..500).map(e).collect()).unwrap();
        assert_eq!(other.page_set().intersection(&v1.page_set()).len(), 0);
    }

    #[test]
    fn prolly_variant_builds_and_reads() {
        let mut t = PosTree::new(MemStore::new_shared(), PosParams::noms());
        t.batch_insert((0..2000).map(e).collect()).unwrap();
        assert_eq!(t.kind(), "prolly-tree");
        assert_eq!(t.get(b"key00042").unwrap().unwrap().len(), 100);
        // Prolly is also structurally invariant.
        let mut other = PosTree::new(MemStore::new_shared(), PosParams::noms());
        for chunk in (0..2000).map(e).collect::<Vec<_>>().chunks(77) {
            other.batch_insert(chunk.to_vec()).unwrap();
        }
        assert_eq!(t.root(), other.root());
    }

    #[test]
    fn range_cursor_returns_exactly_the_window() {
        let mut t = make();
        t.batch_insert((0..3000).map(e).collect()).unwrap();
        let window = |s: &[u8], e: &[u8]| {
            t.range(Bound::Included(s), Bound::Excluded(e)).collect_entries().unwrap()
        };
        let r = window(b"key01000", b"key01010");
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key.as_ref(), b"key01000");
        assert_eq!(r[9].key.as_ref(), b"key01009");
        // Start between keys, end past the maximum.
        let r = window(b"key02995x", b"zzz");
        assert_eq!(r.len(), 4, "key02996..key02999");
        // Empty window and window before all keys.
        assert!(window(b"key01000", b"key01000").is_empty());
        assert_eq!(window(b"", b"key00002").len(), 2);
        // Unbounded cursor equals scan().
        let all = t.range(Bound::Unbounded, Bound::Unbounded).collect_entries().unwrap();
        assert_eq!(all, t.scan().unwrap());
        // Exclusive start / inclusive end.
        let r = t
            .range(Bound::Excluded(b"key01000"), Bound::Included(b"key01003"))
            .collect_entries()
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].key.as_ref(), b"key01001");
        // A bounded window must not read the whole tree.
        let gets_before = t.store().stats().gets;
        let _ = window(b"key02000", b"key02005");
        let gets = t.store().stats().gets - gets_before;
        assert!(gets < 30, "bounded range fetched {gets} pages");
    }

    #[test]
    fn delete_restores_root_and_prefix_scans_work() {
        let mut t = make();
        t.batch_insert((0..2000).map(e).collect()).unwrap();
        let full_root = t.root();
        // Delete a cluster spanning leaf boundaries.
        let mut batch = WriteBatch::new();
        for i in 700..760 {
            batch.delete(format!("key{i:05}").into_bytes());
        }
        t.commit(batch).unwrap();
        assert_eq!(t.len().unwrap(), 1940);
        assert_eq!(t.get(b"key00730").unwrap(), None);
        // Deleted content equals a fresh build of the remainder.
        let mut fresh = make();
        fresh.batch_insert((0..2000).filter(|i| !(700..760).contains(i)).map(e).collect()).unwrap();
        assert_eq!(t.root(), fresh.root(), "delete must re-chunk canonically");
        // Reinsert: identical root again.
        t.batch_insert((700..760).map(e).collect()).unwrap();
        assert_eq!(t.root(), full_root);
        // Prefix cursor.
        let r = t.scan_prefix(b"key0010").collect_entries().unwrap();
        assert_eq!(r.len(), 10, "key00100..key00109");
        // Drain the whole tree.
        let mut batch = WriteBatch::new();
        for i in 0..2000 {
            batch.delete(format!("key{i:05}").into_bytes());
        }
        t.commit(batch).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.root(), Hash::ZERO);
    }

    #[test]
    fn level_stats_describe_the_tree() {
        let mut t = make();
        t.batch_insert((0..3000).map(e).collect()).unwrap();
        let levels = t.level_stats().unwrap();
        assert_eq!(levels.len() as u32, t.height().unwrap());
        // Node counts shrink going up; the top level has exactly one node.
        assert!(levels.windows(2).all(|w| w[0].0 >= w[1].0));
        assert_eq!(levels.last().unwrap().0, 1);
        // Level sizes sum to the instance's page-set size.
        let total_pages: usize = levels.iter().map(|l| l.0).sum();
        assert_eq!(total_pages, t.page_set().len());
        assert!(t.clone().level_stats().unwrap() == levels, "deterministic");
        assert!(make().level_stats().unwrap().is_empty());
    }

    #[test]
    fn range_on_empty_tree() {
        let t = make();
        assert_eq!(t.range(Bound::Included(b"a"), Bound::Excluded(b"z")).count(), 0);
    }

    #[test]
    fn node_size_parameter_shifts_page_sizes() {
        let small_store = MemStore::new_shared();
        let mut small =
            PosTree::new(small_store.clone(), PosParams::default().with_node_bytes(512));
        small.batch_insert((0..2000).map(e).collect()).unwrap();
        let large_store = MemStore::new_shared();
        let mut large =
            PosTree::new(large_store.clone(), PosParams::default().with_node_bytes(4096));
        large.batch_insert((0..2000).map(e).collect()).unwrap();
        let avg = |s: &siri_store::StoreStats| s.unique_bytes as f64 / s.unique_pages as f64;
        assert!(
            avg(&large_store.stats()) > avg(&small_store.stats()) * 1.5,
            "larger pattern must give larger pages"
        );
    }
}
