//! In-memory content-addressed store.

use bytes::Bytes;
use parking_lot::{LockClass, RwLock};

/// Lock class for the runtime lock-order tracker (DESIGN.md §9): memory
/// shards are leaf locks, below every engine and cache lock.
static MEM_SHARD_CLASS: LockClass = LockClass::new(55, "store.mem-shard");
use siri_crypto::{sha256, FxHashMap, FxHashSet, Hash};

use crate::stats::AtomicStoreStats;
use crate::{NodeStore, PageBatch, PageSet, Reclaim, StoreResult, StoreStats};

/// Shard count for the page map. Content addresses are uniform, so a small
/// power of two spreads both reader and writer traffic; 16 shards already
/// make put/get contention unmeasurable at bench thread counts.
const SHARDS: usize = 16;

/// The default store used by all experiments: a *sharded* hash map from
/// content address to page bytes, with lock-free accounting.
///
/// Two properties make the read path scale (ISSUE 1's first satellite —
/// the previous version took `inner.write()` on every `get` just to bump
/// counters, serializing all readers):
///
/// * stats live in [`AtomicStoreStats`], so reads only ever take a shard's
///   *read* lock;
/// * the map is sharded by the low bits of the digest, so concurrent
///   readers (and writers) of different pages proceed in parallel.
///
/// `Bytes` values make `get` an O(1) reference-count bump; pages are never
/// copied after the initial `put`.
pub struct MemStore {
    shards: Box<[RwLock<FxHashMap<Hash, Bytes>>]>,
    stats: AtomicStoreStats,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    pub fn new() -> Self {
        let shards = (0..SHARDS)
            .map(|_| RwLock::with_class(FxHashMap::default(), &MEM_SHARD_CLASS))
            .collect::<Vec<_>>();
        MemStore { shards: shards.into_boxed_slice(), stats: AtomicStoreStats::default() }
    }

    /// Wrap in an `Arc` trait object — the handle the index crates take.
    pub fn new_shared() -> crate::SharedStore {
        std::sync::Arc::new(Self::new())
    }

    #[inline]
    fn shard(&self, hash: &Hash) -> &RwLock<FxHashMap<Hash, Bytes>> {
        &self.shards[(hash.as_bytes()[0] as usize) & (SHARDS - 1)]
    }

    /// Number of distinct pages held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set of all page hashes currently stored (diagnostics/tests).
    pub fn page_hashes(&self) -> FxHashSet<Hash> {
        self.shards.iter().flat_map(|s| s.read().keys().copied().collect::<Vec<_>>()).collect()
    }

    /// Corrupt a stored page by flipping one bit — failure-injection hook
    /// used by the tamper-evidence tests. Returns false if the page is
    /// absent. The page keeps its (now wrong) content address, which is
    /// precisely the situation digests and proofs must detect.
    ///
    /// Note: layers above the store (node caches) may still hold the
    /// *pre-corruption* decode of this page; tamper detection is defined
    /// over bytes read from the store, as in the paper's threat model.
    pub fn corrupt_page(&self, hash: &Hash, bit: usize) -> bool {
        let mut pages = self.shard(hash).write();
        let Some(page) = pages.get(hash) else {
            return false;
        };
        let mut raw = page.to_vec();
        if raw.is_empty() {
            return false;
        }
        let byte = (bit / 8) % raw.len();
        raw[byte] ^= 1 << (bit % 8);
        pages.insert(*hash, Bytes::from(raw));
        true
    }
}

impl MemStore {
    /// Insert a page whose content address is already known, keeping it
    /// by a refcount bump only when the page is new. The one place the put
    /// accounting lives.
    fn insert_hashed(&self, hash: Hash, page: &Bytes) {
        AtomicStoreStats::add(&self.stats.puts, 1);
        AtomicStoreStats::add(&self.stats.logical_bytes, page.len() as u64);
        let mut pages = self.shard(&hash).write();
        match pages.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                AtomicStoreStats::add(&self.stats.unique_pages, 1);
                AtomicStoreStats::add(&self.stats.unique_bytes, page.len() as u64);
                AtomicStoreStats::add(&self.stats.bytes_written, page.len() as u64);
                slot.insert(page.clone());
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                AtomicStoreStats::add(&self.stats.shared_puts, 1);
                AtomicStoreStats::add(&self.stats.shared_bytes, page.len() as u64);
            }
        }
    }
}

impl NodeStore for MemStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        Ok(self.put(page))
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        Ok(self.get(hash))
    }

    /// The batch's digests are trusted: no page is hashed again, and a new
    /// page is kept by a refcount bump, not a copy.
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        for (hash, page) in batch.pages() {
            self.insert_hashed(*hash, page);
        }
        Ok(())
    }

    // Memory cannot fault: the infallible methods are the real
    // implementation and `try_*` wrap them, the reverse of `FileStore`.
    fn put(&self, page: Bytes) -> Hash {
        let hash = sha256(&page);
        self.insert_hashed(hash, &page);
        hash
    }

    fn get(&self, hash: &Hash) -> Option<Bytes> {
        AtomicStoreStats::add(&self.stats.gets, 1);
        let page = self.shard(hash).read().get(hash).cloned();
        if page.is_some() {
            AtomicStoreStats::add(&self.stats.hits, 1);
        }
        page
    }

    fn contains(&self, hash: &Hash) -> bool {
        self.shard(hash).read().contains_key(hash)
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }
}

impl Reclaim for MemStore {
    /// Drop every page not contained in `live` — a mark-and-sweep GC where
    /// callers provide the mark phase. Infallible in memory; the `Ok` is
    /// the [`Reclaim`] contract shared with the durable backend.
    fn sweep(&self, live: &PageSet) -> StoreResult<(u64, u64)> {
        let mut dropped_pages = 0u64;
        let mut dropped_bytes = 0u64;
        for shard in self.shards.iter() {
            let mut pages = shard.write();
            pages.retain(|h, page| {
                if live.contains(h) {
                    true
                } else {
                    dropped_pages += 1;
                    dropped_bytes += page.len() as u64;
                    false
                }
            });
        }
        AtomicStoreStats::sub(&self.stats.unique_pages, dropped_pages);
        AtomicStoreStats::sub(&self.stats.unique_bytes, dropped_bytes);
        Ok((dropped_pages, dropped_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_is_idempotent_and_deduplicating() {
        let store = MemStore::new();
        let h1 = store.put(Bytes::from_static(b"same page"));
        let h2 = store.put(Bytes::from_static(b"same page"));
        assert_eq!(h1, h2);
        let s = store.stats();
        assert_eq!(s.puts, 2);
        assert_eq!(s.unique_pages, 1);
        assert_eq!(s.logical_bytes, 18);
        assert_eq!(s.unique_bytes, 9);
    }

    #[test]
    fn get_returns_exact_bytes() {
        let store = MemStore::new();
        let h = store.put(Bytes::from_static(b"some data"));
        assert_eq!(store.get(&h).unwrap(), Bytes::from_static(b"some data"));
        assert!(store.get(&sha256(b"absent")).is_none());
        let s = store.stats();
        assert_eq!(s.gets, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn content_address_matches_sha256() {
        let store = MemStore::new();
        let h = store.put(Bytes::from_static(b"addressed"));
        assert_eq!(h, sha256(b"addressed"));
    }

    #[test]
    fn sweep_reclaims_unreachable() {
        let store = MemStore::new();
        let keep = store.put(Bytes::from_static(b"keep me"));
        let _drop = store.put(Bytes::from_static(b"drop me"));
        let mut live = PageSet::new();
        live.insert(keep, 7);
        let (pages, bytes) = store.sweep(&live).unwrap();
        assert_eq!((pages, bytes), (1, 7));
        assert!(store.contains(&keep));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().unique_pages, 1);
    }

    #[test]
    fn corrupt_page_flips_content() {
        let store = MemStore::new();
        let h = store.put(Bytes::from_static(b"integrity"));
        assert!(store.corrupt_page(&h, 3));
        let tampered = store.get(&h).unwrap();
        assert_ne!(sha256(&tampered), h, "tampering must break the address");
        assert!(!store.corrupt_page(&sha256(b"missing"), 0));
    }

    #[test]
    fn concurrent_puts_share_pages() {
        use std::sync::Arc;
        let store = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    // Every thread writes the same 250 pages.
                    let _ = t;
                    s.put(Bytes::from(i.to_le_bytes().to_vec()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = store.stats();
        assert_eq!(s.puts, 1000);
        assert_eq!(s.unique_pages, 250);
    }

    #[test]
    fn concurrent_reads_count_coherently() {
        use std::sync::Arc;
        let store = Arc::new(MemStore::new());
        let hashes: Vec<Hash> =
            (0..64u32).map(|i| store.put(Bytes::from(i.to_le_bytes().to_vec()))).collect();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let s = Arc::clone(&store);
            let hs = hashes.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000usize {
                    let h = &hs[(t * 7 + i) % hs.len()];
                    assert!(s.get(h).is_some());
                }
                // Misses are counted as gets without hits.
                assert!(s.get(&sha256(b"no such page")).is_none());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = store.stats();
        assert_eq!(s.gets, 8 * 1_001);
        assert_eq!(s.hits, 8 * 1_000);
    }
}
