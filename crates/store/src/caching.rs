//! Client-side node cache over a remote store.
//!
//! Models the Forkbase deployment of §5.6.1: reads issued by a client first
//! consult a local node cache and fall back to the server, paying a remote
//! fetch. Real networking is substituted by a synthetic, configurable
//! per-fetch cost that the caller folds into measured time (see DESIGN.md
//! §2); the *shape* of Figure 21 is driven by the cache hit ratio, which
//! this layer reproduces faithfully.
//!
//! The cache is a capacity-bounded [`ShardedLru`] (DESIGN.md §3): earlier
//! revisions used an unbounded map, which grew without limit on long
//! workloads — exactly what the Figure 21 cache-size sweep cannot tolerate,
//! since the sweep's x-axis *is* the bound. Hit/miss/eviction counters are
//! folded into [`StoreStats`] (`cache_*` fields).
//!
//! Writes bypass the cache entirely — in Forkbase "the write operations
//! will be performed on the server side completely".

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use siri_crypto::Hash;

use crate::cache::{CacheStats, ShardedLru};
use crate::{NodeStore, PageBatch, SharedStore, StoreResult, StoreStats};

/// Default page capacity of a client cache: ≈16 MB at 1 KB pages, the
/// mid-range point of the §5.6.1 sweep.
pub const DEFAULT_CLIENT_CACHE_PAGES: usize = 16 * 1024;

/// A read-through, capacity-bounded page cache in front of a shared
/// ("server") store.
pub struct CachingStore {
    server: SharedStore,
    cache: ShardedLru<Bytes>,
    /// Nanoseconds of synthetic latency charged per remote fetch.
    fetch_cost_nanos: u64,
    synthetic_nanos: AtomicU64,
    remote_fetch_count: AtomicU64,
}

impl CachingStore {
    /// `fetch_cost_nanos` is the modelled round-trip cost of pulling one
    /// page from the server. The cache holds up to
    /// [`DEFAULT_CLIENT_CACHE_PAGES`] pages; use
    /// [`CachingStore::with_capacity`] for the Figure 21 sweep.
    pub fn new(server: SharedStore, fetch_cost_nanos: u64) -> Self {
        Self::with_capacity(server, fetch_cost_nanos, DEFAULT_CLIENT_CACHE_PAGES)
    }

    /// A client cache bounded to `capacity` pages (0 = no caching: every
    /// read is a remote fetch).
    pub fn with_capacity(server: SharedStore, fetch_cost_nanos: u64, capacity: usize) -> Self {
        CachingStore {
            server,
            cache: ShardedLru::new(capacity),
            fetch_cost_nanos,
            synthetic_nanos: AtomicU64::new(0),
            remote_fetch_count: AtomicU64::new(0),
        }
    }

    /// Pages fetched from the server (cache misses that found the page).
    pub fn remote_fetches(&self) -> u64 {
        // A miss on a page the server doesn't have either is not a fetch;
        // misses are counted at probe time, fetches at transfer time.
        self.remote_fetch_count.load(Ordering::Relaxed)
    }

    /// Reads served from the local cache.
    pub fn local_hits(&self) -> u64 {
        self.cache.stats().hits
    }

    /// Pages evicted from the local cache to stay under its bound.
    pub fn evictions(&self) -> u64 {
        self.cache.stats().evictions
    }

    /// Total synthetic latency accumulated so far, in nanoseconds. Harnesses
    /// add this to wall-clock time when computing client-side throughput.
    pub fn synthetic_nanos(&self) -> u64 {
        self.synthetic_nanos.load(Ordering::Relaxed)
    }

    /// Cache hit ratio over all reads so far (1.0 if no reads).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.local_hits() as f64;
        let total = hits + self.remote_fetches() as f64;
        if total == 0.0 {
            1.0
        } else {
            hits / total
        }
    }

    /// Raw cache counters (hits, misses, evictions, len, capacity).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop all cached pages (e.g. to model a fresh client).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }
}

impl NodeStore for CachingStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        // Server-side write; the page is *not* installed in the local cache
        // (matches Forkbase: clients cache nodes only after reading them).
        self.server.try_put(page)
    }

    fn try_put_raw(&self, page: &[u8]) -> StoreResult<Hash> {
        self.server.try_put_raw(page)
    }

    fn try_put_many(&self, pages: &[Bytes]) -> StoreResult<Vec<Hash>> {
        self.server.try_put_many(pages)
    }

    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        self.server.try_put_batch(batch)
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        if let Some(page) = self.cache.get(hash) {
            return Ok(Some(page));
        }
        // A server fault propagates; only a definitive miss returns None,
        // and only a definitive hit is cached.
        let Some(fetched) = self.server.try_get(hash)? else {
            return Ok(None);
        };
        self.remote_fetch_count.fetch_add(1, Ordering::Relaxed);
        self.synthetic_nanos.fetch_add(self.fetch_cost_nanos, Ordering::Relaxed);
        self.cache.insert(*hash, fetched.clone());
        Ok(Some(fetched))
    }

    fn contains(&self, hash: &Hash) -> bool {
        // `peek`, not `get`: an existence check is not a read — it must not
        // count toward the hit ratio or disturb LRU recency.
        self.cache.peek(hash).is_some() || self.server.contains(hash)
    }

    fn stats(&self) -> StoreStats {
        let cache = self.cache.stats();
        StoreStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            ..self.server.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn second_read_hits_cache() {
        let server = MemStore::new_shared();
        let h = server.put(Bytes::from_static(b"page"));
        let client = CachingStore::new(server, 1_000);
        assert!(client.get(&h).is_some());
        assert!(client.get(&h).is_some());
        assert_eq!(client.remote_fetches(), 1);
        assert_eq!(client.local_hits(), 1);
        assert_eq!(client.synthetic_nanos(), 1_000);
        assert!((client.hit_ratio() - 0.5).abs() < 1e-12);
        let s = client.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn writes_do_not_populate_cache() {
        let server = MemStore::new_shared();
        let client = CachingStore::new(server, 500);
        let h = client.put(Bytes::from_static(b"written"));
        assert_eq!(client.cached_pages(), 0);
        // First read is still remote.
        assert!(client.get(&h).is_some());
        assert_eq!(client.remote_fetches(), 1);
    }

    #[test]
    fn missing_pages_cost_nothing() {
        let server = MemStore::new_shared();
        let client = CachingStore::new(server, 500);
        assert!(client.get(&siri_crypto::sha256(b"ghost")).is_none());
        assert_eq!(client.remote_fetches(), 0);
        assert_eq!(client.synthetic_nanos(), 0);
    }

    #[test]
    fn clear_forces_refetch() {
        let server = MemStore::new_shared();
        let h = server.put(Bytes::from_static(b"page"));
        let client = CachingStore::new(server, 100);
        client.get(&h);
        client.clear();
        client.get(&h);
        assert_eq!(client.remote_fetches(), 2);
    }

    #[test]
    fn capacity_bounds_resident_pages() {
        let server = MemStore::new_shared();
        let hashes: Vec<_> =
            (0..500u32).map(|i| server.put(Bytes::from(i.to_le_bytes().to_vec()))).collect();
        let client = CachingStore::with_capacity(server, 100, 64);
        for h in &hashes {
            assert!(client.get(h).is_some());
        }
        assert!(client.cached_pages() <= 64, "cache grew past its bound");
        assert!(client.evictions() > 0, "500 pages through a 64-page cache must evict");
        assert_eq!(client.stats().cache_evictions, client.evictions());
        // Synthetic cost was charged for every remote fetch.
        assert_eq!(client.synthetic_nanos(), 100 * client.remote_fetches());
    }

    #[test]
    fn zero_capacity_is_pure_remote() {
        let server = MemStore::new_shared();
        let h = server.put(Bytes::from_static(b"page"));
        let client = CachingStore::with_capacity(server, 10, 0);
        client.get(&h);
        client.get(&h);
        assert_eq!(client.remote_fetches(), 2);
        assert_eq!(client.local_hits(), 0);
        assert_eq!(client.cached_pages(), 0);
    }

    #[test]
    fn smaller_cache_lower_hit_ratio() {
        // The Figure 21 mechanism in miniature: same access stream,
        // shrinking capacity, monotonically (weakly) worse hit ratio.
        let server = MemStore::new_shared();
        let hashes: Vec<_> =
            (0..200u32).map(|i| server.put(Bytes::from(i.to_le_bytes().to_vec()))).collect();
        let mut ratios = Vec::new();
        for cap in [256usize, 64, 16] {
            let client = CachingStore::with_capacity(server.clone(), 100, cap);
            for _ in 0..3 {
                for h in &hashes {
                    client.get(h);
                }
            }
            ratios.push(client.hit_ratio());
        }
        assert!(ratios[0] > ratios[2], "256-page cache must beat 16-page: {ratios:?}");
    }
}
