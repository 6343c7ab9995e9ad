//! The decoded-node cache: a sharded, capacity-bounded LRU keyed by
//! content address (DESIGN.md §3).
//!
//! [`NodeCache`] holds *decoded* nodes as `Arc<N>`. The index crates thread
//! one through their read paths so a hot lookup costs a shard probe and a
//! refcount bump instead of a store lock + page clone + full decode. It is
//! the only cache in the stack: a light client's node cache over a remote
//! page source is this same type.
//!
//! Content addressing makes the cache trivially coherent: a `Hash` names
//! one immutable byte string forever, so entries can never go stale —
//! eviction exists purely to bound memory. Each shard is an independent
//! `Mutex<LruShard>` (an intrusive doubly-linked list over a slot vector +
//! an FxHashMap index), selected by the low bits of the content address;
//! SHA-256 output is uniform, so shards balance without extra hashing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex};

/// Lock class for the runtime lock-order tracker (DESIGN.md §9): cache
/// shards sit between the engine locks and the backing store's internals.
static CACHE_SHARD_CLASS: LockClass = LockClass::new(40, "store.cache-shard");
use siri_crypto::{FxHashMap, Hash};

/// Counter snapshot of a [`NodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found the entry.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hit ratio over all probes so far (1.0 if no probes).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: u32 = u32::MAX;

struct Slot<V> {
    hash: Hash,
    value: V,
    prev: u32,
    next: u32,
}

/// One shard: an LRU list threaded through `slots`, with `map` as the
/// content-address index. `head` is most-recent, `tail` least-recent.
struct LruShard<V> {
    map: FxHashMap<Hash, u32>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<V> LruShard<V> {
    fn new() -> Self {
        LruShard {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Remove the least-recently-used entry. Returns false on empty.
    fn evict_tail(&mut self) -> bool {
        let tail = self.tail;
        if tail == NIL {
            return false;
        }
        self.unlink(tail);
        let hash = self.slots[tail as usize].hash;
        self.map.remove(&hash);
        self.free.push(tail);
        true
    }

    fn insert(&mut self, hash: Hash, value: V, capacity: usize) -> u64 {
        if let Some(&idx) = self.map.get(&hash) {
            // Same content address ⇒ same content; refresh recency only.
            self.touch(idx);
            return 0;
        }
        let mut evicted = 0u64;
        while self.map.len() >= capacity {
            if !self.evict_tail() {
                break;
            }
            evicted += 1;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Slot { hash, value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slots.push(Slot { hash, value, prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(hash, idx);
        self.push_front(idx);
        evicted
    }
}

/// One shard plus its share of the capacity bound.
struct Shard<N> {
    lru: Mutex<LruShard<Arc<N>>>,
    /// This shard's entry bound; shard capacities sum to exactly the
    /// requested total (the remainder of `capacity / SHARDS` is spread
    /// over the first shards).
    capacity: usize,
}

/// Shards per cache. 16 keeps contention negligible for the thread counts
/// the benches drive while costing only 16 small mutexes.
const SHARDS: usize = 16;

/// Typed cache of decoded nodes, shared by every clone (= version handle)
/// of an index: a sharded, bounded, thread-safe LRU map from content
/// address to `Arc<N>`. See the module docs for the design; index `fetch`
/// paths are one call:
///
/// ```ignore
/// let (node, was_hit) = cache.get_or_load(hash, || {
///     let page = store.get(hash).ok_or(IndexError::MissingPage(*hash))?;
///     Node::decode_zc(&page)
/// })?;
/// ```
pub struct NodeCache<N> {
    shards: Box<[Shard<N>]>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default per-lineage decoded-node budget, sized to hold a **live tree
/// plus a few cycles of version churn**: the collaboration and mixed
/// workloads keep 8–12k nodes reachable from their heads, and every
/// fork/commit/merge cycle decodes a few thousand more that are dead a cycle
/// later. A budget just below the live tree (the former 8,192) only looked
/// sufficient while diff and merge re-walked — and so re-warmed — every leaf
/// before the reads that follow; with δ-cost walks the reads found half
/// their leaves evicted (DESIGN.md §3). The bound is in nodes, so the bytes
/// kept alive depend on the structure: at most ≈45 MB of 1.25 KB POS-Tree
/// pages, ≈12 MB of 354 B MPT nodes.
pub const DEFAULT_NODE_CACHE_CAPACITY: usize = 32_768;

impl<N> NodeCache<N> {
    /// `capacity` is the **exact** total entry bound across shards; 0
    /// disables caching entirely (every probe misses, inserts are
    /// dropped). Individual shards get `capacity / SHARDS` (±1), so a
    /// skewed key set may evict slightly before the total is reached, but
    /// resident entries never exceed `capacity`. Capacities below the
    /// shard count leave some shards with no budget (their inserts are
    /// dropped) — use ≥ 16 for a cache that can hold every key. A disabled
    /// cache allocates no shards at all, so the reader a verifier opens per
    /// proof (DESIGN.md §14) costs one `Arc`.
    pub fn new(capacity: usize) -> Self {
        let shards = (0..if capacity == 0 { 0 } else { SHARDS })
            .map(|i| Shard {
                lru: Mutex::with_class(LruShard::new(), &CACHE_SHARD_CLASS),
                capacity: capacity / SHARDS + usize::from(i < capacity % SHARDS),
            })
            .collect::<Vec<_>>();
        NodeCache {
            shards: shards.into_boxed_slice(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache wrapped in the `Arc` the index handles share.
    pub fn new_shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    #[inline]
    fn shard(&self, hash: &Hash) -> &Shard<N> {
        // Low byte of a SHA-256 digest is uniform.
        &self.shards[(hash.as_bytes()[0] as usize) & (SHARDS - 1)]
    }

    /// Probe the cache, refreshing recency on hit.
    pub fn get(&self, hash: &Hash) -> Option<Arc<N>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shard = self.shard(hash);
        let mut lru = shard.lru.lock();
        match lru.map.get(hash).copied() {
            Some(idx) => {
                lru.touch(idx);
                let v = lru.slots[idx as usize].value.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The cached node, if resident, leaving recency and counters alone:
    /// how a commit borrows a node it is about to replace (DESIGN.md §3).
    /// A side-effect-free probe must not distort the hit-ratio metrics or
    /// the eviction order.
    pub fn peek(&self, hash: &Hash) -> Option<Arc<N>> {
        if self.capacity == 0 {
            return None;
        }
        let lru = self.shard(hash).lru.lock();
        lru.map.get(hash).map(|&idx| lru.slots[idx as usize].value.clone())
    }

    /// Install a node (no-op when capacity is 0). Inserting an existing
    /// address only refreshes its recency — the node cannot differ, the
    /// key *is* the content hash.
    pub fn insert(&self, hash: Hash, node: Arc<N>) {
        if self.capacity == 0 {
            return;
        }
        let shard = self.shard(&hash);
        if shard.capacity == 0 {
            // A sub-16 capacity leaves this shard with no budget: drop the
            // insert rather than exceed the bound.
            return;
        }
        let evicted = shard.lru.lock().insert(hash, node, shard.capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// The one fetch path every index shares: probe the cache, and on a
    /// miss run `load` (store fetch + decode) and install the result. The
    /// flag reports whether this was a hit — no store access, no decode.
    /// `load` runs outside any shard lock, so concurrent misses on the
    /// same hash decode redundantly rather than serializing (harmless:
    /// both decodes are identical, last insert refreshes recency).
    pub fn get_or_load<E>(
        &self,
        hash: &Hash,
        load: impl FnOnce() -> Result<N, E>,
    ) -> Result<(Arc<N>, bool), E> {
        if let Some(node) = self.get(hash) {
            return Ok((node, true));
        }
        let node = Arc::new(load()?);
        self.insert(*hash, node.clone());
        Ok((node, false))
    }

    /// Drop every cached node (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.lru.lock();
            *s = LruShard::new();
        }
    }

    /// Nodes currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lru.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_crypto::sha256;

    fn h(i: u64) -> Hash {
        sha256(&i.to_le_bytes())
    }

    /// The value cached under `hash`, through the counting probe.
    fn get(c: &NodeCache<u64>, hash: &Hash) -> Option<u64> {
        c.get(hash).map(|v| *v)
    }

    fn put(c: &NodeCache<u64>, hash: Hash, v: u64) {
        c.insert(hash, Arc::new(v));
    }

    /// Three addresses that land in shard `shard`, so eviction order
    /// within one shard is deterministic.
    fn same_shard(shard: u8) -> [Hash; 3] {
        let hashes: Vec<Hash> =
            (0..1000u64).map(h).filter(|x| x.as_bytes()[0] & (SHARDS as u8 - 1) == shard).collect();
        [hashes[0], hashes[1], hashes[2]]
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = NodeCache::new(64);
        assert_eq!(get(&c, &h(1)), None);
        put(&c, h(1), 11);
        assert_eq!(get(&c, &h(1)), Some(11));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_disables() {
        let c = NodeCache::new(0);
        put(&c, h(1), 1);
        assert_eq!(get(&c, &h(1)), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = NodeCache::new(2 * SHARDS); // 2 per shard
        let [a, b, x] = same_shard(3);
        put(&c, a, 1);
        put(&c, b, 2);
        assert_eq!(get(&c, &a), Some(1)); // refresh a: b is now LRU
        put(&c, x, 3); // evicts b
        assert_eq!(get(&c, &b), None, "LRU entry must be evicted");
        assert_eq!(get(&c, &a), Some(1));
        assert_eq!(get(&c, &x), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn bounded_under_churn() {
        let c = NodeCache::new(128);
        for i in 0..10_000u64 {
            put(&c, h(i), i);
        }
        assert!(c.len() <= 128, "len {} exceeds capacity", c.len());
        let s = c.stats();
        assert_eq!(s.evictions + c.len() as u64, 10_000);
    }

    #[test]
    fn reinsert_same_hash_refreshes_not_duplicates() {
        let c = NodeCache::new(SHARDS);
        put(&c, h(1), 1);
        put(&c, h(1), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c = NodeCache::new(SHARDS);
        put(&c, h(1), 1);
        get(&c, &h(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(get(&c, &h(1)), None);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn capacity_is_an_exact_bound() {
        // 20 over 16 shards: shards 0..4 get 2 slots, the rest get 1 —
        // the shard budgets sum to exactly the requested capacity.
        let c = NodeCache::new(20);
        for i in 0..10_000u64 {
            put(&c, h(i), i);
        }
        assert!(c.len() <= 20, "resident {} exceeds the requested bound", c.len());
        // Sub-shard-count capacities drop inserts on budget-less shards
        // rather than exceed the bound.
        let tiny = NodeCache::new(3);
        for i in 0..1_000u64 {
            put(&tiny, h(i), i);
        }
        assert!(tiny.len() <= 3);

        // And the side-effect-free peek never moves the counters.
        let before = c.stats();
        for i in 0..100u64 {
            let _ = c.peek(&h(i));
        }
        let after = c.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
    }

    #[test]
    fn peek_returns_the_value_without_refreshing_recency() {
        let c = NodeCache::new(2 * SHARDS); // 2 per shard
        let [a, b, x] = same_shard(5);
        put(&c, a, 1);
        put(&c, b, 2);
        assert_eq!(c.peek(&a).as_deref(), Some(&1));
        assert_eq!(c.peek(&x), None);
        put(&c, x, 3); // a stays least recent: the peek did not touch it
        assert_eq!(c.peek(&a), None, "peek must not refresh recency");
        assert_eq!(c.peek(&b).as_deref(), Some(&2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 1));
        assert_eq!(NodeCache::<u64>::new(0).peek(&a), None);
    }

    #[test]
    fn node_cache_shares_arcs() {
        let c: NodeCache<Vec<u8>> = NodeCache::new(16);
        let node = Arc::new(vec![1u8, 2, 3]);
        c.insert(h(1), node.clone());
        let got = c.get(&h(1)).unwrap();
        assert!(Arc::ptr_eq(&node, &got), "hits must be refcount bumps");
    }

    #[test]
    fn concurrent_probes_stay_coherent() {
        let c: Arc<NodeCache<u64>> = NodeCache::new_shared(256);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let k = (t * 31 + i) % 500;
                    if let Some(v) = get(&c, &h(k)) {
                        assert_eq!(v, k, "value must match its key");
                    } else {
                        put(&c, h(k), k);
                    }
                }
            }));
        }
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert!(c.len() <= 256);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 16_000);
    }
}
