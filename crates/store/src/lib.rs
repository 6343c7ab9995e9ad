//! Content-addressed page store for the SIRI index family.
//!
//! Every index node ("page" in the paper's terminology) is persisted as a
//! canonical byte encoding identified by its SHA-256. Content addressing
//! gives the *Universally Reusable* property for free: two index instances
//! that produce an identical page automatically share one copy, which is
//! exactly the page-level deduplication the paper quantifies with the
//! deduplication ratio η (§4.2).
//!
//! * [`NodeStore`] — the storage abstraction all four indexes run on.
//! * [`MemStore`] — in-memory store (sharded, lock-free-read) with
//!   logical-vs-physical accounting.
//! * [`FileStore`] — append-only segment files plus a manifest; the durable
//!   backend.
//! * [`NodeCache`] — sharded LRU of *decoded* nodes keyed by content
//!   address; the index crates thread one through their read paths so hot
//!   lookups skip the store lock, the page clone and the decode entirely.
//!   It is the only cache: a light client's node cache over a remote page
//!   source (`siri-client`'s `RemoteSession::pages`) is the same type.
//! * [`PageSet`] — the reachable page set P(I) of one index instance, the
//!   input to the deduplication metrics.
//! * [`PageBatch`] — the pages of one commit, hashed as they are added and
//!   handed to the store in one [`NodeStore::try_put_batch`].
//!
//! The layering and the cache design are documented in DESIGN.md.

mod batch;
mod cache;
mod error;
mod file;
pub mod gc;
mod mem;
mod pageset;
pub mod ship;
mod stats;

use bytes::Bytes;
use siri_crypto::Hash;

pub use batch::{PageBatch, PAGE_BATCH_SPILL_BYTES};
pub use cache::{CacheStats, NodeCache, DEFAULT_NODE_CACHE_CAPACITY};
pub use error::{StoreError, StoreResult};
pub use file::{CrashPoint, FileStore, FileStoreOptions, FsyncPolicy, DEFAULT_SEGMENT_BYTES};
pub use mem::MemStore;
pub use pageset::PageSet;
pub use stats::{AtomicStoreStats, StoreStats};

/// Storage for immutable, content-addressed pages.
///
/// `try_put` hashes the page and stores it under that hash; identical pages
/// are stored once (structural sharing). Pages are immutable: there is no
/// delete or overwrite in the core trait — removal of unreachable pages is
/// an offline concern behind [`Reclaim`].
///
/// The fallible `try_*` methods are the primary interface: durable backends
/// ([`FileStore`]) surface I/O faults through them instead of panicking,
/// and keep their internal index/stats consistent when an operation fails.
/// `put`/`get` are infallible sugar for in-memory stores and quick scripts;
/// they panic on a store fault (never on a mere miss).
pub trait NodeStore: Send + Sync {
    /// Store a page, returning its content address. Idempotent. A returned
    /// error means the page is *not* stored (the store state is as if the
    /// call never happened).
    fn try_put(&self, page: Bytes) -> StoreResult<Hash>;

    /// Fetch a page by content address. `Ok(None)` is a definitive miss;
    /// `Err` means the lookup could not be completed (the page may exist).
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>>;

    /// Store a page given as a borrowed slice: a copy handed to
    /// [`NodeStore::try_put`].
    fn try_put_raw(&self, page: &[u8]) -> StoreResult<Hash> {
        self.try_put(Bytes::copy_from_slice(page))
    }

    /// Store a batch of sibling pages, returning one content address per
    /// page in order: a loop of [`NodeStore::try_put`], not atomic. Commits
    /// write through [`NodeStore::try_put_batch`].
    fn try_put_many(&self, pages: &[Bytes]) -> StoreResult<Vec<Hash>> {
        pages.iter().map(|p| self.try_put(p.clone())).collect()
    }

    /// Store a commit's worth of pages that a [`PageBatch`] has already
    /// hashed. The digests are trusted, not recomputed: `PageBatch` only
    /// admits a page by hashing it. Counters move exactly as for a loop of
    /// [`NodeStore::try_put`] over the batch (repeats inside the batch are
    /// shared puts). The default *is* that loop; [`FileStore`] overrides it
    /// with one append, all-or-nothing.
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        for (_, page) in batch.pages() {
            self.try_put(page.clone())?;
        }
        Ok(())
    }

    /// The commit point: make what this store has accepted durable as its
    /// policy says, once per logical commit. The engine calls it after a
    /// publication's append and before the head swap. Returning `Ok` is
    /// the acknowledgement; an error means the commit was not acked. The
    /// default does nothing (an in-memory store has nothing to flush);
    /// [`FileStore`] applies its [`FsyncPolicy`] here.
    fn note_commit(&self) -> StoreResult<()> {
        Ok(())
    }

    /// Whether the page exists without fetching it.
    fn contains(&self, hash: &Hash) -> bool;

    /// Storage counters (see [`StoreStats`] for the semantics).
    fn stats(&self) -> StoreStats;

    /// Infallible sugar over [`NodeStore::try_put`]; panics on a store
    /// fault.
    fn put(&self, page: Bytes) -> Hash {
        self.try_put(page).expect("store write failed")
    }

    /// Infallible sugar over [`NodeStore::try_get`]; panics on a store
    /// fault (returns `None` only for a definitive miss).
    fn get(&self, hash: &Hash) -> Option<Bytes> {
        self.try_get(hash).expect("store read failed")
    }
}

/// A store that can reclaim pages outside the live set — the sweep half of
/// mark-and-sweep GC, generalized over backends: [`MemStore`] drops dead
/// entries in place, [`FileStore`] compacts by rewriting live pages into a
/// fresh segment generation and atomically swapping its manifest.
pub trait Reclaim: NodeStore {
    /// Reclaim every page not contained in `live`, returning
    /// `(pages, bytes)` reclaimed. `live` is typically the union of
    /// [`reachable_pages`] over the roots that must survive.
    ///
    /// The sweep drops *everything* outside `live` — including pages a
    /// concurrent writer put moments earlier (whether the put completed
    /// before the sweep or deduplicated against a page the sweep is about
    /// to drop makes no difference). GC is an offline concern: callers
    /// either quiesce writers or include every in-flight root's page set
    /// in `live`. Readers need no coordination on any backend.
    fn sweep(&self, live: &PageSet) -> StoreResult<(u64, u64)>;
}

/// Blanket impl so `Arc<S>` can be passed where a store is expected.
impl<S: NodeStore + ?Sized> NodeStore for std::sync::Arc<S> {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        (**self).try_put(page)
    }
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        (**self).try_get(hash)
    }
    fn try_put_raw(&self, page: &[u8]) -> StoreResult<Hash> {
        (**self).try_put_raw(page)
    }
    fn try_put_many(&self, pages: &[Bytes]) -> StoreResult<Vec<Hash>> {
        (**self).try_put_many(pages)
    }
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        (**self).try_put_batch(batch)
    }
    fn note_commit(&self) -> StoreResult<()> {
        (**self).note_commit()
    }
    fn put(&self, page: Bytes) -> Hash {
        (**self).put(page)
    }
    fn get(&self, hash: &Hash) -> Option<Bytes> {
        (**self).get(hash)
    }
    fn contains(&self, hash: &Hash) -> bool {
        (**self).contains(hash)
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
}

impl<S: Reclaim + ?Sized> Reclaim for std::sync::Arc<S> {
    fn sweep(&self, live: &PageSet) -> StoreResult<(u64, u64)> {
        (**self).sweep(live)
    }
}

/// Shared handle type used by index implementations.
pub type SharedStore = std::sync::Arc<dyn NodeStore>;

/// Walk the pages reachable from `root`, using `children` to decode child
/// references out of a page, and collect them into a [`PageSet`].
///
/// The walker is index-agnostic: each index crate supplies its own
/// `children` decoder. Pages are visited once even when referenced from
/// multiple parents (diamond sharing inside one instance).
pub fn reachable_pages<F>(store: &dyn NodeStore, root: Hash, children: F) -> PageSet
where
    F: Fn(&[u8]) -> Vec<Hash>,
{
    let mut set = PageSet::new();
    if root.is_zero() {
        return set;
    }
    let mut stack = vec![root];
    while let Some(h) = stack.pop() {
        if set.contains(&h) {
            continue;
        }
        let Some(page) = store.get(&h) else {
            // Dangling reference: record nothing. Callers that care detect
            // this via digest verification, not the metrics walk.
            continue;
        };
        set.insert(h, page.len() as u64);
        for child in children(&page) {
            if !child.is_zero() && !set.contains(&child) {
                stack.push(child);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_crypto::sha256;

    #[test]
    fn reachable_pages_walks_dag_once() {
        let store = MemStore::new();
        // Build a tiny DAG: two parents sharing one child. Pages encode
        // children as a concatenation of 32-byte hashes.
        let leaf = store.put(Bytes::from_static(b"leaf-page"));
        let mut p1 = leaf.as_bytes().to_vec();
        p1.push(1);
        let mut p2 = leaf.as_bytes().to_vec();
        p2.push(2);
        let h1 = store.put(Bytes::from(p1));
        let h2 = store.put(Bytes::from(p2));
        let mut root_page = Vec::new();
        root_page.extend_from_slice(h1.as_bytes());
        root_page.extend_from_slice(h2.as_bytes());
        let root = store.put(Bytes::from(root_page));

        let set = reachable_pages(&store, root, |page| {
            page.chunks_exact(32).filter_map(Hash::from_slice).collect()
        });
        assert_eq!(set.len(), 4, "root + 2 parents + 1 shared leaf");
        assert!(set.contains(&leaf));
    }

    #[test]
    fn reachable_pages_empty_root() {
        let store = MemStore::new();
        let set = reachable_pages(&store, Hash::ZERO, |_| Vec::new());
        assert!(set.is_empty());
    }

    #[test]
    fn reachable_pages_tolerates_dangling_refs() {
        let store = MemStore::new();
        let missing = sha256(b"never stored");
        let root = store.put(Bytes::copy_from_slice(missing.as_bytes()));
        let set = reachable_pages(&store, root, |page| {
            page.chunks_exact(32).filter_map(Hash::from_slice).collect()
        });
        assert_eq!(set.len(), 1, "only the root itself");
    }
}
