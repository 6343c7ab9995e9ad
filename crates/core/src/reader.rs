//! The one place a content address becomes a decoded node.
//!
//! Every index handle reaches its store through a [`PageReader`]: the
//! shared page store plus the decoded-node cache the handle's clones share
//! (DESIGN.md §3). There are two ways to read and one rule between them,
//! **readers install, writers borrow**:
//!
//! * [`PageReader::fetch`] — the read path: probe the cache, and on a miss
//!   get the page, decode it and install it.
//! * [`PageReader::load`] — the write path: share the cached node if one
//!   is resident, else get and decode; either way it installs nothing and
//!   moves no recency or counter. Every commit reads through it, since the
//!   nodes a commit loads are the ones it replaces; so do the one-off walks
//!   (`level_stats`, MBT's root-parameter peek).

use std::sync::Arc;

use bytes::Bytes;
use siri_crypto::Hash;
use siri_store::{CacheStats, NodeCache, SharedStore};

use crate::{IndexError, Result};

/// A node type that decodes from its stored page.
pub trait PageNode: Sized {
    /// Zero-copy decode: keys and values may be refcounted slices of `page`.
    fn decode_page(page: &Bytes) -> Result<Self>;
}

/// A page store and the decoded-node cache in front of it.
pub struct PageReader<N> {
    store: SharedStore,
    cache: Arc<NodeCache<N>>,
}

impl<N> Clone for PageReader<N> {
    fn clone(&self) -> Self {
        PageReader { store: self.store.clone(), cache: self.cache.clone() }
    }
}

impl<N: PageNode> PageReader<N> {
    /// A reader over `store` caching up to `capacity` decoded nodes (0
    /// disables caching — every read decodes, which is what proof
    /// witnesses need: a cache hit would keep a page out of the record).
    pub fn new(store: SharedStore, capacity: usize) -> Self {
        PageReader { store, cache: NodeCache::new_shared(capacity) }
    }

    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Hit/miss/eviction counters of the shared decoded-node cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The node at `hash` through the cache; the flag reports a cache hit
    /// (no store access, no decode).
    pub fn fetch(&self, hash: &Hash) -> Result<(Arc<N>, bool)> {
        self.cache.get_or_load(hash, || self.decode(hash))
    }

    /// The node at `hash` for a writer: the cached node if resident,
    /// otherwise one decoded from the store; the cache is left as it was.
    pub fn load(&self, hash: &Hash) -> Result<Arc<N>> {
        match self.cache.peek(hash) {
            Some(node) => Ok(node),
            None => self.decode(hash).map(Arc::new),
        }
    }

    fn decode(&self, hash: &Hash) -> Result<N> {
        let page = self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
        N::decode_page(&page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_store::MemStore;

    struct Raw(Bytes);

    impl PageNode for Raw {
        fn decode_page(page: &Bytes) -> Result<Self> {
            Ok(Raw(page.clone()))
        }
    }

    fn one_page(capacity: usize) -> (PageReader<Raw>, Hash) {
        let store = MemStore::new_shared();
        let hash = store.try_put(Bytes::from_static(b"page")).unwrap();
        (PageReader::new(store, capacity), hash)
    }

    #[test]
    fn fetch_reports_hits_and_reads_the_store_once() {
        let (reader, hash) = one_page(64);
        let (node, hit) = reader.fetch(&hash).unwrap();
        assert_eq!((node.0.as_ref(), hit), (&b"page"[..], false));
        assert!(reader.fetch(&hash).unwrap().1, "second fetch is a cache hit");
        assert_eq!(reader.store().stats().gets, 1);
        let absent = Hash::from_slice(&[7; Hash::LEN]).unwrap();
        assert_eq!(reader.fetch(&absent).err(), Some(IndexError::MissingPage(absent)));
    }

    #[test]
    fn load_leaves_the_cache_untouched() {
        let (reader, hash) = one_page(64);
        let before = reader.cache_stats();
        assert_eq!(reader.load(&hash).unwrap().0.as_ref(), b"page");
        assert_eq!(reader.cache_stats(), before);
        assert!(!reader.fetch(&hash).unwrap().1, "load installed nothing");
    }

    #[test]
    fn load_borrows_a_cached_node_without_a_store_get() {
        let (reader, hash) = one_page(64);
        let (cached, _) = reader.fetch(&hash).unwrap();
        let before = reader.cache_stats();
        let borrowed = reader.load(&hash).unwrap();
        assert!(Arc::ptr_eq(&cached, &borrowed), "a hit shares the cached node");
        assert_eq!(reader.cache_stats(), before, "and moves no counter");
        assert_eq!(reader.store().stats().gets, 1);
        let absent = Hash::from_slice(&[7; Hash::LEN]).unwrap();
        assert_eq!(reader.load(&absent).err(), Some(IndexError::MissingPage(absent)));
    }

    #[test]
    fn capacity_zero_never_inserts() {
        let (reader, hash) = one_page(0);
        assert!(!reader.fetch(&hash).unwrap().1);
        assert!(!reader.fetch(&hash).unwrap().1);
        assert!(reader.load(&hash).is_ok());
        assert_eq!(reader.cache_stats().len, 0);
        assert_eq!(reader.store().stats().gets, 3, "capacity 0 reads the store every time");
    }
}
