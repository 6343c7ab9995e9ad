//! The one place a content address becomes a decoded node.
//!
//! Every index handle reaches its store through a [`PageReader`]: the
//! shared page store plus the decoded-node cache the handle's clones share
//! (DESIGN.md §3). There are two ways to read, a recording mode for
//! provers, and one rule among them, **readers install; writers and
//! provers borrow**:
//!
//! * [`PageReader::fetch`] — the read path: probe the cache, and on a miss
//!   get the page, decode it and install it.
//! * [`PageReader::load`] — the write path: share the cached node if one
//!   is resident, else get and decode; either way it installs nothing and
//!   moves no recency or counter. Every commit reads through it, since the
//!   nodes a commit loads are the ones it replaces; so do the one-off walks
//!   (`level_stats`, MBT's root-parameter peek).
//! * A recording reader ([`PageReader::recording`]) — the prove path: both
//!   verbs borrow as `load` does and keep each node's page in a
//!   [`Recorder`] (DESIGN.md §14). It looks in the record before the store,
//!   so a page a proof holds already is not fetched again.

use std::sync::Arc;

use bytes::Bytes;
use siri_crypto::Hash;
use siri_store::{CacheStats, NodeCache, SharedStore};

use crate::{IndexError, Recorder, Result};

/// A node type that decodes from its stored page.
pub trait PageNode: Sized {
    /// Zero-copy decode: keys and values may be refcounted slices of `page`.
    fn decode_page(page: &Bytes) -> Result<Self>;

    /// The page this node was decoded from, whole — what a prover records
    /// for a node it borrows from the cache.
    fn page(&self) -> &Bytes;
}

/// A page store, the decoded-node cache in front of it, and — on a
/// prover's handle — the [`Recorder`] its reads are kept in.
pub struct PageReader<N> {
    store: SharedStore,
    cache: Arc<NodeCache<N>>,
    tap: Option<Arc<Recorder>>,
}

impl<N> Clone for PageReader<N> {
    fn clone(&self) -> Self {
        PageReader { store: self.store.clone(), cache: self.cache.clone(), tap: self.tap.clone() }
    }
}

impl<N: PageNode> PageReader<N> {
    /// A reader over `store` caching up to `capacity` decoded nodes (0
    /// disables caching: every read decodes, as a proof verifier's reader
    /// over a proof's pages does).
    pub fn new(store: SharedStore, capacity: usize) -> Self {
        PageReader { store, cache: NodeCache::new_shared(capacity), tap: None }
    }

    /// This reader over the same store and cache, in recording mode: every
    /// node it reads is borrowed or decoded without being installed, and
    /// its page kept in `rec`. The page `root` names is kept first (none
    /// for the zero digest), so even a read that touches nothing is
    /// anchored at the digest it was made against.
    pub fn recording(&self, rec: &Arc<Recorder>, root: Hash) -> Result<Self> {
        if !root.is_zero() {
            // The page alone: the read that follows decodes the root from
            // the record if it is not resident, so decoding it here too
            // would decode it twice.
            match self.cache.peek(&root) {
                Some(node) => rec.note(root, node.page()),
                None if rec.page(&root).is_none() => rec.note(root, &self.page(&root)?),
                None => {}
            }
        }
        Ok(PageReader { tap: Some(rec.clone()), ..self.clone() })
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
        match &self.tap {
            None => self.cache.get_or_load(hash, || self.decode(hash)),
            Some(rec) => self.record(rec, hash),
        }
    }

    /// The node at `hash` for a writer: the cached node if resident,
    /// otherwise one decoded from the store; the cache is left as it was.
    pub fn load(&self, hash: &Hash) -> Result<Arc<N>> {
        if let Some(rec) = &self.tap {
            return self.record(rec, hash).map(|(node, _)| node);
        }
        match self.cache.peek(hash) {
            Some(node) => Ok(node),
            None => self.decode(hash).map(Arc::new),
        }
    }

    /// A prover's read: borrow the resident node, or decode the page the
    /// record or else the store holds; keep the page on first touch.
    fn record(&self, rec: &Recorder, hash: &Hash) -> Result<(Arc<N>, bool)> {
        if let Some(node) = self.cache.peek(hash) {
            rec.note(*hash, node.page());
            return Ok((node, true));
        }
        let page = match rec.page(hash) {
            Some(page) => page,
            None => self.page(hash)?,
        };
        let node = N::decode_page(&page)?;
        rec.note(*hash, &page);
        Ok((Arc::new(node), false))
    }

    fn page(&self, hash: &Hash) -> Result<Bytes> {
        self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))
    }

    fn decode(&self, hash: &Hash) -> Result<N> {
        N::decode_page(&self.page(hash)?)
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

        fn page(&self) -> &Bytes {
            &self.0
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

    #[test]
    fn a_recording_reader_borrows_records_and_installs_nothing() {
        let store = MemStore::new_shared();
        let [a, b] = [&b"page a"[..], b"page b"].map(|p| store.try_put(Bytes::from(p)).unwrap());
        let reader = PageReader::<Raw>::new(store, 64);
        reader.fetch(&a).unwrap(); // `a` is resident, `b` is not
        let (before, gets) = (reader.cache_stats(), reader.store().stats().gets);

        let rec = Recorder::new();
        let witness = reader.recording(&rec, b).unwrap();
        assert_eq!(reader.store().stats().gets, gets + 1, "the anchor is fetched, not decoded");
        let (node, hit) = witness.fetch(&a).unwrap();
        assert!(hit && node.0.as_ref() == b"page a", "a resident node is borrowed");
        assert!(!witness.fetch(&b).unwrap().1);
        assert_eq!(witness.load(&b).unwrap().0.as_ref(), b"page b");
        assert_eq!(reader.store().stats().gets, gets + 1, "repeats are served from the record");
        assert_eq!(reader.cache_stats(), before, "no install, no counter moved");
        let absent = Hash::from_slice(&[7; Hash::LEN]).unwrap();
        assert_eq!(witness.fetch(&absent).err(), Some(IndexError::MissingPage(absent)));
        assert_eq!(
            rec.proof().pages(),
            &[Bytes::from_static(b"page b"), Bytes::from_static(b"page a")]
        );

        // The zero digest anchors nothing; a missing root fails to anchor.
        assert!(reader.recording(&rec, Hash::ZERO).is_ok() && rec.proof().is_empty());
        assert!(reader.recording(&rec, absent).is_err());
    }
}
