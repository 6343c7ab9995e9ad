//! A commit's pages, hashed on the way in and handed to the store at once.

use bytes::Bytes;
use siri_crypto::{sha256, Hash};

use crate::{NodeStore, StoreResult};

/// Payload bytes past which a commit hands its batch to the store early and
/// carries on with an empty one, so a whole-dataset load never holds a
/// whole tree of pages (DESIGN.md §5). A constant, not a knob.
pub const PAGE_BATCH_SPILL_BYTES: usize = 4 * 1024 * 1024;

/// The pages one index commit writes, each next to its content address.
///
/// The only way in is [`PageBatch::push`] or [`PageBatch::push_slice`],
/// and each computes the SHA-256 itself — so a digest in a batch *is* its
/// page's digest, and
/// [`NodeStore::try_put_batch`] can trust it without hashing again.
#[derive(Debug, Default, Clone)]
pub struct PageBatch {
    pages: Vec<(Hash, Bytes)>,
    bytes: usize,
}

impl PageBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an owned page; returns its content address.
    pub fn push(&mut self, page: Bytes) -> Hash {
        let hash = sha256(&page);
        self.bytes += page.len();
        self.pages.push((hash, page));
        hash
    }

    /// Add a page from a borrowed buffer (e.g. a reusable encode scratch),
    /// copying it; returns its content address.
    pub fn push_slice(&mut self, page: &[u8]) -> Hash {
        self.push(Bytes::copy_from_slice(page))
    }

    /// Move every page of `other` to the end of this batch. The digests
    /// come along unchanged: `other` hashed each page on the way in.
    pub fn append(&mut self, other: PageBatch) {
        self.bytes += other.bytes;
        self.pages.extend(other.pages);
    }

    /// The pages in push order, each with its content address.
    pub fn pages(&self) -> &[(Hash, Bytes)] {
        &self.pages
    }

    /// Hand the batch to `store` and start over empty — but only once it
    /// holds at least [`PAGE_BATCH_SPILL_BYTES`]. Commits call this at
    /// natural seams; a failure leaves the batch as it was.
    pub fn spill_if_full<S: NodeStore + ?Sized>(&mut self, store: &S) -> StoreResult<()> {
        if self.bytes >= PAGE_BATCH_SPILL_BYTES {
            store.try_put_batch(self)?;
            self.pages.clear();
            self.bytes = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn every_constructor_hashes_what_it_keeps() {
        let mut batch = PageBatch::new();
        let a = batch.push(Bytes::from_static(b"alpha"));
        let b = batch.push_slice(b"beta");
        let empty = batch.push(Bytes::new());
        assert_eq!(a, sha256(b"alpha"));
        assert_eq!(b, sha256(b"beta"));
        assert_eq!(empty, sha256(b""));
        assert_eq!(batch.pages().len(), 3);
        for (hash, page) in batch.pages() {
            assert_eq!(*hash, sha256(page));
        }
    }

    #[test]
    fn pushed_pages_keep_order_digests_and_the_byte_count() {
        let pages: Vec<Bytes> = (0..37u8).map(|i| Bytes::from(vec![i; i as usize * 9])).collect();
        let mut batch = PageBatch::new();
        let got: Vec<Hash> = pages.iter().map(|p| batch.push(p.clone())).collect();
        let want: Vec<Hash> = pages.iter().map(|p| sha256(p)).collect();
        assert_eq!(got, want);
        let kept: Vec<(Hash, Bytes)> = want.into_iter().zip(pages.iter().cloned()).collect();
        assert_eq!(batch.pages(), &kept[..]);
        assert_eq!(batch.bytes, pages.iter().map(Bytes::len).sum::<usize>());
    }

    #[test]
    fn append_keeps_order_digests_and_the_byte_count() {
        let store = MemStore::new();
        let mut batch = PageBatch::new();
        batch.push_slice(b"first");
        let mut other = PageBatch::new();
        other.push_slice(b"second");
        other.push(Bytes::from(vec![7u8; PAGE_BATCH_SPILL_BYTES]));
        batch.append(other);
        let pages: Vec<&[u8]> = batch.pages().iter().map(|(_, p)| p.as_ref()).collect();
        assert_eq!(&pages[..2], &[&b"first"[..], &b"second"[..]]);
        assert!(batch.pages().iter().all(|(hash, page)| *hash == sha256(page)));
        batch.spill_if_full(&store).unwrap();
        assert_eq!(store.len(), 3, "the appended bytes count toward the spill threshold");
    }

    #[test]
    fn spill_waits_for_the_threshold_then_empties() {
        let store = MemStore::new();
        let mut batch = PageBatch::new();
        batch.push_slice(b"small");
        batch.spill_if_full(&store).unwrap();
        assert_eq!((batch.pages().len(), store.len()), (1, 0), "under the threshold: kept");
        batch.push(Bytes::from(vec![7u8; PAGE_BATCH_SPILL_BYTES]));
        batch.spill_if_full(&store).unwrap();
        assert!(batch.pages().is_empty());
        assert_eq!(store.len(), 2, "both pages handed over");
        batch.push_slice(b"small");
        batch.spill_if_full(&store).unwrap();
        assert_eq!(batch.pages().len(), 1, "the byte count restarted at zero");
    }
}
