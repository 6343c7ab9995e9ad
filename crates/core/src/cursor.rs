//! The unified streaming read side: [`EntryCursor`] and range-bound
//! helpers.
//!
//! Every structure's `scan`, prefix scan and bounded range scan route
//! through one lazy cursor type. A cursor walks the tree leaf-by-leaf
//! through the structure's decoded-node cache and yields entries in key
//! order — nothing materializes the whole dataset. Errors discovered
//! mid-walk (missing or corrupt pages) surface as `Err` items in the
//! stream.

use std::ops::Bound;

use crate::{Entry, IndexError, Result};

/// What an [`EntryCursor`] pulls its entries from: any entry iterator,
/// plus a hint about how many of them its caller will take.
///
/// Every in-process cursor walks its tree lazily, so knowing the count buys
/// it nothing and it keeps the no-op default. A source that fetches ahead
/// in batches — the remote client's paged cursor — uses the hint to stop
/// asking for entries nobody will read.
pub trait EntrySource: Iterator<Item = Result<Entry>> + Send {
    /// The cursor's caller will pull at most `n` more items from this
    /// source, counting entries it has already fetched but not yet yielded.
    /// A nested `take` calls this again with a smaller `n`.
    fn cap(&mut self, _n: usize) {}
}

/// A plain iterator as a source that ignores caps.
struct Uncapped<I>(I);

impl<I: Iterator<Item = Result<Entry>>> Iterator for Uncapped<I> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

impl<I: Iterator<Item = Result<Entry>> + Send> EntrySource for Uncapped<I> {}

/// A lazy, sorted stream of entries — the return type of
/// [`crate::SiriIndex::range`].
///
/// `EntryCursor` is an ordinary iterator over `Result<Entry>`; use iterator
/// adapters (`map`, `filter`, …) freely, or [`EntryCursor::collect_entries`]
/// to drain it into a `Vec` with the first error propagated.
///
/// [`EntryCursor::take`] shadows [`Iterator::take`]: it yields the same
/// items and also hands the cap to the cursor's [`EntrySource`], so a
/// remote scan asks the server for no more entries than its caller takes.
/// The pushdown happens only when `take` is called on the cursor itself;
/// after `filter`, `map` or `by_ref` it is the plain iterator adapter, and
/// the source never learns the count.
pub struct EntryCursor {
    inner: Box<dyn EntrySource>,
    /// Items the caller may still pull (`None` until [`EntryCursor::take`]).
    left: Option<usize>,
}

impl EntryCursor {
    /// Wrap any entry iterator. Implementations hand in their tree-walking
    /// state machine; the box erases the per-structure type.
    pub fn new(inner: impl Iterator<Item = Result<Entry>> + Send + 'static) -> Self {
        Self::from_source(Uncapped(inner))
    }

    /// Wrap a source that wants to hear about [`EntryCursor::take`] caps.
    pub fn from_source(source: impl EntrySource + 'static) -> Self {
        EntryCursor { inner: Box::new(source), left: None }
    }

    /// A cursor over nothing (empty index or empty window).
    pub fn empty() -> Self {
        Self::new(std::iter::empty())
    }

    /// A cursor that yields one error and stops — how constructors report
    /// failures discovered during the initial descent.
    pub fn fail(err: IndexError) -> Self {
        Self::new(std::iter::once(Err(err)))
    }

    /// At most the next `n` items — exactly what [`Iterator::take`] yields —
    /// with the cap passed down to the source (see [`EntrySource::cap`]).
    #[must_use = "a cursor is lazy and does nothing unless iterated"]
    pub fn take(mut self, n: usize) -> EntryCursor {
        let left = self.left.map_or(n, |l| l.min(n));
        self.left = Some(left);
        self.inner.cap(left);
        self
    }

    /// Drain into a vector, propagating the first error.
    pub fn collect_entries(self) -> Result<Vec<Entry>> {
        self.collect()
    }
}

impl Iterator for EntryCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.left {
            None => self.inner.next(),
            Some(0) => None,
            Some(left) => {
                *left -= 1;
                self.inner.next()
            }
        }
    }
}

impl std::fmt::Debug for EntryCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryCursor").finish_non_exhaustive()
    }
}

/// Convert a borrowed range bound into an owned one a cursor can keep.
pub fn own_bound(bound: Bound<&[u8]>) -> Bound<Vec<u8>> {
    match bound {
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// The key a seek-style cursor should position at for `start` (the least
/// possibly-matching key); exclusive starts are resolved by
/// [`before_start`] filtering at the first position.
pub fn start_seek_key(start: &Bound<Vec<u8>>) -> &[u8] {
    match start {
        Bound::Included(k) | Bound::Excluded(k) => k,
        Bound::Unbounded => &[],
    }
}

/// `key` sits before the start bound (must be skipped).
pub fn before_start(start: &Bound<Vec<u8>>, key: &[u8]) -> bool {
    match start {
        Bound::Included(s) => key < s.as_slice(),
        Bound::Excluded(s) => key <= s.as_slice(),
        Bound::Unbounded => false,
    }
}

/// `key` sits past the end bound (the stream is finished: entries arrive
/// in key order).
pub fn past_end(end: &Bound<Vec<u8>>, key: &[u8]) -> bool {
    match end {
        Bound::Included(e) => key > e.as_slice(),
        Bound::Excluded(e) => key >= e.as_slice(),
        Bound::Unbounded => false,
    }
}

/// The least key strictly greater than every key starting with `prefix` —
/// i.e. keys matching `prefix` are exactly `[prefix, successor)`. `None`
/// when no such key exists (empty prefix or all-0xff): the range is then
/// unbounded above.
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_collects_and_propagates_errors() {
        let ok = EntryCursor::new(vec![Ok(Entry::new(&b"a"[..], &b"1"[..]))].into_iter());
        assert_eq!(ok.collect_entries().unwrap().len(), 1);
        let bad = EntryCursor::fail(IndexError::CorruptStructure("boom"));
        assert!(bad.collect_entries().is_err());
        assert_eq!(EntryCursor::empty().count(), 0);
    }

    /// A source that records the caps it is handed.
    struct Capped {
        left: std::ops::Range<u8>,
        caps: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl Iterator for Capped {
        type Item = Result<Entry>;

        fn next(&mut self) -> Option<Self::Item> {
            self.left.next().map(|i| Ok(Entry::new(vec![i], vec![i])))
        }
    }

    impl EntrySource for Capped {
        fn cap(&mut self, n: usize) {
            self.caps.lock().unwrap().push(n);
        }
    }

    #[test]
    fn take_yields_like_iterator_take_and_hands_down_the_tightest_cap() {
        let caps: std::sync::Arc<std::sync::Mutex<Vec<usize>>> = Default::default();
        let cursor = || EntryCursor::from_source(Capped { left: 0..100, caps: caps.clone() });
        let keys = |c: EntryCursor| c.map(|e| e.unwrap().key[0]).collect::<Vec<_>>();

        assert_eq!(keys(cursor().take(5)), (0..5).collect::<Vec<_>>());
        assert_eq!(keys(cursor().take(50).take(10)), (0..10).collect::<Vec<_>>());
        assert_eq!(keys(cursor().take(10).take(50)), (0..10).collect::<Vec<_>>());
        assert_eq!(keys(cursor().take(500)).len(), 100);
        assert!(keys(cursor().take(0)).is_empty());
        assert_eq!(*caps.lock().unwrap(), [5, 50, 10, 10, 10, 500, 0]);

        // Items already pulled count against a later cap.
        let mut c = cursor();
        c.next();
        assert_eq!(keys(c.take(2)), [1, 2]);
    }

    #[test]
    fn bound_checks() {
        let start: Bound<Vec<u8>> = Bound::Included(b"b".to_vec());
        assert!(before_start(&start, b"a"));
        assert!(!before_start(&start, b"b"));
        let start: Bound<Vec<u8>> = Bound::Excluded(b"b".to_vec());
        assert!(before_start(&start, b"b"));
        assert!(!before_start(&start, b"ba"));
        assert!(!before_start(&Bound::Unbounded, b""));

        let end: Bound<Vec<u8>> = Bound::Excluded(b"m".to_vec());
        assert!(past_end(&end, b"m"));
        assert!(!past_end(&end, b"lz"));
        let end: Bound<Vec<u8>> = Bound::Included(b"m".to_vec());
        assert!(!past_end(&end, b"m"));
        assert!(past_end(&end, b"m\x00"));
        assert!(!past_end(&Bound::Unbounded, b"\xff\xff"));
    }

    #[test]
    fn prefix_successor_edges() {
        assert_eq!(prefix_successor(b"app").unwrap(), b"apq".to_vec());
        assert_eq!(prefix_successor(b"a\xff").unwrap(), b"b".to_vec());
        assert_eq!(prefix_successor(b"\xff\xff"), None);
        assert_eq!(prefix_successor(b""), None);
    }
}
