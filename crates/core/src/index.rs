//! The unified index interface — one API over MPT, MBT, POS-Tree and the
//! MVMB+-Tree baseline, mirroring the paper's operation set (§3.1, §4.1):
//! `put`/`del` via atomic [`WriteBatch`] commits, `get`, streaming range
//! scans, comparison (diff), merge, plus the page-set accessor feeding the
//! deduplication metrics.

use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use siri_crypto::Hash;
use siri_store::{PageBatch, PageSet, SharedStore};

use crate::cursor::{prefix_successor, EntryCursor};
use crate::{DiffEntry, Entry, Proof, ProofVerdict, Recorder, Result, WriteBatch};

/// Instrumentation captured by [`SiriIndex::get_traced`].
///
/// Feeds two of the paper's plots directly: the traversed-height histogram
/// (Figure 9) and the MBT load-vs-scan breakdown (Figure 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupTrace {
    /// Pages fetched from the store along the path (tree height, counting
    /// the leaf/bucket page). Node-cache hits count too: the page was
    /// *needed*, it just wasn't re-fetched (see `cache_hits`).
    pub pages_loaded: u32,
    /// Levels traversed root→leaf, counting both ends.
    pub height: u32,
    /// Entries examined inside the final leaf/bucket (binary search probes
    /// count the entries they touch).
    pub leaf_entries_scanned: u32,
    /// Nanoseconds spent fetching + decoding pages ("load time", Fig. 13).
    pub load_nanos: u64,
    /// Nanoseconds spent searching within the leaf ("scan time", Fig. 13).
    pub scan_nanos: u64,
    /// Path nodes served from the index's decoded-node cache — no store
    /// access, no decode (the §5.6.1 hit-ratio lever, per lookup).
    pub cache_hits: u32,
    /// Path nodes that had to be fetched from the store and decoded.
    pub cache_misses: u32,
}

/// What a point-lookup descent reports while it runs. Each structure
/// writes its descent once ([`SiriIndex::lookup`]), generic over this:
/// [`SiriIndex::get`] passes `()`, whose calls compile to nothing — a plain
/// lookup reads no clock and counts nothing — and [`SiriIndex::get_traced`]
/// passes a [`TimedTrace`].
pub trait LookupTracer {
    /// One more path node was needed; `cached` when the decoded-node cache
    /// served it.
    fn node(&mut self, cached: bool);
    /// The path is loaded, or the miss is decided: "load time" ends here.
    fn loaded(&mut self);
    /// One entry of the final leaf/bucket was examined.
    fn probe(&mut self);
    /// The search inside the leaf/bucket is over: "scan time" ends here.
    fn searched(&mut self);
}

impl LookupTracer for () {
    #[inline(always)]
    fn node(&mut self, _cached: bool) {}
    #[inline(always)]
    fn loaded(&mut self) {}
    #[inline(always)]
    fn probe(&mut self) {}
    #[inline(always)]
    fn searched(&mut self) {}
}

/// The [`LookupTracer`] that fills a [`LookupTrace`], clock reads included.
pub struct TimedTrace {
    trace: LookupTrace,
    /// Start of the phase being timed: the descent, then the leaf search.
    since: Instant,
}

impl TimedTrace {
    pub fn start() -> Self {
        TimedTrace { trace: LookupTrace::default(), since: Instant::now() }
    }

    pub fn finish(self) -> LookupTrace {
        self.trace
    }
}

impl LookupTracer for TimedTrace {
    fn node(&mut self, cached: bool) {
        self.trace.pages_loaded += 1;
        self.trace.height += 1;
        if cached {
            self.trace.cache_hits += 1;
        } else {
            self.trace.cache_misses += 1;
        }
    }

    fn loaded(&mut self) {
        let now = Instant::now();
        self.trace.load_nanos = (now - self.since).as_nanos() as u64;
        self.since = now;
    }

    fn probe(&mut self) {
        self.trace.leaf_entries_scanned += 1;
    }

    fn searched(&mut self) {
        self.trace.scan_nanos = self.since.elapsed().as_nanos() as u64;
    }
}

/// Binary search of a sorted leaf/bucket for `key`, reporting each probed
/// entry — the last step of the POS-Tree, MBT and MVMB+ lookups.
pub fn search_entries(entries: &[Entry], key: &[u8], t: &mut impl LookupTracer) -> Option<Bytes> {
    let (mut lo, mut hi) = (0usize, entries.len());
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        t.probe();
        match entries[mid].key.as_ref().cmp(key) {
            std::cmp::Ordering::Equal => {
                found = Some(entries[mid].value.clone());
                break;
            }
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    t.searched();
    found
}

/// The SIRI index interface (paper §3, §4).
///
/// # Versioning model
///
/// A value implementing `SiriIndex` is a lightweight *handle*:
/// `(store, root hash, parameters)`. Updates rewrite the copy-on-write
/// spine inside the shared store and swap the handle's root. Cloning a
/// handle therefore snapshots a version for free, and any number of
/// versions coexist in one store, sharing pages — the paper's immutability
/// model.
///
/// # Write model
///
/// All mutation flows through [`SiriIndex::stage`]: a [`WriteBatch`] of
/// puts and deletes is resolved per key (last op wins) and applied in one
/// copy-on-write pass, yielding exactly one new version whose pages land
/// in a caller-owned [`PageBatch`]. An index writes nothing itself (bar
/// early spills of a very large batch): whoever stages decides when the
/// pages reach the store. [`SiriIndex::commit`] stages and stores in one
/// append; an engine stages many indexes and its head manifest into one
/// batch and stores them together. `insert`, `delete` and `batch_insert`
/// are thin single-op / puts-only wrappers over `commit`.
///
/// # Read model
///
/// All enumeration flows through [`SiriIndex::range`]: a lazy
/// [`EntryCursor`] that walks the tree leaf-by-leaf through the decoded-
/// node cache and yields entries in key order. `scan` and `scan_prefix`
/// are bound-sugar over it; nothing in the read path materializes the
/// dataset.
///
/// # Contract
///
/// * `commit` with batch `B` must leave the index equal to applying `B`'s
///   operations one by one (later operations on a key win); deleting an
///   absent key is a no-op.
/// * For the three SIRI structures (MPT, MBT, POS-Tree), the root hash must
///   be a pure function of the *surviving* key/value set — *Structurally
///   Invariant*. In particular, delete-then-reinsert restores the identical
///   root. The MVMB+ baseline deliberately violates this.
/// * `range` yields entries sorted by key (MBT merge-sorts its buckets on
///   the fly, reflecting that hashing destroys global order).
pub trait SiriIndex: Clone + Send + Sync {
    /// Short structure name, e.g. `"pos-tree"` — used in reports.
    fn kind(&self) -> &'static str;

    /// The shared page store this handle operates on.
    fn store(&self) -> &SharedStore;

    /// Content address of the root page; [`Hash::ZERO`] for an empty index.
    /// This is the tamper-evident digest of the entire dataset.
    fn root(&self) -> Hash;

    /// A handle to a *different version* of this index sharing everything
    /// else — store, parameters and the decoded-node cache. Cheaper than
    /// a factory `open` (which allocates a fresh cache) and the right way
    /// to follow a moving head: versions of one lineage share most pages,
    /// so re-rooting keeps the cache warm.
    fn at_root(&self, root: Hash) -> Self;

    /// Whether versions of this index share their unchanged pages
    /// (*Recursively Identical*, Def. 3.1-2) — true of all four structures.
    /// Only POS-Tree's §5.5.2 ablation answers false: its versions must
    /// share nothing, so a merge may not adopt another version's tree.
    fn recursively_identical(&self) -> bool {
        true
    }

    /// The point-lookup descent, reporting to `tracer` as it goes — the one
    /// implementation behind [`SiriIndex::get`] and
    /// [`SiriIndex::get_traced`].
    fn lookup(&self, key: &[u8], tracer: &mut impl LookupTracer) -> Result<Option<Bytes>>;

    /// Point lookup. Reads no clock and counts nothing.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.lookup(key, &mut ())
    }

    /// Point lookup with instrumentation (Figures 9 and 13).
    fn get_traced(&self, key: &[u8]) -> Result<(Option<Bytes>, LookupTrace)> {
        let mut trace = TimedTrace::start();
        let found = self.lookup(key, &mut trace)?;
        Ok((found, trace.finish()))
    }

    /// Build the version that applies a [`WriteBatch`] of puts and deletes
    /// to this one, in one copy-on-write pass, and return a handle to it.
    /// Operations on the same key resolve to the last occurrence; deleting
    /// an absent key is a no-op. The new pages go into `pages`, not the
    /// store — except early spills past
    /// [`siri_store::PAGE_BATCH_SPILL_BYTES`] — so the next version is
    /// readable only once the caller has stored `pages`. `self` is left
    /// as it was.
    fn stage(&self, batch: WriteBatch, pages: &mut PageBatch) -> Result<Self>;

    /// Apply a [`WriteBatch`] atomically, returning the new root digest:
    /// [`SiriIndex::stage`], one store append of the staged pages, then
    /// the handle moves to the new version. On any error the handle stays
    /// at the old version. Clone the handle first to keep the old version.
    fn commit(&mut self, batch: WriteBatch) -> Result<Hash> {
        let mut pages = PageBatch::new();
        let next = self.stage(batch, &mut pages)?;
        self.store().try_put_batch(&pages)?;
        *self = next;
        Ok(self.root())
    }

    /// Insert or overwrite one record — a one-put [`WriteBatch`].
    fn insert(&mut self, key: &[u8], value: Bytes) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(Bytes::copy_from_slice(key), value);
        self.commit(batch).map(drop)
    }

    /// Remove one record — a one-delete [`WriteBatch`]. Removing an absent
    /// key leaves the root unchanged.
    fn delete(&mut self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(Bytes::copy_from_slice(key));
        self.commit(batch).map(drop)
    }

    /// Insert or overwrite a batch of records — a puts-only [`WriteBatch`].
    /// Duplicate keys inside the batch resolve to the last occurrence.
    fn batch_insert(&mut self, entries: Vec<Entry>) -> Result<()> {
        self.commit(WriteBatch::from_entries(entries)).map(drop)
    }

    /// Stream all entries with keys inside `(start, end)` in key order,
    /// lazily — the unified read path behind `scan` and `scan_prefix`.
    /// The cursor walks leaf-by-leaf through the decoded-node cache; errors
    /// surface as `Err` items.
    fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor;

    /// All entries whose keys start with `prefix`, in key order — sugar for
    /// [`SiriIndex::range`] over `[prefix, prefix-successor)`.
    fn scan_prefix(&self, prefix: &[u8]) -> EntryCursor {
        match prefix_successor(prefix) {
            Some(end) => self.range(Bound::Included(prefix), Bound::Excluded(&end)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// All entries, sorted by key, materialized. Prefer iterating
    /// [`SiriIndex::range`] when the result does not need to be held whole.
    fn scan(&self) -> Result<Vec<Entry>> {
        self.range(Bound::Unbounded, Bound::Unbounded).collect()
    }

    /// Number of records. The default drains a cursor (no sort, but still
    /// O(N) page walks); implementations override when they can count from
    /// node metadata or leaf traversal without decoding values.
    fn len(&self) -> Result<usize> {
        let mut n = 0usize;
        for entry in self.range(Bound::Unbounded, Bound::Unbounded) {
            entry?;
            n += 1;
        }
        Ok(n)
    }

    fn is_empty(&self) -> bool {
        self.root().is_zero()
    }

    /// The page set P(I) reachable from the root — input to the
    /// deduplication metrics (§4.2).
    fn page_set(&self) -> PageSet;

    /// Structural diff (paper §4.1.3): every key present in exactly one
    /// side or with different values on the two sides. Implementations
    /// exploit structural invariance by skipping identical subtree hashes.
    fn diff(&self, other: &Self) -> Result<Vec<DiffEntry>>;

    /// This version over the same store and node cache, its reader in
    /// recording mode (DESIGN.md §14): every read borrows resident nodes,
    /// decodes missing ones without installing them, and keeps each node's
    /// page in `rec`, the root page first. The handle proofs are recorded
    /// with; see [`record_read`].
    fn recording(&self, rec: &Arc<Recorder>) -> Result<Self>;

    /// Produce a Merkle proof for `key` (present or absent): the pages a
    /// `get` reads, root page first (see [`Recorder`]).
    fn prove(&self, key: &[u8]) -> Result<Proof> {
        let rec = Recorder::new();
        record_read(&rec, self, |w| w.get(key).map(drop))?;
        Ok(rec.proof())
    }

    /// Produce a range proof: the pages a `range` cursor reads, root page
    /// first — at most one look-ahead leaf beyond the window, which the
    /// cursor reads to learn it is done. Verification replays the cursor
    /// and yields *exactly* the entries in the window (see
    /// [`crate::verify_anchored_range`]).
    fn prove_range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Proof> {
        let rec = Recorder::new();
        record_read(&rec, self, |w| w.range(start, end).try_for_each(|entry| entry.map(drop)))?;
        Ok(rec.proof())
    }

    /// Produce one proof for many keys: the distinct pages a loop of
    /// `get`s reads, so the interior pages their paths share appear once
    /// (see [`crate::verify_anchored_batch`]). No keys, no pages.
    fn prove_batch(&self, keys: &[Bytes]) -> Result<Proof> {
        let rec = Recorder::new();
        if !keys.is_empty() {
            record_read(&rec, self, |w| keys.iter().try_for_each(|key| w.get(key).map(drop)))?;
        }
        Ok(rec.proof())
    }

    /// Verify a proof against a trusted root digest. An associated function
    /// on purpose: verifiers hold only the digest, not the store.
    fn verify_proof(root: Hash, key: &[u8], proof: &Proof) -> ProofVerdict
    where
        Self: Sized;
}

/// How every proof is taken — the provided provers and the engine's alike:
/// run `read` on `index`'s [`SiriIndex::recording`] handle, so `rec` gains
/// the index's root page and then every page the read touches, each once,
/// in first-touch order. An empty version holds no key and no page: it is
/// not read, and records nothing.
pub fn record_read<I: SiriIndex>(
    rec: &Arc<Recorder>,
    index: &I,
    read: impl FnOnce(&I) -> Result<()>,
) -> Result<()> {
    if index.root().is_zero() {
        return Ok(());
    }
    read(&index.recording(rec)?)
}
