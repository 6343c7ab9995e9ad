//! A proof is a recorded read (DESIGN.md §14).
//!
//! The paper defines a proof as "the nodes on the path to the root" (§2.3)
//! — the pages a lookup touched. Pages are immutable and content-addressed,
//! so a read is a pure function of the root digest: re-running it over a
//! hash-checked subset of the pages either returns the same answer or stops
//! at a missing page. Both halves of the verified-read contract are
//! therefore the ordinary read path, run twice:
//!
//! * **Prove** — run `get` / `range` / a loop of `get`s on the head's own
//!   handle, its reader in recording mode
//!   ([`SiriIndex::recording`](crate::SiriIndex::recording)): it borrows
//!   resident nodes from the node cache, decodes missing ones without
//!   installing them, and keeps each distinct node's page in a
//!   [`Recorder`], in first-touch order. That list *is* the proof.
//! * **Verify** — run the same read at the trusted digest over a
//!   [`PagePool`] built from the proof. The pool serves a page only by its
//!   content hash and only when its turn in the list has come, so the read
//!   succeeds iff the proof is exactly the recorded read: a dropped,
//!   flipped, truncated or reordered page is a missing page, and a
//!   duplicated or foreign one is left over ([`PagePool::all_used`]).
//!
//! There is no per-structure prover or verifier: [`ProofScheme`] only says
//! how to open a structure's reader over a page source.
//!
//! **Anchoring** — every proof starts with the page the trusted digest
//! names. On a sharded branch that is the
//! [`ShardManifest`](crate::ShardManifest), which routes each key (or
//! window) to the sub-roots it lists; otherwise it is the index root page
//! itself ([`open_head`] tells the two apart). Provers fetch it first even
//! when the read that follows touches nothing, so an empty proof can only
//! ever vouch for the zero digest.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use siri_crypto::{sha256, FxHashMap, Hash};
use siri_store::{NodeStore, SharedStore, StoreError, StoreResult, StoreStats};

use crate::shard::{open_head, ShardRouter};
use crate::{Entry, EntryCursor, IndexError, Proof, ProofVerdict, Result};

/// A proof's pages serve reads; a read path that tries to write is a bug.
fn read_only() -> StoreError {
    StoreError::Io {
        op: "put",
        kind: std::io::ErrorKind::Unsupported,
        detail: "proof pages are read-only".into(),
    }
}

#[derive(Default)]
struct Served {
    index: FxHashMap<Hash, usize>,
    pages: Vec<Bytes>,
}

/// The prover's record: each distinct page a read touched, in first-touch
/// order. A recording [`PageReader`](crate::PageReader) keeps every node's
/// page here and looks here before the store, so a batch of lookups fetches
/// its shared spine at most once.
#[derive(Default)]
pub struct Recorder {
    served: Mutex<Served>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::default()
    }

    fn served(&self) -> std::sync::MutexGuard<'_, Served> {
        self.served.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Keep `page` under the digest a verifier will ask for it by, unless
    /// the record holds that digest already. Page first, index second: an
    /// index entry always points at a page, so the record is valid at
    /// every step (and a poisoned lock can be recovered).
    pub fn note(&self, hash: Hash, page: &Bytes) {
        let mut served = self.served();
        if !served.index.contains_key(&hash) {
            served.pages.push(page.clone());
            let at = served.pages.len() - 1;
            served.index.insert(hash, at);
        }
    }

    /// The page kept under `hash`, if the record has it.
    pub(crate) fn page(&self, hash: &Hash) -> Option<Bytes> {
        let served = self.served();
        served.index.get(hash).map(|&at| served.pages[at].clone())
    }

    /// The pages kept so far, as a proof; the record starts over.
    pub fn proof(&self) -> Proof {
        Proof::new(std::mem::take(&mut *self.served()).pages)
    }
}

/// The verifier's store: a proof's pages indexed by content hash. A page
/// is served only once every page before it in the proof has been served,
/// so a read over the pool succeeds only on the exact page sequence an
/// honest prover recorded; fetching the same page again is free.
pub struct PagePool {
    pages: HashMap<Hash, (usize, Bytes)>,
    used: AtomicUsize,
}

impl PagePool {
    /// Index `pages` by content hash. Duplicate pages are rejected —
    /// honest provers record each page once, so a repeat is padding.
    pub fn build(pages: &[Bytes]) -> std::result::Result<Arc<PagePool>, &'static str> {
        let mut map = HashMap::with_capacity(pages.len());
        for (at, page) in pages.iter().enumerate() {
            if map.insert(sha256(page), (at, page.clone())).is_some() {
                return Err("duplicate page in proof");
            }
        }
        Ok(Arc::new(PagePool { pages: map, used: AtomicUsize::new(0) }))
    }

    /// Did the read consume every supplied page?
    pub fn all_used(&self) -> bool {
        self.used.load(Ordering::SeqCst) == self.pages.len()
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

impl NodeStore for PagePool {
    fn try_put(&self, _page: Bytes) -> StoreResult<Hash> {
        Err(read_only())
    }

    /// The returned page hashes to `hash` (that is its index), so readers
    /// never re-hash. A page asked for ahead of its turn is a miss.
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        let Some((at, page)) = self.pages.get(hash) else {
            return Ok(None);
        };
        // Take the turn if it is this page's; a lost race only ever turns
        // a hit into a miss.
        let _ = self.used.compare_exchange(*at, *at + 1, Ordering::SeqCst, Ordering::SeqCst);
        Ok((*at < self.used.load(Ordering::SeqCst)).then(|| page.clone()))
    }

    fn contains(&self, hash: &Hash) -> bool {
        self.pages.contains_key(hash)
    }

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// How to read one structure from a bare page source and a root digest —
/// behind a dyn-safe trait so a client can verify proofs for whatever
/// structure the server runs without compiling against it generically.
/// Implementations are stateless unit structs (`MptProofScheme`,
/// `MbtProofScheme`, …), one per index crate, and contain no traversal of
/// their own: they open the structure's ordinary reader.
pub trait ProofScheme: Send + Sync {
    /// Structure name as reported by `SiriIndex::kind` / factory `name`.
    fn structure(&self) -> &'static str;

    /// The structure's point lookup at `root` (non-zero) over `pages`.
    fn get(&self, pages: SharedStore, root: Hash, key: &[u8]) -> Result<Option<Bytes>>;

    /// The structure's range cursor at `root` (non-zero) over `pages`.
    fn range(
        &self,
        pages: SharedStore,
        root: Hash,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> EntryCursor;
}

/// Outcome of verifying a range proof: either the *complete* entry set of
/// `[start, end)` under the trusted digest, or a reason the proof is bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeVerdict {
    /// The proof is valid: these are exactly the entries in the range.
    Complete(Vec<Entry>),
    /// The proof does not verify against the digest.
    Invalid(&'static str),
}

impl RangeVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, RangeVerdict::Complete(_))
    }

    pub fn entries(&self) -> Option<&[Entry]> {
        match self {
            RangeVerdict::Complete(entries) => Some(entries),
            RangeVerdict::Invalid(_) => None,
        }
    }
}

/// Outcome of verifying a batched multi-key proof: one per-key verdict in
/// input order, or a reason the shared page set is bad. Per-key verdicts
/// are only `Present`/`Absent` — any structural invalidity rejects the
/// whole proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVerdict {
    Verified(Vec<ProofVerdict>),
    Invalid(&'static str),
}

impl BatchVerdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, BatchVerdict::Verified(_))
    }

    pub fn verdicts(&self) -> Option<&[ProofVerdict]> {
        match self {
            BatchVerdict::Verified(v) => Some(v),
            BatchVerdict::Invalid(_) => None,
        }
    }
}

/// A reader at a branch digest over a page source — manifest or bare root,
/// the caller does not need to know which (`branch_digest` is the only
/// hash a light client holds). This is the verifier's read: it replays
/// over a [`PagePool`] what the prover read on the head's own handles
/// (the same routing, the same skipped empty shards), so a proof verifies
/// only in the page order it was recorded in.
pub struct AnchoredReader<'a> {
    scheme: &'a dyn ProofScheme,
    pages: SharedStore,
    router: ShardRouter,
    roots: Vec<Hash>,
}

impl<'a> AnchoredReader<'a> {
    /// Resolve `digest` with [`open_head`]: fetch the page it names (none
    /// for the zero digest) and, if that is a manifest, take its router
    /// and sub-roots.
    pub fn open(scheme: &'a dyn ProofScheme, pages: SharedStore, digest: Hash) -> Result<Self> {
        let (router, roots) = open_head(pages.as_ref(), digest)?;
        Ok(AnchoredReader { scheme, pages, router, roots })
    }

    /// Point lookup in the shard that owns `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let root = self.roots[self.router.shard_of(key)];
        if root.is_zero() {
            return Ok(None); // an empty shard holds no key and no page
        }
        self.scheme.get(self.pages.clone(), root, key)
    }

    /// The entries of `[start, end)`: each covering shard's cursor drained
    /// in turn, in partition order.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<Vec<Entry>> {
        let (lo, hi) = self.router.covering(start, end);
        let mut out = Vec::new();
        for root in self.roots[lo..=hi].iter().filter(|root| !root.is_zero()) {
            for entry in self.scheme.range(self.pages.clone(), *root, start, end) {
                out.push(entry?);
            }
        }
        Ok(out)
    }
}

/// Replay `read` at `digest` over the proof's pages: `Ok` iff every page
/// the read asked for was there in turn and nothing was left over.
fn replay<T>(
    scheme: &dyn ProofScheme,
    digest: Hash,
    proof: &Proof,
    read: impl FnOnce(&AnchoredReader) -> Result<T>,
) -> std::result::Result<T, &'static str> {
    let pool = PagePool::build(proof.pages())?;
    let out = AnchoredReader::open(scheme, pool.clone(), digest).and_then(|at| read(&at));
    match out {
        Err(IndexError::MissingPage(_)) => Err("missing page in proof"),
        Err(IndexError::Codec(_)) => Err("page undecodable"),
        Err(IndexError::CorruptStructure(what)) => Err(what),
        Err(_) => Err("proof pages could not be read"),
        Ok(_) if !pool.all_used() => Err("unused pages in proof"),
        Ok(out) => Ok(out),
    }
}

fn verdict(value: Option<Bytes>) -> ProofVerdict {
    value.map_or(ProofVerdict::Absent, ProofVerdict::Present)
}

/// Verify a membership/non-membership proof against a trusted branch
/// digest.
pub fn verify_anchored_membership(
    scheme: &dyn ProofScheme,
    digest: Hash,
    key: &[u8],
    proof: &Proof,
) -> ProofVerdict {
    match replay(scheme, digest, proof, |at| at.get(key)) {
        Ok(value) => verdict(value),
        Err(why) => ProofVerdict::Invalid(why),
    }
}

/// Verify a range proof against a trusted branch digest: on success the
/// verdict carries *exactly* the entries of `[start, end)` — nothing
/// missing (the cursor read every page it needed), nothing extra (it read
/// nothing else, and the entries ascend strictly across shards).
pub fn verify_anchored_range(
    scheme: &dyn ProofScheme,
    digest: Hash,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    proof: &Proof,
) -> RangeVerdict {
    match replay(scheme, digest, proof, |at| at.range(start, end)) {
        Ok(entries) if entries.windows(2).any(|w| w[0].key >= w[1].key) => {
            RangeVerdict::Invalid("range entries out of order")
        }
        Ok(entries) => RangeVerdict::Complete(entries),
        Err(why) => RangeVerdict::Invalid(why),
    }
}

/// Verify a batched multi-key proof against a trusted branch digest. The
/// page set is shared: each key's lookup re-reads the spine through the
/// pool. Verdicts come back in `keys` order; an empty key set reads — and
/// so needs — nothing, not even the anchor page.
pub fn verify_anchored_batch(
    scheme: &dyn ProofScheme,
    digest: Hash,
    keys: &[Bytes],
    proof: &Proof,
) -> BatchVerdict {
    if keys.is_empty() {
        return if proof.is_empty() {
            BatchVerdict::Verified(Vec::new())
        } else {
            BatchVerdict::Invalid("pages for an empty key set")
        };
    }
    let read = |at: &AnchoredReader| keys.iter().map(|key| at.get(key).map(verdict)).collect();
    match replay(scheme, digest, proof, read) {
        Ok(verdicts) => BatchVerdict::Verified(verdicts),
        Err(why) => BatchVerdict::Invalid(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_serves_pages_in_proof_order_and_rejects_duplicates() {
        let a = Bytes::from_static(b"page a");
        let b = Bytes::from_static(b"page b");
        let pool = PagePool::build(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(!pool.all_used());
        // `b` before `a` is out of turn: a miss, and nothing is consumed.
        assert_eq!(pool.try_get(&sha256(&b)).unwrap(), None);
        assert_eq!(pool.try_get(&sha256(&a)).unwrap(), Some(a.clone()));
        // Repeated gets are allowed (identical pages recur across shards).
        assert_eq!(pool.try_get(&sha256(&a)).unwrap(), Some(a.clone()));
        assert!(!pool.all_used());
        assert_eq!(pool.try_get(&sha256(&b)).unwrap(), Some(b.clone()));
        assert!(pool.all_used());
        assert_eq!(pool.try_get(&sha256(b"absent")).unwrap(), None);
        assert!(pool.try_put(a.clone()).is_err(), "a proof is read-only");
        assert!(PagePool::build(&[a.clone(), a]).is_err(), "duplicates rejected");
    }

    #[test]
    fn recorder_keeps_distinct_pages_in_first_fetch_order() {
        let (a, b) = (Bytes::from_static(b"page a"), Bytes::from_static(b"page b"));
        let rec = Recorder::new();
        for page in [&b, &a, &b, &a] {
            rec.note(sha256(page), page);
        }
        assert_eq!(rec.page(&sha256(&a)), Some(a.clone()));
        assert_eq!(rec.page(&sha256(b"absent")), None);
        assert_eq!(rec.proof().pages(), &[b, a]);
        assert!(rec.proof().is_empty(), "taking the proof starts the record over");
    }

    #[test]
    fn zero_digest_vouches_for_nothing_and_needs_nothing() {
        struct NoScheme;
        impl ProofScheme for NoScheme {
            fn structure(&self) -> &'static str {
                "none"
            }
            fn get(&self, _: SharedStore, _: Hash, _: &[u8]) -> Result<Option<Bytes>> {
                unreachable!("zero digests never reach the scheme")
            }
            fn range(
                &self,
                _: SharedStore,
                _: Hash,
                _: Bound<&[u8]>,
                _: Bound<&[u8]>,
            ) -> EntryCursor {
                unreachable!()
            }
        }
        let empty = Proof::new(Vec::new());
        let junk = Proof::new(vec![Bytes::from_static(b"junk")]);
        assert_eq!(
            verify_anchored_membership(&NoScheme, Hash::ZERO, b"k", &empty),
            ProofVerdict::Absent
        );
        assert!(!verify_anchored_membership(&NoScheme, Hash::ZERO, b"k", &junk).is_valid());
        assert_eq!(
            verify_anchored_range(
                &NoScheme,
                Hash::ZERO,
                Bound::Unbounded,
                Bound::Unbounded,
                &empty
            ),
            RangeVerdict::Complete(Vec::new())
        );
        assert!(!verify_anchored_range(
            &NoScheme,
            Hash::ZERO,
            Bound::Unbounded,
            Bound::Unbounded,
            &junk
        )
        .is_valid());
        let keys = vec![Bytes::from_static(b"k")];
        assert_eq!(
            verify_anchored_batch(&NoScheme, Hash::ZERO, &keys, &empty),
            BatchVerdict::Verified(vec![ProofVerdict::Absent])
        );
        assert!(!verify_anchored_batch(&NoScheme, Hash::ZERO, &keys, &junk).is_valid());
        // No keys, no pages — whatever the digest.
        let digest = sha256(b"junk");
        assert_eq!(
            verify_anchored_batch(&NoScheme, digest, &[], &empty),
            BatchVerdict::Verified(Vec::new())
        );
        assert!(!verify_anchored_batch(&NoScheme, digest, &[], &junk).is_valid());
        // And an empty proof cannot vouch for a non-zero digest.
        assert!(!verify_anchored_membership(&NoScheme, digest, b"k", &empty).is_valid());
        assert!(!verify_anchored_batch(&NoScheme, digest, &keys, &empty).is_valid());
    }
}
