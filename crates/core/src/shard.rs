//! Key-range sharding of a branch head: the router, the content-addressed
//! shard manifest, and the cursor merge that keeps reads logical.
//!
//! A sharded branch replaces its single mutable head with `N` per-range
//! sub-roots plus one tiny **manifest** page describing the partition.
//! The manifest is encoded canonically and stored like any other node, so
//! a sharded branch head is still *one* content address: equal partitions
//! over equal sub-roots hash identically, commits can exchange or persist
//! the digest, and tamper evidence covers the partition itself.
//!
//! Four pieces live here because they are engine-agnostic:
//!
//! * [`ShardRouter`] — maps keys (and whole normalized batches) to shard
//!   indexes given the sorted boundary list;
//! * [`ShardManifest`] — the boundary list plus per-shard sub-roots, with
//!   its canonical codec ([`ShardManifest::encode`] /
//!   [`ShardManifest::decode`]);
//! * the head-digest rule — one shard's digest is its sub-root, more
//!   shards' is their manifest's — written by [`head_digest`] and read by
//!   [`open_head`], and nowhere else;
//! * [`chain_cursors`] — the k-way merge across per-shard range cursors.
//!   Because shards partition the key space into *disjoint, ordered*
//!   ranges, the merge degenerates into ordered concatenation: cursor `i`
//!   is exhausted strictly before cursor `i+1` begins.

use std::ops::Bound;

use bytes::Bytes;
use siri_crypto::{sha256, Hash};
use siri_encoding::{ByteReader, ByteWriter, CodecError};
use siri_store::{NodeStore, PageBatch};

use crate::cursor::EntryCursor;
use crate::{BatchOp, IndexError, WriteBatch};

/// Magic prefix distinguishing a shard manifest page from every node
/// encoding (all node codecs start with a small tag byte; `b'S'` = 0x53
/// followed by three more magic bytes makes an accidental match require a
/// forged page).
pub const MANIFEST_MAGIC: [u8; 4] = *b"SiMF";

/// Manifest codec version.
const MANIFEST_VERSION: u8 = 1;

/// Routes keys to shards over a sorted list of boundary keys.
///
/// `boundaries` holds `N-1` strictly ascending split points defining `N`
/// half-open ranges: shard `0` covers `[.., b0)`, shard `i` covers
/// `[b(i-1), b(i))`, and the last shard covers `[b(N-2), ..)`. An empty
/// boundary list is the unsharded (single-range) router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    boundaries: Vec<Bytes>,
}

impl ShardRouter {
    /// A single-shard router (the unsharded degenerate case).
    pub fn single() -> Self {
        ShardRouter { boundaries: Vec::new() }
    }

    /// A router over explicit split points. Boundaries must be strictly
    /// ascending; violations are an internal bug, guarded in debug builds.
    pub fn new(boundaries: Vec<Bytes>) -> Self {
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly ascending"
        );
        ShardRouter { boundaries }
    }

    /// A router splitting the key space into `n` ranges at uniform
    /// single-byte prefixes (`n` clamped to `1..=256`). With keys spread
    /// over the byte space this balances load without knowing the data.
    pub fn uniform(n: usize) -> Self {
        let n = n.clamp(1, 256);
        let boundaries = (1..n).map(|i| Bytes::from(vec![(i * 256 / n) as u8])).collect();
        ShardRouter { boundaries }
    }

    pub fn shard_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    pub fn boundaries(&self) -> &[Bytes] {
        &self.boundaries
    }

    /// The shard owning `key`: the number of boundaries ≤ `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_ref() <= key)
    }

    /// The half-open key range shard `i` owns, as cursor bounds.
    pub fn shard_range(&self, i: usize) -> (Bound<Bytes>, Bound<Bytes>) {
        let start =
            if i == 0 { Bound::Unbounded } else { Bound::Included(self.boundaries[i - 1].clone()) };
        let end = match self.boundaries.get(i) {
            Some(b) => Bound::Excluded(b.clone()),
            None => Bound::Unbounded,
        };
        (start, end)
    }

    /// The inclusive span of shard indexes a range query can touch.
    /// Conservative on exclusive bounds that land exactly on a boundary
    /// (the extra shard's cursor is simply empty).
    pub fn covering(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> (usize, usize) {
        let lo = match start {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => self.shard_of(k),
        };
        let hi = match end {
            Bound::Unbounded => self.shard_count() - 1,
            Bound::Included(k) | Bound::Excluded(k) => self.shard_of(k),
        };
        (lo, hi.max(lo))
    }

    /// Split a batch by shard: normalize once, then group the sorted ops
    /// into per-shard runs. Only touched shards appear in the result; an
    /// empty batch routes to shard 0 with an empty op list so an
    /// empty commit still publishes exactly one (unchanged) sub-root.
    pub fn route(&self, batch: WriteBatch) -> Vec<(usize, Vec<BatchOp>)> {
        self.route_ops(batch.normalize())
    }

    /// [`ShardRouter::route`] over already-normalized (sorted, key-unique)
    /// ops.
    pub fn route_ops(&self, ops: Vec<BatchOp>) -> Vec<(usize, Vec<BatchOp>)> {
        if ops.is_empty() {
            return vec![(0, Vec::new())];
        }
        let mut out: Vec<(usize, Vec<BatchOp>)> = Vec::new();
        for op in ops {
            let shard = self.shard_of(&op.key);
            match out.last_mut() {
                Some((s, run)) if *s == shard => run.push(op),
                _ => out.push((shard, vec![op])),
            }
        }
        out
    }
}

/// The content-addressed description of a sharded branch head: the
/// partition boundaries and one sub-root per shard. Encoded canonically,
/// its SHA-256 *is* the branch head digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// `N-1` strictly ascending split points (see [`ShardRouter`]).
    pub boundaries: Vec<Bytes>,
    /// `N` sub-roots, one per key range, in range order.
    pub roots: Vec<Hash>,
}

impl ShardManifest {
    pub fn new(boundaries: Vec<Bytes>, roots: Vec<Hash>) -> Self {
        debug_assert_eq!(boundaries.len() + 1, roots.len(), "N ranges need N roots");
        ShardManifest { boundaries, roots }
    }

    pub fn shard_count(&self) -> usize {
        self.roots.len()
    }

    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.boundaries.clone())
    }

    /// Canonical encoding: magic, version, shard count, boundaries
    /// (length-prefixed), then the raw 32-byte sub-roots.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(
            MANIFEST_MAGIC.len() + 2 + self.roots.len() * 33 + self.boundaries.len() * 8,
        );
        w.put_raw(&MANIFEST_MAGIC);
        w.put_u8(MANIFEST_VERSION);
        w.put_varint(self.roots.len() as u64);
        for b in &self.boundaries {
            w.put_bytes(b);
        }
        for r in &self.roots {
            w.put_raw(r.as_bytes());
        }
        w.into_vec()
    }

    /// The digest of the canonical encoding — the branch head address.
    pub fn digest(&self) -> Hash {
        sha256(&self.encode())
    }

    /// Decode a manifest page, validating magic, version, boundary order
    /// and exact length. Total: malformed input is a [`CodecError`], never
    /// a panic.
    pub fn decode(page: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(page);
        if r.get_raw(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(CodecError::BadTag(page.first().copied().unwrap_or(0)));
        }
        let version = r.get_u8()?;
        if version != MANIFEST_VERSION {
            return Err(CodecError::BadTag(version));
        }
        let n = r.get_varint()? as usize;
        // Each shard needs a 32-byte root and each boundary at least its
        // 1-byte length: a count the page cannot hold allocates nothing.
        if n == 0 || n > 1 << 20 || 33 * n - 1 > r.remaining() {
            return Err(CodecError::BadLength { what: "manifest shard count" });
        }
        let mut boundaries = Vec::with_capacity(n - 1);
        for _ in 0..n - 1 {
            boundaries.push(Bytes::copy_from_slice(r.get_bytes()?));
        }
        if !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::BadLength { what: "manifest boundaries" });
        }
        let mut roots = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.get_raw(32)?;
            let mut arr = [0u8; 32];
            arr.copy_from_slice(raw);
            roots.push(Hash::from_bytes(arr));
        }
        r.finish()?;
        Ok(ShardManifest { boundaries, roots })
    }

    /// Cheap shape test: does this page look like a manifest? (Full
    /// validation still happens in [`ShardManifest::decode`].)
    pub fn is_manifest(page: &[u8]) -> bool {
        page.len() > MANIFEST_MAGIC.len() && page[..MANIFEST_MAGIC.len()] == MANIFEST_MAGIC
    }
}

/// The head-digest rule, write side: a one-shard head's digest is its
/// sub-root; a head of more shards is named by a [`ShardManifest`] page
/// over `router`'s boundaries and `roots`, which goes into `pages` (hashed
/// on the way in, as every batched page is), and the digest is that page's
/// hash.
pub fn head_digest(router: &ShardRouter, roots: Vec<Hash>, pages: &mut PageBatch) -> Hash {
    if let [root] = roots[..] {
        return root;
    }
    pages.push(Bytes::from(ShardManifest::new(router.boundaries().to_vec(), roots).encode()))
}

/// The head-digest rule, read side: the partition and sub-roots `digest`
/// names in `store`. The zero digest is one empty shard, a digest whose
/// page is a [`ShardManifest`] is that manifest's partition, and any other
/// digest is one shard rooted at itself.
pub fn open_head(store: &dyn NodeStore, digest: Hash) -> crate::Result<(ShardRouter, Vec<Hash>)> {
    if !digest.is_zero() {
        let page = store.try_get(&digest)?.ok_or(IndexError::MissingPage(digest))?;
        if ShardManifest::is_manifest(&page) {
            let manifest = ShardManifest::decode(&page)?;
            return Ok((manifest.router(), manifest.roots));
        }
    }
    Ok((ShardRouter::single(), vec![digest]))
}

/// Merge per-shard cursors into one logical stream. Shards partition the
/// key space into disjoint ascending ranges, so the k-way merge reduces to
/// ordered concatenation — zero comparisons, zero buffering. Cursors must
/// be passed in shard (range) order.
pub fn chain_cursors(cursors: Vec<EntryCursor>) -> EntryCursor {
    let mut iter = cursors.into_iter();
    match (iter.next(), iter.len()) {
        (Some(only), 0) => only,
        (Some(first), _) => EntryCursor::new(std::iter::once(first).chain(iter).flatten()),
        (None, _) => EntryCursor::empty(),
    }
}

/// The per-shard slice of one sharded commit receipt: which shard moved,
/// from which sub-root to which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCommit {
    /// Shard index within the branch's partition at publish time.
    pub shard: usize,
    /// The shard's sub-root the batch slice was built against.
    pub parent: Hash,
    /// The sub-root the slice published.
    pub root: Hash,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entry;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn shard_of_respects_boundaries() {
        let r = ShardRouter::new(vec![b("g"), b("p")]);
        assert_eq!(r.shard_count(), 3);
        assert_eq!(r.shard_of(b"a"), 0);
        assert_eq!(r.shard_of(b"fzz"), 0);
        assert_eq!(r.shard_of(b"g"), 1, "boundary key belongs to the right shard");
        assert_eq!(r.shard_of(b"m"), 1);
        assert_eq!(r.shard_of(b"p"), 2);
        assert_eq!(r.shard_of(b"zzz"), 2);
    }

    #[test]
    fn single_router_routes_everything_to_shard_zero() {
        let r = ShardRouter::single();
        assert_eq!(r.shard_count(), 1);
        assert_eq!(r.shard_of(b""), 0);
        assert_eq!(r.shard_of(&[0xff; 40]), 0);
        let (lo, hi) = r.covering(Bound::Unbounded, Bound::Unbounded);
        assert_eq!((lo, hi), (0, 0));
    }

    #[test]
    fn uniform_router_covers_the_byte_space() {
        let r = ShardRouter::uniform(4);
        assert_eq!(r.shard_count(), 4);
        let expect: Vec<Bytes> =
            [0x40u8, 0x80, 0xc0].iter().map(|&x| Bytes::from(vec![x])).collect();
        assert_eq!(r.boundaries(), &expect[..]);
        assert_eq!(r.shard_of(&[0x00]), 0);
        assert_eq!(r.shard_of(&[0x40]), 1);
        assert_eq!(r.shard_of(&[0x7f, 0xff]), 1);
        assert_eq!(r.shard_of(&[0xc0, 0x01]), 3);
        // Degenerate and clamped sizes.
        assert_eq!(ShardRouter::uniform(0).shard_count(), 1);
        assert_eq!(ShardRouter::uniform(1).shard_count(), 1);
        assert_eq!(ShardRouter::uniform(1000).shard_count(), 256);
    }

    #[test]
    fn route_groups_sorted_runs_and_keeps_empty_batch() {
        let r = ShardRouter::new(vec![b("g"), b("p")]);
        let mut batch = WriteBatch::new();
        batch.put(b("zebra"), b("1"));
        batch.put(b("apple"), b("2"));
        batch.delete(b("hippo"));
        batch.put(b("ant"), b("3"));
        let routed = r.route(batch);
        let shards: Vec<usize> = routed.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 1, 2], "sorted ops group into ascending runs");
        assert_eq!(routed[0].1.len(), 2);
        assert_eq!(routed[1].1.len(), 1);
        assert!(routed[1].1[0].is_delete());
        // Empty batches still route (to shard 0) so empty commits publish.
        assert_eq!(r.route(WriteBatch::new()), vec![(0, Vec::new())]);
    }

    #[test]
    fn covering_brackets_range_bounds() {
        let r = ShardRouter::new(vec![b("g"), b("p")]);
        assert_eq!(r.covering(Bound::Included(b"a"), Bound::Excluded(b"f")), (0, 0));
        assert_eq!(r.covering(Bound::Included(b"a"), Bound::Included(b"m")), (0, 1));
        assert_eq!(r.covering(Bound::Excluded(b"h"), Bound::Unbounded), (1, 2));
        assert_eq!(r.covering(Bound::Unbounded, Bound::Unbounded), (0, 2));
        // Inverted-looking bounds still produce a non-empty (clamped) span.
        assert_eq!(r.covering(Bound::Included(b"z"), Bound::Excluded(b"a")), (2, 2));
    }

    #[test]
    fn shard_range_tiles_the_key_space() {
        let r = ShardRouter::new(vec![b("g"), b("p")]);
        assert_eq!(r.shard_range(0), (Bound::Unbounded, Bound::Excluded(b("g"))));
        assert_eq!(r.shard_range(1), (Bound::Included(b("g")), Bound::Excluded(b("p"))));
        assert_eq!(r.shard_range(2), (Bound::Included(b("p")), Bound::Unbounded));
    }

    #[test]
    fn manifest_round_trips_and_is_canonical() {
        let m = ShardManifest::new(
            vec![b("g"), b("p")],
            vec![sha256(b"a"), sha256(b"b"), sha256(b"c")],
        );
        let page = m.encode();
        assert!(ShardManifest::is_manifest(&page));
        let back = ShardManifest::decode(&page).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.digest(), m.digest());
        // Different partitions or roots ⇒ different digests.
        let m2 = ShardManifest::new(
            vec![b("g"), b("q")],
            vec![sha256(b"a"), sha256(b"b"), sha256(b"c")],
        );
        assert_ne!(m2.digest(), m.digest());
        let m3 = ShardManifest::new(
            vec![b("g"), b("p")],
            vec![sha256(b"a"), sha256(b"b"), sha256(b"d")],
        );
        assert_ne!(m3.digest(), m.digest());
    }

    #[test]
    fn manifest_decode_is_total() {
        let good = ShardManifest::new(vec![b("m")], vec![sha256(b"l"), sha256(b"r")]).encode();
        // Truncations never panic.
        for cut in 0..good.len() {
            assert!(ShardManifest::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(ShardManifest::decode(&long), Err(CodecError::TrailingBytes)));
        // Wrong magic / version / order are rejected.
        assert!(ShardManifest::decode(b"nope").is_err());
        let mut bad_ver = good.clone();
        bad_ver[4] = 99;
        assert!(ShardManifest::decode(&bad_ver).is_err());
        let unsorted =
            ShardManifest { boundaries: vec![b("p"), b("g")], roots: vec![sha256(b"x"); 3] }
                .encode();
        assert!(ShardManifest::decode(&unsorted).is_err());
        // A node-looking page is not a manifest.
        assert!(!ShardManifest::is_manifest(&[0x01, 0x02, 0x03]));
        // An 8-byte page claiming 2^20 shards is refused before anything
        // is reserved for them.
        let mut huge = MANIFEST_MAGIC.to_vec();
        huge.extend_from_slice(&[MANIFEST_VERSION, 0x80, 0x80, 0x40]);
        assert_eq!(huge.len(), 8);
        assert_eq!(
            ShardManifest::decode(&huge),
            Err(CodecError::BadLength { what: "manifest shard count" })
        );
    }

    #[test]
    fn head_digest_rule_round_trips_through_the_store() {
        let store = siri_store::MemStore::new();
        // One shard: the digest is the sub-root, and there is no page.
        let root = sha256(b"only");
        let mut pages = PageBatch::new();
        assert_eq!(head_digest(&ShardRouter::single(), vec![root], &mut pages), root);
        assert!(pages.pages().is_empty());
        store.put(Bytes::from_static(b"only"));
        assert_eq!(open_head(&store, root).unwrap(), (ShardRouter::single(), vec![root]));
        // Several: the digest names the manifest page the caller stores.
        let router = ShardRouter::new(vec![b("g"), b("p")]);
        let roots = vec![sha256(b"a"), Hash::ZERO, sha256(b"c")];
        let digest = head_digest(&router, roots.clone(), &mut pages);
        assert_eq!(
            digest,
            ShardManifest::new(router.boundaries().to_vec(), roots.clone()).digest()
        );
        let [(hash, page)] = pages.pages() else { panic!("a sharded head has one manifest page") };
        assert_eq!((store.put(page.clone()), *hash), (digest, digest));
        assert_eq!(open_head(&store, digest).unwrap(), (router, roots));
        // The zero digest is one empty shard and reads nothing.
        assert_eq!(
            open_head(&store, Hash::ZERO).unwrap(),
            (ShardRouter::single(), vec![Hash::ZERO])
        );
        assert!(matches!(open_head(&store, sha256(b"gone")), Err(IndexError::MissingPage(_))));
    }

    #[test]
    fn chain_cursors_concatenates_in_order() {
        let mk = |lo: u8, hi: u8| {
            EntryCursor::new(
                (lo..hi).map(|i| Ok(Entry::new(vec![i], vec![i]))).collect::<Vec<_>>().into_iter(),
            )
        };
        let merged = chain_cursors(vec![mk(0, 3), mk(3, 5), mk(5, 9)]);
        let keys: Vec<u8> = merged.map(|e| e.unwrap().key[0]).collect();
        assert_eq!(keys, (0..9).collect::<Vec<u8>>());
        assert_eq!(chain_cursors(Vec::new()).count(), 0);
    }
}
