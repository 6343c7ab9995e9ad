//! The engine-or-wire session abstraction.
//!
//! [`Session`] is the narrow waist between *what a Forkbase client does*
//! (commit batches, read keys, stream ranges, manage branches, ask for
//! proofs) and *where the engine runs*. The in-process engine implements
//! it directly; `siri-client`'s `RemoteSession` implements it over the
//! length-prefixed wire protocol — so the CLI, the examples and the
//! behavioral test suites run unchanged against either side of a network
//! boundary (the integration suites run both sides of each
//! configuration).
//!
//! The trait is deliberately object-safe: callers hold a
//! `Box<dyn Session>` and never learn which transport answered them.
//!
//! It is also the engine's *only* read/write surface: the in-process
//! engine has no inherent `commit`, `get`, `range`, `fork`, … beside it,
//! so the CLI, the examples, the benchmarks and the tests all read and
//! write through this trait. It deliberately excludes engine-operator
//! surface, which stays inherent on the concrete engine because a remote
//! client has no business resizing a server's shards: re-attaching a
//! branch at a digest (`open_branch`), the collapsed head handle
//! (`head`), `bulk_load`, the merges, the shard hooks (`shard_count`,
//! `shard_stats`, `split_branch_shard`, `merge_branch_shards`) and the
//! statistics (`engine_stats`, `server_stats`, `server_store`).

use std::ops::Bound;

use siri_crypto::Hash;

use crate::{CommitInfo, EntryCursor, Proof, Result, WriteBatch};

/// One client's view of a versioned, branching key-value engine — local or
/// remote.
///
/// All methods take `&self`: sessions are shared across threads the same
/// way the engine itself is (the remote implementation serializes wire
/// round-trips internally).
///
/// # Contract
///
/// * [`commit`](Session::commit) is atomic per branch and returns a
///   [`CommitInfo`] receipt naming the parent and new head digests (and
///   per-shard receipts when the branch is sharded server-side).
/// * [`range`](Session::range)/[`scan_prefix`](Session::scan_prefix)
///   cursors are snapshots: entries observed come from one head version
///   even if the branch advances mid-scan. A remote cursor pages lazily,
///   but each page re-anchors at the *same* bounds after the last key
///   delivered, so a concurrent writer can at worst splice newer values
///   into not-yet-visited keys — never duplicate or reorder them.
/// * [`prove`](Session::prove)/[`prove_range`](Session::prove_range)/
///   [`prove_batch`](Session::prove_batch) return the anchor digest
///   alongside the proof. The digest is always the branch's *published
///   head digest* — identical to [`branch_digest`](Session::branch_digest)
///   — so a caller holding that digest from out of band verifies offline
///   with `siri_core::verify_anchored_*`. On a sharded branch the first
///   proof page is the shard manifest and each per-shard sub-proof anchors
///   at the sub-root the manifest names.
pub trait Session: Send + Sync {
    /// Apply one atomic batch to `branch`; returns the commit receipt.
    fn commit(&self, branch: &str, batch: WriteBatch) -> Result<CommitInfo>;

    /// Point lookup on the branch head.
    fn get(&self, branch: &str, key: &[u8]) -> Result<Option<bytes::Bytes>>;

    /// Streaming ordered range scan on the branch head, from `start` to
    /// `end` — each bound inclusive, exclusive or open as the caller passes
    /// it.
    fn range(&self, branch: &str, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<EntryCursor>;

    /// Streaming scan of every key starting with `prefix`.
    fn scan_prefix(&self, branch: &str, prefix: &[u8]) -> Result<EntryCursor> {
        let succ = crate::prefix_successor(prefix);
        let end = match &succ {
            Some(s) => Bound::Excluded(s.as_slice()),
            None => Bound::Unbounded,
        };
        self.range(branch, Bound::Included(prefix), end)
    }

    /// Create branch `to` at the current head of `from`.
    fn fork(&self, from: &str, to: &str) -> Result<()>;

    /// Delete a branch (its versions remain in the store until GC).
    fn delete_branch(&self, branch: &str) -> Result<()>;

    /// All live branch names, sorted.
    fn branches(&self) -> Result<Vec<String>>;

    /// The branch's published head digest (shard-manifest digest when the
    /// server keeps the branch sharded).
    fn branch_digest(&self, branch: &str) -> Result<Hash>;

    /// A Merkle proof for `key` on the branch head, plus the digest it
    /// verifies against — always the branch's published head digest
    /// ([`branch_digest`](Session::branch_digest)). On a sharded branch
    /// the first proof page is the [`crate::ShardManifest`] and the
    /// per-shard sub-proof anchors at its sub-root; verify with
    /// [`crate::verify_anchored_membership`].
    fn prove(&self, branch: &str, key: &[u8]) -> Result<(Hash, Proof)>;

    /// A range proof for `[start, end)` on the branch head, plus the
    /// digest it verifies against. Verification
    /// ([`crate::verify_anchored_range`]) yields exactly the entries in
    /// the range — a verified scan.
    fn prove_range(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<(Hash, Proof)>;

    /// One proof covering every key in `keys` on the branch head (shared
    /// interior pages deduplicated), plus the digest it verifies against.
    /// Verify with [`crate::verify_anchored_batch`].
    fn prove_batch(&self, branch: &str, keys: &[bytes::Bytes]) -> Result<(Hash, Proof)>;
}

/// A shared session is a session: whoever holds the `Arc` can hand it out
/// as a `Box<dyn Session>` and keep the engine alive with it.
impl<S: Session + ?Sized> Session for std::sync::Arc<S> {
    fn commit(&self, branch: &str, batch: WriteBatch) -> Result<CommitInfo> {
        (**self).commit(branch, batch)
    }
    fn get(&self, branch: &str, key: &[u8]) -> Result<Option<bytes::Bytes>> {
        (**self).get(branch, key)
    }
    fn range(&self, branch: &str, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<EntryCursor> {
        (**self).range(branch, start, end)
    }
    fn scan_prefix(&self, branch: &str, prefix: &[u8]) -> Result<EntryCursor> {
        (**self).scan_prefix(branch, prefix)
    }
    fn fork(&self, from: &str, to: &str) -> Result<()> {
        (**self).fork(from, to)
    }
    fn delete_branch(&self, branch: &str) -> Result<()> {
        (**self).delete_branch(branch)
    }
    fn branches(&self) -> Result<Vec<String>> {
        (**self).branches()
    }
    fn branch_digest(&self, branch: &str) -> Result<Hash> {
        (**self).branch_digest(branch)
    }
    fn prove(&self, branch: &str, key: &[u8]) -> Result<(Hash, Proof)> {
        (**self).prove(branch, key)
    }
    fn prove_range(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<(Hash, Proof)> {
        (**self).prove_range(branch, start, end)
    }
    fn prove_batch(&self, branch: &str, keys: &[bytes::Bytes]) -> Result<(Hash, Proof)> {
        (**self).prove_batch(branch, keys)
    }
}
