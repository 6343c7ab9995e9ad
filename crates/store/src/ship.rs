//! Page shipping and Merkle anti-entropy: transfer one index version
//! between stores (or sites), sending only the pages the receiver is
//! missing.
//!
//! This is the paper's Figure 1 "transmission" scenario as an operation:
//! deduplication doesn't just save disk, it saves the wire — a receiver
//! that already holds an earlier version needs only the δ pages of the new
//! one. The walk prunes at any page the receiver already has, because a
//! present page implies (by the Merkle property) that its entire subtree
//! is present too.
//!
//! [`sync_pull`] is the general engine: a *receiver-driven* walk that asks
//! an arbitrary page source (a local store, or a remote peer reached
//! through `siri-client`) for batches of missing pages. Because every
//! received page lands in the receiver's content-addressed store before
//! the next batch is requested, the protocol is restartable for free: a
//! sync cut short by a disconnect resumes by re-running it — the frontier
//! prunes at everything already landed, and only the unfinished tail
//! crosses the wire again. Between two in-process stores the fetch is a
//! closure over the source store.

use bytes::Bytes;
use siri_crypto::Hash;

use crate::{NodeStore, StoreError, StoreResult};

/// Statistics from one [`sync_pull`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Pages fetched from the source and landed in the receiver's store.
    pub pages_fetched: u64,
    /// Bytes fetched (page payloads; framing overhead not included).
    pub bytes_fetched: u64,
    /// Subtrees pruned because the receiver already held their root page.
    pub subtrees_skipped: u64,
    /// Fetch batches issued (wire round trips when the source is remote).
    pub round_trips: u64,
    /// Pages the *source* could not produce (dangling references on the
    /// sending side). The receiver's tree has holes under these; digest
    /// verification — not this walk — is what detects whether they matter.
    pub missing: u64,
    /// False when the walk stopped early at [`SyncOptions::max_pages`];
    /// re-running the same sync resumes where this one left off.
    pub complete: bool,
}

/// Tuning knobs for [`sync_pull`].
#[derive(Debug, Clone, Copy)]
pub struct SyncOptions {
    /// Missing-page hashes per fetch call (per wire round trip).
    pub batch: usize,
    /// Stop (cleanly, resumably) after landing this many pages. `None`
    /// runs to completion. This is the client-side budget that makes a
    /// sync interruptible at page granularity — and the test hook for the
    /// disconnect-mid-sync path.
    pub max_pages: Option<u64>,
}

impl Default for SyncOptions {
    fn default() -> Self {
        SyncOptions { batch: 64, max_pages: None }
    }
}

/// Land `settled` (storing its page, unless it was a source-side hole) and
/// propagate completion upward: any fetched parent waiting on it lands as
/// soon as its last child has, recursively.
fn settle(
    to: &dyn NodeStore,
    settled: Hash,
    page: Option<Bytes>,
    pending: &mut siri_crypto::FxHashMap<Hash, (Bytes, usize)>,
    waiters: &mut siri_crypto::FxHashMap<Hash, Vec<Hash>>,
) -> StoreResult<()> {
    let mut work = vec![(settled, page)];
    while let Some((h, page)) = work.pop() {
        if let Some(page) = page {
            to.try_put(page)?;
        }
        let Some(parents) = waiters.remove(&h) else { continue };
        for p in parents {
            let Some(entry) = pending.get_mut(&p) else { continue };
            entry.1 -= 1;
            if entry.1 == 0 {
                if let Some((bytes, _)) = pending.remove(&p) {
                    work.push((p, Some(bytes)));
                }
            }
        }
    }
    Ok(())
}

/// Receiver-driven Merkle anti-entropy: walk the version rooted at `root`,
/// pruning every subtree whose root page `to` already holds, and pull the
/// missing pages from `fetch` in batches.
///
/// `fetch` answers a batch of page hashes with the pages in the same
/// order (`None` where the source has no such page); it is the transport
/// seam — a closure over another local store, or one wire round trip.
/// `children` is the index's page decoder (e.g. `Node::children_of_page`).
///
/// Every fetched page is verified against its requested address before it
/// is stored (content addressing makes that free); a source that answers
/// with bytes that hash differently gets [`StoreError::Corrupt`], and the
/// junk page is *not* retained under the requested name — an anti-entropy
/// peer is untrusted by construction.
///
/// Pages land **child-before-parent**: a fetched index page is held aside
/// until every page beneath it is in the receiver's store, then stored.
/// That ordering is what makes the prune sound — "the receiver holds this
/// page" implies "the receiver holds its whole subtree" even when an
/// earlier sync of the same version was cut short, so an interrupted sync
/// resumes by re-running it: the walk prunes at every complete subtree
/// that already landed and re-fetches only the unfinished frontier (the
/// parent pages that were still waiting on children when the line
/// dropped). The held-aside set is bounded by the index's internal pages —
/// a small fraction of the transfer, and only along incomplete paths.
pub fn sync_pull<Fetch, Ch>(
    fetch: &mut Fetch,
    to: &dyn NodeStore,
    root: Hash,
    children: Ch,
    opts: &SyncOptions,
) -> StoreResult<SyncReport>
where
    Fetch: FnMut(&[Hash]) -> StoreResult<Vec<Option<Bytes>>>,
    Ch: Fn(&[u8]) -> Vec<Hash>,
{
    let mut report = SyncReport { complete: true, ..SyncReport::default() };
    if root.is_zero() {
        return Ok(report);
    }
    let batch_cap = opts.batch.max(1);
    let mut stack = vec![root];
    let mut visited = siri_crypto::FxHashSet::default();
    // Fetched index pages not yet stored: page bytes + how many of their
    // children are still outstanding.
    let mut pending: siri_crypto::FxHashMap<Hash, (Bytes, usize)> = Default::default();
    // child hash -> fetched parents waiting for it to land.
    let mut waiters: siri_crypto::FxHashMap<Hash, Vec<Hash>> = Default::default();
    // Hashes the source answered `None` for: resolved (parents may land),
    // but never stored.
    let mut holes = siri_crypto::FxHashSet::default();
    let mut wanted: Vec<Hash> = Vec::with_capacity(batch_cap);
    loop {
        // Drain the frontier into one batch of genuinely missing pages.
        wanted.clear();
        while wanted.len() < batch_cap {
            let Some(h) = stack.pop() else { break };
            if !visited.insert(h) {
                continue;
            }
            if to.contains(&h) {
                // Merkle property: the receiver holding this page implies
                // it holds everything beneath it (child-before-parent
                // landing keeps that true even across interrupted syncs).
                report.subtrees_skipped += 1;
                continue;
            }
            wanted.push(h);
        }
        if wanted.is_empty() {
            report.complete = stack.is_empty() && pending.is_empty();
            return Ok(report);
        }
        let pages = fetch(&wanted)?;
        if pages.len() != wanted.len() {
            return Err(StoreError::Corrupt("sync source answered with wrong page count"));
        }
        report.round_trips += 1;
        for (h, page) in wanted.iter().zip(pages) {
            let Some(page) = page else {
                // A dangling reference on the sending side: resolved for
                // the parents waiting on it (the hole is reported, not
                // fatal), never stored.
                report.missing += 1;
                holes.insert(*h);
                settle(to, *h, None, &mut pending, &mut waiters)?;
                continue;
            };
            if siri_crypto::sha256(&page) != *h {
                return Err(StoreError::Corrupt("sync page content does not match its address"));
            }
            report.pages_fetched += 1;
            report.bytes_fetched += page.len() as u64;
            let mut kids = children(&page);
            kids.sort_unstable();
            kids.dedup();
            let mut outstanding = 0usize;
            for c in kids {
                if holes.contains(&c) {
                    continue;
                }
                if to.contains(&c) {
                    // First sighting of an already-present subtree counts
                    // as a prune, same as the drain-side check.
                    if visited.insert(c) {
                        report.subtrees_skipped += 1;
                    }
                    continue;
                }
                // Queued, in flight, or held pending: wait on it.
                waiters.entry(c).or_default().push(*h);
                outstanding += 1;
                if !visited.contains(&c) {
                    stack.push(c);
                }
            }
            if outstanding == 0 {
                settle(to, *h, Some(page), &mut pending, &mut waiters)?;
            } else {
                pending.insert(*h, (page, outstanding));
            }
            if let Some(budget) = opts.max_pages {
                if report.pages_fetched >= budget {
                    report.complete = stack.is_empty() && pending.is_empty();
                    if !report.complete {
                        // Held-aside parents are dropped, not stored: the
                        // resumed sync re-fetches exactly that frontier.
                        return Ok(report);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use bytes::Bytes;

    fn children(page: &[u8]) -> Vec<Hash> {
        page.chunks_exact(32).filter_map(Hash::from_slice).collect()
    }

    /// Two-level page graph: root references two children.
    fn build(store: &MemStore, leaf_a: &[u8], leaf_b: &[u8]) -> Hash {
        let a = store.put(Bytes::copy_from_slice(leaf_a));
        let b = store.put(Bytes::copy_from_slice(leaf_b));
        let mut root = Vec::new();
        root.extend_from_slice(a.as_bytes());
        root.extend_from_slice(b.as_bytes());
        store.put(Bytes::from(root))
    }

    /// Pull `root` out of another in-process store in default batches.
    fn pull(src: &MemStore, dst: &MemStore, root: Hash) -> SyncReport {
        let mut fetch =
            |hs: &[Hash]| hs.iter().map(|h| src.try_get(h)).collect::<StoreResult<Vec<_>>>();
        sync_pull(&mut fetch, dst, root, children, &SyncOptions::default()).unwrap()
    }

    #[test]
    fn cold_receiver_gets_everything() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let root = build(&src, b"leaf one", b"leaf two");
        let report = pull(&src, &dst, root);
        assert_eq!(report.pages_fetched, 3);
        assert_eq!(report.subtrees_skipped, 0);
        assert!(dst.contains(&root));
    }

    #[test]
    fn warm_receiver_gets_only_the_delta() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let v1 = build(&src, b"shared leaf", b"old leaf");
        pull(&src, &dst, v1);

        // New version shares one leaf with v1.
        let v2 = build(&src, b"shared leaf", b"new leaf");
        let report = pull(&src, &dst, v2);
        assert_eq!(report.pages_fetched, 2, "new root + new leaf only");
        assert_eq!(report.subtrees_skipped, 1, "shared leaf pruned");
        assert!(dst.contains(&v2));
    }

    #[test]
    fn identical_version_costs_nothing() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let root = build(&src, b"a", b"b");
        pull(&src, &dst, root);
        let report = pull(&src, &dst, root);
        assert_eq!(report.pages_fetched, 0);
        assert_eq!(report.bytes_fetched, 0);
        assert_eq!(report.subtrees_skipped, 1, "pruned at the root");
    }

    #[test]
    fn empty_root_is_a_noop() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let report = pull(&src, &dst, Hash::ZERO);
        assert_eq!(report, SyncReport { complete: true, ..SyncReport::default() });
    }

    #[test]
    fn sync_pull_batches_and_reports_round_trips() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let root = build(&src, b"left", b"right");
        let mut calls = 0u64;
        let mut fetch = |hs: &[Hash]| {
            calls += 1;
            hs.iter().map(|h| src.try_get(h)).collect::<StoreResult<Vec<_>>>()
        };
        let opts = SyncOptions { batch: 1, ..SyncOptions::default() };
        let report = sync_pull(&mut fetch, &dst, root, children, &opts).unwrap();
        assert_eq!(report.pages_fetched, 3);
        assert_eq!(report.round_trips, 3);
        assert_eq!(report.round_trips, calls);
        assert!(report.complete);
        assert!(dst.contains(&root));
    }

    #[test]
    fn sync_pull_resumes_after_interruption() {
        let src = MemStore::new();
        let dst = MemStore::new();
        let root = build(&src, b"alpha", b"beta");
        let mut fetch =
            |hs: &[Hash]| hs.iter().map(|h| src.try_get(h)).collect::<StoreResult<Vec<_>>>();
        // First pull "disconnects" after one page: the root was fetched
        // but, with its children still outstanding, never stored.
        let cut = SyncOptions { batch: 1, max_pages: Some(1) };
        let first = sync_pull(&mut fetch, &dst, root, children, &cut).unwrap();
        assert_eq!(first.pages_fetched, 1);
        assert!(!first.complete);
        assert!(!dst.contains(&root), "an incomplete subtree's root must not land");
        // The retry re-fetches the unfinished frontier (here: the root)
        // and finishes the tail; completed subtrees would be pruned.
        let rest = sync_pull(&mut fetch, &dst, root, children, &SyncOptions::default()).unwrap();
        assert!(rest.complete);
        assert_eq!(rest.pages_fetched, 3, "root is re-fetched, leaves ship once");
        assert!(dst.contains(&root));
    }

    #[test]
    fn sync_pull_rejects_forged_pages() {
        let dst = MemStore::new();
        let src = MemStore::new();
        let root = build(&src, b"x", b"y");
        let mut fetch = |hs: &[Hash]| Ok(vec![Some(Bytes::from_static(b"forged")); hs.len()]);
        let err = sync_pull(&mut fetch, &dst, root, children, &SyncOptions::default());
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
        assert!(!dst.contains(&root), "forged page must not land under the requested name");
    }

    #[test]
    fn sync_pull_counts_source_holes() {
        let src = MemStore::new();
        let dst = MemStore::new();
        // Root references a child the source never stored.
        let ghost = siri_crypto::sha256(b"never stored");
        let root = src.put(Bytes::copy_from_slice(ghost.as_bytes()));
        let report = pull(&src, &dst, root);
        assert_eq!(report.pages_fetched, 1);
        assert_eq!(report.missing, 1);
    }
}
