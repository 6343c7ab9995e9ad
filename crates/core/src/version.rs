//! A branching version manager over any [`SiriIndex`].
//!
//! Immutability makes versioning trivial — a version is just a retained
//! index handle (root hash). This module adds the bookkeeping that
//! collaborative applications need (§2.1's "non-linear" management à la
//! git): named branches, commit history, branching from any commit, and
//! rollback. It is used by the examples and the Wiki/collaboration
//! experiments.

use std::collections::HashMap;

use crate::{Result, SiriIndex};

/// Identifier of a committed version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionTag(pub u64);

/// One committed version.
#[derive(Debug, Clone)]
pub struct Commit<I> {
    pub tag: VersionTag,
    pub parent: Option<VersionTag>,
    pub message: String,
    pub index: I,
}

/// Branching commit graph over index snapshots.
pub struct VersionStore<I> {
    commits: Vec<Commit<I>>,
    branches: HashMap<String, VersionTag>,
}

impl<I: SiriIndex> Default for VersionStore<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: SiriIndex> VersionStore<I> {
    pub fn new() -> Self {
        VersionStore { commits: Vec::new(), branches: HashMap::new() }
    }

    /// Record `index` as the new head of `branch` (creating the branch if
    /// needed). Cloning the handle is O(1); pages are shared in the store.
    pub fn commit(&mut self, branch: &str, index: &I, message: impl Into<String>) -> VersionTag {
        let tag = VersionTag(self.commits.len() as u64);
        let parent = self.branches.get(branch).copied();
        self.commits.push(Commit { tag, parent, message: message.into(), index: index.clone() });
        self.branches.insert(branch.to_string(), tag);
        tag
    }

    /// The head commit of a branch.
    pub fn head(&self, branch: &str) -> Option<&Commit<I>> {
        self.branches.get(branch).map(|t| &self.commits[t.0 as usize])
    }

    /// Any commit by tag.
    pub fn get(&self, tag: VersionTag) -> Option<&Commit<I>> {
        self.commits.get(tag.0 as usize)
    }

    /// Create `new_branch` pointing at the head of `from` (or at a specific
    /// commit). Returns false if the source does not exist.
    pub fn branch(&mut self, new_branch: &str, from: &str) -> bool {
        match self.branches.get(from).copied() {
            Some(tag) => {
                self.branches.insert(new_branch.to_string(), tag);
                true
            }
            None => false,
        }
    }

    /// Move a branch head back `n` commits along its parent chain.
    /// Returns the new head tag, or `None` if the chain is shorter than `n`.
    pub fn rollback(&mut self, branch: &str, n: usize) -> Option<VersionTag> {
        let mut tag = self.branches.get(branch).copied()?;
        for _ in 0..n {
            tag = self.commits[tag.0 as usize].parent?;
        }
        self.branches.insert(branch.to_string(), tag);
        Some(tag)
    }

    /// Walk a branch's history from head to root.
    pub fn history(&self, branch: &str) -> Vec<&Commit<I>> {
        let mut out = Vec::new();
        let mut cur = self.branches.get(branch).copied();
        while let Some(tag) = cur {
            let commit = &self.commits[tag.0 as usize];
            out.push(commit);
            cur = commit.parent;
        }
        out
    }

    /// All commits, in commit order.
    pub fn commits(&self) -> &[Commit<I>] {
        &self.commits
    }

    /// Names of all branches.
    pub fn branch_names(&self) -> Vec<&str> {
        self.branches.keys().map(|s| s.as_str()).collect()
    }

    /// Diff the heads of two branches (paper §4.1.3 applied at the version
    /// level).
    pub fn diff_branches(&self, a: &str, b: &str) -> Result<Vec<crate::DiffEntry>> {
        match (self.head(a), self.head(b)) {
            (Some(ca), Some(cb)) => ca.index.diff(&cb.index),
            _ => Ok(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiffEntry, Entry, EntryCursor, Proof, ProofVerdict, WriteBatch};
    use bytes::Bytes;
    use siri_crypto::{sha256, Hash};
    use siri_store::{MemStore, PageBatch, PageSet, SharedStore};
    use std::collections::BTreeMap;
    use std::ops::Bound;

    /// Minimal in-memory SiriIndex for exercising the version manager
    /// without pulling an index crate into a dev-dependency cycle.
    #[derive(Clone)]
    struct FakeIndex {
        store: SharedStore,
        map: BTreeMap<Bytes, Bytes>,
    }

    impl FakeIndex {
        fn new() -> Self {
            FakeIndex { store: MemStore::new_shared(), map: BTreeMap::new() }
        }
    }

    impl crate::SiriIndex for FakeIndex {
        fn kind(&self) -> &'static str {
            "fake"
        }
        fn store(&self) -> &SharedStore {
            &self.store
        }
        fn root(&self) -> Hash {
            if self.map.is_empty() {
                return Hash::ZERO;
            }
            let mut bytes = Vec::new();
            for (k, v) in &self.map {
                bytes.extend_from_slice(k);
                bytes.push(0);
                bytes.extend_from_slice(v);
                bytes.push(1);
            }
            sha256(&bytes)
        }
        fn at_root(&self, _root: Hash) -> Self {
            // FakeIndex carries its content in the handle itself; version
            // tests only re-root to the current head, so a clone suffices.
            self.clone()
        }
        fn lookup(
            &self,
            key: &[u8],
            _: &mut impl crate::LookupTracer,
        ) -> crate::Result<Option<Bytes>> {
            Ok(self.map.get(key).cloned())
        }
        fn stage(&self, batch: WriteBatch, _: &mut PageBatch) -> crate::Result<Self> {
            let mut next = self.clone();
            for op in batch.normalize() {
                match op.value {
                    Some(v) => next.map.insert(op.key, v),
                    None => next.map.remove(&op.key),
                };
            }
            Ok(next)
        }
        fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> EntryCursor {
            let start = crate::own_bound(start).map(Bytes::from);
            let end = crate::own_bound(end).map(Bytes::from);
            let entries: Vec<_> = self
                .map
                .range((start, end))
                .map(|(k, v)| Ok(Entry { key: k.clone(), value: v.clone() }))
                .collect();
            EntryCursor::new(entries.into_iter())
        }
        fn page_set(&self) -> PageSet {
            PageSet::new()
        }
        fn diff(&self, other: &Self) -> crate::Result<Vec<DiffEntry>> {
            crate::diff_by_scan(self, other)
        }
        fn with_store(&self, store: SharedStore) -> Self {
            FakeIndex { store, map: self.map.clone() }
        }
        fn verify_proof(_root: Hash, _key: &[u8], _proof: &Proof) -> ProofVerdict {
            ProofVerdict::Absent
        }
    }

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn commit_head_and_history() {
        let mut idx = FakeIndex::new();
        let mut vs = VersionStore::new();
        idx.batch_insert(vec![e("a", "1")]).unwrap();
        let t0 = vs.commit("main", &idx, "first");
        idx.batch_insert(vec![e("b", "2")]).unwrap();
        let t1 = vs.commit("main", &idx, "second");
        assert_eq!(vs.head("main").unwrap().tag, t1);
        assert_eq!(vs.get(t0).unwrap().message, "first");
        let hist = vs.history("main");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].tag, t1, "newest first");
        assert_eq!(hist[1].parent, None);
    }

    #[test]
    fn branch_and_rollback_do_not_disturb_main() {
        let mut idx = FakeIndex::new();
        let mut vs = VersionStore::new();
        for i in 0..5 {
            idx.batch_insert(vec![e("k", &format!("v{i}"))]).unwrap();
            vs.commit("main", &idx, format!("c{i}"));
        }
        assert!(vs.branch("fix", "main"));
        assert!(!vs.branch("x", "no-such-branch"));
        let tag = vs.rollback("fix", 2).unwrap();
        assert_eq!(vs.get(tag).unwrap().index.get(b"k").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(vs.head("main").unwrap().index.get(b"k").unwrap().unwrap().as_ref(), b"v4");
        // Rolling back past the root returns None and leaves the head alone.
        assert!(vs.rollback("fix", 99).is_none());
    }

    #[test]
    fn diff_branches_reports_divergence() {
        let mut idx = FakeIndex::new();
        let mut vs = VersionStore::new();
        idx.batch_insert(vec![e("shared", "x")]).unwrap();
        vs.commit("main", &idx, "base");
        vs.branch("feature", "main");
        let mut feature_idx = vs.head("feature").unwrap().index.clone();
        feature_idx.batch_insert(vec![e("only-here", "y")]).unwrap();
        vs.commit("feature", &feature_idx, "feature work");
        let d = vs.diff_branches("main", "feature").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key.as_ref(), b"only-here");
        assert!(vs.diff_branches("main", "ghost").unwrap().is_empty());
    }

    #[test]
    fn branch_names_listed() {
        let idx = FakeIndex::new();
        let mut vs = VersionStore::new();
        vs.commit("main", &idx, "init");
        vs.branch("dev", "main");
        let mut names = vs.branch_names();
        names.sort_unstable();
        assert_eq!(names, vec!["dev", "main"]);
        assert_eq!(vs.commits().len(), 1);
    }
}
