//! Diff and merge — the paper's "comparison" and "merge" operations
//! (§4.1.3, §4.1.4).

use bytes::Bytes;

use crate::{Entry, IndexError, Result, SiriIndex, WriteBatch};

/// One differing key between two index instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    pub key: Bytes,
    /// Value on the left side, if present.
    pub left: Option<Bytes>,
    /// Value on the right side, if present.
    pub right: Option<Bytes>,
}

/// Classification of a [`DiffEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffSide {
    LeftOnly,
    RightOnly,
    /// Present on both sides with different values — a merge conflict
    /// candidate.
    Changed,
}

impl DiffEntry {
    pub fn side(&self) -> DiffSide {
        match (&self.left, &self.right) {
            (Some(_), None) => DiffSide::LeftOnly,
            (None, Some(_)) => DiffSide::RightOnly,
            _ => DiffSide::Changed,
        }
    }
}

/// Reference diff over sorted scans — the fallback used by tests to check
/// the structure-aware `diff` implementations, and by structures while a
/// subtree has to be enumerated anyway.
pub fn diff_by_scan<I: SiriIndex>(left: &I, right: &I) -> Result<Vec<DiffEntry>> {
    let l = left.scan()?;
    let r = right.scan()?;
    Ok(diff_sorted_entries(&l, &r))
}

/// Merge-join two sorted entry lists into diff records.
pub fn diff_sorted_entries(l: &[Entry], r: &[Entry]) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match l[i].key.cmp(&r[j].key) {
            std::cmp::Ordering::Less => {
                out.push(DiffEntry {
                    key: l[i].key.clone(),
                    left: Some(l[i].value.clone()),
                    right: None,
                });
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(DiffEntry {
                    key: r[j].key.clone(),
                    left: None,
                    right: Some(r[j].value.clone()),
                });
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if l[i].value != r[j].value {
                    out.push(DiffEntry {
                        key: l[i].key.clone(),
                        left: Some(l[i].value.clone()),
                        right: Some(r[j].value.clone()),
                    });
                }
                i += 1;
                j += 1;
            }
        }
    }
    for e in &l[i..] {
        out.push(DiffEntry { key: e.key.clone(), left: Some(e.value.clone()), right: None });
    }
    for e in &r[j..] {
        out.push(DiffEntry { key: e.key.clone(), left: None, right: Some(e.value.clone()) });
    }
    out
}

/// Conflict policy for [`merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Fail with [`IndexError::MergeConflict`] if any key differs on both
    /// sides — the paper's default ("the process must be interrupted and a
    /// selection strategy must be given by the end user", §4.1.4).
    #[default]
    Strict,
    /// Keep the left value on conflicts.
    PreferLeft,
    /// Take the right value on conflicts.
    PreferRight,
}

/// Result of a successful [`merge`] / [`merge_with_base`].
pub struct MergeOutcome<I> {
    /// The merged index.
    pub merged: I,
    /// Records imported from the right side (adds and, for three-way
    /// merges, edits applied cleanly).
    pub added_from_right: usize,
    /// Records removed because the right side deleted them since the base
    /// (always 0 for the two-way [`merge`], which cannot see deletions).
    pub removed_by_right: usize,
    /// Conflicting keys resolved by a non-strict strategy.
    pub conflicts_resolved: usize,
}

impl<I> std::fmt::Debug for MergeOutcome<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeOutcome")
            .field("added_from_right", &self.added_from_right)
            .field("removed_by_right", &self.removed_by_right)
            .field("conflicts_resolved", &self.conflicts_resolved)
            .finish_non_exhaustive()
    }
}

/// Combine all records from both indexes (§4.1.4). The merge runs as the
/// paper describes: a structural diff marks differing records, then the
/// right-side-only (and, per strategy, conflicting) records are applied on
/// top of a copy-on-write snapshot of the left side.
///
/// This two-way merge is a **union**: with only two snapshots, "present on
/// the left, absent on the right" is indistinguishable from "deleted on
/// the right", so deletions cannot propagate and left-only records always
/// survive. When branch histories contain deletes, merge from a common
/// ancestor with [`merge_with_base`] instead.
pub fn merge<I: SiriIndex>(
    left: &I,
    right: &I,
    strategy: MergeStrategy,
) -> Result<MergeOutcome<I>> {
    let diffs = left.diff(right)?;
    let mut to_apply: Vec<Entry> = Vec::new();
    let mut conflicts: Vec<DiffEntry> = Vec::new();
    let mut conflicts_resolved = 0usize;
    let mut added_from_right = 0usize;

    for DiffEntry { key, left, right } in diffs {
        match (left, right) {
            (None, Some(value)) => {
                added_from_right += 1;
                to_apply.push(Entry { key, value });
            }
            (_, None) => {} // left-only: already in the base snapshot
            (Some(left), Some(right)) => match strategy {
                MergeStrategy::Strict => {
                    conflicts.push(DiffEntry { key, left: Some(left), right: Some(right) })
                }
                MergeStrategy::PreferLeft => conflicts_resolved += 1,
                MergeStrategy::PreferRight => {
                    conflicts_resolved += 1;
                    to_apply.push(Entry { key, value: right });
                }
            },
        }
    }

    if !conflicts.is_empty() {
        return Err(IndexError::MergeConflict { conflicts });
    }

    let mut merged = left.clone();
    merged.batch_insert(to_apply)?;
    Ok(MergeOutcome { merged, added_from_right, removed_by_right: 0, conflicts_resolved })
}

/// Three-way merge from a common ancestor — the deletion-aware variant the
/// write-batch API makes necessary. `base` is the snapshot both branches
/// forked from; diffing each side against it makes deletions observable:
/// a key in `base` missing from one side was deleted there, and the
/// deletion propagates into the result unless the *other* side also
/// changed the key (edit-vs-delete is a conflict, resolved per strategy;
/// both sides converging on the same final state — including both
/// deleting — is not a conflict).
///
/// When only one side moved since the base nothing is built: if `right` is
/// still the base the result is `left` itself, and if `left` is still the
/// base it is a **fast-forward** — `left` re-rooted at `right`'s tree, whose
/// pages already exist, with the counts of the one `base.diff(right)`.
/// Otherwise the result is built by committing one [`WriteBatch`] of the
/// right side's effective changes (puts *and* deletes) onto a copy-on-write
/// snapshot of `left`, so a merge still costs O(δ) and one version.
pub fn merge_with_base<I: SiriIndex>(
    base: &I,
    left: &I,
    right: &I,
    strategy: MergeStrategy,
) -> Result<MergeOutcome<I>> {
    use std::collections::BTreeMap;
    if right.root() == base.root() {
        return Ok(MergeOutcome {
            merged: left.clone(),
            added_from_right: 0,
            removed_by_right: 0,
            conflicts_resolved: 0,
        });
    }
    let right_changes = base.diff(right)?;
    // Fast-forward only onto a tree `left`'s store can read, and never for
    // the ablation whose versions must not share pages.
    if left.root() == base.root()
        && left.recursively_identical()
        && left.store().contains(&right.root())
    {
        let added_from_right = right_changes.iter().filter(|d| d.right.is_some()).count();
        return Ok(MergeOutcome {
            merged: left.at_root(right.root()),
            added_from_right,
            removed_by_right: right_changes.len() - added_from_right,
            conflicts_resolved: 0,
        });
    }
    // For each changed key, the side's *final* state: Some(v) = added or
    // edited to v, None = deleted (diff is against base, so `d.right` is
    // the side's value and its absence means the side dropped the key).
    let left_changes: BTreeMap<Bytes, Option<Bytes>> =
        base.diff(left)?.into_iter().map(|d| (d.key, d.right)).collect();

    let mut batch = WriteBatch::new();
    let mut conflicts: Vec<DiffEntry> = Vec::new();
    let mut added_from_right = 0usize;
    let mut removed_by_right = 0usize;
    let mut conflicts_resolved = 0usize;

    for d in right_changes {
        let right_final = d.right;
        match left_changes.get(&d.key) {
            // Untouched on the left: the right side's change applies.
            None => match right_final {
                Some(v) => {
                    added_from_right += 1;
                    batch.put(d.key, v);
                }
                None => {
                    removed_by_right += 1;
                    batch.delete(d.key);
                }
            },
            // Both sides changed it identically (same edit, or both
            // deleted): converged, nothing to do and nothing to flag.
            Some(left_final) if *left_final == right_final => {}
            // Genuine divergence since the base.
            Some(left_final) => match strategy {
                MergeStrategy::Strict => {
                    conflicts.push(DiffEntry {
                        key: d.key,
                        left: left_final.clone(),
                        right: right_final,
                    });
                }
                MergeStrategy::PreferLeft => conflicts_resolved += 1,
                MergeStrategy::PreferRight => {
                    conflicts_resolved += 1;
                    match right_final {
                        Some(v) => batch.put(d.key, v),
                        None => batch.delete(d.key),
                    };
                }
            },
        }
    }

    if !conflicts.is_empty() {
        return Err(IndexError::MergeConflict { conflicts });
    }

    let mut merged = left.clone();
    merged.commit(batch)?;
    Ok(MergeOutcome { merged, added_from_right, removed_by_right, conflicts_resolved })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn diff_sorted_classifies_sides() {
        let l = vec![e("a", "1"), e("b", "1"), e("c", "1")];
        let r = vec![e("b", "2"), e("c", "1"), e("d", "9")];
        let d = diff_sorted_entries(&l, &r);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].side(), DiffSide::LeftOnly); // a
        assert_eq!(d[1].side(), DiffSide::Changed); // b
        assert_eq!(d[2].side(), DiffSide::RightOnly); // d
    }

    #[test]
    fn diff_of_identical_lists_is_empty() {
        let l = vec![e("a", "1"), e("b", "2")];
        assert!(diff_sorted_entries(&l, &l).is_empty());
    }

    #[test]
    fn diff_with_empty_side() {
        let l = vec![e("a", "1")];
        let d = diff_sorted_entries(&l, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].side(), DiffSide::LeftOnly);
        let d = diff_sorted_entries(&[], &l);
        assert_eq!(d[0].side(), DiffSide::RightOnly);
    }
}
