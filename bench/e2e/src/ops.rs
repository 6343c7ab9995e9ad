//! The op vocabulary every workload is written in, the outcome an executor
//! hands back, and the `BTreeMap` oracle each outcome is checked against.
//! Checking always happens after the op's timed window has closed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

use siri::crypto::Sha256;
use siri::{Bytes, DiffEntry, Entry, Hash, Proof, WriteBatch};

pub type Branch = &'static str;

#[derive(Debug, Clone)]
pub enum Op {
    Get {
        branch: Branch,
        key: Bytes,
    },
    /// Stream up to `limit` entries from `start` (inclusive).
    Scan {
        branch: Branch,
        start: Bytes,
        limit: usize,
    },
    Commit {
        branch: Branch,
        batch: WriteBatch,
    },
    /// A read whose value arrives inside a proof the caller verifies.
    VerifiedGet {
        branch: Branch,
        key: Bytes,
    },
    VerifiedGetMany {
        branch: Branch,
        keys: Vec<Bytes>,
    },
    Fork {
        from: Branch,
        to: Branch,
    },
    Diff {
        a: Branch,
        b: Branch,
    },
    /// Three-way merge of `other` into `into` from the version `other` was
    /// forked at; conflicts take `other`'s value.
    Merge {
        into: Branch,
        other: Branch,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Get,
    Scan,
    Commit,
    VerifiedGet,
    VerifiedGetMany,
    Fork,
    Diff,
    Merge,
}

pub const KINDS: [Kind; 8] = [
    Kind::Get,
    Kind::Scan,
    Kind::Commit,
    Kind::VerifiedGet,
    Kind::VerifiedGetMany,
    Kind::Fork,
    Kind::Diff,
    Kind::Merge,
];

impl Kind {
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { .. } => Kind::Get,
            Op::Scan { .. } => Kind::Scan,
            Op::Commit { .. } => Kind::Commit,
            Op::VerifiedGet { .. } => Kind::VerifiedGet,
            Op::VerifiedGetMany { .. } => Kind::VerifiedGetMany,
            Op::Fork { .. } => Kind::Fork,
            Op::Diff { .. } => Kind::Diff,
            Op::Merge { .. } => Kind::Merge,
        }
    }

    /// Key plus value bytes this op asks the system to store.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::Commit { batch, .. } => batch_user_bytes(batch),
            _ => 0,
        }
    }
}

pub fn batch_user_bytes(batch: &WriteBatch) -> u64 {
    batch
        .ops()
        .iter()
        .map(|op| match op {
            siri::Op::Put(e) => e.payload_size() as u64,
            siri::Op::Delete(_) => 0,
        })
        .sum()
}

pub fn entries_user_bytes(entries: &[Entry]) -> u64 {
    entries.iter().map(|e| e.payload_size() as u64).sum()
}

/// What an executor observed. Proofs come back whole so their size and
/// page count can be read, and so the kernel pass can re-verify them.
#[derive(Debug)]
pub enum Outcome {
    Value(Option<Bytes>),
    Entries(Vec<Entry>),
    Committed { root: Hash, shards: usize },
    Proved { digest: Hash, value: Option<Bytes>, proof: Proof },
    ProvedMany { digest: Hash, values: Vec<Option<Bytes>>, proof: Proof },
    Done,
    Diff(Vec<DiffEntry>),
    Merged { root: Hash },
}

type Map = BTreeMap<Bytes, Bytes>;

/// Reference state of every branch, advanced by the same ops the system
/// under test receives.
#[derive(Default, Clone)]
pub struct Oracle {
    branches: HashMap<Branch, Map>,
    /// Keys each forked branch has written since its fork, with the value
    /// they had at the fork — what a three-way merge from the fork point
    /// compares against.
    touched: HashMap<Branch, BTreeMap<Bytes, Option<Bytes>>>,
}

impl Oracle {
    pub fn with_master(entries: &[Entry]) -> Self {
        let mut o = Oracle::default();
        o.branches
            .insert("master", entries.iter().map(|e| (e.key.clone(), e.value.clone())).collect());
        o
    }

    pub fn branch(&self, branch: Branch) -> &Map {
        self.branches.get(branch).expect("oracle: op on a branch that was never created")
    }

    pub fn entries(&self, branch: Branch) -> Vec<Entry> {
        self.branch(branch).iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()
    }

    /// Advance the oracle by `op` and say whether `out` is the right answer.
    pub fn check(&mut self, op: &Op, out: &Outcome) -> bool {
        match (op, out) {
            (Op::Get { branch, key }, Outcome::Value(v)) => {
                self.branch(branch).get(key) == v.as_ref()
            }
            (Op::Scan { branch, start, limit }, Outcome::Entries(got)) => {
                let want = self
                    .branch(branch)
                    .range::<[u8], _>((Bound::Included(&start[..]), Bound::Unbounded))
                    .take(*limit);
                got.len() <= *limit
                    && want.clone().count() == got.len()
                    && want.zip(got).all(|((k, v), e)| *k == e.key && *v == e.value)
            }
            (Op::Commit { branch, batch }, Outcome::Committed { root, .. }) => {
                self.apply(branch, batch);
                !root.is_zero()
            }
            (Op::VerifiedGet { branch, key }, Outcome::Proved { value, .. }) => {
                self.branch(branch).get(key) == value.as_ref()
            }
            (Op::VerifiedGetMany { branch, keys }, Outcome::ProvedMany { values, .. }) => {
                let map = self.branch(branch);
                keys.len() == values.len()
                    && keys.iter().zip(values).all(|(k, v)| map.get(k) == v.as_ref())
            }
            (Op::Fork { from, to }, Outcome::Done) => {
                let snapshot = self.branch(from).clone();
                self.branches.insert(to, snapshot);
                self.touched.insert(to, BTreeMap::new());
                true
            }
            (Op::Diff { a, b }, Outcome::Diff(got)) => {
                let want = self.diff(a, b);
                want.len() == got.len()
                    && want.iter().zip(got).all(|(w, g)| {
                        *w.0 == g.key && w.1 == g.left.as_ref() && w.2 == g.right.as_ref()
                    })
            }
            (Op::Merge { into, other }, Outcome::Merged { root }) => {
                self.merge(into, other);
                !root.is_zero()
            }
            _ => false,
        }
    }

    fn apply(&mut self, branch: Branch, batch: &WriteBatch) {
        let map = self.branches.get_mut(branch).expect("oracle: commit on an unknown branch");
        let mut touched = self.touched.get_mut(branch);
        for op in batch.ops() {
            let (key, before) = match op {
                siri::Op::Put(e) => (&e.key, map.insert(e.key.clone(), e.value.clone())),
                siri::Op::Delete(k) => (k, map.remove(k)),
            };
            if let Some(t) = touched.as_mut() {
                t.entry(key.clone()).or_insert(before);
            }
        }
    }

    /// Keys on which `a` and `b` differ, ascending, with both sides' values.
    /// Both were forked from one version, so only touched keys can differ.
    fn diff(&self, a: Branch, b: Branch) -> Vec<(&Bytes, Option<&Bytes>, Option<&Bytes>)> {
        let (ma, mb) = (self.branch(a), self.branch(b));
        let keys: BTreeSet<&Bytes> =
            [a, b].iter().filter_map(|x| self.touched.get(x)).flat_map(|t| t.keys()).collect();
        keys.into_iter()
            .filter_map(|k| {
                let (va, vb) = (ma.get(k), mb.get(k));
                (va != vb).then_some((k, va, vb))
            })
            .collect()
    }

    fn merge(&mut self, into: Branch, other: Branch) {
        // Only keys `other` really changed since the fork carry over; a
        // rewrite with the fork-time value is no change and keeps `into`'s.
        let right = self.branch(other);
        let changed: Vec<(Bytes, Option<Bytes>)> = self
            .touched
            .get(other)
            .into_iter()
            .flatten()
            .filter(|(k, at_fork)| right.get(*k) != at_fork.as_ref())
            .map(|(k, _)| (k.clone(), right.get(k).cloned()))
            .collect();
        let left = self.branches.get_mut(into).expect("oracle: merge into an unknown branch");
        for (k, v) in changed {
            match v {
                Some(v) => left.insert(k, v),
                None => left.remove(&k),
            };
        }
    }
}

/// SHA-256 over a canonical rendering of the generated inputs, so that a
/// generator change shows as a changed `input_sha256` rather than as moved
/// numbers.
pub struct StreamHash(Sha256);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(Sha256::new())
    }

    fn field(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_be_bytes());
        self.0.update(bytes);
    }

    pub fn entries(&mut self, entries: &[Entry]) {
        self.0.update(&(entries.len() as u64).to_be_bytes());
        for e in entries {
            self.field(&e.key);
            self.field(&e.value);
        }
    }

    pub fn op(&mut self, op: &Op) {
        self.0.update(&[op.kind() as u8]);
        match op {
            Op::Get { branch, key } | Op::VerifiedGet { branch, key } => {
                self.field(branch.as_bytes());
                self.field(key);
            }
            Op::Scan { branch, start, limit } => {
                self.field(branch.as_bytes());
                self.field(start);
                self.0.update(&(*limit as u64).to_be_bytes());
            }
            Op::Commit { branch, batch } => {
                self.field(branch.as_bytes());
                for op in batch.ops() {
                    match op {
                        siri::Op::Put(e) => {
                            self.0.update(&[1]);
                            self.field(&e.key);
                            self.field(&e.value);
                        }
                        siri::Op::Delete(k) => {
                            self.0.update(&[2]);
                            self.field(k);
                        }
                    }
                }
            }
            Op::VerifiedGetMany { branch, keys } => {
                self.field(branch.as_bytes());
                for k in keys {
                    self.field(k);
                }
            }
            Op::Fork { from: x, to: y }
            | Op::Diff { a: x, b: y }
            | Op::Merge { into: x, other: y } => {
                self.field(x.as_bytes());
                self.field(y.as_bytes());
            }
        }
    }

    pub fn finish(self) -> String {
        self.0.finalize().to_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(branch: Branch, kv: &[(&str, &str)]) -> Op {
        let mut batch = WriteBatch::new();
        for (k, v) in kv {
            batch.put(k.as_bytes().to_vec(), v.as_bytes().to_vec());
        }
        Op::Commit { branch, batch }
    }

    fn committed() -> Outcome {
        Outcome::Committed { root: siri::crypto::sha256(b"x"), shards: 1 }
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn oracle_accepts_right_answers_and_rejects_wrong_ones() {
        let mut o = Oracle::with_master(&[Entry::new(b("a"), b("1")), Entry::new(b("c"), b("3"))]);
        assert!(o.check(&put("master", &[("b", "2")]), &committed()));
        let get = Op::Get { branch: "master", key: b("b") };
        assert!(o.check(&get, &Outcome::Value(Some(b("2")))));
        assert!(!o.check(&get, &Outcome::Value(None)));
        assert!(!o.check(&get, &Outcome::Value(Some(b("9")))));
        assert!(!o.check(&get, &Outcome::Done), "a mismatched outcome shape is a failure");
        let scan = Op::Scan { branch: "master", start: b("b"), limit: 5 };
        let full = vec![Entry::new(b("b"), b("2")), Entry::new(b("c"), b("3"))];
        assert!(o.check(&scan, &Outcome::Entries(full.clone())));
        assert!(!o.check(&scan, &Outcome::Entries(full[..1].to_vec())), "dropped entry");
        let limited = Op::Scan { branch: "master", start: b("a"), limit: 1 };
        assert!(o.check(&limited, &Outcome::Entries(vec![Entry::new(b("a"), b("1"))])));
    }

    #[test]
    fn oracle_follows_fork_diff_and_three_way_merge() {
        let mut o = Oracle::with_master(&[Entry::new(b("a"), b("1")), Entry::new(b("c"), b("3"))]);
        assert!(o.check(&Op::Fork { from: "master", to: "a" }, &Outcome::Done));
        assert!(o.check(&Op::Fork { from: "master", to: "b" }, &Outcome::Done));
        assert!(o.check(&put("a", &[("a", "A"), ("x", "X")]), &committed()));
        assert!(o.check(&put("b", &[("a", "B")]), &committed()));
        let mut del = WriteBatch::new();
        del.delete(b("c"));
        assert!(o.check(&Op::Commit { branch: "b", batch: del }, &committed()));
        let want = vec![
            DiffEntry { key: b("a"), left: Some(b("A")), right: Some(b("B")) },
            DiffEntry { key: b("c"), left: Some(b("3")), right: None },
            DiffEntry { key: b("x"), left: Some(b("X")), right: None },
        ];
        assert!(o.check(&Op::Diff { a: "a", b: "b" }, &Outcome::Diff(want.clone())));
        assert!(!o.check(&Op::Diff { a: "a", b: "b" }, &Outcome::Diff(want[..2].to_vec())));
        let merged = Outcome::Merged { root: siri::crypto::sha256(b"m") };
        assert!(o.check(&Op::Merge { into: "master", other: "a" }, &merged));
        assert!(o.check(&Op::Merge { into: "master", other: "b" }, &merged));
        // a's edits landed, then b's: b wins the conflict on "a" and its
        // delete of "c" propagates; a's new key survives.
        let got: Vec<(Bytes, Bytes)> =
            o.branch("master").iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, vec![(b("a"), b("B")), (b("x"), b("X"))]);
    }

    #[test]
    fn stream_hash_pins_the_inputs() {
        let hash = |ops: &[Op]| {
            let mut h = StreamHash::new();
            h.entries(&[Entry::new(b("k"), b("v"))]);
            for op in ops {
                h.op(op);
            }
            h.finish()
        };
        let a = hash(&[put("master", &[("a", "1")]), Op::Get { branch: "master", key: b("a") }]);
        let same = hash(&[put("master", &[("a", "1")]), Op::Get { branch: "master", key: b("a") }]);
        let other =
            hash(&[put("master", &[("a", "2")]), Op::Get { branch: "master", key: b("a") }]);
        assert_eq!(a, same);
        assert_ne!(a, other);
        assert_eq!(a.len(), 64);
    }
}
