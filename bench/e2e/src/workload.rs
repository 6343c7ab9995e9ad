//! The five workloads: which stack each runs on, why it exists, and the
//! seeded generator of its dataset and op rounds.
//!
//! `--seed` is the only source of randomness. Datasets come from the
//! repository's generators (`YcsbConfig`, `EthConfig`, `WikiConfig`) keyed
//! by the seed; which record an op touches comes from a local splitmix64
//! stream. A generator never looks at the system under test, so every rung
//! of the ladder — and every later commit of the repository — is handed
//! byte-identical inputs.

use siri::workloads::eth::EthConfig;
use siri::workloads::wiki::WikiConfig;
use siri::workloads::YcsbConfig;
use siri::{Bytes, Entry, FsyncPolicy, WriteBatch};

use crate::exec::{Backing, StackSpec, Structure, Transport};
use crate::ops::Op;
use crate::rng::{SplitMix64, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    YcsbReadWire,
    YcsbWriteDurable,
    LedgerMptVerified,
    CollabPosInproc,
    FourIndexMixed,
}

pub const ALL: [Workload; 5] = [
    Workload::YcsbReadWire,
    Workload::YcsbWriteDurable,
    Workload::LedgerMptVerified,
    Workload::CollabPosInproc,
    Workload::FourIndexMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbReadWire => "ycsb-read-wire",
            Workload::YcsbWriteDurable => "ycsb-write-durable",
            Workload::LedgerMptVerified => "ledger-mpt-verified",
            Workload::CollabPosInproc => "collab-pos-inproc",
            Workload::FourIndexMixed => "four-index-mixed",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::YcsbReadWire => "POS-Tree behind the loopback wire on FileStore, 97% uniform gets and scans over a tree larger than the node cache: framing, cache misses and store reads work; build, hash, fsync idle",
            Workload::YcsbWriteDurable => "Same stack written to: fsync-on-commit batches of 100 zipfian puts, so chunking, node encode, SHA-256, store put and fsync dominate; a read-path win that taxes writes shows here",
            Workload::LedgerMptVerified => "Blockchain user: MPT pinned to 4 shards over the wire, 200-txn block commits plus light-client reads whose cost is proof generation, proof bytes, round trips and verification",
            Workload::CollabPosInproc => "Collaborative analytics on the in-process engine over MemStore: fork, commit a wiki delta, diff, three-way merge; bypasses client, server, FileStore and fsync, so index work shows undiluted",
            Workload::FourIndexMixed => "The Table-2 mix (70 get/15 put/5 delete/10 scan, zipf 0.5) on POS-Tree, MPT, MBT and MVMB+ in turn, in process: guards shared code against a win for one structure that costs another",
        }
    }

    /// The structures the workload runs, one lane each. Only
    /// `four-index-mixed` has more than one.
    pub fn lanes(self) -> &'static [Structure] {
        match self {
            Workload::LedgerMptVerified => &[Structure::Mpt],
            Workload::FourIndexMixed => {
                &[Structure::Pos, Structure::Mpt, Structure::Mbt, Structure::Mvmb]
            }
            _ => &[Structure::Pos],
        }
    }

    /// The stack end-to-end metrics are measured on. The flush policy of
    /// the durable workloads is fsync on every commit, stated and fixed.
    pub fn spec(self, structure: Structure) -> StackSpec {
        let (shards, backing, transport) = match self {
            Workload::YcsbReadWire | Workload::YcsbWriteDurable => {
                (1, Backing::File(FsyncPolicy::OnCommit), Transport::Wire)
            }
            Workload::LedgerMptVerified => {
                (4, Backing::File(FsyncPolicy::OnCommit), Transport::Wire)
            }
            Workload::CollabPosInproc | Workload::FourIndexMixed => {
                (1, Backing::Mem, Transport::Engine)
            }
        };
        StackSpec { structure, shards, backing, transport, span_store: false }
    }
}

/// Everything that scales a workload. `full` is the benchmark of record;
/// `smoke` is about 1 % of it, for the in-package test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// YCSB records preloaded (workloads 1, 2 and, per structure, 5).
    pub ycsb_records: usize,
    pub mixed_records: usize,
    /// Ledger: blocks preloaded, transactions per block.
    pub ledger_blocks: u64,
    pub txs_per_block: usize,
    pub wiki_pages: usize,
    pub wiki_new_pages: usize,
    /// Divides every per-round op count.
    pub round_div: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            ycsb_records: 200_000,
            mixed_records: 50_000,
            ledger_blocks: 500,
            txs_per_block: 200,
            wiki_pages: 50_000,
            wiki_new_pages: 100,
            round_div: 1,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            ycsb_records: 2_000,
            mixed_records: 500,
            ledger_blocks: 5,
            txs_per_block: 200,
            wiki_pages: 2_000,
            wiki_new_pages: 4,
            round_div: 20,
        }
    }
}

/// Puts per YCSB commit: the paper writes in batches, and a batch of 100
/// keeps the flush a small share of a commit, so the number repeats.
const BATCH: usize = 100;
const SCAN_LIMIT: usize = 50;
const MIX_SCAN_LIMIT: usize = 20;
const MANY_KEYS: usize = 20;
/// Zipfian exponent of every skewed stream (Table 2's middle value).
const THETA: f64 = 0.5;

pub struct Gen {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    ycsb: YcsbConfig,
    eth: EthConfig,
    wiki: WikiConfig,
    zipf: Option<Zipf>,
    /// Value version of the next YCSB put; bumped per put so a rewrite
    /// always changes bytes.
    stamp: u32,
    next_block: u64,
    next_version: u32,
    /// Ledger: keys of every transaction committed so far.
    tx_keys: Vec<Bytes>,
}

impl Gen {
    pub fn new(workload: Workload, seed: u64, sizes: Sizes) -> Self {
        let records = match workload {
            Workload::FourIndexMixed => sizes.mixed_records,
            _ => sizes.ycsb_records,
        };
        let zipf = matches!(workload, Workload::YcsbWriteDurable | Workload::FourIndexMixed)
            .then(|| Zipf::new(records, THETA));
        Gen {
            workload,
            sizes,
            seed,
            ycsb: YcsbConfig { key_len_min: 5, key_len_max: 15, value_len_avg: 256, seed },
            eth: EthConfig { txs_per_block: sizes.txs_per_block, seed },
            wiki: WikiConfig {
                pages: sizes.wiki_pages,
                update_pct: 2,
                new_pages_per_version: sizes.wiki_new_pages,
                seed,
            },
            zipf,
            stamp: 1,
            next_block: 0,
            next_version: 1,
            tx_keys: Vec::new(),
        }
    }

    /// The dataset `master` starts from.
    pub fn dataset(&mut self) -> Vec<Entry> {
        match self.workload {
            Workload::YcsbReadWire | Workload::YcsbWriteDurable => {
                self.ycsb.dataset(self.sizes.ycsb_records)
            }
            Workload::FourIndexMixed => self.ycsb.dataset(self.sizes.mixed_records),
            Workload::LedgerMptVerified => {
                let mut all = Vec::new();
                for _ in 0..self.sizes.ledger_blocks {
                    all.extend(self.block());
                }
                all
            }
            Workload::CollabPosInproc => self.wiki.initial_dump(),
        }
    }

    fn per_round(&self, n: usize) -> usize {
        (n / self.sizes.round_div).max(1)
    }

    fn block(&mut self) -> Vec<Entry> {
        let entries = self.eth.block_entries(self.next_block);
        self.next_block += 1;
        self.tx_keys.extend(entries.iter().map(|e| e.key.clone()));
        entries
    }

    fn ycsb_key(&self, rng: &mut SplitMix64, records: usize) -> Bytes {
        self.ycsb.key(rng.below(records) as u64)
    }

    fn ycsb_batch(&mut self, rng: &mut SplitMix64, puts: usize) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for _ in 0..puts {
            let id = match &self.zipf {
                Some(z) => z.sample(rng),
                None => rng.below(self.sizes.ycsb_records),
            } as u64;
            batch.put(self.ycsb.key(id), self.ycsb.value(id, self.stamp));
            self.stamp += 1;
        }
        batch
    }

    /// Round `r` of the op stream (0 is the warm-up round). Rounds must be
    /// asked for in order: the ledger and the wiki advance with each one.
    pub fn round(&mut self, r: u32) -> Vec<Op> {
        let mut rng = SplitMix64::stream(self.seed, 1 + r as u64);
        let m = "master";
        let mut ops = Vec::new();
        match self.workload {
            Workload::YcsbReadWire => {
                let n = self.sizes.ycsb_records;
                for _ in 0..5 {
                    for _ in 0..self.per_round(2_000) {
                        ops.push(Op::Get { branch: m, key: self.ycsb_key(&mut rng, n) });
                    }
                    for _ in 0..self.per_round(50) {
                        let start = self.ycsb_key(&mut rng, n);
                        ops.push(Op::Scan { branch: m, start, limit: SCAN_LIMIT });
                    }
                    for _ in 0..self.per_round(40) {
                        ops.push(Op::VerifiedGet { branch: m, key: self.ycsb_key(&mut rng, n) });
                    }
                    // Every end-to-end metric has to exist on every
                    // workload, so the read workload carries one commit per
                    // 2 000 gets: under 3 % of a round.
                    ops.push(Op::Commit { branch: m, batch: self.ycsb_batch(&mut rng, BATCH) });
                }
            }
            Workload::YcsbWriteDurable => {
                let n = self.sizes.ycsb_records;
                // The reads ride in the think time between two paced commits;
                // enough of each per round that its p50 is not a matter of
                // which keys were drawn.
                for _ in 0..self.per_round(40) {
                    ops.push(Op::Commit { branch: m, batch: self.ycsb_batch(&mut rng, BATCH) });
                    for _ in 0..20 {
                        ops.push(Op::Get { branch: m, key: self.ycsb_key(&mut rng, n) });
                    }
                    for _ in 0..4 {
                        ops.push(Op::VerifiedGet { branch: m, key: self.ycsb_key(&mut rng, n) });
                    }
                    for _ in 0..2 {
                        let start = self.ycsb_key(&mut rng, n);
                        ops.push(Op::Scan { branch: m, start, limit: SCAN_LIMIT });
                    }
                }
            }
            Workload::LedgerMptVerified => {
                for _ in 0..self.per_round(40) {
                    let block = self.block();
                    ops.push(Op::Commit { branch: m, batch: WriteBatch::from_entries(block) });
                    let past =
                        |rng: &mut SplitMix64, keys: &[Bytes]| keys[rng.below(keys.len())].clone();
                    for _ in 0..10 {
                        ops.push(Op::VerifiedGet { branch: m, key: past(&mut rng, &self.tx_keys) });
                    }
                    for _ in 0..6 {
                        ops.push(Op::Get { branch: m, key: past(&mut rng, &self.tx_keys) });
                    }
                    let keys = (0..MANY_KEYS).map(|_| past(&mut rng, &self.tx_keys)).collect();
                    ops.push(Op::VerifiedGetMany { branch: m, keys });
                    for _ in 0..2 {
                        let start = past(&mut rng, &self.tx_keys);
                        ops.push(Op::Scan { branch: m, start, limit: MIX_SCAN_LIMIT });
                    }
                }
            }
            Workload::CollabPosInproc => {
                let pages = self.sizes.wiki_pages;
                for _ in 0..self.per_round(4) {
                    ops.push(Op::Fork { from: m, to: "a" });
                    ops.push(Op::Fork { from: m, to: "b" });
                    for branch in ["a", "b"] {
                        let delta = self.wiki.version_delta(self.next_version);
                        self.next_version += 1;
                        ops.push(Op::Commit { branch, batch: WriteBatch::from_entries(delta) });
                    }
                    ops.push(Op::Diff { a: "a", b: "b" });
                    ops.push(Op::Merge { into: m, other: "a" });
                    ops.push(Op::Merge { into: m, other: "b" });
                    let url = |rng: &mut SplitMix64| self.wiki.url(rng.below(pages) as u64);
                    // Reads of the merged head: some 6 % of a round's time,
                    // and enough samples that a p50 does not hang on the
                    // pages the draw happened to land on.
                    for _ in 0..500 {
                        ops.push(Op::Get { branch: m, key: url(&mut rng) });
                    }
                    for _ in 0..200 {
                        ops.push(Op::Scan { branch: m, start: url(&mut rng), limit: SCAN_LIMIT });
                        ops.push(Op::VerifiedGet { branch: m, key: url(&mut rng) });
                    }
                }
            }
            Workload::FourIndexMixed => {
                let zipf = self.zipf.as_ref().expect("the mixed workload is zipfian");
                for i in 0..self.per_round(4_000) {
                    let id = zipf.sample(&mut rng) as u64;
                    let key = self.ycsb.key(id);
                    // A fixed 20-slot cycle — 3 puts, 1 delete, 2 scans, 14
                    // gets — holds the mix at exactly 70/15/5/10 in every
                    // round of every seed; only the keys are drawn.
                    ops.push(match i % 20 {
                        1 | 8 | 15 => {
                            let mut batch = WriteBatch::new();
                            batch.put(key, self.ycsb.value(id, self.stamp));
                            self.stamp += 1;
                            Op::Commit { branch: m, batch }
                        }
                        11 => {
                            let mut batch = WriteBatch::new();
                            batch.delete(key);
                            Op::Commit { branch: m, batch }
                        }
                        4 | 17 => Op::Scan { branch: m, start: key, limit: MIX_SCAN_LIMIT },
                        _ => Op::Get { branch: m, key },
                    });
                    if i % 25 == 0 {
                        let key = self.ycsb.key(zipf.sample(&mut rng) as u64);
                        ops.push(Op::VerifiedGet { branch: m, key });
                    }
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Kind, StreamHash};

    fn fingerprint(w: Workload, seed: u64) -> String {
        let mut g = Gen::new(w, seed, Sizes::smoke());
        let mut h = StreamHash::new();
        h.entries(&g.dataset());
        for r in 0..3 {
            for op in g.round(r) {
                h.op(&op);
            }
        }
        h.finish()
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        for w in ALL {
            assert_eq!(fingerprint(w, 42), fingerprint(w, 42), "{}", w.name());
            assert_ne!(fingerprint(w, 42), fingerprint(w, 43), "{}", w.name());
        }
    }

    #[test]
    fn every_workload_exercises_every_end_to_end_verb() {
        for w in ALL {
            let mut g = Gen::new(w, 42, Sizes::smoke());
            let _ = g.dataset();
            let ops = g.round(0);
            for kind in [Kind::Get, Kind::Scan, Kind::Commit, Kind::VerifiedGet] {
                assert!(ops.iter().any(|op| op.kind() == kind), "{}: no {kind:?}", w.name());
            }
        }
    }

    #[test]
    fn names_and_reasons_fit_the_contract() {
        for w in ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
            assert!(w.why().chars().count() <= 200, "{}: {}", w.name(), w.why().chars().count());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
