//! Golden space numbers: what each structure stores for a fixed workload.
//! The paper's deduplication claims rest on these counts, and unlike wall
//! time they are a pure function of the seed, so they are pinned exactly. A
//! failure here means a structure now writes or keeps different pages —
//! explain why before refreshing a constant.
//!
//! Per workload (YCSB mixed CRUD+scan, wiki page edits, Ethereum blocks;
//! seed 42, 1 000 records or the nearest whole number of blocks, 600 ops):
//! a fresh `MemStore` per structure, a load in batches of an eighth of the
//! records, then the op stream one op at a time. Recorded per structure:
//! the bytes the load wrote, and the unique bytes and pages stored after
//! the ops.

use siri::workloads::eth::EthConfig;
use siri::workloads::wiki::WikiConfig;
use siri::workloads::ycsb::{Op, YcsbConfig};
use siri::workloads::OpMix;
use siri::{Entry, MemStore};
use siri_bench::for_each_index;
use siri_bench::harness::{load_batched_on, run_ops, IndexCfg};

const SEED: u64 = 42;
const RECORDS: usize = 1_000;
const OPS: u64 = 600;
const NODE_BYTES: usize = 1024;

/// (structure, load bytes written, unique bytes after the ops, unique
/// pages after the ops).
type Space = (&'static str, u64, u64, u64);

fn measure(data: &[Entry], ops: &[Op], cfg: IndexCfg) -> Vec<Space> {
    let mut out = Vec::new();
    for_each_index!(cfg, |name, factory| {
        let store = MemStore::new_shared();
        let (mut index, _) = load_batched_on(&factory, store.clone(), data, data.len() / 8);
        let loaded = store.stats().bytes_written;
        run_ops(&mut index, ops);
        let stats = store.stats();
        out.push((name, loaded, stats.unique_bytes, stats.unique_pages));
    });
    out
}

fn check(workload: &str, got: Vec<Space>, golden: [Space; 4]) {
    assert_eq!(got, golden, "{workload}: a structure's stored space moved");
}

#[test]
fn ycsb() {
    let ycsb = YcsbConfig { seed: SEED, ..Default::default() };
    let data = ycsb.dataset(RECORDS);
    // Table 2's mixed setting: moderate skew, every verb exercised.
    let mix = OpMix::crud_scan(70, 15, 5, 10).with_scan_limit(20);
    let ops = ycsb.operations_mix(RECORDS, OPS as usize, mix, 0.5, SEED ^ 0x9d1d);
    check(
        "ycsb",
        measure(&data, &ops, IndexCfg::ycsb(NODE_BYTES)),
        [
            ("pos-tree", 939_773, 1_356_472, 963),
            ("mbt", 652_419, 908_843, 1_486),
            ("mpt", 483_366, 618_156, 2_561),
            ("mvmb+", 574_950, 824_366, 1_243),
        ],
    );
}

#[test]
fn wiki() {
    let wiki = WikiConfig { pages: RECORDS, seed: SEED ^ 0x77, ..Default::default() };
    let pages = wiki.pages as u64;
    let ops: Vec<Op> = (0..OPS)
        .map(|i| {
            let id = i.wrapping_mul(0x9E37_79B9) % pages;
            match i % 20 {
                0..=11 => Op::Read(wiki.url(id)),
                12..=16 => Op::Write(wiki.page(id, 1 + (i / pages) as u32)),
                17 => Op::Delete(wiki.url(id)),
                _ => Op::Scan { start: wiki.url(id), limit: 10 },
            }
        })
        .collect();
    check(
        "wiki",
        measure(&wiki.initial_dump(), &ops, IndexCfg::wiki(NODE_BYTES)),
        [
            ("pos-tree", 624_511, 1_764_150, 968),
            ("mbt", 491_088, 909_755, 1_743),
            ("mpt", 340_840, 555_896, 5_505),
            ("mvmb+", 524_255, 956_037, 1_485),
        ],
    );
}

#[test]
fn eth() {
    let eth = EthConfig { seed: SEED ^ 0x99, ..Default::default() };
    let blocks = (RECORDS / eth.txs_per_block) as u64;
    let data: Vec<Entry> = (0..blocks).flat_map(|b| eth.block_entries(b)).collect();
    let ops: Vec<Op> = (0..OPS)
        .map(|i| {
            let block = i.wrapping_mul(31) % blocks;
            let tx = (i % eth.txs_per_block as u64) as u32;
            let key = eth.transaction(block, tx).hash_key();
            match i % 20 {
                // Fresh transactions append, as new blocks would.
                12..=16 => {
                    let t = eth.transaction(blocks + i / 20, tx);
                    Op::Write(Entry { key: t.hash_key(), value: t.rlp_encode().into() })
                }
                17 => Op::Delete(key),
                18..=19 => Op::Scan { start: key, limit: 10 },
                _ => Op::Read(key),
            }
        })
        .collect();
    check(
        "eth",
        measure(&data, &ops, IndexCfg::eth(NODE_BYTES)),
        [
            ("pos-tree", 1_278_056, 2_731_781, 1_279),
            ("mbt", 1_057_633, 1_644_855, 1_291),
            ("mpt", 737_915, 1_013_212, 3_948),
            ("mvmb+", 1_113_561, 1_693_507, 2_312),
        ],
    );
}
