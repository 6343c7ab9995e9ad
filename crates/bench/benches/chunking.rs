//! Criterion micro-benchmarks for the chunking strategies — quantifies the
//! Figure 22 mechanism: POS-Tree's hash-pattern internal boundaries vs
//! Prolly's sliding-window re-hashing, and bulk build cost per structure —
//! and pins the rolling slice kernel to the per-byte definition it
//! replaced, for speed and for output.
//!
//! `CHUNKING_N` overrides the dataset size (CI smoke-runs use a small value
//! so this executes on every push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use siri::crypto::{RollingHash, DEFAULT_WINDOW};
use siri::workloads::YcsbConfig;
use siri::{MemStore, PosParams, PosTree, SiriIndex};

fn dataset_size() -> usize {
    std::env::var("CHUNKING_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

/// The per-byte definition of the fingerprint as it stood before the slice
/// kernel (`% window` ring, rotate per expelled byte, warm check per byte),
/// restated here because `siri-crypto` keeps its own copy test-only. Returns
/// the final fingerprint and how many `SPAN`-byte spans of the stream
/// contained a warm boundary match.
mod reference {
    use super::SPAN;

    fn table() -> [u64; 256] {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        std::array::from_fn(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    pub fn buzhash(stream: &[u8], window: usize, mask: u64) -> (u64, usize) {
        let table = table();
        let (mut ring, mut head, mut filled) = (vec![0u8; window], 0, 0);
        let (mut value, mut fired_spans) = (0u64, 0);
        for span in stream.chunks(SPAN) {
            let mut fired = false;
            for &byte in span {
                let outgoing = ring[head];
                ring[head] = byte;
                head = (head + 1) % window;
                if filled < window {
                    filled += 1;
                    value = value.rotate_left(1) ^ table[byte as usize];
                } else {
                    value = value.rotate_left(1)
                        ^ table[outgoing as usize].rotate_left((window % 64) as u32)
                        ^ table[byte as usize];
                }
                fired |= filled >= window && value & mask == mask;
            }
            fired_spans += fired as usize;
        }
        (value, fired_spans)
    }
}

/// Call granularity of the kernel runs: about one leaf entry.
const SPAN: usize = 1024;

/// Reference vs kernel over the same buffer: the outputs
/// must be equal (so the kernel cannot become fast-but-different) and both
/// speeds are printed (so it cannot silently become compiles-but-slow).
fn bench_rolling_kernel(c: &mut Criterion, stream: &[u8]) {
    let buz_mask = (1u64 << 10) - 1;
    let buz_kernel = |stream: &[u8]| {
        let mut r = RollingHash::with_default_window();
        let fired = stream.chunks(SPAN).filter(|s| r.push_slice_fires(s, buz_mask)).count();
        (r.fingerprint(), fired)
    };
    assert_eq!(buz_kernel(stream), reference::buzhash(stream, DEFAULT_WINDOW, buz_mask));

    let mut group = c.benchmark_group("rolling_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("buzhash-reference", |b| {
        let window = std::hint::black_box(DEFAULT_WINDOW); // a runtime value, as it was
        b.iter(|| reference::buzhash(std::hint::black_box(stream), window, buz_mask))
    });
    group.bench_function("buzhash-kernel", |b| b.iter(|| buz_kernel(std::hint::black_box(stream))));
    group.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let n = dataset_size();
    let ycsb = YcsbConfig::default();
    let data = ycsb.dataset(n);
    let bytes: usize = data.iter().map(|e| e.key.len() + e.value.len()).sum();

    let stream: Vec<u8> =
        data.iter().flat_map(|e| e.key.iter().chain(e.value.iter())).copied().collect();
    bench_rolling_kernel(c, &stream);

    let mut group = c.benchmark_group(format!("bulk_build_{n}"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes as u64));
    for (name, params) in [
        ("pos-tree-hashpattern", PosParams::default()),
        ("prolly-rolling-window", PosParams::noms()),
        ("pos-tree-4k", PosParams::default().with_node_bytes(4096)),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut t = PosTree::new(MemStore::new_shared(), params);
                t.batch_insert(data.clone()).unwrap();
                std::hint::black_box(t.root())
            })
        });
    }
    group.finish();

    // Incremental batch-update cost: the streaming pass-through updater.
    let mut group = c.benchmark_group("incremental_update_batch100");
    group.sample_size(10);
    let mut base = PosTree::new(MemStore::new_shared(), PosParams::default());
    base.batch_insert(data).unwrap();
    let updates: Vec<siri::Entry> =
        (0..100u64).map(|i| ycsb.entry(i * 131 % n as u64, 2)).collect();
    group.bench_function("pos-tree", |b| {
        b.iter(|| {
            let mut v = base.clone();
            v.batch_insert(updates.clone()).unwrap();
            std::hint::black_box(v.root())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_chunking);
criterion_main!(benches);
