//! Workload-generator contracts the experiments depend on: determinism
//! under a fixed seed (the golden space test pins exact byte counts),
//! the Zipfian rank-frequency shape at the paper's three θ settings, and
//! the wiki/eth size distributions staying within ±10% of the documented
//! averages.

use rand::rngs::StdRng;
use rand::SeedableRng;
use siri_workloads::eth::EthConfig;
use siri_workloads::wiki::WikiConfig;
use siri_workloads::ycsb::{Op, OpMix, YcsbConfig};
use siri_workloads::zipf::Zipfian;

// ---------------------------------------------------------------------------
// Determinism under a fixed seed
// ---------------------------------------------------------------------------

#[test]
fn ycsb_streams_are_deterministic_under_a_seed() {
    let cfg = YcsbConfig::default();
    assert_eq!(cfg.dataset(2_000), cfg.dataset(2_000));
    let mix = OpMix::crud_scan(70, 15, 5, 10);
    let a = cfg.operations_mix(2_000, 1_000, mix, 0.9, 77);
    let b = cfg.operations_mix(2_000, 1_000, mix, 0.9, 77);
    // Op carries Bytes; compare via Debug form (Op is not PartialEq).
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    // A different stream seed must actually change the stream.
    let c = cfg.operations_mix(2_000, 1_000, mix, 0.9, 78);
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
}

#[test]
fn ycsb_different_seed_different_dataset() {
    let a = YcsbConfig::default();
    let b = YcsbConfig { seed: a.seed + 1, ..a };
    assert_ne!(a.dataset(100), b.dataset(100));
}

#[test]
fn wiki_corpus_is_deterministic_under_a_seed() {
    let cfg = WikiConfig { pages: 2_000, ..Default::default() };
    assert_eq!(cfg.initial_dump(), cfg.initial_dump());
    assert_eq!(cfg.version_delta(3), cfg.version_delta(3));
    let other = WikiConfig { seed: cfg.seed + 1, ..cfg };
    assert_ne!(cfg.initial_dump(), other.initial_dump());
}

#[test]
fn eth_blocks_are_deterministic_under_a_seed() {
    let cfg = EthConfig::default();
    assert_eq!(cfg.block_entries(5), cfg.block_entries(5));
    let other = EthConfig { seed: cfg.seed + 1, ..cfg };
    assert_ne!(cfg.block_entries(5), other.block_entries(5));
}

// ---------------------------------------------------------------------------
// Zipf rank-frequency shape, θ ∈ {0, 0.5, 0.9}
// ---------------------------------------------------------------------------

fn rank_histogram(theta: f64, n: usize, draws: usize) -> Vec<u64> {
    let z = Zipfian::new(n, theta);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut h = vec![0u64; n];
    for _ in 0..draws {
        h[z.next_rank(&mut rng) as usize] += 1;
    }
    h
}

#[test]
fn zipf_theta_zero_is_flat() {
    let h = rank_histogram(0.0, 1_000, 400_000);
    let expected = 400.0;
    for (rank, count) in h.iter().enumerate() {
        let dev = (*count as f64 - expected).abs() / expected;
        assert!(dev < 0.35, "rank {rank}: count {count} deviates {dev:.2} from uniform");
    }
}

/// Under Zipf, freq(rank) ∝ 1/(rank+1)^θ, so freq(0)/freq(r) ≈ (r+1)^θ.
/// Assert the measured ratios at ranks 9 and 99 within ±30% — wide enough
/// for the YCSB/Gray approximation and sampling noise, tight enough to
/// distinguish the three θ settings from each other.
#[test]
fn zipf_rank_frequency_follows_power_law() {
    for &theta in &[0.5, 0.9] {
        let h = rank_histogram(theta, 1_000, 400_000);
        for &rank in &[9usize, 99] {
            let measured = h[0] as f64 / h[rank].max(1) as f64;
            let expected = ((rank + 1) as f64).powf(theta);
            let rel = measured / expected;
            assert!(
                (0.7..=1.3).contains(&rel),
                "θ={theta} rank {rank}: measured ratio {measured:.2}, expected {expected:.2}"
            );
        }
        // Frequencies must be (noisily) decreasing in rank overall.
        assert!(h[0] > h[9] && h[9] > h[99], "θ={theta}: {} {} {}", h[0], h[9], h[99]);
    }
}

#[test]
fn zipf_thetas_are_mutually_distinguishable() {
    let top_share = |theta: f64| {
        let h = rank_histogram(theta, 1_000, 200_000);
        h[..10].iter().sum::<u64>() as f64 / 200_000.0
    };
    let (t0, t5, t9) = (top_share(0.0), top_share(0.5), top_share(0.9));
    assert!(t0 < 0.02, "uniform top-10 share {t0:.3}");
    assert!(t5 > 2.0 * t0, "θ=0.5 must concentrate over uniform: {t5:.3} vs {t0:.3}");
    assert!(t9 > 2.0 * t5, "θ=0.9 must concentrate over θ=0.5: {t9:.3} vs {t5:.3}");
}

#[test]
fn zipf_scrambling_spreads_hot_keys() {
    // next() scrambles ranks across the keyspace: the hottest *index*
    // should not simply be 0..10, yet the overall skew must survive.
    let z = Zipfian::new(1_000, 0.9);
    let mut rng = StdRng::seed_from_u64(9);
    let mut h = vec![0u64; 1_000];
    for _ in 0..200_000 {
        h[z.next(&mut rng)] += 1;
    }
    let low_ids_share = h[..10].iter().sum::<u64>() as f64 / 200_000.0;
    assert!(low_ids_share < 0.2, "ids 0..10 hold {low_ids_share:.3} — scrambling broken?");
    let mut sorted = h.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let hot_share = sorted[..10].iter().sum::<u64>() as f64 / 200_000.0;
    assert!(hot_share > 0.3, "hottest 10 ids hold only {hot_share:.3} — skew lost");
}

// ---------------------------------------------------------------------------
// Size distributions vs documented averages (±10%)
// ---------------------------------------------------------------------------

#[test]
fn wiki_url_lengths_match_documented_average() {
    let cfg = WikiConfig::default();
    let lens: Vec<usize> = (0..20_000u64).map(|i| cfg.url(i).len()).collect();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    // Documented (§5.1.2 / module docs): 31–298 bytes, average ≈50.
    assert!((45.0..=55.0).contains(&mean), "mean URL length {mean:.1} outside 50±10%");
    assert!(lens.iter().all(|l| (31..=298).contains(l)));
}

#[test]
fn wiki_abstract_lengths_match_documented_average() {
    let cfg = WikiConfig::default();
    let lens: Vec<usize> = (0..20_000u64).map(|i| cfg.abstract_text(i, 0).len()).collect();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    // Documented: 1–1036 bytes, average ≈96.
    assert!((86.4..=105.6).contains(&mean), "mean abstract length {mean:.1} outside 96±10%");
    assert!(lens.iter().all(|l| (1..=1036).contains(l)));
}

#[test]
fn eth_tx_sizes_match_documented_average() {
    let cfg = EthConfig::default();
    let mut lens = Vec::new();
    for b in 0..60u64 {
        lens.extend(cfg.block_entries(b).iter().map(|e| e.value.len()));
    }
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    // Documented (§5.1.3 / module docs): average ≈532 B, 100 B–57 KB.
    assert!((478.8..=585.2).contains(&mean), "mean raw tx size {mean:.1} outside 532±10%");
    assert!(lens.iter().all(|l| (100..=57_738).contains(l)));
}

#[test]
fn ycsb_value_lengths_match_documented_average() {
    let cfg = YcsbConfig::default();
    let lens: Vec<usize> = (0..20_000u64).map(|i| cfg.value(i, 0).len()).collect();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    // Documented (§5.1.1): values average 256 bytes (uniform ±50%).
    assert!((230.4..=281.6).contains(&mean), "mean value length {mean:.1} outside 256±10%");
}

// ---------------------------------------------------------------------------
// Op-stream composition sanity (feeds the BENCH verb percentiles)
// ---------------------------------------------------------------------------

#[test]
fn mixed_stream_produces_every_verb_for_the_grid() {
    let cfg = YcsbConfig::default();
    let mix = OpMix::crud_scan(70, 15, 5, 10).with_scan_limit(20);
    let ops = cfg.operations_mix(1_000, 4_000, mix, 0.5, 42);
    let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
    assert!(count(|o| matches!(o, Op::Read(_))) > 2_000);
    assert!(count(|o| matches!(o, Op::Write(_))) > 300);
    assert!(count(|o| matches!(o, Op::Delete(_))) > 80);
    assert!(count(|o| matches!(o, Op::Scan { .. })) > 200);
}
