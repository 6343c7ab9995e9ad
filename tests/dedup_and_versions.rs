//! Deduplication metrics and version-management flows across crates —
//! the §4.2 analysis and §5.4 experiments in miniature.

use siri::workloads::YcsbConfig;
use siri::{
    cost_model, metrics, Entry, Forkbase, IndexFactory, MbtFactory, MptFactory, MvmbFactory,
    MvmbParams, PageSet, PosFactory, PosParams, Session, SiriIndex, WriteBatch,
};

/// Build two sequential versions differing in an α fraction of records
/// over a *continuous key range* — the §4.2.2 analysis setting ("each
/// instance differs its predecessor by ratio α of a continuous key range").
fn two_versions<F: IndexFactory>(factory: &F, n: usize, alpha: f64) -> (PageSet, PageSet) {
    let ycsb = YcsbConfig::default();
    let mut data = ycsb.dataset(n);
    data.sort();
    let mut idx = factory.empty(siri::env_store());
    idx.batch_insert(data.clone()).unwrap();
    let v1 = idx.page_set();
    let count = ((n as f64 * alpha) as usize).max(1);
    let start = n / 3; // contiguous run in key order
    let updates: Vec<Entry> = data[start..start + count]
        .iter()
        .map(|e| Entry::new(e.key.clone(), bytes::Bytes::from(vec![0xEE; e.value.len()])))
        .collect();
    idx.batch_insert(updates).unwrap();
    (v1, idx.page_set())
}

#[test]
fn sequential_version_dedup_tracks_the_paper_model() {
    // §4.2.2 predicts η ≈ 1/2 − α/2 for MBT and POS-Tree. Check the shape:
    // η decreases with α and sits in a sensible band around the line.
    for factory in [PosFactory(PosParams::default())] {
        let mut last = 1.0f64;
        for alpha in [0.05, 0.2, 0.5] {
            let (v1, v2) = two_versions(&factory, 4_000, alpha);
            let eta = metrics::deduplication_ratio(&[v1, v2]);
            let predicted = cost_model::eta_sequential(alpha);
            assert!(eta < last, "η must fall as α grows");
            assert!(
                (eta - predicted).abs() < 0.25,
                "α={alpha}: η={eta:.3} too far from model {predicted:.3}"
            );
            last = eta;
        }
    }
}

#[test]
fn high_overlap_collaboration_ranks_structures_like_the_paper() {
    // §5.4.2 at high overlap: MPT achieves the highest dedup ratio; MBT the
    // lowest of the three SIRI structures.
    let ycsb = YcsbConfig::default();
    let init = ycsb.dataset(2_000);
    let loads = ycsb.collaboration(4, 4_000, 90);

    let run = |name: &str, sets: &mut Vec<PageSet>, mut idx_fn: Box<dyn FnMut() -> PageSet>| {
        let _ = name;
        sets.push(idx_fn());
    };
    let _ = run; // macro below is clearer

    macro_rules! dedup_of {
        ($factory:expr) => {{
            let store = siri::env_store();
            let factory = $factory;
            let mut sets = Vec::new();
            for load in &loads {
                let mut idx = factory.empty(store.clone());
                idx.batch_insert(init.clone()).unwrap();
                for chunk in load.chunks(1_000) {
                    idx.batch_insert(chunk.to_vec()).unwrap();
                }
                sets.push(idx.page_set());
            }
            metrics::deduplication_ratio(&sets)
        }};
    }

    let pos = dedup_of!(PosFactory(PosParams::default()));
    let mpt = dedup_of!(MptFactory);
    let mbt = dedup_of!(MbtFactory { buckets: 256, fanout: 8 });
    let mvmb = dedup_of!(MvmbFactory(MvmbParams::default()));

    assert!(mpt > pos, "paper: MPT highest dedup ratio (mpt={mpt:.3} pos={pos:.3})");
    assert!(pos > mbt, "paper: POS beats MBT (pos={pos:.3} mbt={mbt:.3})");
    assert!(pos >= mvmb - 0.05, "paper: POS ≥ baseline (pos={pos:.3} mvmb={mvmb:.3})");
    assert!(mpt > 0.5, "high overlap must share a lot, got {mpt:.3}");
}

#[test]
fn table3_parameter_trends() {
    // POS: larger nodes ⇒ lower η. (Table 3, left.)
    let eta_pos = |node: usize| {
        let f = PosFactory(PosParams::default().with_node_bytes(node));
        let (v1, v2) = two_versions(&f, 4_000, 0.1);
        metrics::deduplication_ratio(&[v1, v2])
    };
    assert!(eta_pos(512) > eta_pos(4096), "η(POS) must fall with node size");

    // MBT: more buckets ⇒ higher η. (Table 3, middle.)
    let eta_mbt = |buckets: usize| {
        let f = MbtFactory { buckets, fanout: 8 };
        let (v1, v2) = two_versions(&f, 4_000, 0.1);
        metrics::deduplication_ratio(&[v1, v2])
    };
    assert!(eta_mbt(1024) > eta_mbt(64), "η(MBT) must rise with bucket count");
}

/// Version management is the engine's: history is the list of published
/// roots and a rollback opens a branch at an older one.
#[test]
fn engine_branches_and_rolls_back() {
    let ycsb = YcsbConfig::default();
    let fb = Forkbase::with_store(PosFactory(PosParams::default()), siri::env_store());
    let mut history =
        vec![fb.commit("master", WriteBatch::from_entries(ycsb.dataset(500))).unwrap().root];
    for v in 1..=5u32 {
        let edits = WriteBatch::from_entries((0..50u64).map(|i| ycsb.entry(i, v)).collect());
        history.push(fb.commit("master", edits).unwrap().root);
    }
    assert_eq!(history.len(), 6);

    fb.open_branch("fix", history[history.len() - 4]);
    assert_eq!(fb.get("fix", &ycsb.key(7)).unwrap().unwrap(), ycsb.value(7, 2));
    // master unaffected.
    assert_eq!(fb.branch_digest("master").unwrap(), history[5]);
    assert_eq!(fb.get("master", &ycsb.key(7)).unwrap().unwrap(), ycsb.value(7, 5));
    // The two heads differ in exactly the 50 rewritten keys.
    let d = fb.head("master").unwrap().diff(&fb.head("fix").unwrap()).unwrap();
    assert_eq!(d.len(), 50);
}

/// Helper so the test reads naturally.
trait FromFactory {
    fn from_factory() -> siri::PosTree;
}
impl FromFactory for siri::PosTree {
    fn from_factory() -> siri::PosTree {
        siri::PosTree::new(siri::env_store(), PosParams::default())
    }
}
use siri::PosTree;

#[test]
fn figure1_shape_raw_vs_dedup() {
    // Raw storage grows ~linearly with versions; deduplicated grows by the
    // delta only — the motivation plot.
    let ycsb = YcsbConfig::default();
    let mut idx = PosTree::from_factory();
    idx.batch_insert(ycsb.dataset(3_000)).unwrap();
    let mut raw = 0u64;
    let mut union = PageSet::new();
    let mut raw_points = Vec::new();
    let mut dedup_points = Vec::new();
    for v in 1..=10u32 {
        idx.batch_insert((0..100u64).map(|i| ycsb.entry(i * 7 % 3_000, v)).collect()).unwrap();
        let pages = idx.page_set();
        raw += pages.byte_size();
        union.union_with(&pages);
        raw_points.push(raw);
        dedup_points.push(union.byte_size());
    }
    let raw_growth = raw_points[9] as f64 / raw_points[0] as f64;
    let dedup_growth = dedup_points[9] as f64 / dedup_points[0] as f64;
    assert!(raw_growth > 8.0, "raw must grow ~10x over 10 versions, got {raw_growth:.1}");
    // Scattered updates rewrite paths, so dedup still grows — but far
    // slower than raw (the Figure 1 gap).
    assert!(
        dedup_growth < raw_growth * 0.5,
        "dedup growth {dedup_growth:.1} must be well below raw {raw_growth:.1}"
    );
}
