//! Golden root digests: the chunker is part of a tree's identity, so any
//! change to the rolling kernels or the builder pipeline must reproduce
//! these digests bit for bit. Pinned on the per-byte `RollingHash::push`
//! implementation before the slice kernel existed; a failure here means a
//! boundary moved, never that the constants need refreshing.
//!
//! Sequence per configuration: seeded build of 4 000 entries → one batch of
//! 100 puts (overwrites and fresh keys) → one batch of 50 deletes. Value
//! lengths run from 0 to 399 bytes so entries shorter than, equal to and
//! much longer than the 67-byte window all occur.

use siri_core::{Entry, MemStore, SiriIndex, WriteBatch};
use siri_pos_tree::{PosParams, PosTree};

/// SplitMix64 — the test owns its generator so no workload crate change
/// can move the inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn value(&mut self) -> Vec<u8> {
        let len = (self.next() % 400) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn key(id: u64) -> Vec<u8> {
    format!("user{id:08}").into_bytes()
}

/// Root digests after build, after the 100-op update, after the 50 deletes.
fn run(params: PosParams) -> [String; 3] {
    let mut rng = Rng(0x5151_2020);
    let mut tree = PosTree::new(MemStore::new_shared(), params);

    // Ids are spaced by 3 so the update can land fresh keys between them.
    let base: Vec<Entry> = (0..4000u64).map(|i| Entry::new(key(i * 3), rng.value())).collect();
    tree.batch_insert(base).unwrap();
    let built = tree.root().to_hex();

    let mut update = WriteBatch::new();
    for _ in 0..100 {
        update.put(key(rng.next() % 12_500), rng.value());
    }
    tree.commit(update).unwrap();
    let updated = tree.root().to_hex();

    let mut deletes = WriteBatch::new();
    for _ in 0..50 {
        deletes.delete(key((rng.next() % 4000) * 3));
    }
    tree.commit(deletes).unwrap();
    [built, updated, tree.root().to_hex()]
}

fn check(name: &str, params: PosParams, golden: [&str; 3]) {
    let got = run(params);
    assert_eq!(got, golden, "{name}: a chunk boundary moved");
}

#[test]
fn default_params() {
    check(
        "default",
        PosParams::default(),
        [
            "3185935388f59cf7b5d5a35f31ee087cf5f030563032abf0adfc4de82a19f741",
            "266d76207853e23d27a42183be85aaa126e3784949537d0e14f51b84cb6a3937",
            "1b73676e4183f050950b8c761fa0c6ce4a7b4737cd0d90cbd109a79131393f96",
        ],
    );
}

#[test]
fn noms_rolling_window_internals() {
    check(
        "noms",
        PosParams::noms(),
        [
            "1cd40fec43ca5ebd020cf974f1497e413dd48e1c6aca0f350e16b1c3f225d755",
            "b647490c4edc642fac9c73f6aaed7c5489357540d5cc5d0c32640094faa914ad",
            "26c17468a7eed9997ff662d4516c7ca694f47de7585dfcefcddc4e062be7bedb",
        ],
    );
}

#[test]
fn forced_splice_policy() {
    check(
        "forced-splice",
        PosParams::forced_split(),
        [
            "6dfb1910ea710fd23b7b7f3cb69a72e3a7f4342844559e1bc0bfee777614fd24",
            "459ce07eb0db6853cf5b445903de855f599b5c3797adc9e62b68df604e47c5a7",
            "fd21d813c470444cc77564d0a8fb616651560fb4c076da242aeda79ebbea7baf",
        ],
    );
}
