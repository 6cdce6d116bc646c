//! Generator pin: the materialised arena of every workload family is
//! byte-identical to the one recorded below.
//!
//! Each family is generated at scale 60 000 and seed 42, materialised,
//! and written as an ESPT trace; the length and FNV-1a-64 digest of those
//! bytes must match the table. The digests were recorded from the
//! single-step materialiser (one `next_instr` per instruction, pushed
//! through `PackedTrace::push`) before the block-run packed emitter
//! replaced it, so any drift in the code image, the event walk, the
//! emitter or the ESPT encoder fails here. The golden fixtures in
//! `tests/fixtures` pin only three families at scale 6000.
//!
//! A deliberate generator change must re-record the table and say so:
//! every simulated result of the repository moves with it.

use event_sneak_peek::trace::espt::{self, TraceMeta};
use event_sneak_peek::workload::BenchmarkProfile;

const SCALE: u64 = 60_000;
const SEED: u64 = 42;

/// `(family, ESPT byte length, FNV-1a-64 of the bytes)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("amazon", 290_692, 0x8fa0_3c3a_fd64_48fb),
    ("bing", 292_994, 0x0975_37f6_8e46_eeaf),
    ("cnn", 291_977, 0x26af_9423_31aa_007d),
    ("facebook", 292_646, 0x4b04_31c7_a03d_05e5),
    ("gmaps", 291_315, 0x7a47_3a18_9c5a_d84d),
    ("gdocs", 297_043, 0x6bdb_4198_9544_cd1d),
    ("pixlr", 332_371, 0x1983_8405_77c8_75a8),
    ("serverasync", 297_513, 0x039a_2500_c163_236c),
    ("iotfsm", 277_091, 0x62c0_1c05_4ec1_6622),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn every_family_materialises_to_its_pinned_bytes() {
    let families = BenchmarkProfile::all_families();
    assert_eq!(families.len(), PINNED.len(), "a family is missing from the pin table");
    let mut drift = Vec::new();
    for (profile, &(name, len, digest)) in families.iter().zip(PINNED) {
        assert_eq!(profile.name(), name, "pin table order");
        let packed = profile.scaled(SCALE).build(SEED).materialise();
        let meta = TraceMeta { profile: name.to_string(), scale: SCALE, seed: SEED };
        let mut bytes = Vec::new();
        espt::write(&mut bytes, &meta, &packed).expect("in-memory ESPT write");
        let got = fnv1a64(&bytes);
        if bytes.len() != len || got != digest {
            drift.push(format!("{name}: {} bytes, FNV-1a {got:#018x}", bytes.len()));
        }
    }
    assert!(drift.is_empty(), "generated arenas drifted from the pin:\n{}", drift.join("\n"));
}
