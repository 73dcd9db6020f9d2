//! Bit-exactness pin for the synthetic trace generator: the first
//! 640k `(addr, kind)` pairs of every suite profile, digested with
//! FNV-1a. Any change to the generator's RNG draw order or address
//! arithmetic moves a digest, and with it every simulated number in
//! the study.

use cache_sim::AccessKind;
use trace_synth::source::Fnv64;
use trace_synth::suite;

/// Accesses digested per profile (the harness horizon).
const ACCESSES: usize = 640_000;

/// `(profile, digest)` of profile `i` at seed `1000 + i`.
const PINNED: [(&str, u64); 18] = [
    ("adpcm.dec", 0x5e8d_72aa_d4fc_a1e0),
    ("cjpeg", 0xfb0d_c80c_1734_289a),
    ("CRC32", 0x5900_e447_3139_41e3),
    ("dijkstra", 0x79f3_f2f7_d199_010d),
    ("djpeg", 0x9959_d50c_df23_2279),
    ("fft_1", 0xbed8_618a_a7d1_0685),
    ("fft_2", 0x0442_6d92_dd50_da4f),
    ("gsmd", 0xa8c9_1548_6ba8_2606),
    ("gsme", 0x6468_5cd7_011f_89ae),
    ("ispell", 0x7f2f_1977_bb54_308f),
    ("lame", 0x6133_f692_8d92_5b31),
    ("mad", 0xc229_ec21_b068_c6db),
    ("rijndael_i", 0xab30_e544_9c25_51f1),
    ("rijndael_o", 0xb5f8_6027_7e6f_1233),
    ("say", 0x432b_4cf3_c642_cbf3),
    ("search", 0x3b62_c7d3_1543_2c52),
    ("sha", 0x03ca_2e03_1dbd_14ed),
    ("tiff2bw", 0x613c_d159_8b21_5b21),
];

fn digest(profile: &trace_synth::WorkloadProfile, seed: u64) -> u64 {
    let mut h = Fnv64::new();
    for access in profile.trace(seed).take(ACCESSES) {
        h.update(&access.addr.to_le_bytes());
        h.update(&[u8::from(access.kind == AccessKind::Write)]);
    }
    h.finish()
}

#[test]
fn suite_traces_match_their_pinned_digests() {
    let profiles = suite::mediabench();
    let got: Vec<(String, u64)> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name().to_string(), digest(p, 1000 + i as u64)))
        .collect();
    assert_eq!(got.len(), PINNED.len());
    for ((name, d), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(*d, pinned, "{name}: trace digest moved to {d:#018x}");
    }
}
