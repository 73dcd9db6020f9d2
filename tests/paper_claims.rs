//! Integration: the paper's headline claims hold on the full pipeline.
//!
//! These tests run the complete stack — synthetic traces, banked cache
//! simulation, energy accounting, NBTI/SNM lifetime — at reduced trace
//! lengths and assert the paper's *qualitative* results: who wins, by
//! roughly what factor, and where the trends point.

use nbti_cache_repro::arch::experiment::{claims_from, BenchResult, ExperimentConfig};
use nbti_cache_repro::arch::StudySession;

fn quick(kb: u64, banks: u32) -> ExperimentConfig {
    ExperimentConfig::paper_reference()
        .with_cache_kb(kb)
        .with_banks(banks)
        .with_trace_cycles(160_000)
}

/// The whole suite at one configuration under Probing, one record per
/// benchmark.
fn run_suite(cfg: &ExperimentConfig) -> Vec<BenchResult> {
    let spec = cfg.study("suite").policies(["probing"]);
    let report = StudySession::new().run(&spec).expect("suite");
    report.records().iter().map(BenchResult::from).collect()
}

#[test]
fn reindexing_beats_power_management_on_every_benchmark() {
    let results = run_suite(&quick(16, 4));
    assert_eq!(results.len(), 18);
    for r in &results {
        assert!(
            r.lt_years > r.lt0_years,
            "{}: LT {} must exceed LT0 {}",
            r.name,
            r.lt_years,
            r.lt0_years
        );
        assert!(
            r.lt0_years >= 2.93 * 0.999,
            "{}: LT0 {} can never fall below the monolithic cell",
            r.name,
            r.lt0_years
        );
    }
}

#[test]
fn esav_averages_match_paper_per_size() {
    // Paper Table II averages: 32.2 / 44.3 / 55.5 %.
    let mut previous = 0.0;
    for (kb, paper) in [(8u64, 0.322), (16, 0.443), (32, 0.555)] {
        let results = run_suite(&quick(kb, 4));
        let esav = results.iter().map(|r| r.esav).sum::<f64>() / results.len() as f64;
        assert!(
            (esav - paper).abs() < 0.05,
            "{kb} kB: Esav {esav:.3} should be near the paper's {paper}"
        );
        assert!(esav > previous, "Esav must grow with cache size");
        previous = esav;
    }
}

#[test]
fn lifetime_grows_with_bank_count() {
    // Paper Table IV: both idleness and lifetime increase with M.
    let mut last_lt = 0.0;
    let mut last_idle = 0.0;
    for banks in [2u32, 4, 8] {
        let results = run_suite(&quick(16, banks));
        let lt = results.iter().map(|r| r.lt_years).sum::<f64>() / results.len() as f64;
        let idle =
            results.iter().map(|r| r.avg_useful_idleness()).sum::<f64>() / results.len() as f64;
        assert!(lt > last_lt, "LT must grow with M: {lt} after {last_lt}");
        assert!(idle > last_idle, "idleness must grow with M");
        last_lt = lt;
        last_idle = idle;
    }
    // M = 8 reaches roughly 2x the monolithic cell (paper: "about 2x").
    assert!(
        last_lt / 2.93 > 1.7,
        "M=8 should approach the paper's ~2x: got {:.2}x",
        last_lt / 2.93
    );
}

#[test]
fn headline_claims_within_tolerance() {
    let base = ExperimentConfig::paper_reference().with_trace_cycles(160_000);
    let data: Vec<(u64, _)> = [8u64, 16, 32]
        .iter()
        .map(|&kb| (kb, run_suite(&base.with_cache_kb(kb))))
        .collect();
    let s = claims_from(&data);
    // Power management alone: paper says ~9 %; accept the single-digit
    // neighbourhood.
    assert!(
        (0.0..0.20).contains(&s.lt0_gain_8k),
        "LT0 gain {:.3} out of range",
        s.lt0_gain_8k
    );
    // Re-indexing adds a large further gain: paper ~38 %.
    assert!(
        (0.25..0.70).contains(&s.reindex_further_gain_8k),
        "re-index gain {:.3} out of range",
        s.reindex_further_gain_8k
    );
    // Per-size lifetime extension: paper 48/47/58 %.
    for (i, ext) in s.extension_per_size.iter().enumerate() {
        assert!(
            (0.30..0.75).contains(ext),
            "extension[{i}] = {ext:.3} out of range"
        );
    }
    // Best case approaches 2x; worst configuration still gains >= ~15 %.
    assert!(s.best_case.1 > 1.6, "best case {:.2}x", s.best_case.1);
    assert!(s.worst_case.1 > 1.1, "worst case {:.2}x", s.worst_case.1);
}

#[test]
fn line_size_halves_esav_but_not_lifetime() {
    // Paper Table III: Esav 44.3 -> 31.9 %, LT 4.31 -> 4.23 years.
    let ls16 = run_suite(&quick(16, 4));
    let cfg32 = quick(16, 4).with_line_bytes(32);
    let ls32 = run_suite(&cfg32);
    let esav16 = ls16.iter().map(|r| r.esav).sum::<f64>() / 18.0;
    let esav32 = ls32.iter().map(|r| r.esav).sum::<f64>() / 18.0;
    let lt16 = ls16.iter().map(|r| r.lt_years).sum::<f64>() / 18.0;
    let lt32 = ls32.iter().map(|r| r.lt_years).sum::<f64>() / 18.0;
    assert!(
        esav32 < esav16 - 0.08,
        "bigger lines must cost energy saving: {esav16:.3} -> {esav32:.3}"
    );
    assert!(
        (lt16 - lt32).abs() / lt16 < 0.10,
        "lifetime is insensitive to line size: {lt16:.2} vs {lt32:.2}"
    );
}

#[test]
fn sha_is_a_standout_case() {
    // The paper singles out sha ("we obtain a 2x lifetime extension").
    let results = run_suite(&quick(16, 4));
    let sha = results.iter().find(|r| r.name == "sha").expect("sha");
    let gain = (sha.lt_years - sha.lt0_years) / sha.lt0_years;
    let avg_gain = results
        .iter()
        .map(|r| (r.lt_years - r.lt0_years) / r.lt0_years)
        .sum::<f64>()
        / 18.0;
    assert!(
        gain > avg_gain,
        "sha's re-indexing gain ({gain:.2}) should beat the average ({avg_gain:.2})"
    );
}
