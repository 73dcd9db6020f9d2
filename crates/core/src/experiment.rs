//! The experiment configuration, the per-benchmark record and
//! the two paper computations that are not scenario grids.
//!
//! The measurement engine is [`crate::study`] (declarative
//! [`StudySpec`] grids) run through
//! [`StudySession`](crate::session::StudySession); the paper's tables
//! are presets over it ([`crate::presets`]) and the rendering is a set
//! of pure views ([`crate::views`]). This module keeps what those
//! layers build on:
//!
//! * [`ExperimentConfig`], the cache configuration every preset starts
//!   from ([`ExperimentConfig::study`]);
//! * [`BenchResult`], the per-benchmark record shape Table II's
//!   dataset view returns;
//! * [`claims_from`], the §IV-B1 headline arithmetic over that dataset;
//! * [`rng_error`], the §IV-B2 RNG repetition study, which simulates no
//!   cache at all.
//!
//! # Examples
//!
//! Table II through the session front door:
//!
//! ```no_run
//! use aging_cache::experiment::{claims_from, ExperimentConfig};
//! use aging_cache::session::StudySession;
//! use aging_cache::{presets, views};
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let report = StudySession::new().run(&presets::table2(&ExperimentConfig::paper_reference()))?;
//! println!("{}", views::table2(&report)?);
//! let claims = claims_from(&views::table2_dataset(&report)?);
//! println!("LT extension at 16 kB: {:.1} %", 100.0 * claims.extension_per_size[1]);
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::lfsr::Lfsr;
use crate::paper;
use crate::report::Table;
use crate::study::{ScenarioRecord, StudySpec};
use cache_sim::CacheGeometry;
use trace_synth::rng::SplitMix64;

/// A cache configuration plus simulation horizon for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Number of uniform banks `M`.
    pub banks: u32,
    /// Trace length in cycles.
    pub trace_cycles: u64,
    /// Base seed; benchmark `i` uses `seed + i`.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's reference configuration: 16 kB, 16 B lines, M = 4.
    pub fn paper_reference() -> Self {
        Self {
            cache_bytes: 16 * 1024,
            line_bytes: 16,
            banks: 4,
            trace_cycles: 320_000,
            seed: 1000,
        }
    }

    /// Overrides the cache size (kB).
    #[must_use]
    pub fn with_cache_kb(mut self, kb: u64) -> Self {
        self.cache_bytes = kb * 1024;
        self
    }

    /// Overrides the line size (bytes).
    #[must_use]
    pub fn with_line_bytes(mut self, bytes: u32) -> Self {
        self.line_bytes = bytes;
        self
    }

    /// Overrides the bank count.
    #[must_use]
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }

    /// Overrides the simulated trace length.
    #[must_use]
    pub fn with_trace_cycles(mut self, cycles: u64) -> Self {
        self.trace_cycles = cycles;
        self
    }

    /// The geometry this configuration describes.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn geometry(&self) -> Result<CacheGeometry, CoreError> {
        Ok(CacheGeometry::direct_mapped(
            self.cache_bytes,
            self.line_bytes,
            self.banks,
        )?)
    }

    /// A [`StudySpec`] at exactly this configuration: single point on
    /// every geometry axis, the full suite on the workload axis, the
    /// historic seeds. The starting point of every preset.
    pub fn study(&self, name: impl Into<String>) -> StudySpec {
        StudySpec::new(name)
            .cache_bytes([self.cache_bytes])
            .line_bytes([self.line_bytes])
            .banks([self.banks])
            .trace_cycles(self.trace_cycles)
            .base_seed(self.seed)
            .policy_seed(1)
    }
}

/// Per-benchmark results at one configuration (legacy record shape; the
/// Study API's [`ScenarioRecord`] carries the same metrics plus the full
/// scenario coordinates).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Energy saving vs the monolithic always-on cache.
    pub esav: f64,
    /// Lifetime without re-indexing (identity policy), years.
    pub lt0_years: f64,
    /// Lifetime with Probing re-indexing, years.
    pub lt_years: f64,
    /// Per-bank useful idleness (Table I's metric).
    pub useful_idleness: Vec<f64>,
    /// Per-bank sleep fractions (what the aging model consumes).
    pub sleep_fractions: Vec<f64>,
    /// Cache miss rate on the trace.
    pub miss_rate: f64,
}

impl BenchResult {
    /// Average useful idleness over the banks.
    pub fn avg_useful_idleness(&self) -> f64 {
        self.useful_idleness.iter().sum::<f64>() / self.useful_idleness.len() as f64
    }
}

impl From<&ScenarioRecord> for BenchResult {
    fn from(r: &ScenarioRecord) -> Self {
        Self {
            name: r.scenario.workload.clone(),
            esav: r.esav,
            lt0_years: r.lt0_years(),
            lt_years: r.lt_years(),
            useful_idleness: r.useful_idleness.clone(),
            sleep_fractions: r.sleep_fractions.clone(),
            miss_rate: r.miss_rate,
        }
    }
}

fn mean<'a>(values: impl Iterator<Item = &'a f64>) -> f64 {
    let v: Vec<f64> = values.copied().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The headline quantities of §IV-B1, computed from measured data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimsSummary {
    /// Mean LT0 / 2.93 − 1 at 8 kB (paper: ≈ 9 %).
    pub lt0_gain_8k: f64,
    /// Mean (LT − LT0)/LT0 at 8 kB (paper: ≈ 38 %).
    pub reindex_further_gain_8k: f64,
    /// Mean LT / 2.93 − 1 per size (paper: 48 / 47.1 / 57.6 %).
    pub extension_per_size: [f64; 3],
    /// The largest single LT / 2.93 across suite and sizes with its
    /// benchmark (paper: sha, ≈ 2x).
    pub best_case: (String, f64),
    /// The smallest single LT / 2.93 across suite and sizes (paper: ≥ 22 %
    /// gain for the worst configuration).
    pub worst_case: (String, f64),
}

/// Computes the headline claims from a Table II dataset.
pub fn claims_from(data: &[(u64, Vec<BenchResult>)]) -> ClaimsSummary {
    let base = paper::CELL_LIFETIME_YEARS;
    let eight = &data[0].1;
    let lt0_gain_8k = mean(eight.iter().map(|r| &r.lt0_years)) / base - 1.0;
    let reindex_further_gain_8k = eight
        .iter()
        .map(|r| (r.lt_years - r.lt0_years) / r.lt0_years)
        .sum::<f64>()
        / eight.len() as f64;
    let mut extension = [0.0; 3];
    for (i, (_, results)) in data.iter().enumerate() {
        extension[i] = mean(results.iter().map(|r| &r.lt_years)) / base - 1.0;
    }
    let mut best = (String::new(), 0.0f64);
    let mut worst = (String::new(), f64::INFINITY);
    for (_, results) in data {
        for r in results {
            let f = r.lt_years / base;
            if f > best.1 {
                best = (r.name.clone(), f);
            }
            if f < worst.1 {
                worst = (r.name.clone(), f);
            }
        }
    }
    ClaimsSummary {
        lt0_gain_8k,
        reindex_further_gain_8k,
        extension_per_size: extension,
        best_case: best,
        worst_case: worst,
    }
}

/// §IV-B2: RNG repetition error vs number of updates, for the Scrambling
/// LFSR against an ideal uniform generator. The paper argues the error of
/// a uniform RNG shrinks as `1/√N` and is therefore negligible over a
/// lifetime of updates; a maximal-length LFSR is even better (its counts
/// are exactly balanced every period).
///
/// # Errors
///
/// Propagates LFSR construction errors.
pub fn rng_error(bank_bits: u32, draws: &[u64]) -> Result<Table, CoreError> {
    let m = 1u32 << bank_bits;
    let mut t = Table::new(
        format!("RNG repetition error vs updates (M = {m})"),
        vec![
            "N updates".into(),
            "LFSR err".into(),
            "uniform err".into(),
            "1/sqrt(N)".into(),
        ],
    );
    for &n in draws {
        // LFSR mask stream.
        let mut lfsr = Lfsr::new(bank_bits, 1)?;
        let mut counts = vec![0u64; m as usize];
        for _ in 0..n {
            counts[(lfsr.next_value() as u32 & (m - 1)) as usize] += 1;
        }
        let lfsr_err = rel_error(&counts[1..], n); // 0 never drawn
                                                   // Ideal uniform generator over all M values.
        let mut rng = SplitMix64::new(0x5eed ^ n);
        let mut counts = vec![0u64; m as usize];
        for _ in 0..n {
            counts[rng.next_below(m as u64) as usize] += 1;
        }
        let uni_err = rel_error(&counts, n);
        t.push_row(vec![
            n.to_string(),
            format!("{lfsr_err:.4}"),
            format!("{uni_err:.4}"),
            format!("{:.4}", 1.0 / (n as f64).sqrt()),
        ]);
    }
    t.push_note("uniform error tracks 1/sqrt(N); the LFSR is exactly balanced each period");
    Ok(t)
}

/// Root-mean-square relative deviation of `counts` from a uniform share
/// of `n` draws.
fn rel_error(counts: &[u64], n: u64) -> f64 {
    let ideal = n as f64 / counts.len() as f64;
    if ideal == 0.0 {
        return 0.0;
    }
    let ss: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - ideal;
            d * d
        })
        .sum();
    (ss / counts.len() as f64).sqrt() / ideal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StudySession;
    use crate::{presets, views};

    fn quick_cfg() -> ExperimentConfig {
        // Shorter traces keep debug-mode tests fast; two full macro
        // periods are enough for stable idleness statistics.
        ExperimentConfig::paper_reference().with_trace_cycles(160_000)
    }

    #[test]
    fn reference_benchmark_run_reproduces_sha_shape() {
        let cfg = quick_cfg();
        let spec = cfg
            .study("bench:sha")
            .workload_names(["sha"])
            .unwrap()
            .policies(["probing"]);
        let report = StudySession::new().run(&spec).unwrap();
        let r = BenchResult::from(&report.records()[0]);
        // sha: banks 1-2 nearly always idle, banks 0,3 busy.
        assert!(r.useful_idleness[1] > 0.9);
        assert!(r.useful_idleness[2] > 0.9);
        assert!(r.useful_idleness[0] < 0.15);
        assert!(r.lt_years > r.lt0_years);
        assert!((r.esav - 0.443).abs() < 0.05, "esav {}", r.esav);
    }

    #[test]
    fn table1_structure() {
        let cfg = quick_cfg();
        let report = StudySession::new().run(&presets::table1(&cfg)).unwrap();
        let t = views::table1(&report).unwrap();
        assert_eq!(t.rows().len(), 18);
        assert!(t.to_string().contains("adpcm.dec"));
        assert!(t.to_markdown().contains("| bench |"));
    }

    #[test]
    fn rng_error_decays_with_n() {
        let t = rng_error(2, &[64, 4096]).unwrap();
        let rows = t.rows();
        let err_small: f64 = rows[0][2].parse().unwrap();
        let err_large: f64 = rows[1][2].parse().unwrap();
        assert!(
            err_large < err_small,
            "uniform error must decay: {err_small} -> {err_large}"
        );
        let lfsr_large: f64 = rows[1][1].parse().unwrap();
        assert!(lfsr_large <= err_large, "LFSR is at least as balanced");
    }

    #[test]
    fn claims_math_is_consistent() {
        // Synthetic dataset exercising the aggregation.
        let mk = |name: &str, lt0: f64, lt: f64| BenchResult {
            name: name.into(),
            esav: 0.4,
            lt0_years: lt0,
            lt_years: lt,
            useful_idleness: vec![0.5; 4],
            sleep_fractions: vec![0.5; 4],
            miss_rate: 0.1,
        };
        let data = vec![
            (8u64, vec![mk("a", 3.0, 4.0), mk("b", 3.2, 6.0)]),
            (16u64, vec![mk("a", 3.0, 4.4), mk("b", 3.1, 4.5)]),
            (32u64, vec![mk("a", 3.0, 4.6), mk("b", 3.2, 4.9)]),
        ];
        let s = claims_from(&data);
        assert!((s.lt0_gain_8k - (3.1 / 2.93 - 1.0)).abs() < 1e-9);
        assert_eq!(s.best_case.0, "b");
        assert!((s.best_case.1 - 6.0 / 2.93).abs() < 1e-9);
        assert_eq!(s.worst_case.0, "a");
    }
}
