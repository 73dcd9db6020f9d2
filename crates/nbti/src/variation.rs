//! Process-variation extension: per-cell Vth mismatch and extreme-value
//! bank lifetimes.
//!
//! The paper evaluates a *nominal* cell; real arrays carry random dopant
//! fluctuation, so each cell's pull-up pair starts with a threshold
//! mismatch `m = δVth,A − δVth,B`. A mismatched cell has one butterfly
//! lobe pre-shrunk and reaches the 20 %-SNM failure after *less* NBTI
//! drift — and a bank dies with its **first** cell. This module
//! characterizes the critical drift as a function of initial mismatch and
//! propagates it through the extreme-value statistics of `N` cells:
//!
//! ```text
//! P(max |m| ≤ x over N cells) = (2Φ(x/σm) − 1)^N
//! ```
//!
//! (Kang et al., IEEE TCAD 2008 — the paper's ref. \[23\] — analyze
//! exactly this Vth-variation + NBTI interaction at array level.)

use crate::error::NbtiError;
use crate::lifetime::LifetimeSolver;
use crate::snm::SnmSolver;
use crate::vtc::ReadInverter;

/// Characterized critical effective-stress budget vs initial mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationTable {
    /// Mismatch grid, volts (non-negative; symmetric by construction).
    mismatch_axis: Vec<f64>,
    /// Critical effective years at worst-device rate 1, per grid point.
    t_eff_star: Vec<f64>,
}

impl VariationTable {
    /// Interpolated critical budget at |mismatch| `m` volts (clamped to
    /// the characterized range).
    pub fn t_eff_star(&self, m: f64) -> f64 {
        let m = m.abs();
        let axis = &self.mismatch_axis;
        if m <= axis[0] {
            return self.t_eff_star[0];
        }
        if m >= axis[axis.len() - 1] {
            return self.t_eff_star[axis.len() - 1];
        }
        let i = axis.partition_point(|&a| a <= m) - 1;
        let t = (m - axis[i]) / (axis[i + 1] - axis[i]);
        self.t_eff_star[i] + t * (self.t_eff_star[i + 1] - self.t_eff_star[i])
    }

    /// The characterized grid (for reports).
    pub fn grid(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.mismatch_axis
            .iter()
            .copied()
            .zip(self.t_eff_star.iter().copied())
    }
}

/// Vth-variation model: iid normal offsets on each pull-up threshold.
///
/// # Examples
///
/// ```no_run
/// use nbti_model::{CellDesign, LifetimeSolver, VariationModel};
///
/// # fn main() -> Result<(), nbti_model::NbtiError> {
/// let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93)?;
/// let var = VariationModel::new(0.030, 1 << 15)?; // 30 mV sigma, 32k cells
/// let table = var.characterize(&solver)?;
/// // The median bank is noticeably shorter-lived than the nominal cell.
/// let median = var.bank_lifetime_quantile(&table, 1.0, 0.5);
/// assert!(median < 2.93);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma_vth: f64,
    cells_per_bank: u64,
}

impl VariationModel {
    /// Creates a model with per-device threshold sigma `sigma_vth` volts
    /// and `cells_per_bank` cells.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `sigma_vth` is not in
    /// `[0, 0.2)` V or `cells_per_bank` is zero.
    pub fn new(sigma_vth: f64, cells_per_bank: u64) -> Result<Self, NbtiError> {
        if !(0.0..0.2).contains(&sigma_vth) || !sigma_vth.is_finite() {
            return Err(NbtiError::InvalidParameter {
                name: "sigma_vth",
                value: sigma_vth,
                expected: "0 <= sigma < 0.2 V",
            });
        }
        if cells_per_bank == 0 {
            return Err(NbtiError::InvalidParameter {
                name: "cells_per_bank",
                value: 0.0,
                expected: "at least one cell",
            });
        }
        Ok(Self {
            sigma_vth,
            cells_per_bank,
        })
    }

    /// Per-device threshold sigma, volts.
    pub fn sigma_vth(&self) -> f64 {
        self.sigma_vth
    }

    /// Cells per bank.
    pub fn cells_per_bank(&self) -> u64 {
        self.cells_per_bank
    }

    /// Sigma of the *pair mismatch* `m = δA − δB` (√2 larger than the
    /// per-device sigma).
    pub fn sigma_mismatch(&self) -> f64 {
        self.sigma_vth * std::f64::consts::SQRT_2
    }

    /// Characterizes the critical effective-stress budget over a mismatch
    /// grid `0..4σm` using the solver's SNM machinery: the mismatched
    /// fresh cell is re-centred (its fresh SNM re-extracted) and the
    /// balanced-aging critical shift re-solved against the *nominal*
    /// failure threshold.
    ///
    /// # Errors
    ///
    /// Propagates SNM solver failures.
    pub fn characterize(&self, solver: &LifetimeSolver) -> Result<VariationTable, NbtiError> {
        let design = solver.design();
        let snm = SnmSolver::new();
        let target = solver.failure_snm();
        // 5σ covers the worst cell of ~10^6-cell banks (Φ⁻¹ of the
        // extreme quantile stays below 5 for N ≤ 1.7e6 at q ≥ 1 %).
        let points = 11usize;
        let max_m = (5.0 * self.sigma_mismatch()).max(1e-4);
        let mut mismatch_axis = Vec::with_capacity(points);
        let mut t_eff_star = Vec::with_capacity(points);
        for i in 0..points {
            let m = max_m * i as f64 / (points - 1) as f64;
            // The mismatch loads device A by +m/2 and relieves B by −m/2
            // (the sign convention is immaterial by symmetry). Aging then
            // adds the balanced drift dv on both.
            let snm_at = |dv: f64| -> Result<f64, NbtiError> {
                let e = snm.extract(
                    &ReadInverter::from_design(design, (m / 2.0 + dv).max(0.0)),
                    &ReadInverter::from_design(design, (-m / 2.0 + dv).max(0.0)),
                )?;
                Ok(e.snm)
            };
            // Bracket and bisect the first crossing, as in the nominal
            // solver.
            let step = design.vdd() / 22.0;
            let mut lo = 0.0f64;
            let mut hi = f64::NAN;
            let mut dv = 0.0;
            while dv <= design.vdd() {
                if snm_at(dv)? <= target {
                    hi = dv;
                    break;
                }
                lo = dv;
                dv += step;
            }
            let dv_star = if hi.is_nan() {
                0.0 // already dead at time zero (extreme mismatch)
            } else {
                let mut lo = lo;
                let mut hi = hi;
                for _ in 0..40 {
                    let mid = 0.5 * (lo + hi);
                    if snm_at(mid)? > target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                    if hi - lo < 1e-5 {
                        break;
                    }
                }
                0.5 * (lo + hi)
            };
            mismatch_axis.push(m);
            t_eff_star.push(solver.rd().effective_years_for(dv_star));
        }
        Ok(VariationTable {
            mismatch_axis,
            t_eff_star,
        })
    }

    /// Quantile `q` of the bank lifetime (years) at worst-device
    /// effective-stress rate `rate`, using the extreme-value law for the
    /// worst cell of the bank.
    ///
    /// The worst mismatch over `N` cells at bank-quantile `q` satisfies
    /// `(2Φ(x/σm) − 1)^N = 1 − q`, i.e. the bank's `q`-quantile lifetime
    /// is driven by the `(1 − q)^(1/N)` quantile of the folded normal.
    pub fn bank_lifetime_quantile(&self, table: &VariationTable, rate: f64, q: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        let q = q.clamp(1e-12, 1.0 - 1e-12);
        // Worst-cell mismatch at this bank quantile.
        let p_single = (1.0 - q).powf(1.0 / self.cells_per_bank as f64);
        let p = 0.5 * (p_single + 1.0);
        // When `p` rounds to 1 (a tiny `q` or a huge cell count) the
        // worst cell lies beyond any finite quantile, so beyond the
        // characterized range: take the range's end, as `t_eff_star`
        // does for finite mismatches past it.
        let x = if p < 1.0 {
            self.sigma_mismatch() * inverse_normal_cdf(p)
        } else if self.sigma_vth > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        table.t_eff_star(x) / rate
    }

    /// Convenience: the median bank lifetime at `rate`.
    pub fn median_bank_lifetime(&self, table: &VariationTable, rate: f64) -> f64 {
        self.bank_lifetime_quantile(table, rate, 0.5)
    }
}

/// Acklam's rational approximation of the standard normal inverse CDF
/// (|relative error| < 1.15e-9 over the open unit interval).
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p) && p > 0.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::CellDesign;
    use std::sync::OnceLock;

    fn solver() -> &'static LifetimeSolver {
        static S: OnceLock<LifetimeSolver> = OnceLock::new();
        S.get_or_init(|| LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap())
    }

    #[test]
    fn inverse_cdf_anchors() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.8413447460685429) - 1.0).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.9772498680518208) - 2.0).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.158655) + 1.0).abs() < 1e-4);
    }

    #[test]
    fn critical_budget_shrinks_with_mismatch() {
        let var = VariationModel::new(0.030, 1 << 14).unwrap();
        let table = var.characterize(solver()).unwrap();
        let points: Vec<(f64, f64)> = table.grid().collect();
        for w in points.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "budget must not grow with mismatch: {points:?}"
            );
        }
        assert!(points[0].1 > 0.0);
    }

    #[test]
    fn zero_variation_recovers_the_nominal_cell() {
        let var = VariationModel::new(0.0, 1 << 14).unwrap();
        let table = var.characterize(solver()).unwrap();
        // rate 0.5 = always-on balanced cell: the calibration anchor.
        let lt = var.median_bank_lifetime(&table, 0.5);
        assert!((lt - 2.93).abs() < 0.05, "lt = {lt}");
    }

    #[test]
    fn variation_costs_lifetime_and_bigger_banks_cost_more() {
        let table30 = VariationModel::new(0.030, 1 << 10)
            .unwrap()
            .characterize(solver())
            .unwrap();
        let small = VariationModel::new(0.030, 1 << 10).unwrap();
        let large = VariationModel::new(0.030, 1 << 18).unwrap();
        let nominal = 2.93;
        let lt_small = small.median_bank_lifetime(&table30, 0.5);
        let lt_large = large.median_bank_lifetime(&table30, 0.5);
        assert!(
            lt_small < nominal,
            "variation must cost lifetime: {lt_small}"
        );
        assert!(
            lt_large < lt_small,
            "more cells, worse worst-case: {lt_large} vs {lt_small}"
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let var = VariationModel::new(0.025, 1 << 15).unwrap();
        let table = var.characterize(solver()).unwrap();
        let q10 = var.bank_lifetime_quantile(&table, 0.5, 0.10);
        let q50 = var.bank_lifetime_quantile(&table, 0.5, 0.50);
        let q90 = var.bank_lifetime_quantile(&table, 0.5, 0.90);
        assert!(
            q10 <= q50 && q50 <= q90,
            "lifetime quantiles must be non-decreasing in q: {q10} {q50} {q90}"
        );
    }

    #[test]
    fn sleep_still_helps_under_variation() {
        let var = VariationModel::new(0.030, 1 << 15).unwrap();
        let table = var.characterize(solver()).unwrap();
        let busy = var.median_bank_lifetime(&table, 0.5);
        let drowsy = var.median_bank_lifetime(&table, 0.5 * 0.3);
        assert!(drowsy > busy);
        assert_eq!(var.bank_lifetime_quantile(&table, 0.0, 0.5), f64::INFINITY);
    }

    #[test]
    fn extreme_quantiles_and_cell_counts_stay_finite() {
        let var = VariationModel::new(0.030, 37_000).unwrap();
        let table = var.characterize(solver()).unwrap();
        let (_, range_end) = table.grid().last().unwrap();
        // q -> 0 pushes the worst cell past the characterized range.
        for q in [0.0, 1e-300, 1e-12] {
            let lt = var.bank_lifetime_quantile(&table, 1.0, q);
            assert!(lt.is_finite() && lt > 0.0, "q = {q}: {lt}");
            assert_eq!(lt, range_end, "q = {q}");
        }
        let huge = VariationModel::new(0.030, 100_000_000_000_000_000).unwrap();
        let lt = huge.bank_lifetime_quantile(&table, 1.0, 0.5);
        assert!(lt.is_finite() && lt > 0.0, "{lt}");
        // No variation: every cell is nominal whatever the quantile.
        let flat = VariationModel::new(0.0, 37_000).unwrap();
        let flat_table = flat.characterize(solver()).unwrap();
        assert_eq!(
            flat.bank_lifetime_quantile(&flat_table, 1.0, 0.0),
            flat.bank_lifetime_quantile(&flat_table, 1.0, 0.5)
        );
    }

    #[test]
    fn validation() {
        assert!(VariationModel::new(-0.01, 100).is_err());
        assert!(VariationModel::new(0.5, 100).is_err());
        assert!(VariationModel::new(0.03, 0).is_err());
    }
}
