//! RRAM non-ideality models: programming noise and bit-error rates.
//!
//! The paper (Section 5.2) models device non-ideality by perturbing every
//! stored weight as `W̃ = W ⊙ (1 + η)` with Gaussian `η`, and calibrates the
//! noise level against the 4.04 % bit-error rate measured on a fabricated
//! 2-bit MLC RRAM chip after one day of retention (Fan et al.). SLC cells
//! share the same device physics but have a 3× wider level spacing, so the
//! same disturbance produces a far smaller analog error and a negligible flip
//! probability; 3-b/4-b MLCs have much narrower spacing and correspondingly
//! higher error rates, which is why HyFlexPIM adopts 2-b MLC.
//!
//! Two distinct error mechanisms are modelled:
//!
//! 1. **Write-time analog conductance error** — a small, Gaussian, relative
//!    error on the programmed conductance (`write_sigma`,
//!    default 3 %, typical of program-and-verify RRAM programming). This is
//!    the error that perturbs analog GEMV results; its effective magnitude in
//!    weight units is given by [`NoiseModel::weight_sigma`].
//! 2. **Retention-driven level flips** — after retention the conductance can
//!    drift across a decision boundary, flipping the stored level. The drift
//!    magnitude (`retention_sigma`) is reverse-calibrated so the
//!    2-bit MLC flip probability equals the paper's 4.04 %
//!    ([`NoiseModel::bit_error_rate`]). SLC, with its 3× wider windows, ends
//!    up orders of magnitude more robust — exactly the asymmetry the hybrid
//!    SLC/MLC mapping exploits.

use crate::cell::CellMode;
use crate::error::RramError;
use crate::Result;
use hyflex_tensor::rng::Rng;

/// The MLC bit-error rate measured by Fan et al. after one day of retention,
/// used by the paper to calibrate the noise model.
pub const PAPER_MLC2_BER: f64 = 0.0404;

/// Default relative write-time conductance error (program-and-verify RRAM).
pub const DEFAULT_WRITE_SIGMA: f64 = 0.03;

/// Standard normal upper-tail probability `Q(x) = P(Z > x)`.
fn normal_tail(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function (Abramowitz & Stegun 7.1.26, |err| < 1.5e-7).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let result = poly * (-x_abs * x_abs).exp();
    if sign_negative {
        2.0 - result
    } else {
        result
    }
}

/// Computes the average level-flip probability for a cell mode given a
/// relative conductance disturbance standard deviation `sigma_g`.
///
/// The model: levels are spaced linearly across the conductance window; a read
/// flips when the Gaussian conductance disturbance exceeds half the level
/// spacing. The flip probability is averaged over all programmable levels
/// (interior levels can flip in either direction).
pub fn ber_from_sigma(sigma_g: f64, mode: CellMode) -> f64 {
    if sigma_g <= 0.0 {
        return 0.0;
    }
    let levels = mode.conductance_levels();
    let n = levels.len();
    let spacing = levels[1] - levels[0];
    let half = spacing / 2.0;
    let mut total = 0.0f64;
    for (i, &g) in levels.iter().enumerate() {
        let std_abs = sigma_g * g;
        if std_abs <= 0.0 {
            continue;
        }
        let tail = normal_tail(half / std_abs);
        // End levels can only flip inward; interior levels flip either way.
        let sides = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
        total += sides * tail;
    }
    (total / n as f64).min(1.0)
}

/// Inverts [`ber_from_sigma`]: finds the relative conductance disturbance that
/// produces the target bit-error rate for the given mode.
///
/// # Errors
///
/// Returns [`RramError::InvalidConfig`] if `target_ber` is outside `(0, 0.5)`.
pub fn sigma_from_ber(target_ber: f64, mode: CellMode) -> Result<f64> {
    if !(target_ber > 0.0 && target_ber < 0.5) {
        return Err(RramError::InvalidConfig(format!(
            "target BER {target_ber} must lie in (0, 0.5)"
        )));
    }
    // Bisection: BER is monotone increasing in sigma.
    let mut lo = 1e-6f64;
    let mut hi = 10.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ber_from_sigma(mid, mode) < target_ber {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Device-level noise model shared by every RRAM array in the architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relative write-time conductance error standard deviation.
    write_sigma: f64,
    /// Relative retention-drift disturbance standard deviation.
    retention_sigma: f64,
}

impl NoiseModel {
    /// Builds a noise model from explicit write and retention sigmas.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] for negative or non-finite values.
    // hyflex-lint: allow(U2) — builds the explicit-sigma models of `weight_sigma_scales_with_level_count` and `constructors_validate_input`
    pub fn new(write_sigma: f64, retention_sigma: f64) -> Result<Self> {
        for (name, v) in [
            ("write_sigma", write_sigma),
            ("retention_sigma", retention_sigma),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(RramError::InvalidConfig(format!(
                    "{name} {v} must be finite and non-negative"
                )));
            }
        }
        Ok(NoiseModel {
            write_sigma,
            retention_sigma,
        })
    }

    /// The paper's calibration: a 3 % write-time error plus a retention drift
    /// whose 2-bit MLC bit-error rate equals 4.04 %.
    #[allow(clippy::expect_used)]
    pub fn calibrated_to_paper() -> Self {
        // hyflex-lint: allow(E1) — PAPER_MLC2_BER is a compile-time paper
        // constant inside sigma_from_ber's accepted range (unit-tested).
        let retention =
            sigma_from_ber(PAPER_MLC2_BER, CellMode::MLC2).expect("paper BER constant is in range");
        NoiseModel {
            write_sigma: DEFAULT_WRITE_SIGMA,
            retention_sigma: retention,
        }
    }

    /// A noiseless model (useful for functional validation).
    // hyflex-lint: allow(U2) — the noise-free baseline the crossbar, mapping and noise_sim tests compare exact arithmetic against
    pub fn ideal() -> Self {
        NoiseModel {
            write_sigma: 0.0,
            retention_sigma: 0.0,
        }
    }

    /// Bit-error (level-flip) rate for the given cell mode, driven by
    /// retention drift.
    pub fn bit_error_rate(&self, mode: CellMode) -> f64 {
        ber_from_sigma(self.retention_sigma, mode)
    }

    /// Effective relative standard deviation of the *weight-level* Gaussian
    /// error (Eq. 5) for weights stored in the given mode.
    ///
    /// Two effects are folded together:
    ///
    /// * spacing between conductance levels shrinks as `1/(levels-1)`, so the
    ///   same write error is `(levels-1)×` larger in normalized level units
    ///   (SLC = 1×, 2-b MLC = 3×, 3-b MLC = 7×);
    /// * the analog accumulation across the 64 word lines of an array averages
    ///   independent per-cell errors before the ADC samples the column sum,
    ///   shrinking the error relative to full scale by roughly `1/sqrt(rows)`
    ///   (= 1/8 for the paper's 64-row arrays).
    pub fn weight_sigma(&self, mode: CellMode) -> f64 {
        /// `1/sqrt(64)`: error averaging across the 64-row analog accumulation.
        const ACCUMULATION_FACTOR: f64 = 0.125;
        self.write_sigma * f64::from(mode.levels() - 1) * ACCUMULATION_FACTOR
    }

    /// Samples a single relative write-time conductance error.
    pub fn sample_conductance_error(&self, rng: &mut Rng) -> f64 {
        if self.write_sigma == 0.0 {
            0.0
        } else {
            rng.normal_with(0.0, self.write_sigma)
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::calibrated_to_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-4);
        assert!((erfc(-1.0) - 1.842_701).abs() < 1e-4);
        assert!(erfc(5.0) < 1e-10);
    }

    #[test]
    fn normal_tail_reference_values() {
        assert!((normal_tail(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_tail(1.645) - 0.05).abs() < 2e-3);
        assert!((normal_tail(2.326) - 0.01).abs() < 1e-3);
    }

    #[test]
    fn ber_is_monotone_in_sigma_and_levels() {
        let low = ber_from_sigma(0.02, CellMode::MLC2);
        let high = ber_from_sigma(0.10, CellMode::MLC2);
        assert!(high > low);
        let slc = ber_from_sigma(0.05, CellMode::Slc);
        let mlc2 = ber_from_sigma(0.05, CellMode::MLC2);
        let mlc3 = ber_from_sigma(0.05, CellMode::Mlc { bits: 3 });
        assert!(slc < mlc2);
        assert!(mlc2 < mlc3);
        assert_eq!(ber_from_sigma(0.0, CellMode::MLC2), 0.0);
    }

    #[test]
    fn sigma_from_ber_round_trips() {
        let sigma = sigma_from_ber(PAPER_MLC2_BER, CellMode::MLC2).unwrap();
        let ber = ber_from_sigma(sigma, CellMode::MLC2);
        assert!(
            (ber - PAPER_MLC2_BER).abs() < 1e-4,
            "calibrated sigma {sigma} reproduces BER {ber}"
        );
        assert!(sigma_from_ber(0.0, CellMode::Slc).is_err());
        assert!(sigma_from_ber(0.7, CellMode::Slc).is_err());
    }

    #[test]
    fn calibrated_model_matches_paper_constants() {
        let model = NoiseModel::calibrated_to_paper();
        let mlc_ber = model.bit_error_rate(CellMode::MLC2);
        assert!((mlc_ber - PAPER_MLC2_BER).abs() < 1e-3);
        // SLC flips are orders of magnitude rarer than MLC flips.
        let slc_ber = model.bit_error_rate(CellMode::Slc);
        assert!(slc_ber < mlc_ber / 100.0);
        // Higher-level MLCs are much worse than 2-bit MLC.
        let mlc4_ber = model.bit_error_rate(CellMode::Mlc { bits: 4 });
        assert!(mlc4_ber > mlc_ber);
        assert!((model.write_sigma - DEFAULT_WRITE_SIGMA).abs() < 1e-12);
        assert!(model.retention_sigma > model.write_sigma);
    }

    #[test]
    fn weight_sigma_scales_with_level_count() {
        let model = NoiseModel::new(0.08, 0.08).unwrap();
        let slc = model.weight_sigma(CellMode::Slc);
        let mlc2 = model.weight_sigma(CellMode::MLC2);
        let mlc3 = model.weight_sigma(CellMode::Mlc { bits: 3 });
        assert!((slc - 0.01).abs() < 1e-12);
        assert!((mlc2 - 0.03).abs() < 1e-12);
        assert!((mlc3 - 0.07).abs() < 1e-12);
        assert!((mlc2 / slc - 3.0).abs() < 1e-9);
        assert!((mlc3 / slc - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_model_is_a_no_op() {
        let model = NoiseModel::ideal();
        assert_eq!(model.weight_sigma(CellMode::MLC2), 0.0);
        assert_eq!(model.bit_error_rate(CellMode::MLC2), 0.0);
    }

    #[test]
    fn constructors_validate_input() {
        assert!(NoiseModel::new(-0.1, 0.0).is_err());
        assert!(NoiseModel::new(f64::NAN, 0.0).is_err());
        assert!(NoiseModel::new(0.01, -1.0).is_err());
        assert!(NoiseModel::new(0.01, 0.1).is_ok());
    }
}
