//! Cell-level analog crossbar array model.
//!
//! An analog RRAM crossbar performs a vector–matrix multiplication in a
//! single step: every word line carries one input bit as a voltage, every
//! cell contributes a current proportional to `input × conductance`, and the
//! bit-line currents are the dot products (Kirchhoff's current law,
//! Figure 3(a) of the paper). This module models a single 64×128 array at
//! the cell level; the faster digit-level functional model used for whole
//! networks lives in [`crate::mapping`] and is validated against this one.

// hyflex-lint: allow-file(U2) — functional model of the analog crossbar; the `crossbar::tests` unit tests and the crossbar_gemv bench drive it
use crate::cell::{CellMode, RramCell};
use crate::error::RramError;
use crate::noise::NoiseModel;
use crate::spec::ArraySpec;
use crate::Result;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;

/// Read voltage applied to an active word line (volts). The absolute value
/// cancels in normalized dot products; it matters for energy accounting.
pub const READ_VOLTAGE_V: f64 = 0.2;

/// A single RRAM crossbar array of programmable cells.
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    spec: ArraySpec,
    mode: CellMode,
    cells: Vec<RramCell>,
    noise: NoiseModel,
}

impl CrossbarArray {
    /// Creates an array with every cell in its lowest conductance state.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] if the cell mode is unsupported.
    pub fn new(spec: ArraySpec, mode: CellMode, noise: NoiseModel) -> Result<Self> {
        mode.validate()?;
        let cells = vec![RramCell::new(mode); spec.cells()];
        Ok(CrossbarArray {
            spec,
            mode,
            cells,
            noise,
        })
    }

    /// Cell mode of the array.
    pub fn mode(&self) -> CellMode {
        self.mode
    }

    /// Reconfigures the array between SLC and MLC operation.
    ///
    /// The paper stresses that SLC and MLC share the same physical array and
    /// word-line drivers; switching modes only changes how levels are
    /// interpreted (plus the ADC resolution and shift-and-add weights).
    /// Reconfiguring resets all cells to the lowest state, as a real
    /// re-programming pass would.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] if the cell mode is unsupported.
    pub fn reconfigure(&mut self, mode: CellMode) -> Result<()> {
        mode.validate()?;
        self.mode = mode;
        self.cells = vec![RramCell::new(mode); self.spec.cells()];
        Ok(())
    }

    fn index(&self, row: usize, col: usize) -> Result<usize> {
        if row >= self.spec.rows || col >= self.spec.cols {
            return Err(RramError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.spec.rows, self.spec.cols),
            });
        }
        Ok(row * self.spec.cols + col)
    }

    /// Programs a block of levels starting at the array origin.
    ///
    /// `levels` must fit inside the array; entries must be valid levels for
    /// the current cell mode. Each write draws an independent conductance
    /// error from the noise model.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if the block does not fit, or
    /// [`RramError::LevelOutOfRange`] for an unstorable level.
    pub fn program_levels(&mut self, levels: &Matrix, rng: &mut Rng) -> Result<()> {
        if levels.rows() > self.spec.rows || levels.cols() > self.spec.cols {
            return Err(RramError::ShapeMismatch(format!(
                "{}x{} block does not fit a {}x{} array",
                levels.rows(),
                levels.cols(),
                self.spec.rows,
                self.spec.cols
            )));
        }
        for r in 0..levels.rows() {
            for c in 0..levels.cols() {
                let level = levels.at(r, c);
                if level < 0.0 || level.fract() != 0.0 {
                    return Err(RramError::InvalidConfig(format!(
                        "level {level} at ({r}, {c}) is not a non-negative integer"
                    )));
                }
                let error = self.noise.sample_conductance_error(rng);
                let idx = self.index(r, c)?;
                self.cells[idx].program(level as u32, error)?;
            }
        }
        Ok(())
    }

    /// Bit-line currents (amperes) when the given word lines are driven.
    ///
    /// `active_rows[i] == true` applies [`READ_VOLTAGE_V`] to row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if `active_rows` is not exactly
    /// one entry per row.
    fn column_currents(&self, active_rows: &[bool]) -> Result<Vec<f64>> {
        if active_rows.len() != self.spec.rows {
            return Err(RramError::ShapeMismatch(format!(
                "expected {} row activations, got {}",
                self.spec.rows,
                active_rows.len()
            )));
        }
        let mut currents = vec![0.0f64; self.spec.cols];
        for (r, &active) in active_rows.iter().enumerate() {
            if !active {
                continue;
            }
            let row_cells = &self.cells[r * self.spec.cols..(r + 1) * self.spec.cols];
            for (current, cell) in currents.iter_mut().zip(row_cells) {
                *current += cell.current(READ_VOLTAGE_V);
            }
        }
        Ok(currents)
    }

    /// Bit-line dot products expressed in level units rather than amperes.
    ///
    /// This removes the conductance offset of the "zero" level so that the
    /// result equals `Σ_i a_i · level_i,j` for an ideal (noise-free) array,
    /// which is the quantity the sample-and-hold + ADC chain digitizes.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if `active_rows` has the wrong
    /// length.
    pub fn column_level_sums(&self, active_rows: &[bool]) -> Result<Vec<f64>> {
        let currents = self.column_currents(active_rows)?;
        let levels = self.mode.conductance_levels();
        let g_zero = levels[0];
        let g_step = levels[1] - levels[0];
        let active_count = active_rows.iter().filter(|a| **a).count() as f64;
        Ok(currents
            .into_iter()
            .map(|i| {
                let conductance_sum = i / READ_VOLTAGE_V;
                (conductance_sum - active_count * g_zero) / g_step
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ArraySpec {
        ArraySpec { rows: 8, cols: 4 }
    }

    /// Reads back every cell's snapped level.
    fn read_levels(xbar: &CrossbarArray) -> Matrix {
        Matrix::from_fn(xbar.spec.rows, xbar.spec.cols, |r, c| {
            xbar.cells[r * xbar.spec.cols + c].read_level() as f32
        })
    }

    /// Total write pulses absorbed by the array so far.
    fn total_write_pulses(xbar: &CrossbarArray) -> u64 {
        xbar.cells.iter().map(|c| c.write_count()).sum()
    }

    #[test]
    fn programming_and_reading_back_is_exact_without_noise() {
        let mut rng = Rng::seed_from(1);
        let mut xbar =
            CrossbarArray::new(small_spec(), CellMode::MLC2, NoiseModel::ideal()).unwrap();
        let levels = Matrix::from_fn(8, 4, |r, c| ((r + c) % 4) as f32);
        xbar.program_levels(&levels, &mut rng).unwrap();
        let read = read_levels(&xbar);
        assert!(read.approx_eq(&levels, 0.0));
    }

    #[test]
    fn column_level_sums_match_ideal_dot_product() {
        let mut rng = Rng::seed_from(2);
        let mut xbar =
            CrossbarArray::new(small_spec(), CellMode::MLC2, NoiseModel::ideal()).unwrap();
        let levels = Matrix::from_fn(8, 4, |r, c| ((r * 3 + c) % 4) as f32);
        xbar.program_levels(&levels, &mut rng).unwrap();
        let active: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let sums = xbar.column_level_sums(&active).unwrap();
        for (c, &sum) in sums.iter().enumerate() {
            let expected: f64 = (0..8)
                .filter(|r| active[*r])
                .map(|r| levels.at(r, c) as f64)
                .sum();
            assert!(
                (sum - expected).abs() < 1e-6,
                "column {c}: {sum} vs {expected}"
            );
        }
    }

    #[test]
    fn noisy_sums_deviate_but_stay_close_at_calibrated_noise() {
        let mut rng = Rng::seed_from(3);
        let mut xbar = CrossbarArray::new(
            ArraySpec { rows: 64, cols: 16 },
            CellMode::MLC2,
            NoiseModel::calibrated_to_paper(),
        )
        .unwrap();
        let levels = Matrix::from_fn(64, 16, |r, c| ((r + 2 * c) % 4) as f32);
        xbar.program_levels(&levels, &mut rng).unwrap();
        let active = vec![true; 64];
        let sums = xbar.column_level_sums(&active).unwrap();
        for (c, &sum) in sums.iter().enumerate() {
            let expected: f64 = (0..64).map(|r| levels.at(r, c) as f64).sum();
            let deviation = (sum - expected).abs() / expected.max(1.0);
            assert!(deviation < 0.2, "column {c} deviates by {deviation}");
        }
    }

    #[test]
    fn reconfigure_switches_mode_and_resets() {
        let mut rng = Rng::seed_from(4);
        let mut xbar =
            CrossbarArray::new(small_spec(), CellMode::Slc, NoiseModel::ideal()).unwrap();
        let ones = Matrix::filled(8, 4, 1.0);
        xbar.program_levels(&ones, &mut rng).unwrap();
        assert!(total_write_pulses(&xbar) > 0);
        xbar.reconfigure(CellMode::MLC2).unwrap();
        assert_eq!(xbar.mode(), CellMode::MLC2);
        assert_eq!(read_levels(&xbar).sum(), 0.0);
        assert!(xbar.reconfigure(CellMode::Mlc { bits: 7 }).is_err());
    }

    #[test]
    fn invalid_programs_are_rejected() {
        let mut rng = Rng::seed_from(5);
        let mut xbar =
            CrossbarArray::new(small_spec(), CellMode::Slc, NoiseModel::ideal()).unwrap();
        // Block too large.
        let big = Matrix::zeros(16, 4);
        assert!(xbar.program_levels(&big, &mut rng).is_err());
        // Level out of range for SLC.
        let bad = Matrix::filled(2, 2, 3.0);
        assert!(xbar.program_levels(&bad, &mut rng).is_err());
        // Fractional level.
        let frac = Matrix::filled(2, 2, 0.5);
        assert!(xbar.program_levels(&frac, &mut rng).is_err());
    }

    #[test]
    fn wrong_activation_length_is_rejected() {
        let xbar = CrossbarArray::new(small_spec(), CellMode::Slc, NoiseModel::ideal()).unwrap();
        assert!(xbar.column_currents(&[true; 3]).is_err());
    }

    #[test]
    fn cell_access_bounds_are_checked() {
        let xbar = CrossbarArray::new(small_spec(), CellMode::Slc, NoiseModel::ideal()).unwrap();
        assert!(xbar.index(0, 0).is_ok());
        assert!(xbar.index(8, 0).is_err());
        assert!(xbar.index(0, 4).is_err());
    }

    #[test]
    fn write_pulse_accounting_reflects_mlc_cost() {
        let mut rng = Rng::seed_from(6);
        let levels = Matrix::filled(8, 4, 1.0);

        let mut slc = CrossbarArray::new(small_spec(), CellMode::Slc, NoiseModel::ideal()).unwrap();
        slc.program_levels(&levels, &mut rng).unwrap();

        let mut mlc =
            CrossbarArray::new(small_spec(), CellMode::MLC2, NoiseModel::ideal()).unwrap();
        mlc.program_levels(&levels, &mut rng).unwrap();

        assert!(total_write_pulses(&mlc) > total_write_pulses(&slc));
    }
}
