//! Bit-sliced mapping of quantized weight matrices onto analog crossbars.
//!
//! Figures 6 and 7 of the paper show how an INT-quantized weight column is
//! spread across adjacent bit-line columns: one bit per column for SLC, two
//! bits per column for 2-bit MLC. Inputs are applied one bit at a time on the
//! word lines; the analog column sums are digitized by the shared ADC and
//! recombined in the digital shift-and-add unit with weights `2^(input_bit)`
//! and `2^(cell_index · bits_per_cell)`.
//!
//! [`MappedMatrix`] is the digit-level functional model of that pipeline: it
//! stores the (noisy) analog digit value of every cell, simulates the
//! bit-serial read-out with a configurable ADC resolution, and applies the
//! zero-point corrections needed for signed INT8 operands. It is validated
//! against exact integer GEMV in the tests below and against the cell-level
//! [`crate::crossbar::CrossbarArray`] in the workspace integration tests.

// hyflex-lint: allow-file(U2) — functional model of the bit-serial analog GEMV on mapped tiles; the `mapping::tests` unit tests, tests/cross_crate_consistency.rs and the crossbar_gemv bench drive it
use crate::cell::CellMode;
use crate::error::RramError;
use crate::noise::NoiseModel;
use crate::Result;
use hyflex_tensor::quant::{quantize_vector, QuantizedMatrix};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;

/// Configuration for mapping a weight matrix onto crossbar columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightMapping {
    /// Cell mode used for every cell of this matrix (SLC or MLC).
    pub mode: CellMode,
    /// Bit width of the quantized weights (the paper uses INT8).
    pub weight_bits: u8,
    /// Bit width of the quantized inputs (the paper uses INT8).
    pub input_bits: u8,
    /// ADC resolution in bits; `None` models an ideal (infinite) ADC.
    pub adc_bits: Option<u8>,
    /// Number of word lines per physical array tile (64 for HyFlexPIM).
    array_rows: usize,
}

impl WeightMapping {
    /// The paper's SLC configuration: INT8 weights/inputs, 6-bit ADC, 64-row tiles.
    pub fn slc_default() -> Self {
        WeightMapping {
            mode: CellMode::Slc,
            weight_bits: 8,
            input_bits: 8,
            adc_bits: Some(6),
            array_rows: 64,
        }
    }

    /// The paper's 2-bit MLC configuration: INT8 weights/inputs, 7-bit ADC.
    pub fn mlc_default() -> Self {
        WeightMapping {
            mode: CellMode::MLC2,
            weight_bits: 8,
            input_bits: 8,
            adc_bits: Some(7),
            array_rows: 64,
        }
    }

    /// Number of physical columns used per logical weight column.
    pub fn cells_per_weight(&self) -> usize {
        usize::from(self.weight_bits.div_ceil(self.mode.bits_per_cell()))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] for unsupported parameter values.
    pub fn validate(&self) -> Result<()> {
        self.mode.validate()?;
        if !(2..=16).contains(&self.weight_bits) {
            return Err(RramError::InvalidConfig(format!(
                "weight_bits {} must be in 2..=16",
                self.weight_bits
            )));
        }
        if !(1..=16).contains(&self.input_bits) {
            return Err(RramError::InvalidConfig(format!(
                "input_bits {} must be in 1..=16",
                self.input_bits
            )));
        }
        if self.array_rows == 0 {
            return Err(RramError::InvalidConfig(
                "array_rows must be non-zero".to_string(),
            ));
        }
        if let Some(bits) = self.adc_bits {
            if !(2..=16).contains(&bits) {
                return Err(RramError::InvalidConfig(format!(
                    "adc_bits {bits} must be in 2..=16"
                )));
            }
        }
        Ok(())
    }
}

/// One physical row tile of a programmed matrix, laid out for the bit-serial
/// read loop at `program` time (rather than rebuilt inside the
/// `tile × input_bit × digit_plane` GEMV loop, as the first implementation
/// did).
///
/// The digit planes are stored **column-major per tile**: the inner GEMV
/// reduction walks one physical bit-line column of one tile, so this layout
/// makes that walk contiguous instead of striding `cols` floats per step.
#[derive(Debug, Clone)]
struct TilePlan {
    /// First weight row held by this tile.
    row_start: usize,
    /// Number of weight rows in this tile (≤ `mapping.array_rows`).
    rows: usize,
    /// `planes[k][c * rows + r_local]`: analog digit of cell group `k`
    /// (least significant first) at weight position
    /// `(row_start + r_local, c)`.
    planes: Vec<Vec<f32>>,
}

impl TilePlan {
    /// Word-line activation lists (tile-local row indices, ascending) for
    /// every input bit, built in one pass over the tile's rows — the first
    /// implementation re-scanned the rows once per input bit.
    fn active_rows(&self, unsigned_input: &[i64], input_bits: usize) -> Vec<Vec<usize>> {
        let mut active: Vec<Vec<usize>> = vec![Vec::new(); input_bits];
        for r_local in 0..self.rows {
            let word = unsigned_input[self.row_start + r_local];
            for (bit, rows_on) in active.iter_mut().enumerate() {
                if (word >> bit) & 1 == 1 {
                    rows_on.push(r_local);
                }
            }
        }
        active
    }
}

/// A weight matrix programmed into (noisy) analog crossbar digits.
#[derive(Debug, Clone)]
pub struct MappedMatrix {
    mapping: WeightMapping,
    rows: usize,
    cols: usize,
    weight_scale: f32,
    /// Per-tile read plans, precomputed once at `program` time.
    tiles: Vec<TilePlan>,
    /// Ideal unsigned column sums `Σ_i wu_ij`, used for the zero-point
    /// correction which is computed digitally from programmed data.
    unsigned_col_sums: Vec<f64>,
}

impl MappedMatrix {
    /// Quantizes `weights` and programs the digits with conductance noise.
    ///
    /// # Errors
    ///
    /// Returns configuration or quantization errors.
    pub fn program(
        weights: &Matrix,
        mapping: WeightMapping,
        noise: &NoiseModel,
        rng: &mut Rng,
    ) -> Result<Self> {
        mapping.validate()?;
        let quantized = QuantizedMatrix::quantize(weights, mapping.weight_bits)?;
        Self::program_quantized(&quantized, mapping, noise, rng)
    }

    /// Programs an already-quantized matrix.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from an invalid mapping.
    fn program_quantized(
        quantized: &QuantizedMatrix,
        mapping: WeightMapping,
        noise: &NoiseModel,
        rng: &mut Rng,
    ) -> Result<Self> {
        mapping.validate()?;
        if quantized.bits() != mapping.weight_bits {
            return Err(RramError::InvalidConfig(format!(
                "quantized matrix has {} bits but mapping expects {}",
                quantized.bits(),
                mapping.weight_bits
            )));
        }
        let bits_per_cell = mapping.mode.bits_per_cell();
        let n_groups = mapping.cells_per_weight();
        let levels = mapping.mode.conductance_levels();
        let g_zero = levels[0];
        let g_step = levels[1] - levels[0];

        let mut digits = Vec::with_capacity(n_groups);
        for k in 0..n_groups {
            let ideal = quantized.bit_group(k as u8, bits_per_cell)?;
            // Conductance noise expressed in digit units: a cell programmed to
            // digit d has conductance g = g_zero + d*g_step; the relative error
            // eta perturbs the read digit by eta * g / g_step.
            let noisy = Matrix::from_fn(ideal.rows(), ideal.cols(), |r, c| {
                let d = ideal.at(r, c) as f64;
                let g = g_zero + d * g_step;
                let eta = noise.sample_conductance_error(rng);
                (d + eta * g / g_step) as f32
            });
            digits.push(noisy);
        }

        let offset = 1i64 << (mapping.weight_bits - 1);
        let mut unsigned_col_sums = vec![0.0f64; quantized.cols()];
        for (c, col_sum) in unsigned_col_sums.iter_mut().enumerate() {
            for r in 0..quantized.rows() {
                *col_sum += (i64::from(quantized.value(r, c)) + offset) as f64;
            }
        }

        let tiles = Self::plan_tiles(&digits, quantized.rows(), quantized.cols(), &mapping);
        Ok(MappedMatrix {
            mapping,
            rows: quantized.rows(),
            cols: quantized.cols(),
            weight_scale: quantized.scale(),
            tiles,
            unsigned_col_sums,
        })
    }

    /// Carves the row-major digit planes into per-tile column-major read
    /// plans (see [`TilePlan`]). Done once at `program` time so the GEMV
    /// loop never re-derives tile bounds or strides.
    fn plan_tiles(
        digits: &[Matrix],
        rows: usize,
        cols: usize,
        mapping: &WeightMapping,
    ) -> Vec<TilePlan> {
        let tile_rows = mapping.array_rows;
        (0..rows.div_ceil(tile_rows))
            .map(|tile| {
                let row_start = tile * tile_rows;
                let height = (rows - row_start).min(tile_rows);
                let planes = digits
                    .iter()
                    .map(|plane| {
                        let mut col_major = vec![0.0f32; height * cols];
                        for r_local in 0..height {
                            for (c, value) in plane.row(row_start + r_local).iter().enumerate() {
                                col_major[c * height + r_local] = *value;
                            }
                        }
                        col_major
                    })
                    .collect();
                TilePlan {
                    row_start,
                    rows: height,
                    planes,
                }
            })
            .collect()
    }

    /// Weight-matrix shape `(rows, cols)` — inputs have length `rows`,
    /// outputs length `cols`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Performs the bit-serial analog GEMV `out_j = Σ_i input_i · w_ij`
    /// serially on the calling thread.
    ///
    /// The floating-point input vector is quantized to the mapping's input
    /// bit width, applied bit-serially, digitized per tile by the ADC, and
    /// recombined by shift-and-add with zero-point corrections. The returned
    /// vector is dequantized back to floating point.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] when `input.len() != rows`.
    pub fn gemv(&self, input: &[f32]) -> Result<Vec<f32>> {
        if input.len() != self.rows {
            return Err(RramError::ShapeMismatch(format!(
                "input length {} does not match weight rows {}",
                input.len(),
                self.rows
            )));
        }
        let (q_input, input_scale) = quantize_vector(input, self.mapping.input_bits)?;
        let input_offset = 1i64 << (self.mapping.input_bits - 1);
        let weight_offset = 1i64 << (self.mapping.weight_bits - 1);
        let unsigned_input: Vec<i64> = q_input
            .iter()
            .map(|q| i64::from(*q) + input_offset)
            .collect();
        let unsigned_input_sum: i64 = unsigned_input.iter().sum();

        let bits_per_cell = u32::from(self.mapping.mode.bits_per_cell());
        let input_bits = usize::from(self.mapping.input_bits);
        let levels = self.mapping.mode.levels();

        // Accumulated unsigned analog product Σ_i au_i · wu_ij per column,
        // digitized and shifted-and-added in one fused
        // `tile → input_bit → digit_plane → column` pass.
        let mut unsigned_acc = vec![0.0f64; self.cols];
        for tile in &self.tiles {
            let active = tile.active_rows(&unsigned_input, input_bits);
            for (input_bit, rows_on) in active.iter().enumerate() {
                if rows_on.is_empty() {
                    continue;
                }
                for (k, plane) in tile.planes.iter().enumerate() {
                    let shift = input_bit as u32 + (k as u32) * bits_per_cell;
                    let weight = (1u64 << shift) as f64;
                    for (column, acc) in plane.chunks_exact(tile.rows).zip(unsigned_acc.iter_mut())
                    {
                        let mut analog_sum = 0.0f64;
                        for &r in rows_on {
                            analog_sum += f64::from(column[r]);
                        }
                        *acc += self.digitize(analog_sum, levels) * weight;
                    }
                }
            }
        }

        // Zero-point corrections performed digitally:
        //   Σ (au-Za)(wu-Zw) = Σ au·wu − Zw·Σau − Za·Σwu + n·Za·Zw
        let n = self.rows as f64;
        let za = input_offset as f64;
        let zw = weight_offset as f64;
        let out = (0..self.cols)
            .map(|c| {
                let signed = unsigned_acc[c]
                    - zw * unsigned_input_sum as f64
                    - za * self.unsigned_col_sums[c]
                    + n * za * zw;
                (signed as f32) * self.weight_scale * input_scale
            })
            .collect();
        Ok(out)
    }

    /// Digitizes one analog column sum with the configured ADC resolution.
    ///
    /// The ADC full scale covers `tile_rows · (levels − 1)`, the largest
    /// possible column sum for one tile and one input bit.
    fn digitize(&self, analog_sum: f64, levels: u32) -> f64 {
        match self.mapping.adc_bits {
            None => analog_sum,
            Some(bits) => {
                let full_scale = (self.mapping.array_rows as f64) * f64::from(levels - 1);
                let codes = (1u64 << bits) as f64;
                let step = full_scale / codes;
                let code = (analog_sum / step).round().clamp(0.0, codes - 1.0);
                code * step
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact signed-integer GEMV on the quantization grid, ignoring analog
    /// noise and ADC effects: the reference the fused GEMV is checked against.
    fn reference_gemv(
        weights: &Matrix,
        input: &[f32],
        mapping: &WeightMapping,
    ) -> Result<Vec<f32>> {
        let quantized = QuantizedMatrix::quantize(weights, mapping.weight_bits)?;
        let (q_input, input_scale) = quantize_vector(input, mapping.input_bits)?;
        let mut out = vec![0.0f32; weights.cols()];
        for (c, out_val) in out.iter_mut().enumerate() {
            let mut acc = 0i64;
            for (r, &q) in q_input.iter().enumerate() {
                acc += i64::from(q) * i64::from(quantized.value(r, c));
            }
            *out_val = acc as f32 * quantized.scale() * input_scale;
        }
        Ok(out)
    }

    fn random_weights(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 0.5, &mut rng)
    }

    fn random_input(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| rng.normal_with(0.0, 0.5) as f32).collect()
    }

    fn relative_l2_error(a: &[f32], b: &[f32]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| ((x - y) as f64).powi(2))
            .sum();
        let den: f64 = b.iter().map(|y| (*y as f64).powi(2)).sum();
        (num / den.max(1e-12)).sqrt()
    }

    #[test]
    fn mapping_defaults_match_paper_adc_choices() {
        let slc = WeightMapping::slc_default();
        assert_eq!(slc.adc_bits, Some(6));
        assert_eq!(slc.cells_per_weight(), 8);
        let mlc = WeightMapping::mlc_default();
        assert_eq!(mlc.adc_bits, Some(7));
        assert_eq!(mlc.cells_per_weight(), 4);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut m = WeightMapping::slc_default();
        m.weight_bits = 1;
        assert!(m.validate().is_err());
        let mut m = WeightMapping::slc_default();
        m.array_rows = 0;
        assert!(m.validate().is_err());
        let mut m = WeightMapping::slc_default();
        m.adc_bits = Some(1);
        assert!(m.validate().is_err());
    }

    #[test]
    fn ideal_slc_gemv_matches_reference_exactly() {
        let weights = random_weights(32, 8, 1);
        let input = random_input(32, 2);
        let mut mapping = WeightMapping::slc_default();
        mapping.adc_bits = None;
        let mut rng = Rng::seed_from(3);
        let mapped =
            MappedMatrix::program(&weights, mapping, &NoiseModel::ideal(), &mut rng).unwrap();
        let out = mapped.gemv(&input).unwrap();
        let reference = reference_gemv(&weights, &input, &mapping).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn ideal_mlc_gemv_matches_reference_exactly() {
        let weights = random_weights(16, 6, 4);
        let input = random_input(16, 5);
        let mut mapping = WeightMapping::mlc_default();
        mapping.adc_bits = None;
        let mut rng = Rng::seed_from(6);
        let mapped =
            MappedMatrix::program(&weights, mapping, &NoiseModel::ideal(), &mut rng).unwrap();
        let out = mapped.gemv(&input).unwrap();
        let reference = reference_gemv(&weights, &input, &mapping).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn gemv_approximates_float_matmul() {
        let weights = random_weights(64, 10, 7);
        let input = random_input(64, 8);
        let mut rng = Rng::seed_from(9);
        let mapped = MappedMatrix::program(
            &weights,
            WeightMapping::slc_default(),
            &NoiseModel::ideal(),
            &mut rng,
        )
        .unwrap();
        let out = mapped.gemv(&input).unwrap();
        let exact = hyflex_tensor::kernels::matvec(&weights.transpose(), &input).unwrap();
        assert!(
            relative_l2_error(&out, &exact) < 0.05,
            "bit-serial PIM output should track the float GEMV"
        );
    }

    #[test]
    fn adc_truncation_and_noise_degrade_mlc_more_than_slc() {
        let weights = random_weights(64, 12, 10);
        let input = random_input(64, 11);
        let exact = hyflex_tensor::kernels::matvec(&weights.transpose(), &input).unwrap();
        let noise = NoiseModel::calibrated_to_paper();

        let mut rng = Rng::seed_from(12);
        let slc = MappedMatrix::program(&weights, WeightMapping::slc_default(), &noise, &mut rng)
            .unwrap();
        let slc_err = relative_l2_error(&slc.gemv(&input).unwrap(), &exact);

        let mut rng = Rng::seed_from(12);
        let mlc = MappedMatrix::program(&weights, WeightMapping::mlc_default(), &noise, &mut rng)
            .unwrap();
        let mlc_err = relative_l2_error(&mlc.gemv(&input).unwrap(), &exact);

        assert!(
            slc_err < mlc_err,
            "SLC ({slc_err}) should beat MLC ({mlc_err})"
        );
        // At the paper-calibrated device noise the SLC read-out still tracks
        // the exact GEMV (the error budget below is generous because this is
        // the un-averaged, per-array cell-level model).
        assert!(slc_err < 0.35, "SLC error {slc_err} unexpectedly large");
    }

    #[test]
    fn multi_tile_matrices_are_handled() {
        // 150 rows forces 3 tiles of 64 rows.
        let weights = random_weights(150, 4, 13);
        let input = random_input(150, 14);
        let mut mapping = WeightMapping::slc_default();
        mapping.adc_bits = None;
        let mut rng = Rng::seed_from(15);
        let mapped =
            MappedMatrix::program(&weights, mapping, &NoiseModel::ideal(), &mut rng).unwrap();
        assert_eq!(mapped.tiles.len(), 3);
        let out = mapped.gemv(&input).unwrap();
        let reference = reference_gemv(&weights, &input, &mapping).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let weights = random_weights(8, 3, 18);
        let mut rng = Rng::seed_from(19);
        let mapped = MappedMatrix::program(
            &weights,
            WeightMapping::slc_default(),
            &NoiseModel::ideal(),
            &mut rng,
        )
        .unwrap();
        assert!(mapped.gemv(&[0.0; 4]).is_err());
    }
}
