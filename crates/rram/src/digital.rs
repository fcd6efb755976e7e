//! Digital RRAM PIM: NOR-based in-memory bit-wise computation.
//!
//! HyFlexPIM processes the dynamic attention operands (`Q·Kᵀ`, `softmax·V`)
//! and stores intermediate results in digital PIM modules because those
//! values are produced at run time: writing them into MLC would require slow
//! iterative program-and-verify, and attention needs higher precision than
//! the analog path guarantees (Section 3.3).
//!
//! Digital RRAM PIM computes with memristor-aided logic: a NOR gate is
//! realised across three bit-cells on a row (two operand columns, one output
//! column), and each row-level operation takes five cycles — four to write
//! the operand/output cells, one to read (Section 3.1). An INT8×INT8
//! multiplication requires 64 NOR operations. This module provides both the
//! exact functional results and the cycle/operation accounting used by the
//! performance model.

// hyflex-lint: allow-file(U2, U3) — functional model of the digital bit-serial PIM module; the `digital::tests` unit tests drive it and read its operation counts
use crate::error::RramError;
use crate::spec::{ArraySpec, DIGITAL_ARRAYS_PER_MODULE};
use crate::Result;

/// Columns consumed by one NOR gate (two operands plus one output).
pub const COLUMNS_PER_NOR: usize = 3;

/// Cycles per row-level NOR operation: four write cycles plus one read cycle.
pub const CYCLES_PER_ROW_OP: u64 = 5;

/// NOR operations needed for one INT8 x INT8 multiplication (paper Section 3.1).
pub const NOR_OPS_PER_INT8_MUL: u64 = 64;

/// Operation statistics accumulated by digital PIM computations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigitalOpStats {
    /// Total NOR gate evaluations.
    pub nor_ops: u64,
    /// Total row-operation cycles (each row op costs [`CYCLES_PER_ROW_OP`]).
    pub cycles: u64,
    /// Total multiply-accumulate operations performed.
    pub macs: u64,
}

impl DigitalOpStats {
    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &DigitalOpStats) {
        self.nor_ops += other.nor_ops;
        self.cycles += other.cycles;
        self.macs += other.macs;
    }
}

/// A digital PIM module: an array of SLC RRAM used both as storage and as a
/// bit-wise NOR compute fabric.
#[derive(Debug, Clone)]
pub struct DigitalPimModule {
    spec: ArraySpec,
    arrays: usize,
    operand_bits: u8,
    stats: DigitalOpStats,
}

impl DigitalPimModule {
    /// Creates a module with the paper's geometry: 256 arrays of 1024×1024 SLC.
    pub fn paper_default() -> Self {
        DigitalPimModule {
            spec: ArraySpec::digital(),
            arrays: DIGITAL_ARRAYS_PER_MODULE,
            operand_bits: 8,
            stats: DigitalOpStats::default(),
        }
    }

    /// Creates a module with custom geometry.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] for zero-sized configurations or
    /// unsupported operand widths.
    pub fn new(spec: ArraySpec, arrays: usize, operand_bits: u8) -> Result<Self> {
        if arrays == 0 || spec.rows == 0 || spec.cols == 0 {
            return Err(RramError::InvalidConfig(
                "digital PIM module must have non-zero geometry".to_string(),
            ));
        }
        if !(2..=16).contains(&operand_bits) {
            return Err(RramError::InvalidConfig(format!(
                "operand width {operand_bits} must be in 2..=16"
            )));
        }
        Ok(DigitalPimModule {
            spec,
            arrays,
            operand_bits,
            stats: DigitalOpStats::default(),
        })
    }

    /// Accumulated operation statistics.
    pub fn stats(&self) -> DigitalOpStats {
        self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DigitalOpStats::default();
    }

    /// NOR operations required for one `operand_bits × operand_bits`
    /// multiplication. Scales quadratically from the paper's 64 NORs at INT8.
    pub fn nor_ops_per_mul(&self) -> u64 {
        let b = u64::from(self.operand_bits);
        NOR_OPS_PER_INT8_MUL * b * b / 64
    }

    /// Peak number of parallel multiplications per cycle for this module:
    /// `arrays × cols / (nor_ops_per_mul × COLUMNS_PER_NOR) / CYCLES_PER_ROW_OP`.
    ///
    /// With the paper's constants this evaluates to 273 operations per cycle,
    /// matching the throughput balance analysis in Section 3.1.
    pub fn parallel_muls_per_cycle(&self) -> u64 {
        let columns_available = (self.arrays * self.spec.cols) as u64;
        columns_available / (self.nor_ops_per_mul() * COLUMNS_PER_NOR as u64) / CYCLES_PER_ROW_OP
    }

    /// Exact integer dot product computed "in memory", updating statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if the operands differ in length.
    fn dot_product(&mut self, a: &[i32], b: &[i32]) -> Result<i64> {
        if a.len() != b.len() {
            return Err(RramError::ShapeMismatch(format!(
                "dot product operands of length {} and {}",
                a.len(),
                b.len()
            )));
        }
        let mut acc = 0i64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc += i64::from(x) * i64::from(y);
        }
        let muls = a.len() as u64;
        self.stats.macs += muls;
        self.stats.nor_ops += muls * self.nor_ops_per_mul();
        // Row operations proceed in parallel across arrays: the cycle count
        // is the serial depth after dividing by the available parallelism.
        let parallel = self.parallel_muls_per_cycle().max(1);
        self.stats.cycles += muls.div_ceil(parallel) * CYCLES_PER_ROW_OP / CYCLES_PER_ROW_OP.max(1)
            * CYCLES_PER_ROW_OP;
        Ok(acc)
    }

    /// Exact integer matrix product `A (n×k) · Bᵀ (m×k) -> n×m`, the shape of
    /// the attention score computation `Q · Kᵀ`, updating statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul_transposed(&mut self, a: &[Vec<i32>], b: &[Vec<i32>]) -> Result<Vec<Vec<i64>>> {
        if a.is_empty() || b.is_empty() {
            return Ok(Vec::new());
        }
        let k = a[0].len();
        if a.iter().any(|row| row.len() != k) || b.iter().any(|row| row.len() != k) {
            return Err(RramError::ShapeMismatch(
                "ragged operands in matmul_transposed".to_string(),
            ));
        }
        let mut out = Vec::with_capacity(a.len());
        for row_a in a {
            let mut out_row = Vec::with_capacity(b.len());
            for row_b in b {
                out_row.push(self.dot_product(row_a, row_b)?);
            }
            out.push(out_row);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_module_throughput_is_273_ops_per_cycle() {
        let module = DigitalPimModule::paper_default();
        // 256 x 1024 / (64 x 3) / 5 = 273 (paper Section 3.1).
        assert_eq!(module.parallel_muls_per_cycle(), 273);
        assert_eq!(module.nor_ops_per_mul(), 64);
    }

    #[test]
    fn construction_validates_geometry() {
        assert!(DigitalPimModule::new(ArraySpec { rows: 0, cols: 8 }, 1, 8).is_err());
        assert!(DigitalPimModule::new(ArraySpec { rows: 8, cols: 8 }, 0, 8).is_err());
        assert!(DigitalPimModule::new(ArraySpec { rows: 8, cols: 8 }, 1, 1).is_err());
        assert!(DigitalPimModule::new(ArraySpec { rows: 8, cols: 8 }, 1, 8).is_ok());
    }

    #[test]
    fn dot_product_is_exact_and_counts_ops() {
        let mut module = DigitalPimModule::paper_default();
        let a = vec![1, -2, 3, 4];
        let b = vec![5, 6, -7, 8];
        let result = module.dot_product(&a, &b).unwrap();
        assert_eq!(result, 5 - 12 - 21 + 32);
        let stats = module.stats();
        assert_eq!(stats.macs, 4);
        assert_eq!(stats.nor_ops, 4 * 64);
        assert!(stats.cycles >= CYCLES_PER_ROW_OP);
        assert!(module.dot_product(&a, &[1, 2]).is_err());
    }

    #[test]
    fn matmul_transposed_matches_reference() {
        let mut module = DigitalPimModule::paper_default();
        let q = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let k = vec![vec![1, 0, 1], vec![0, 1, 0], vec![2, 2, 2]];
        let scores = module.matmul_transposed(&q, &k).unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0], vec![4, 2, 12]);
        assert_eq!(scores[1], vec![10, 5, 30]);
        let ragged = vec![vec![1, 2], vec![1]];
        assert!(module.matmul_transposed(&ragged, &k).is_err());
    }

    #[test]
    fn stats_merge_and_reset() {
        let mut module = DigitalPimModule::paper_default();
        module.dot_product(&[1, 1], &[1, 1]).unwrap();
        let first = module.stats();
        let mut total = DigitalOpStats::default();
        total.merge(&first);
        total.merge(&first);
        assert_eq!(total.macs, 2 * first.macs);
        module.reset_stats();
        assert_eq!(module.stats(), DigitalOpStats::default());
    }

    #[test]
    fn wider_operands_need_more_nor_ops() {
        let narrow = DigitalPimModule::new(ArraySpec::digital(), 256, 8).unwrap();
        let wide = DigitalPimModule::new(ArraySpec::digital(), 256, 16).unwrap();
        assert!(wide.nor_ops_per_mul() > narrow.nor_ops_per_mul());
        assert!(wide.parallel_muls_per_cycle() < narrow.parallel_muls_per_cycle());
    }
}
