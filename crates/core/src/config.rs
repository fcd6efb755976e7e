//! Top-level HyFlexPIM configuration.

use hyflex_rram::cell::CellMode;
use hyflex_rram::noise::NoiseModel;
use hyflex_rram::spec::{
    ANALOG_ARRAYS_PER_MODULE, ANALOG_ARRAY_COLS, ANALOG_ARRAY_ROWS, ANALOG_MODULES_PER_PU,
    DIGITAL_ARRAYS_PER_MODULE, DIGITAL_ARRAY_COLS, DIGITAL_ARRAY_ROWS, DIGITAL_MODULES_PER_PU,
    PUS_PER_CHIP,
};

use crate::error::PimError;
use crate::Result;

/// Global bus (PCIe 6.0 class) bandwidth between chips, bytes per second.
pub const GLOBAL_BUS_BYTES_PER_S: f64 = 128.0e9;

/// On-chip interconnect bandwidth between PUs, bytes per second.
pub const ON_CHIP_INTERCONNECT_BYTES_PER_S: f64 = 1_000.0e9;

/// Crossbar read cycle time in nanoseconds.
pub const ANALOG_READ_CYCLE_NS: f64 = 100.0;

/// Digital clock period in nanoseconds.
pub const DIGITAL_CYCLE_NS: f64 = 1.0;

/// Duration of one RRAM programming pulse, nanoseconds.
///
/// SET/RESET pulses are the same order as the crossbar read cycle
/// ([`ANALOG_READ_CYCLE_NS`]); a write's total latency is this duration times
/// the mode's program-and-verify iteration count
/// (`hyflex_rram::cell::CellMode::write_pulses`): one pulse for SLC, four for
/// the paper's 2-bit MLC. Cells of one word line program in parallel, so a
/// row write costs `write_pulses × RRAM_WRITE_PULSE_NS` regardless of width.
pub const RRAM_WRITE_PULSE_NS: f64 = 100.0;

/// HyFlexPIM chip configuration.
///
/// Defaults follow Table 2 and Section 5.4 of the paper. Fields are public so
/// experiments can run design-space sweeps (e.g. 3-bit MLC ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyFlexPimConfig {
    /// Processing units per chip.
    pub pus_per_chip: usize,
    /// Analog PIM modules per PU.
    pub analog_modules_per_pu: usize,
    /// RRAM arrays per analog module.
    pub analog_arrays_per_module: usize,
    /// Rows (word lines) per analog array.
    pub analog_array_rows: usize,
    /// Columns (bit lines) per analog array.
    pub analog_array_cols: usize,
    /// Digital PIM modules per PU.
    pub digital_modules_per_pu: usize,
    /// RRAM arrays per digital module.
    pub digital_arrays_per_module: usize,
    /// Rows per digital array.
    pub digital_array_rows: usize,
    /// Columns per digital array.
    pub digital_array_cols: usize,
    /// Weight precision in bits (INT8 in the paper).
    pub weight_bits: u8,
    /// Activation/input precision in bits (INT8 in the paper).
    pub input_bits: u8,
    /// Cell mode used for MLC-mapped (non-critical) weights.
    pub mlc_mode: CellMode,
    /// RRAM device noise model.
    pub noise: NoiseModel,
}

impl HyFlexPimConfig {
    /// The configuration published in the paper.
    pub fn paper_default() -> Self {
        HyFlexPimConfig {
            pus_per_chip: PUS_PER_CHIP,
            analog_modules_per_pu: ANALOG_MODULES_PER_PU,
            analog_arrays_per_module: ANALOG_ARRAYS_PER_MODULE,
            analog_array_rows: ANALOG_ARRAY_ROWS,
            analog_array_cols: ANALOG_ARRAY_COLS,
            digital_modules_per_pu: DIGITAL_MODULES_PER_PU,
            digital_arrays_per_module: DIGITAL_ARRAYS_PER_MODULE,
            digital_array_rows: DIGITAL_ARRAY_ROWS,
            digital_array_cols: DIGITAL_ARRAY_COLS,
            weight_bits: 8,
            input_bits: 8,
            mlc_mode: CellMode::MLC2,
            noise: NoiseModel::calibrated_to_paper(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for zero-sized resources or
    /// unsupported precisions.
    pub fn validate(&self) -> Result<()> {
        let sizes = [
            self.pus_per_chip,
            self.analog_modules_per_pu,
            self.analog_arrays_per_module,
            self.analog_array_rows,
            self.analog_array_cols,
            self.digital_modules_per_pu,
            self.digital_arrays_per_module,
            self.digital_array_rows,
            self.digital_array_cols,
        ];
        if sizes.contains(&0) {
            return Err(PimError::InvalidConfig(
                "all geometry parameters must be non-zero".to_string(),
            ));
        }
        if !(2..=16).contains(&self.weight_bits) || !(1..=16).contains(&self.input_bits) {
            return Err(PimError::InvalidConfig(format!(
                "unsupported precisions: weights {} bits, inputs {} bits",
                self.weight_bits, self.input_bits
            )));
        }
        self.mlc_mode.validate().map_err(PimError::from)?;
        if self.mlc_mode == CellMode::Slc {
            return Err(PimError::InvalidConfig(
                "the MLC mode must store more than one bit per cell".to_string(),
            ));
        }
        Ok(())
    }

    /// Analog crossbar cells per PU.
    pub fn analog_cells_per_pu(&self) -> usize {
        self.analog_modules_per_pu
            * self.analog_arrays_per_module
            * self.analog_array_rows
            * self.analog_array_cols
    }

    /// Digital crossbar cells per PU.
    pub fn digital_cells_per_pu(&self) -> usize {
        self.digital_modules_per_pu
            * self.digital_arrays_per_module
            * self.digital_array_rows
            * self.digital_array_cols
    }

    /// Number of SLC cell-columns needed per weight column.
    pub fn slc_cells_per_weight(&self) -> usize {
        usize::from(self.weight_bits)
    }

    /// Number of MLC cell-columns needed per weight column.
    pub fn mlc_cells_per_weight(&self) -> usize {
        usize::from(self.weight_bits.div_ceil(self.mlc_mode.bits_per_cell()))
    }
}

impl Default for HyFlexPimConfig {
    fn default() -> Self {
        HyFlexPimConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_section_5_4() {
        let c = HyFlexPimConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.pus_per_chip, 24);
        assert_eq!(c.analog_modules_per_pu, 24);
        assert_eq!(c.analog_arrays_per_module, 512);
        assert_eq!(c.digital_modules_per_pu, 8);
        // One analog array is 1 KB in SLC mode; 512 arrays x 24 modules x 24 PUs.
        let slc_bytes = (c.analog_cells_per_pu() * c.pus_per_chip) as f64 / 8.0;
        assert!((slc_bytes - (512.0 * 24.0 * 24.0 * 1024.0)).abs() < 1.0);
        // Full-MLC capacity is exactly double.
        assert_eq!(c.mlc_mode.bits_per_cell(), 2);
        // Digital: 128 KB per array x 256 arrays x 8 modules x 24 PUs.
        let digital = (c.digital_cells_per_pu() * c.pus_per_chip) as f64 / 8.0;
        assert!((digital - (128.0 * 1024.0 * 256.0 * 8.0 * 24.0)).abs() < 1.0);
    }

    #[test]
    fn cells_per_weight_match_figures_6_and_7() {
        let c = HyFlexPimConfig::paper_default();
        assert_eq!(c.slc_cells_per_weight(), 8);
        assert_eq!(c.mlc_cells_per_weight(), 4);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = HyFlexPimConfig::paper_default();
        c.pus_per_chip = 0;
        assert!(c.validate().is_err());
        let mut c = HyFlexPimConfig::paper_default();
        c.weight_bits = 1;
        assert!(c.validate().is_err());
        let mut c = HyFlexPimConfig::paper_default();
        c.mlc_mode = CellMode::Slc;
        assert!(c.validate().is_err());
        let mut c = HyFlexPimConfig::paper_default();
        c.mlc_mode = CellMode::Mlc { bits: 3 };
        assert!(c.validate().is_ok());
    }
}
