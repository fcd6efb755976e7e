//! Array and module geometry constants (paper Table 2 and Section 5.4).

/// Rows (word lines) of an analog PIM RRAM array.
pub const ANALOG_ARRAY_ROWS: usize = 64;
/// Columns (bit lines) of an analog PIM RRAM array.
pub const ANALOG_ARRAY_COLS: usize = 128;
/// Number of RRAM arrays inside one analog PIM module.
pub const ANALOG_ARRAYS_PER_MODULE: usize = 512;
/// Number of analog PIM modules inside one processing unit.
pub const ANALOG_MODULES_PER_PU: usize = 24;

/// Rows of a digital PIM RRAM array.
pub const DIGITAL_ARRAY_ROWS: usize = 1024;
/// Columns of a digital PIM RRAM array.
pub const DIGITAL_ARRAY_COLS: usize = 1024;
/// Number of RRAM arrays inside one digital PIM module.
pub const DIGITAL_ARRAYS_PER_MODULE: usize = 256;
/// Number of digital PIM modules inside one processing unit.
pub const DIGITAL_MODULES_PER_PU: usize = 8;

/// Number of processing units per HyFlexPIM chip.
pub const PUS_PER_CHIP: usize = 24;

/// Geometry of a single RRAM crossbar array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArraySpec {
    /// Number of word lines (rows).
    pub rows: usize,
    /// Number of bit lines (columns).
    pub cols: usize,
}

impl ArraySpec {
    /// The analog PIM array used by HyFlexPIM (64 x 128).
    // hyflex-lint: allow(U2) — the geometry tests/cross_crate_consistency.rs and the crossbar_gemv bench build analog arrays from
    pub fn analog() -> Self {
        ArraySpec {
            rows: ANALOG_ARRAY_ROWS,
            cols: ANALOG_ARRAY_COLS,
        }
    }

    /// The digital PIM array used by HyFlexPIM (1024 x 1024).
    pub fn digital() -> Self {
        ArraySpec {
            rows: DIGITAL_ARRAY_ROWS,
            cols: DIGITAL_ARRAY_COLS,
        }
    }

    /// Number of cells in the array.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// ADC resolution required for a full-precision analog read:
    /// `ceil(log2(rows)) + bits_per_cell - 1` (paper Section 3.2).
    // hyflex-lint: allow(U2) — oracle: tests/cross_crate_consistency.rs checks the SAR ADC's two modes against this rule
    pub fn required_adc_bits(&self, bits_per_cell: u8) -> u8 {
        let log_rows = (usize::BITS - (self.rows - 1).leading_zeros()) as u8;
        log_rows + bits_per_cell - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analog_and_digital_specs_match_paper() {
        let analog = ArraySpec::analog();
        assert_eq!(analog.rows, 64);
        assert_eq!(analog.cols, 128);
        assert_eq!(analog.cells(), 8192);

        let digital = ArraySpec::digital();
        assert_eq!(digital.rows, 1024);
        assert_eq!(digital.cols, 1024);
    }

    #[test]
    fn adc_resolution_matches_paper_formula() {
        let analog = ArraySpec::analog();
        // SLC: 6-bit ADC for 64 rows (Section 3.2).
        assert_eq!(analog.required_adc_bits(1), 6);
        // 2-bit MLC: 7-bit ADC.
        assert_eq!(analog.required_adc_bits(2), 7);
    }

    #[test]
    fn module_level_constants() {
        assert_eq!(ANALOG_ARRAYS_PER_MODULE, 512);
        assert_eq!(DIGITAL_ARRAYS_PER_MODULE, 256);
        assert_eq!(ANALOG_MODULES_PER_PU, 24);
        assert_eq!(DIGITAL_MODULES_PER_PU, 8);
        assert_eq!(PUS_PER_CHIP, 24);
    }
}
