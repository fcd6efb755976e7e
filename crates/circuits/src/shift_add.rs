//! Digital shift-and-add recombination of bit-line results.
//!
//! After the ADC digitizes the per-column analog sums, the shift-and-add
//! (S&A) unit weights each result by the significance of its input bit and of
//! the column's weight bits, then accumulates (Figures 6 and 7). For SLC the
//! consecutive weight columns carry single bits (shift by 1 per column); for
//! 2-bit MLC each column carries two bits (shift by 2, i.e. ×4 per column).

// hyflex-lint: allow-file(U2) — functional model of the S&A unit (Figs. 6 and 7); the `shift_add::tests` unit tests drive it
use crate::error::CircuitError;
use crate::Result;

/// Shift-and-add accumulator for one output element.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShiftAdder {
    accumulator: i64,
    operations: u64,
}

impl ShiftAdder {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        ShiftAdder::default()
    }

    /// Adds `code` shifted left by `shift` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if the shift exceeds 62 bits
    /// (the accumulator would overflow).
    pub fn accumulate(&mut self, code: i64, shift: u32) -> Result<()> {
        if shift > 62 {
            return Err(CircuitError::InvalidConfig(format!(
                "shift {shift} exceeds the 62-bit accumulator range"
            )));
        }
        self.accumulator += code << shift;
        self.operations += 1;
        Ok(())
    }

    /// Current accumulated value.
    pub fn value(&self) -> i64 {
        self.accumulator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_applies_shift() {
        let mut sa = ShiftAdder::new();
        sa.accumulate(3, 0).unwrap();
        sa.accumulate(3, 2).unwrap();
        assert_eq!(sa.value(), 3 + 12);
        assert_eq!(sa.operations, 2);
    }

    #[test]
    fn overflow_guard() {
        let mut sa = ShiftAdder::new();
        assert!(sa.accumulate(1, 63).is_err());
        assert!(sa.accumulate(1, 62).is_ok());
    }

    #[test]
    fn pim_shift_pattern_reconstructs_slc_multiplication() {
        // 4-bit weight 0b1011 = 11, 4-bit input 0b0110 = 6 (Figure 6 style).
        let weight_bits = [1i64, 1, 0, 1]; // LSB first
        let input_bits = [0i64, 1, 1, 0];
        let mut sa = ShiftAdder::new();
        for (w_idx, &w) in weight_bits.iter().enumerate() {
            for (a_idx, &a) in input_bits.iter().enumerate() {
                // Column sum for one input bit and one SLC weight column is
                // a*w, shifted by input bit + weight column.
                sa.accumulate(a * w, (a_idx + w_idx) as u32).unwrap();
            }
        }
        assert_eq!(sa.value(), 11 * 6);
    }

    #[test]
    fn pim_shift_pattern_reconstructs_mlc_multiplication() {
        // Same operands, but weight packed as 2-bit MLC digits: 0b1011 -> [3, 2].
        let weight_digits = [3i64, 2];
        let input_bits = [0i64, 1, 1, 0];
        let mut sa = ShiftAdder::new();
        for (cell, &digit) in weight_digits.iter().enumerate() {
            for (a_idx, &a) in input_bits.iter().enumerate() {
                // Each MLC cell column carries two weight bits.
                sa.accumulate(a * digit, (a_idx + 2 * cell) as u32).unwrap();
            }
        }
        assert_eq!(sa.value(), 11 * 6);
    }
}
