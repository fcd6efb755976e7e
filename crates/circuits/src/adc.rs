//! Reconfigurable 6-b/7-b successive-approximation (SAR) ADC.
//!
//! Figure 8 of the paper: 128 bit-line outputs are captured by sample-and-hold
//! circuits and multiplexed into one shared SAR ADC per array. The ADC
//! resolves up to 7 bits by binary search over a capacitive DAC; in SLC mode
//! the comparison on the largest capacitor (the MSB) is bypassed, turning the
//! same hardware into a 6-bit converter with no extra power. HyFlexPIM runs
//! the ADC at 1.28 GS/s so that the 128 bit lines of an array are digitized
//! within the 100 ns crossbar read cycle.

// hyflex-lint: allow-file(U2) — functional model of the Fig. 8 SAR ADC; the `adc::tests` unit tests, tests/paper_claims.rs, tests/cross_crate_consistency.rs and the adc_and_sfu bench drive it
use crate::error::CircuitError;
use crate::Result;

/// Sampling rate of the shared SAR ADC (samples per second).
pub const ADC_SAMPLE_RATE_HZ: f64 = 1.28e9;

/// Maximum resolution supported by the capacitive DAC.
pub const MAX_ADC_BITS: u8 = 7;

/// Operating mode of the reconfigurable ADC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdcMode {
    /// 6-bit conversion used for SLC column sums (MSB capacitor bypassed).
    Slc6Bit,
    /// 7-bit conversion used for 2-bit MLC column sums.
    Mlc7Bit,
}

impl AdcMode {
    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        match self {
            AdcMode::Slc6Bit => 6,
            AdcMode::Mlc7Bit => 7,
        }
    }

    /// Number of output codes.
    fn codes(&self) -> u32 {
        1u32 << self.bits()
    }
}

/// Result of one SAR conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Conversion {
    /// Digital output code.
    pub code: u32,
    /// Number of comparator decisions performed (equals the active bits).
    pub comparisons: u8,
}

/// A successive-approximation ADC with the paper's MSB-bypass reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SarAdc {
    mode: AdcMode,
    full_scale: f64,
}

impl SarAdc {
    /// Creates an ADC for the given mode and full-scale analog input.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if `full_scale` is not positive
    /// and finite.
    pub fn new(mode: AdcMode, full_scale: f64) -> Result<Self> {
        if !(full_scale.is_finite() && full_scale > 0.0) {
            return Err(CircuitError::InvalidConfig(format!(
                "ADC full scale {full_scale} must be positive and finite"
            )));
        }
        Ok(SarAdc { mode, full_scale })
    }

    /// ADC sized for an analog column sum of a 64-row array: full scale is
    /// `rows × (levels − 1)` level units.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for a zero-sized array.
    pub fn for_crossbar(mode: AdcMode, rows: usize, bits_per_cell: u8) -> Result<Self> {
        if rows == 0 || bits_per_cell == 0 {
            return Err(CircuitError::InvalidConfig(
                "crossbar ADC requires non-zero rows and bits per cell".to_string(),
            ));
        }
        let levels = (1u32 << bits_per_cell) as f64;
        SarAdc::new(mode, rows as f64 * (levels - 1.0))
    }

    /// Current operating mode.
    pub fn mode(&self) -> AdcMode {
        self.mode
    }

    /// Analog full-scale input.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Size of one least-significant-bit step in analog units.
    fn lsb(&self) -> f64 {
        self.full_scale / f64::from(self.mode.codes())
    }

    /// Reconfigures between 6-bit and 7-bit operation (MSB capacitor bypass).
    ///
    /// This mirrors the paper's claim that a single ADC serves both SLC and
    /// MLC arrays with <1 % overhead: no new hardware, only a mode bit.
    pub fn reconfigure(&mut self, mode: AdcMode, full_scale: f64) -> Result<()> {
        if !(full_scale.is_finite() && full_scale > 0.0) {
            return Err(CircuitError::InvalidConfig(format!(
                "ADC full scale {full_scale} must be positive and finite"
            )));
        }
        self.mode = mode;
        self.full_scale = full_scale;
        Ok(())
    }

    /// Converts an analog value using the SAR binary search.
    ///
    /// Values are clamped to `[0, full_scale]`; the method returns the digital
    /// code and the number of comparator decisions (6 or 7). The code stands
    /// for the analog value `code × LSB`.
    pub fn convert(&self, analog: f64) -> Conversion {
        let clamped = analog.clamp(0.0, self.full_scale);
        let bits = self.mode.bits();
        let lsb = self.lsb();
        // Successive approximation: trial-set each bit from MSB to LSB and
        // keep it if the DAC output stays below the input.
        let mut code: u32 = 0;
        for bit in (0..bits).rev() {
            let trial = code | (1u32 << bit);
            let dac = f64::from(trial) * lsb;
            if dac <= clamped {
                code = trial;
            }
        }
        Conversion {
            code,
            comparisons: bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bits_and_codes() {
        assert_eq!(AdcMode::Slc6Bit.bits(), 6);
        assert_eq!(AdcMode::Slc6Bit.codes(), 64);
        assert_eq!(AdcMode::Mlc7Bit.bits(), 7);
        assert_eq!(AdcMode::Mlc7Bit.codes(), 128);
    }

    #[test]
    fn construction_validates_full_scale() {
        assert!(SarAdc::new(AdcMode::Slc6Bit, 0.0).is_err());
        assert!(SarAdc::new(AdcMode::Slc6Bit, f64::NAN).is_err());
        assert!(SarAdc::new(AdcMode::Slc6Bit, 64.0).is_ok());
        assert!(SarAdc::for_crossbar(AdcMode::Slc6Bit, 0, 1).is_err());
    }

    #[test]
    fn crossbar_full_scales_match_paper_geometry() {
        let slc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
        assert_eq!(slc.full_scale(), 64.0);
        // 6-bit over 0..64 -> LSB of exactly one level unit.
        assert_eq!(slc.lsb(), 1.0);
        let mlc = SarAdc::for_crossbar(AdcMode::Mlc7Bit, 64, 2).unwrap();
        assert_eq!(mlc.full_scale(), 192.0);
        assert_eq!(mlc.lsb(), 1.5);
    }

    #[test]
    fn conversion_is_monotone_and_bounded() {
        let adc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
        let mut last_code = 0;
        for i in 0..=64 {
            let conv = adc.convert(i as f64);
            assert!(conv.code >= last_code);
            last_code = conv.code;
            assert!(conv.code < adc.mode().codes());
            assert!((f64::from(conv.code) * adc.lsb() - i as f64).abs() <= adc.lsb());
            assert_eq!(conv.comparisons, 6);
        }
    }

    #[test]
    fn integer_level_sums_convert_exactly_in_slc_mode() {
        // With LSB = 1 level unit, integer column sums below full scale are
        // represented exactly (the paper's "full precision ADC" argument).
        let adc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
        for sum in 0..64 {
            let conv = adc.convert(sum as f64);
            assert_eq!(conv.code, sum);
            assert_eq!(f64::from(conv.code) * adc.lsb(), sum as f64);
        }
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let adc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
        assert_eq!(adc.convert(-5.0).code, 0);
        assert_eq!(adc.convert(1000.0).code, 63);
    }

    #[test]
    fn reconfigure_switches_resolution_without_new_hardware() {
        let mut adc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
        assert_eq!(adc.convert(40.0).comparisons, 6);
        adc.reconfigure(AdcMode::Mlc7Bit, 192.0).unwrap();
        assert_eq!(adc.mode(), AdcMode::Mlc7Bit);
        assert_eq!(adc.convert(40.0).comparisons, 7);
        assert!(adc.reconfigure(AdcMode::Slc6Bit, -1.0).is_err());
    }

    #[test]
    fn seven_bit_mode_has_finer_resolution_over_same_range() {
        let coarse = SarAdc::new(AdcMode::Slc6Bit, 192.0).unwrap();
        let fine = SarAdc::new(AdcMode::Mlc7Bit, 192.0).unwrap();
        assert!(fine.lsb() < coarse.lsb());
        let x = 77.3;
        let e_fine = (f64::from(fine.convert(x).code) * fine.lsb() - x).abs();
        let e_coarse = (f64::from(coarse.convert(x).code) * coarse.lsb() - x).abs();
        assert!(e_fine <= e_coarse);
    }

    #[test]
    fn conversion_time_covers_128_bitlines_within_read_cycle() {
        // 128 bit lines through one 1.28 GS/s ADC = exactly 100 ns (Section 5.4).
        let t = 128.0 / ADC_SAMPLE_RATE_HZ * 1e9;
        assert!((t - 100.0).abs() < 1e-9);
    }
}
