//! Word-line drivers and sample-and-hold circuits.
//!
//! These are small blocks functionally, but they matter for the energy
//! breakdown: the word-line drivers are the second-largest power consumer in
//! the analog module (Table 2), because every active row of every array is
//! driven each input-bit cycle.

use crate::error::CircuitError;
use crate::Result;

/// A 1-bit word-line driver (1-bit DAC) feeding one crossbar row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordlineDriver {
    read_voltage: f64,
    activations: u64,
}

impl WordlineDriver {
    /// Creates a driver with the given read voltage (volts).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for non-positive voltages.
    pub fn new(read_voltage: f64) -> Result<Self> {
        if !(read_voltage.is_finite() && read_voltage > 0.0) {
            return Err(CircuitError::InvalidConfig(format!(
                "read voltage {read_voltage} must be positive"
            )));
        }
        Ok(WordlineDriver {
            read_voltage,
            activations: 0,
        })
    }

    /// Drives one input bit: returns the applied voltage (0 for a zero bit).
    pub fn drive(&mut self, bit: bool) -> f64 {
        if bit {
            self.activations += 1;
            self.read_voltage
        } else {
            0.0
        }
    }

    /// Number of `1` bits driven so far (proportional to dynamic energy).
    pub fn activations(&self) -> u64 {
        self.activations
    }
}

/// A sample-and-hold circuit capturing one bit-line output before the shared
/// ADC digitizes it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleAndHold {
    held: Option<f64>,
    samples: u64,
}

impl SampleAndHold {
    /// Creates an empty sample-and-hold stage.
    pub fn new() -> Self {
        SampleAndHold::default()
    }

    /// Samples a new analog value, replacing the previous one.
    pub fn sample(&mut self, value: f64) {
        self.held = Some(value);
        self.samples += 1;
    }

    /// Number of samples captured.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_validates_voltage_and_counts_activations() {
        assert!(WordlineDriver::new(0.0).is_err());
        assert!(WordlineDriver::new(-0.2).is_err());
        let mut drv = WordlineDriver::new(0.2).unwrap();
        assert_eq!(drv.drive(false), 0.0);
        assert_eq!(drv.drive(true), 0.2);
        assert_eq!(drv.drive(true), 0.2);
        assert_eq!(drv.activations(), 2);
    }

    #[test]
    fn sample_and_hold_round_trips() {
        let mut sh = SampleAndHold::new();
        assert_eq!(sh.held, None);
        sh.sample(1.25);
        assert_eq!(sh.held, Some(1.25));
        assert_eq!(sh.samples(), 1);
        sh.sample(0.5);
        assert_eq!(sh.held, Some(0.5));
        assert_eq!(sh.samples(), 2);
    }
}
