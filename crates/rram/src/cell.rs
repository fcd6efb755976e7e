//! RRAM bit-cell models: single-level (SLC) and multi-level (MLC) cells.
//!
//! Each one-transistor one-memristor (1T1M) cell stores information as a
//! programmable conductance. The paper uses devices with an on-state
//! resistance of 6 kΩ and an on/off ratio of 150 (Section 5.4). An SLC cell
//! distinguishes two conductance states (1 bit); a 2-bit MLC distinguishes
//! four. MLC programming requires iterative program-and-verify pulses to hit
//! the narrower target windows, which is why the architecture only writes
//! static weights into MLC and keeps dynamically generated data in SLC.

// hyflex-lint: allow-file(U2) — functional model of the SLC/MLC cell (paper Section 3.2); the `cell::tests` unit tests and the crossbar model's tests drive it
use crate::error::RramError;
use crate::Result;

/// On-state resistance of the RRAM device in ohms (paper Section 5.4).
pub const R_ON_OHMS: f64 = 6_000.0;

/// On/off resistance ratio of the RRAM device (paper Section 5.4).
pub const ON_OFF_RATIO: f64 = 150.0;

/// Off-state resistance in ohms.
pub const R_OFF_OHMS: f64 = R_ON_OHMS * ON_OFF_RATIO;

/// SET voltage for a 1-bit write (paper Section 5.4, from Hung et al.).
pub const SET_VOLTAGE_V: f64 = 1.62;

/// RESET voltage for a 1-bit write (paper Section 5.4).
pub const RESET_VOLTAGE_V: f64 = 3.63;

/// Storage mode of an RRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellMode {
    /// Single-level cell: one bit per device.
    Slc,
    /// Multi-level cell storing `bits` bits per device (the paper uses 2).
    Mlc {
        /// Bits stored per cell (2..=4 supported by the model).
        bits: u8,
    },
}

impl CellMode {
    /// A 2-bit MLC, the configuration HyFlexPIM adopts (Section 3.2).
    pub const MLC2: CellMode = CellMode::Mlc { bits: 2 };

    /// Bits stored per cell.
    pub fn bits_per_cell(&self) -> u8 {
        match self {
            CellMode::Slc => 1,
            CellMode::Mlc { bits } => *bits,
        }
    }

    /// Number of distinguishable conductance levels.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits_per_cell()
    }

    /// Validates that the mode is supported by the device model.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidConfig`] for MLC bit counts outside 2..=4.
    pub fn validate(&self) -> Result<()> {
        match self {
            CellMode::Slc => Ok(()),
            CellMode::Mlc { bits } if (2..=4).contains(bits) => Ok(()),
            CellMode::Mlc { bits } => Err(RramError::InvalidConfig(format!(
                "MLC with {bits} bits/cell is outside the supported 2..=4 range"
            ))),
        }
    }

    /// Number of program-and-verify pulse iterations needed to write one cell.
    ///
    /// SLC needs a single SET/RESET pulse; MLC requires iterative
    /// write-verify loops to land in the target conductance window
    /// (Section 3.2 / Ramadan et al.). The model uses one iteration per
    /// level of precision beyond SLC, which matches the relative write-cost
    /// ratios used in the paper's energy accounting.
    pub fn write_pulses(&self) -> u32 {
        match self {
            CellMode::Slc => 1,
            CellMode::Mlc { bits } => (1u32 << *bits).max(2),
        }
    }

    /// Nominal conductance (in siemens) for each storable level, spaced
    /// linearly between the off- and on-state conductances.
    pub fn conductance_levels(&self) -> Vec<f64> {
        let levels = self.levels();
        let g_on = 1.0 / R_ON_OHMS;
        let g_off = 1.0 / R_OFF_OHMS;
        (0..levels)
            .map(|l| g_off + (g_on - g_off) * (l as f64) / ((levels - 1) as f64))
            .collect()
    }
}

/// A single programmable RRAM cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RramCell {
    mode: CellMode,
    level: u32,
    /// Actual (possibly noisy) conductance in siemens.
    conductance: f64,
    writes: u64,
}

impl RramCell {
    /// Creates a cell in the lowest-conductance state.
    pub fn new(mode: CellMode) -> Self {
        let g = mode.conductance_levels()[0];
        RramCell {
            mode,
            level: 0,
            conductance: g,
            writes: 0,
        }
    }

    /// Storage mode of the cell.
    pub fn mode(&self) -> CellMode {
        self.mode
    }

    /// Number of write operations the cell has absorbed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Programs the cell to `level`, applying a relative conductance error
    /// (e.g. drawn from [`crate::noise::NoiseModel`]).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::LevelOutOfRange`] when `level` is not storable.
    pub fn program(&mut self, level: u32, relative_error: f64) -> Result<()> {
        if level >= self.mode.levels() {
            return Err(RramError::LevelOutOfRange {
                level,
                levels: self.mode.levels(),
            });
        }
        let nominal = self.mode.conductance_levels()[level as usize];
        self.level = level;
        // Conductance can never drop below the physical off-state.
        self.conductance = (nominal * (1.0 + relative_error)).max(1.0 / R_OFF_OHMS * 0.5);
        self.writes += u64::from(self.mode.write_pulses());
        Ok(())
    }

    /// Reads back the stored level by snapping the conductance to the nearest
    /// nominal level (what a digital read with a sense amplifier would do).
    pub fn read_level(&self) -> u32 {
        let levels = self.mode.conductance_levels();
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, g) in levels.iter().enumerate() {
            let d = (self.conductance - g).abs();
            if d < best_dist {
                best_dist = d;
                best = i;
            }
        }
        best as u32
    }

    /// Current drawn by the cell when `voltage` is applied to its word line.
    pub fn current(&self, voltage: f64) -> f64 {
        voltage * self.conductance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_and_mlc_level_counts() {
        assert_eq!(CellMode::Slc.levels(), 2);
        assert_eq!(CellMode::MLC2.levels(), 4);
        assert_eq!(CellMode::Mlc { bits: 3 }.levels(), 8);
        assert_eq!(CellMode::Slc.bits_per_cell(), 1);
        assert_eq!(CellMode::MLC2.bits_per_cell(), 2);
    }

    #[test]
    fn validation_rejects_extreme_mlc() {
        assert!(CellMode::Slc.validate().is_ok());
        assert!(CellMode::MLC2.validate().is_ok());
        assert!(CellMode::Mlc { bits: 5 }.validate().is_err());
        assert!(CellMode::Mlc { bits: 1 }.validate().is_err());
    }

    #[test]
    fn conductance_levels_span_on_off_range() {
        let levels = CellMode::MLC2.conductance_levels();
        assert_eq!(levels.len(), 4);
        assert!((levels[0] - 1.0 / R_OFF_OHMS).abs() < 1e-12);
        assert!((levels[3] - 1.0 / R_ON_OHMS).abs() < 1e-12);
        for pair in levels.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn mlc_needs_more_write_pulses_than_slc() {
        assert_eq!(CellMode::Slc.write_pulses(), 1);
        assert!(CellMode::MLC2.write_pulses() > CellMode::Slc.write_pulses());
        assert!(CellMode::Mlc { bits: 3 }.write_pulses() > CellMode::MLC2.write_pulses());
    }

    #[test]
    fn program_and_read_round_trip_without_noise() {
        let mut cell = RramCell::new(CellMode::MLC2);
        for level in 0..4 {
            cell.program(level, 0.0).unwrap();
            assert_eq!(cell.read_level(), level);
            assert_eq!(cell.level, level);
        }
    }

    #[test]
    fn program_rejects_out_of_range_levels() {
        let mut cell = RramCell::new(CellMode::Slc);
        assert!(matches!(
            cell.program(2, 0.0),
            Err(RramError::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn small_noise_preserves_slc_levels_but_can_flip_mlc() {
        // A ±20 % conductance error never flips an SLC (levels are far apart)
        // but can flip the top MLC levels (levels are 3x closer).
        let mut slc = RramCell::new(CellMode::Slc);
        slc.program(1, -0.2).unwrap();
        assert_eq!(slc.read_level(), 1);

        let mut mlc = RramCell::new(CellMode::MLC2);
        mlc.program(2, 0.25).unwrap();
        assert_eq!(
            mlc.read_level(),
            3,
            "a +25% error on level 2 of 4 should read as level 3"
        );
    }

    #[test]
    fn write_count_accumulates_pulses() {
        let mut cell = RramCell::new(CellMode::MLC2);
        cell.program(1, 0.0).unwrap();
        cell.program(2, 0.0).unwrap();
        assert_eq!(
            cell.write_count(),
            2 * u64::from(CellMode::MLC2.write_pulses())
        );
    }

    #[test]
    fn current_follows_ohms_law() {
        let mut cell = RramCell::new(CellMode::Slc);
        cell.program(1, 0.0).unwrap();
        let i = cell.current(0.2);
        assert!((i - 0.2 / R_ON_OHMS).abs() < 1e-9);
        cell.program(0, 0.0).unwrap();
        assert!(cell.current(0.2) < i / 100.0);
    }
}
