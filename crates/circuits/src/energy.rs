//! Per-event energy model derived from the Table 2 power budget.
//!
//! The paper reports component power (Table 2) and component activity
//! (100 ns crossbar read cycles, a 1.28 GS/s shared ADC, a 1 GHz digital
//! clock). Dividing power by the corresponding event rate yields per-event
//! energies, which is what the architecture-level performance model actually
//! consumes. Memory-movement and digital-compute energies used by the
//! baseline accelerators (DRAM/HBM/SRAM accesses, INT8/FP32 MACs) are also
//! collected here so every crate draws from a single set of constants.

use crate::table2::Table2;

/// Crossbar read cycle: 128 bit lines digitized through one 1.28 GS/s ADC.
pub const CROSSBAR_READ_CYCLE_NS: f64 = 100.0;

/// Digital clock frequency for the S&A, SFU and controllers (Section 5.4).
pub const DIGITAL_CLOCK_HZ: f64 = 1.0e9;

/// Shared-ADC sample rate (Section 5.4).
pub const ADC_SAMPLE_RATE_HZ: f64 = 1.28e9;

/// Per-event energies (picojoules) and related constants for the 65 nm node.
///
/// All fields are public: this is a passive configuration record that the
/// architecture model and the baselines consume directly; experiments can
/// tweak individual entries for sensitivity studies.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ADC conversion (one bit-line sample), pJ.
    pub adc_conversion_pj: f64,
    /// Energy of one analog array read cycle (all 64 rows, 128 bit lines), pJ.
    pub analog_array_read_cycle_pj: f64,
    /// Energy of the word-line drivers of one analog array for one cycle, pJ.
    pub analog_wldrv_cycle_pj: f64,
    /// Energy of one shift-and-add operation, pJ.
    pub shift_add_op_pj: f64,
    /// Energy of one sample-and-hold capture, pJ.
    pub sample_hold_pj: f64,
    /// Energy to write one SLC cell (single SET/RESET pulse), pJ.
    pub slc_cell_write_pj: f64,
    /// Energy to write one 2-bit MLC cell (iterative program-and-verify), pJ.
    pub mlc_cell_write_pj: f64,
    /// Energy of one digital-PIM array compute cycle, pJ.
    pub digital_array_cycle_pj: f64,
    /// Energy of the digital-PIM word-line drivers for one array cycle, pJ.
    pub digital_wldrv_cycle_pj: f64,
    /// Energy per scalar element through the SFU pipeline, pJ.
    pub sfu_element_pj: f64,
    /// Energy per byte read from the input/output SRAM registers, pJ.
    pub sram_register_byte_pj: f64,
    /// Energy per byte moved across the inner-unit shared bus, pJ.
    pub inner_bus_byte_pj: f64,
    /// Energy per byte moved across the global (PCIe-class) bus, pJ.
    pub global_bus_byte_pj: f64,
    /// Energy per byte of off-chip DRAM access (non-PIM baseline), pJ.
    pub dram_access_byte_pj: f64,
    /// Energy per byte of HBM near-memory access (NMP baseline), pJ.
    pub hbm_access_byte_pj: f64,
    /// Energy per byte of large on-chip SRAM cache access, pJ.
    pub sram_cache_byte_pj: f64,
    /// Energy of one INT8 multiply-accumulate in a digital datapath, pJ.
    pub int8_mac_pj: f64,
    /// Energy of one FP32 multiply-accumulate in a digital datapath, pJ.
    pub fp32_mac_pj: f64,
}

impl EnergyModel {
    /// Derives the per-event energies from the paper's Table 2 power budget.
    fn from_table2(table: &Table2) -> Self {
        let analog = &table.analog;
        let arrays_per_module = 512.0;
        let read_cycle_s = CROSSBAR_READ_CYCLE_NS * 1e-9;

        let adc_power_mw = analog.component("ADC").map(|c| c.power_mw).unwrap_or(512.0);
        let adc_conversion_pj = adc_power_mw / arrays_per_module * 1e-3 / ADC_SAMPLE_RATE_HZ * 1e12;

        let array_power_mw = analog
            .component("RRAM Array")
            .map(|c| c.power_mw)
            .unwrap_or(60.78);
        let analog_array_read_cycle_pj =
            array_power_mw / arrays_per_module * 1e-3 * read_cycle_s * 1e12;

        let wldrv_power_mw = analog
            .component("WL DRV")
            .map(|c| c.power_mw)
            .unwrap_or(297.71);
        let analog_wldrv_cycle_pj = wldrv_power_mw / arrays_per_module * 1e-3 * read_cycle_s * 1e12;

        let sa_power_mw = analog.component("S&A").map(|c| c.power_mw).unwrap_or(59.54);
        let shift_add_op_pj = sa_power_mw / arrays_per_module * 1e-3 / ADC_SAMPLE_RATE_HZ * 1e12;

        let sh_power_mw = analog.component("S&H").map(|c| c.power_mw).unwrap_or(12e-6);
        let sample_hold_pj = sh_power_mw / arrays_per_module * 1e-3 / ADC_SAMPLE_RATE_HZ * 1e12;

        let digital = &table.digital;
        let digital_arrays = 256.0;
        let digital_cycle_s = 1.0 / DIGITAL_CLOCK_HZ;
        let d_array_power_mw = digital
            .component("RRAM Array")
            .map(|c| c.power_mw)
            .unwrap_or(3890.02);
        let digital_array_cycle_pj =
            d_array_power_mw / digital_arrays * 1e-3 * digital_cycle_s * 1e12;
        let d_wldrv_power_mw = digital
            .component("WL DRV")
            .map(|c| c.power_mw)
            .unwrap_or(2381.64);
        let digital_wldrv_cycle_pj =
            d_wldrv_power_mw / digital_arrays * 1e-3 * digital_cycle_s * 1e12;

        let sfu_power_mw = digital
            .component("SFU")
            .map(|c| c.power_mw)
            .unwrap_or(138.89);
        let sfu_element_pj =
            sfu_power_mw * 1e-3 * digital_cycle_s / super::sfu::SFU_INPUTS_PER_CYCLE as f64 * 1e12;

        EnergyModel {
            adc_conversion_pj,
            analog_array_read_cycle_pj,
            analog_wldrv_cycle_pj,
            shift_add_op_pj,
            sample_hold_pj,
            // SET pulse: 1.62 V across ~6 kΩ for ~10 ns ≈ 4.4 pJ; MLC needs
            // iterative program-and-verify (4 pulses for 2-bit cells).
            slc_cell_write_pj: 4.4,
            mlc_cell_write_pj: 17.6,
            digital_array_cycle_pj,
            digital_wldrv_cycle_pj,
            sfu_element_pj,
            // SRAM register / cache / interconnect / DRAM constants follow the
            // sources cited in Section 5.3 (ARM memory compiler, O'Connor et
            // al. for DRAM, TransPIM for HBM banks), all at 65 nm.
            sram_register_byte_pj: 0.5,
            inner_bus_byte_pj: 1.0,
            global_bus_byte_pj: 40.0,
            dram_access_byte_pj: 160.0,
            hbm_access_byte_pj: 32.0,
            sram_cache_byte_pj: 4.0,
            int8_mac_pj: 0.4,
            fp32_mac_pj: 4.6,
        }
    }

    /// Energy to program a matrix of `cells` cells in the given mode.
    pub fn array_write_pj(&self, cells: usize, mlc: bool) -> f64 {
        let per_cell = if mlc {
            self.mlc_cell_write_pj
        } else {
            self.slc_cell_write_pj
        };
        cells as f64 * per_cell
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::from_table2(&Table2::paper_65nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_energy_is_sub_picojoule_per_conversion() {
        let e = EnergyModel::default();
        // 1 mW per ADC at 1.28 GS/s -> 0.78 pJ per conversion.
        assert!((e.adc_conversion_pj - 0.78).abs() < 0.05);
    }

    #[test]
    fn analog_array_cycle_energy_matches_power_budget() {
        let e = EnergyModel::default();
        // 60.78 mW / 512 arrays over 100 ns ≈ 11.9 pJ.
        assert!((e.analog_array_read_cycle_pj - 11.9).abs() < 0.5);
        // WL drivers: 297.71 mW / 512 over 100 ns ≈ 58 pJ.
        assert!((e.analog_wldrv_cycle_pj - 58.1).abs() < 1.0);
    }

    #[test]
    fn full_cycle_total_is_dominated_by_adc_and_wldrv() {
        let e = EnergyModel::default();
        // One bit-serial read cycle over 128 bit lines: array read, WL
        // drivers, and per-bit-line ADC, sample-and-hold and shift-add.
        let total = e.analog_array_read_cycle_pj
            + e.analog_wldrv_cycle_pj
            + 128.0 * (e.adc_conversion_pj + e.sample_hold_pj + e.shift_add_op_pj);
        let adc_part = 128.0 * e.adc_conversion_pj;
        assert!(total > adc_part);
        assert!((adc_part + e.analog_wldrv_cycle_pj) / total > 0.8);
    }

    #[test]
    fn mlc_writes_cost_more_than_slc_writes() {
        let e = EnergyModel::default();
        assert!(e.mlc_cell_write_pj > 2.0 * e.slc_cell_write_pj);
        assert!(e.array_write_pj(100, true) > e.array_write_pj(100, false));
    }

    #[test]
    fn memory_hierarchy_energies_are_ordered() {
        let e = EnergyModel::default();
        assert!(e.sram_register_byte_pj < e.sram_cache_byte_pj);
        assert!(e.sram_cache_byte_pj < e.hbm_access_byte_pj);
        assert!(e.hbm_access_byte_pj < e.dram_access_byte_pj);
        assert!(e.inner_bus_byte_pj < e.global_bus_byte_pj);
    }

    #[test]
    fn fp32_mac_costs_more_than_int8_mac() {
        let e = EnergyModel::default();
        assert!(e.fp32_mac_pj > 5.0 * e.int8_mac_pj);
    }

    #[test]
    fn sfu_energy_per_element_is_small() {
        let e = EnergyModel::default();
        // 138.89 mW / 256 elements per 1 ns cycle ≈ 0.54 pJ per element.
        assert!((e.sfu_element_pj - 0.54).abs() < 0.05);
    }

    #[test]
    fn digital_array_cycle_energy() {
        let e = EnergyModel::default();
        // 3890 mW / 256 arrays over 1 ns ≈ 15.2 pJ.
        assert!((e.digital_array_cycle_pj - 15.2).abs() < 0.5);
        assert!((e.digital_wldrv_cycle_pj - 9.3).abs() < 0.5);
    }
}
