//! Per-component energy breakdown (the categories of Figure 15(b)/(d)).

/// End-to-end energy split into the component categories the paper plots.
///
/// All values are in picojoules for one inference at a given sequence length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// ADC conversions for the linear layers (analog PIM).
    pub linear_adc_pj: f64,
    /// Analog RRAM array read energy (bit-line evaluation).
    pub analog_rram_read_pj: f64,
    /// One-time analog RRAM programming, amortized per inference.
    pub analog_rram_write_pj: f64,
    /// Sample-and-hold plus shift-and-add.
    pub sh_sa_pj: f64,
    /// Analog-module word-line drivers.
    pub analog_wldrv_pj: f64,
    /// Digital PIM dot products for the attention score/context computation.
    pub attention_dot_product_pj: f64,
    /// Special function unit (softmax, layer norm, GELU).
    pub sfu_pj: f64,
    /// Digital RRAM writes of dynamically generated data (Q, K, V, scores).
    pub digital_rram_write_pj: f64,
    /// Digital-module word-line drivers.
    pub digital_wldrv_pj: f64,
    /// Input/output register (SRAM) accesses.
    pub sram_access_pj: f64,
    /// Off-chip DRAM accesses (zero for HyFlexPIM, non-zero for baselines).
    pub dram_access_pj: f64,
    /// On-chip / off-chip interconnect transfers.
    pub interconnect_pj: f64,
    /// Digital MAC datapath energy (used by the non-PIM and SPRINT baselines).
    pub digital_mac_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.components().iter().map(|(_, v)| v).sum()
    }

    /// Energy attributable to the static-weight linear layers only
    /// (the quantity normalized in Figure 14).
    pub fn linear_layer_pj(&self) -> f64 {
        self.linear_adc_pj
            + self.analog_rram_read_pj
            + self.analog_rram_write_pj
            + self.sh_sa_pj
            + self.analog_wldrv_pj
    }

    /// Named components in the order Figure 15 stacks them.
    pub fn components(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("Linear Layer ADC", self.linear_adc_pj),
            ("ReRAM Access (Analog)", self.analog_rram_read_pj),
            ("ReRAM write (Analog)", self.analog_rram_write_pj),
            ("S&H + S&A", self.sh_sa_pj),
            ("WL DRV (Analog)", self.analog_wldrv_pj),
            ("Dot Product (Attention)", self.attention_dot_product_pj),
            ("SFU", self.sfu_pj),
            ("ReRAM write (Digital)", self.digital_rram_write_pj),
            ("WL DRV (Digital)", self.digital_wldrv_pj),
            ("SRAM Access", self.sram_access_pj),
            ("DRAM Access", self.dram_access_pj),
            ("Interconnect", self.interconnect_pj),
            ("Digital MAC", self.digital_mac_pj),
        ]
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.linear_adc_pj += other.linear_adc_pj;
        self.analog_rram_read_pj += other.analog_rram_read_pj;
        self.analog_rram_write_pj += other.analog_rram_write_pj;
        self.sh_sa_pj += other.sh_sa_pj;
        self.analog_wldrv_pj += other.analog_wldrv_pj;
        self.attention_dot_product_pj += other.attention_dot_product_pj;
        self.sfu_pj += other.sfu_pj;
        self.digital_rram_write_pj += other.digital_rram_write_pj;
        self.digital_wldrv_pj += other.digital_wldrv_pj;
        self.sram_access_pj += other.sram_access_pj;
        self.dram_access_pj += other.dram_access_pj;
        self.interconnect_pj += other.interconnect_pj;
        self.digital_mac_pj += other.digital_mac_pj;
    }

    /// Component-wise difference clamped at zero: the marginal energy of a
    /// larger evaluation over a smaller one of the same deployment. Used by
    /// the decode-step pricing in [`crate::perf`], where every component of
    /// the longer-context evaluation is ≥ its shorter-context counterpart,
    /// so the clamp only guards floating-point cancellation noise.
    pub fn saturating_sub(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        let sub = |a: f64, b: f64| (a - b).max(0.0);
        EnergyBreakdown {
            linear_adc_pj: sub(self.linear_adc_pj, other.linear_adc_pj),
            analog_rram_read_pj: sub(self.analog_rram_read_pj, other.analog_rram_read_pj),
            analog_rram_write_pj: sub(self.analog_rram_write_pj, other.analog_rram_write_pj),
            sh_sa_pj: sub(self.sh_sa_pj, other.sh_sa_pj),
            analog_wldrv_pj: sub(self.analog_wldrv_pj, other.analog_wldrv_pj),
            attention_dot_product_pj: sub(
                self.attention_dot_product_pj,
                other.attention_dot_product_pj,
            ),
            sfu_pj: sub(self.sfu_pj, other.sfu_pj),
            digital_rram_write_pj: sub(self.digital_rram_write_pj, other.digital_rram_write_pj),
            digital_wldrv_pj: sub(self.digital_wldrv_pj, other.digital_wldrv_pj),
            sram_access_pj: sub(self.sram_access_pj, other.sram_access_pj),
            dram_access_pj: sub(self.dram_access_pj, other.dram_access_pj),
            interconnect_pj: sub(self.interconnect_pj, other.interconnect_pj),
            digital_mac_pj: sub(self.digital_mac_pj, other.digital_mac_pj),
        }
    }

    /// Returns the breakdown scaled by a constant factor.
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        let mut out = *self;
        out.linear_adc_pj *= factor;
        out.analog_rram_read_pj *= factor;
        out.analog_rram_write_pj *= factor;
        out.sh_sa_pj *= factor;
        out.analog_wldrv_pj *= factor;
        out.attention_dot_product_pj *= factor;
        out.sfu_pj *= factor;
        out.digital_rram_write_pj *= factor;
        out.digital_wldrv_pj *= factor;
        out.sram_access_pj *= factor;
        out.dram_access_pj *= factor;
        out.interconnect_pj *= factor;
        out.digital_mac_pj *= factor;
        out
    }

    /// Fraction of the total contributed by each component, as (name, share).
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_pj();
        if total == 0.0 {
            return self
                .components()
                .into_iter()
                .map(|(n, _)| (n, 0.0))
                .collect();
        }
        self.components()
            .into_iter()
            .map(|(n, v)| (n, v / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        EnergyBreakdown {
            linear_adc_pj: 10.0,
            analog_rram_read_pj: 5.0,
            analog_rram_write_pj: 1.0,
            sh_sa_pj: 2.0,
            analog_wldrv_pj: 7.0,
            attention_dot_product_pj: 20.0,
            sfu_pj: 3.0,
            digital_rram_write_pj: 4.0,
            digital_wldrv_pj: 2.0,
            sram_access_pj: 1.0,
            dram_access_pj: 0.0,
            interconnect_pj: 1.0,
            digital_mac_pj: 0.0,
        }
    }

    #[test]
    fn totals_and_linear_subset() {
        let e = sample();
        assert!((e.total_pj() - 56.0).abs() < 1e-9);
        assert!((e.linear_layer_pj() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = sample();
        a.accumulate(&sample());
        assert!((a.total_pj() - 112.0).abs() < 1e-9);
        let half = a.scaled(0.5);
        assert!((half.total_pj() - 56.0).abs() < 1e-9);
    }

    #[test]
    fn shares_sum_to_one() {
        let e = sample();
        let total_share: f64 = e.shares().iter().map(|(_, s)| s).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        let zero = EnergyBreakdown::default();
        assert!(zero.shares().iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn component_list_is_stable() {
        let names: Vec<&str> = sample().components().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"Linear Layer ADC"));
        assert!(names.contains(&"Dot Product (Attention)"));
        assert_eq!(names.len(), 13);
    }
}
