//! Component-level area and power breakdown (paper Table 2, 65 nm).
//!
//! These constants are the anchor of the whole performance model: the paper
//! derives its architecture-level energy and area numbers from exactly this
//! table (NVSIM for the RRAM arrays, the ARM memory compiler for the SRAM
//! registers, published ADC surveys for the converters, and synthesis for the
//! SFU). The benchmark binary `table2_hw_config` prints this structure in the
//! same layout as the paper.

/// One row of Table 2: a peripheral or memory component inside a PIM module.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Component name as printed in the paper.
    pub name: &'static str,
    /// Area in mm² for all instances inside one module.
    pub area_mm2: f64,
    /// Power in mW for all instances inside one module.
    pub power_mw: f64,
    /// Number of instances inside one module.
    pub count: usize,
}

/// Area/power breakdown of one PIM module plus the module count per chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleBreakdown {
    /// Module name ("Analog RRAM Module" / "Digital RRAM Module").
    pub name: &'static str,
    /// Per-component rows.
    pub components: Vec<ComponentSpec>,
    /// Number of such modules in one HyFlexPIM chip (24 analog PUs × modules).
    pub modules_per_chip: usize,
}

impl ModuleBreakdown {
    /// Total area of one module (the paper's "Sum" row), mm².
    pub fn module_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Total power of one module (the paper's "Sum" row), mW.
    pub fn module_power_mw(&self) -> f64 {
        self.components.iter().map(|c| c.power_mw).sum()
    }

    /// Chip-level area contribution (the paper's "Total" row), mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.module_area_mm2() * self.modules_per_chip as f64
    }

    /// Chip-level power contribution (the paper's "Total" row), mW.
    pub fn chip_power_mw(&self) -> f64 {
        self.module_power_mw() * self.modules_per_chip as f64
    }

    /// Looks up a component row by name.
    pub fn component(&self, name: &str) -> Option<&ComponentSpec> {
        self.components.iter().find(|c| c.name == name)
    }
}

/// The full Table 2: analog and digital module breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Analog RRAM PIM module breakdown.
    pub analog: ModuleBreakdown,
    /// Digital RRAM PIM module breakdown.
    pub digital: ModuleBreakdown,
}

impl Table2 {
    /// The published 65 nm numbers.
    pub fn paper_65nm() -> Self {
        let analog = ModuleBreakdown {
            name: "Analog RRAM Module",
            modules_per_chip: 24,
            components: vec![
                ComponentSpec {
                    name: "RRAM Array",
                    area_mm2: 0.048,
                    power_mw: 60.78,
                    count: 512,
                },
                ComponentSpec {
                    name: "IR",
                    area_mm2: 0.00065,
                    power_mw: 0.13,
                    count: 512,
                },
                ComponentSpec {
                    name: "OR",
                    area_mm2: 0.00129,
                    power_mw: 0.53,
                    count: 512,
                },
                ComponentSpec {
                    name: "WL DRV",
                    area_mm2: 0.02,
                    power_mw: 297.71,
                    count: 64 * 512,
                },
                ComponentSpec {
                    name: "ADC",
                    area_mm2: 0.30,
                    power_mw: 512.00,
                    count: 512,
                },
                ComponentSpec {
                    name: "S&A",
                    area_mm2: 0.10,
                    power_mw: 59.54,
                    count: 512,
                },
                ComponentSpec {
                    name: "S&H",
                    area_mm2: 6e-5,
                    power_mw: 12e-6,
                    count: 512,
                },
            ],
        };
        let digital = ModuleBreakdown {
            name: "Digital RRAM Module",
            modules_per_chip: 8,
            components: vec![
                ComponentSpec {
                    name: "RRAM Array",
                    area_mm2: 2.86,
                    power_mw: 3890.02,
                    count: 256,
                },
                ComponentSpec {
                    name: "IR",
                    area_mm2: 0.0031,
                    power_mw: 0.76,
                    count: 256,
                },
                ComponentSpec {
                    name: "OR",
                    area_mm2: 0.0032,
                    power_mw: 1.65,
                    count: 256,
                },
                ComponentSpec {
                    name: "WL DRV",
                    area_mm2: 0.14,
                    power_mw: 2381.64,
                    count: 1024 * 256,
                },
                ComponentSpec {
                    name: "S&A",
                    area_mm2: 0.21,
                    power_mw: 119.08,
                    count: 1024,
                },
                ComponentSpec {
                    name: "S&H",
                    area_mm2: 13e-5,
                    power_mw: 23e-6,
                    count: 1024,
                },
                ComponentSpec {
                    name: "SFU",
                    area_mm2: 4.79,
                    power_mw: 138.89,
                    count: 1,
                },
            ],
        };
        Table2 { analog, digital }
    }

    /// Total chip area (analog + digital contributions), mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.analog.chip_area_mm2() + self.digital.chip_area_mm2()
    }

    /// Total chip power (analog + digital contributions), mW.
    pub fn chip_power_mw(&self) -> f64 {
        self.analog.chip_power_mw() + self.digital.chip_power_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analog_module_sums_match_paper() {
        let t = Table2::paper_65nm();
        // Paper: Sum = 0.47 mm^2, 930.69 mW per analog module.
        assert!((t.analog.module_area_mm2() - 0.47).abs() < 0.01);
        assert!((t.analog.module_power_mw() - 930.69).abs() < 1.0);
        // Paper: Total = 11.24 mm^2, 22,336.59 mW for 24 analog modules.
        assert!((t.analog.chip_area_mm2() - 11.24).abs() < 0.1);
        assert!((t.analog.chip_power_mw() - 22_336.59).abs() < 25.0);
    }

    #[test]
    fn digital_module_sums_match_paper() {
        let t = Table2::paper_65nm();
        // Paper: Sum = 8.01 mm^2, 6,532.05 mW per digital module.
        assert!((t.digital.module_area_mm2() - 8.01).abs() < 0.01);
        assert!((t.digital.module_power_mw() - 6532.05).abs() < 1.0);
        // Paper: Total = 64.05 mm^2, 52,256.41 mW for 8 digital modules.
        assert!((t.digital.chip_area_mm2() - 64.05).abs() < 0.1);
        assert!((t.digital.chip_power_mw() - 52_256.41).abs() < 10.0);
    }

    #[test]
    fn adc_dominates_analog_module_area_and_power() {
        // The paper highlights that the ADC is ~64% of analog module area and
        // ~55% of its power — the motivation for sharing one ADC per array
        // and for the MLC mode keeping ADC energy flat.
        let t = Table2::paper_65nm();
        let adc = t.analog.component("ADC").unwrap();
        assert!(adc.area_mm2 / t.analog.module_area_mm2() > 0.6);
        assert!(adc.power_mw / t.analog.module_power_mw() > 0.5);
    }

    #[test]
    fn sfu_dominates_digital_module_area() {
        let t = Table2::paper_65nm();
        let sfu = t.digital.component("SFU").unwrap();
        assert!(sfu.area_mm2 / t.digital.module_area_mm2() > 0.5);
    }

    #[test]
    fn component_lookup() {
        let t = Table2::paper_65nm();
        assert!(t.analog.component("WL DRV").is_some());
        assert!(t.analog.component("does-not-exist").is_none());
    }

    #[test]
    fn chip_totals_are_consistent() {
        let t = Table2::paper_65nm();
        let area = t.chip_area_mm2();
        let power = t.chip_power_mw();
        assert!((area - (11.24 + 64.05)).abs() < 0.2);
        assert!((power - (22_336.59 + 52_256.41)).abs() < 40.0);
    }
}
