// @file crates/baselines/src/spec.rs
#![forbid(unsafe_code)]
pub struct BackendSpec {
    pub name: &'static str,
    pub summary: &'static str,
}

pub const SPECS: [BackendSpec; 1] = [BackendSpec {
    name: "hyflexpim",
    summary: "hybrid SLC/MLC PIM",
}];
// @file crates/bench/src/bin/fig14.rs
use hyflex_baselines::spec::SPECS;

fn main() {
    for spec in &SPECS {
        let summary = spec.name.len();
        println!("{} {summary}", spec.name);
    }
}
