// @file crates/core/src/perf.rs
#![forbid(unsafe_code)]
pub struct LatencyBreakdown {
    pub analog_ns: f64,
    pub queueing_ns: f64,
}

impl LatencyBreakdown {
    pub fn total_ns(&self) -> f64 {
        self.analog_ns + self.queueing_ns
    }

    pub fn service_ns(&self) -> f64 {
        self.total_ns() - self.queueing_ns
    }
}
// @file e2ebench/src/timed.rs
use hyflex_pim::perf::LatencyBreakdown;

pub fn analog_frac(l: &LatencyBreakdown) -> f64 {
    let service_ns = l.analog_ns + l.queueing_ns;
    if service_ns > 0.0 {
        return l.analog_ns / service_ns;
    }
    l.total_ns()
}
