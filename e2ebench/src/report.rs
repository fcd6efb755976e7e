//! Metric declarations, failure tally, host measurements, and the one-line
//! JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one of them, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Every workload reports
/// every one of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Set-up.
    ("workloads.generate_s", "s"),
    ("baselines.build_s", "s"),
    // Accuracy pipeline: transformer, Algorithm 1, noise sweep, pool.
    ("transformer.pretrain_s", "s"),
    ("transformer.finetune_s", "s"),
    ("transformer.evaluate_s", "s"),
    ("transformer.train_samples_per_s", "samples/s"),
    ("core.factorize_s", "s"),
    ("core.factorized_layers", "count"),
    ("core.collect_profiles_s", "s"),
    ("core.noise_sweep_s", "s"),
    ("core.noise_points_per_s", "points/s"),
    ("core.slc_rank_frac", "fraction"),
    ("parallel.factorize_speedup", "x"),
    ("parallel.noise_sweep_speedup", "x"),
    // Performance model, seen through the timed backend decorator.
    ("core.perf.batched_calls", "count"),
    ("core.perf.decode_step_calls", "count"),
    ("core.perf.eval_s", "s"),
    ("core.perf.ns_per_call", "ns"),
    ("core.perf.memo_hit_frac", "fraction"),
    ("core.energy.linear_adc_frac", "fraction"),
    ("core.energy.analog_rram_read_frac", "fraction"),
    ("core.energy.analog_rram_write_frac", "fraction"),
    ("core.energy.sh_sa_frac", "fraction"),
    ("core.energy.analog_wldrv_frac", "fraction"),
    ("core.energy.attention_dot_product_frac", "fraction"),
    ("core.energy.sfu_frac", "fraction"),
    ("core.energy.digital_rram_write_frac", "fraction"),
    ("core.energy.digital_wldrv_frac", "fraction"),
    ("core.energy.sram_access_frac", "fraction"),
    ("core.energy.dram_access_frac", "fraction"),
    ("core.energy.interconnect_frac", "fraction"),
    ("core.energy.digital_mac_frac", "fraction"),
    ("core.latency.analog_frac", "fraction"),
    ("core.latency.digital_frac", "fraction"),
    ("core.latency.sfu_frac", "fraction"),
    ("core.latency.interconnect_frac", "fraction"),
    // Serving simulators: host time split.
    ("runtime.traffic.ns_per_req", "ns"),
    ("runtime.overload.run_s", "s"),
    ("runtime.overload.self_s", "s"),
    ("runtime.overload.ns_per_req", "ns"),
    ("runtime.decode.run_s", "s"),
    ("runtime.decode.self_s", "s"),
    ("runtime.decode.ns_per_req", "ns"),
    ("runtime.cluster.run_s", "s"),
    ("runtime.cluster.self_s", "s"),
    ("runtime.cluster.ns_per_req", "ns"),
    // Serving simulators: modeled counts.
    ("runtime.overload.admit_frac", "fraction"),
    ("runtime.overload.shed_frac", "fraction"),
    ("runtime.overload.preempt_frac", "fraction"),
    ("runtime.overload.useful_frac", "fraction"),
    ("runtime.overload.mean_batch", "requests"),
    ("runtime.overload.mean_queue_ms", "sim_ms"),
    ("runtime.overload.autoscale_events", "count"),
    ("runtime.overload.peak_active_replicas", "count"),
    ("runtime.decode.evict_frac", "fraction"),
    ("runtime.decode.demote_frac", "fraction"),
    ("runtime.decode.mean_batch", "requests"),
    ("runtime.decode.peak_kv_frac", "fraction"),
    ("runtime.decode.kv_write_frac", "fraction"),
    ("runtime.cluster.mean_batch", "requests"),
    ("runtime.cluster.mean_queue_ms", "sim_ms"),
    ("runtime.cluster.mean_chip_utilization", "fraction"),
    // Workload-specific figures: host token rate and the modeled chip.
    ("sim_tok_per_s", "tok/s"),
    ("modeled_goodput_qps", "sim_req/s"),
    ("modeled_slo_attainment", "fraction"),
    ("modeled_p50_ms", "sim_ms"),
    ("modeled_p999_ms", "sim_ms"),
    ("modeled_tpot_ms", "sim_ms"),
    ("modeled_nj_per_token", "nJ/tok"),
    ("modeled_accuracy_slc5", "fraction"),
    // The tracing itself.
    ("bench.trace_overhead_frac", "fraction"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Rows(BTreeMap<&'static str, f64>);

impl Rows {
    /// Records `value` under `name` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Operations attempted and failed: every workload operation that returned
/// an error and every output check that did not hold counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records one operation; returns its value, or `None` after counting
    /// the error as a failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }

    /// Prints the result line: the declared metrics of the run's kind, in
    /// declaration order. A declared end-to-end metric the run did not
    /// produce, or any non-finite value, counts as a failure.
    pub fn print(mut self, trace: bool, rows: &Rows) {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match rows.0.get(name) {
                Some(&v) if v.is_finite() => v,
                Some(_) => {
                    self.check(false, &format!("{name} is not finite"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.check(false, &format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Fastest of `values` (0 for an empty slice).
///
/// Pass times of one run are reported as their fastest pass, not their
/// median: on a shared host the same pass runs in slow regimes lasting
/// milliseconds to minutes (other tenants contending for shared caches and
/// memory; the pass's on-CPU time equals its wall time, so it is not
/// scheduling), and how much of a run they cover varies from run to run.
/// The fastest pass tracks the code's own cost; each run logs its min,
/// median and max to standard error.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Prints the spread of one run's pass times to standard error.
pub fn log_passes(what: &str, seconds: &[f64]) {
    let max = seconds.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "{what}: {} passes, min {:.6} s, median {:.6} s, max {max:.6} s",
        seconds.len(),
        fastest(seconds),
        median(seconds)
    );
}

/// Runs `f` and returns its value with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Set-up repetitions before a run's first pass. One more repetition runs
/// before every untraced pass, so that `setup_s`, the median repetition,
/// samples the whole run rather than its first milliseconds.
pub const SETUP_REPS: usize = 5;

/// Calls `pass` until `budget` has elapsed, at least once.
pub fn repeat_for(budget: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// The process's peak resident set size (`VmHWM`), MiB. Each run is its
/// own process, so this is the peak of one workload.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
