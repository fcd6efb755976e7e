//! Open-loop arrival generation: bursty, diurnal, replayable request
//! traces that stream to millions of requests.
//!
//! Every serving simulator draws its arrivals from a [`RequestTrace`]: the
//! closed-loop [`ClusterSim`](crate::cluster::ClusterSim) builds a Poisson
//! trace from its [`ServingConfig`](crate::serving::ServingConfig). Production
//! traffic is rarely that tame: it is **open-loop** (arrivals do not wait
//! for completions), **bursty** (arrival-rate variance far above Poisson),
//! and **diurnal** (the mean rate itself drifts over the day). This module
//! models all three with three deterministic seeded processes behind one
//! [`ArrivalProcess`] surface:
//!
//! * [`ArrivalProcess::Poisson`] — the memoryless stream the closed-loop
//!   simulators sample, so a Poisson [`RequestTrace`] with their seed,
//!   rate, and request mix replayed through them reproduces their reports
//!   byte for byte.
//! * [`ArrivalProcess::Mmpp`] — a Markov-modulated Poisson process: the
//!   stream cycles through [`MmppState`]s (e.g. *burst* → *trough*), each
//!   holding a Poisson rate for an exponentially distributed dwell time.
//!   Because the exponential is memoryless, re-sampling the inter-arrival
//!   draw at every rate boundary is exact, not an approximation.
//! * [`ArrivalProcess::GammaBurst`] — i.i.d. Gamma inter-arrival times at a
//!   mean rate with a shape parameter: `shape < 1` clumps arrivals into
//!   bursts (coefficient of variation `1/√shape > 1`), `shape > 1` smooths
//!   them toward a paced stream.
//!
//! A piecewise [`RatePhase`] curve multiplies the instantaneous rate on top
//! of any process, cycling to model diurnal load shape. Every request is
//! tagged with the *phase* it arrived in (the MMPP state or the curve
//! segment) via `InferenceRequest::phase`, which is what lets the overload
//! engine ([`crate::overload`]) break tail latency and goodput out per
//! burst/trough phase.
//!
//! [`RequestTrace`] is the replayable trace format: a validated
//! configuration whose [`stream`](RequestTrace::stream) yields arrivals one
//! at a time in O(1) memory — the trace *is* the (config, seed) pair, so a
//! 10⁷-request trace costs nothing to store and re-streams bit-identically
//! on every machine and thread count.

use crate::error::RuntimeError;
use crate::serving::RequestClass;
use crate::Result;
use hyflex_pim::backend::InferenceRequest;
use hyflex_tensor::rng::Rng;

/// One state of a Markov-modulated Poisson process.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppState {
    /// Display label used in per-phase report rows (e.g. `"burst"`).
    pub label: String,
    /// Poisson arrival rate while the process holds this state, requests
    /// per second (before any rate-curve multiplier).
    pub qps: f64,
    /// Mean dwell time in this state, seconds (the actual dwell of each
    /// visit is exponentially distributed around this mean).
    pub mean_dwell_s: f64,
}

impl MmppState {
    /// A state with the given label, rate, and mean dwell.
    pub fn new(label: &str, qps: f64, mean_dwell_s: f64) -> Self {
        MmppState {
            label: label.to_string(),
            qps,
            mean_dwell_s,
        }
    }
}

/// One segment of a piecewise time-varying rate curve (cycled for diurnal
/// shape): for `duration_s` the process's instantaneous rate is multiplied
/// by `multiplier`.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePhase {
    /// Display label used in per-phase report rows (e.g. `"peak"`).
    pub label: String,
    /// Segment length, seconds.
    pub duration_s: f64,
    /// Rate multiplier applied while the curve is in this segment.
    pub multiplier: f64,
}

impl RatePhase {
    /// A curve segment with the given label, duration, and multiplier.
    pub fn new(label: &str, duration_s: f64, multiplier: f64) -> Self {
        RatePhase {
            label: label.to_string(),
            duration_s,
            multiplier,
        }
    }
}

/// The stochastic arrival process of an open-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals at a constant mean rate (the closed-loop
    /// simulators' arrival process).
    Poisson {
        /// Mean arrival rate, requests per second.
        qps: f64,
    },
    /// Markov-modulated Poisson: the process cycles through `states` in
    /// order, holding each state's rate for an exponentially distributed
    /// dwell. Two states give the classic burst/trough on-off shape.
    Mmpp {
        /// The dwell states, visited cyclically (state 0 first).
        states: Vec<MmppState>,
    },
    /// Renewal process with Gamma-distributed inter-arrival times: mean
    /// rate `qps`, burstiness set by `shape` (CV = `1/√shape`; `shape < 1`
    /// is burstier than Poisson, `shape > 1` smoother).
    GammaBurst {
        /// Mean arrival rate, requests per second.
        qps: f64,
        /// Gamma shape parameter `k > 0`.
        shape: f64,
    },
}

/// Workload description of one open-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Piecewise rate multipliers cycled over time (empty = flat). Applied
    /// exactly (per-segment re-sampling) to the memoryless processes; for
    /// [`ArrivalProcess::GammaBurst`] each sampled inter-arrival is scaled
    /// by the multiplier in force when it is drawn (an approximation,
    /// since the Gamma renewal process is not memoryless).
    pub rate_curve: Vec<RatePhase>,
    /// Number of requests the trace yields.
    pub num_requests: usize,
    /// Sequence length of every request when `classes` is empty.
    pub seq_len: usize,
    /// Relative SLO applied to every request when `classes` is empty;
    /// `f64::INFINITY` tracks no deadline.
    pub slo_ns: f64,
    /// Heterogeneous request mix, sampled by weight exactly as in
    /// [`ServingConfig::classes`](crate::serving::ServingConfig::classes).
    pub classes: Vec<RequestClass>,
    /// Seed of the whole trace (dwells, inter-arrivals, and mix draws).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 1000.0 },
            rate_curve: Vec::new(),
            num_requests: 10_000,
            seq_len: 128,
            slo_ns: f64::INFINITY,
            classes: Vec::new(),
            seed: 7,
        }
    }
}

/// A validated, replayable request trace: the (configuration, seed) pair
/// that deterministically re-streams the same arrivals on demand.
///
/// The trace never materializes its requests — [`RequestTrace::stream`]
/// yields them one at a time in O(1) memory, so traces scale to 10⁶–10⁷
/// requests. [`RequestTrace::collect`] materializes small traces for replay
/// through the closed-loop simulators' `replay` entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    config: TrafficConfig,
}

impl RequestTrace {
    /// Validates and wraps a traffic configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for non-positive rates,
    /// shapes, dwells, curve durations or multipliers, an empty run, an
    /// empty MMPP state list, more than 256 phases (the per-request phase
    /// tag is a `u8`), a zero sequence length, or a degenerate request mix
    /// (zero sequence length, non-positive weight or SLO). The closed-loop
    /// simulators validate their configs through here.
    pub fn new(config: TrafficConfig) -> Result<Self> {
        if config.num_requests == 0 {
            return Err(RuntimeError::InvalidConfig(
                "num_requests must be at least 1".to_string(),
            ));
        }
        match &config.process {
            ArrivalProcess::Poisson { qps } => {
                if !(qps.is_finite() && *qps > 0.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "Poisson qps {qps} must be positive and finite"
                    )));
                }
            }
            ArrivalProcess::Mmpp { states } => {
                if states.is_empty() {
                    return Err(RuntimeError::InvalidConfig(
                        "an MMPP needs at least one state".to_string(),
                    ));
                }
                if states.len() > 256 {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "{} MMPP states exceed the 256-phase tag space",
                        states.len()
                    )));
                }
                for (index, state) in states.iter().enumerate() {
                    if !(state.qps.is_finite() && state.qps > 0.0) {
                        return Err(RuntimeError::InvalidConfig(format!(
                            "MMPP state {index} ({}) has non-positive qps {}",
                            state.label, state.qps
                        )));
                    }
                    if !(state.mean_dwell_s.is_finite() && state.mean_dwell_s > 0.0) {
                        return Err(RuntimeError::InvalidConfig(format!(
                            "MMPP state {index} ({}) has non-positive dwell {}",
                            state.label, state.mean_dwell_s
                        )));
                    }
                }
            }
            ArrivalProcess::GammaBurst { qps, shape } => {
                if !(qps.is_finite() && *qps > 0.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "GammaBurst qps {qps} must be positive and finite"
                    )));
                }
                if !(shape.is_finite() && *shape > 0.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "GammaBurst shape {shape} must be positive and finite"
                    )));
                }
            }
        }
        if config.rate_curve.len() > 256 {
            return Err(RuntimeError::InvalidConfig(format!(
                "{} rate-curve segments exceed the 256-phase tag space",
                config.rate_curve.len()
            )));
        }
        for (index, phase) in config.rate_curve.iter().enumerate() {
            if !(phase.duration_s.is_finite() && phase.duration_s > 0.0) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "rate-curve segment {index} ({}) has non-positive duration {}",
                    phase.label, phase.duration_s
                )));
            }
            if !(phase.multiplier.is_finite() && phase.multiplier > 0.0) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "rate-curve segment {index} ({}) has non-positive multiplier {}",
                    phase.label, phase.multiplier
                )));
            }
        }
        if config.seq_len == 0 {
            return Err(RuntimeError::InvalidConfig(
                "seq_len must be at least 1".to_string(),
            ));
        }
        if config.slo_ns.is_nan() || config.slo_ns <= 0.0 {
            return Err(RuntimeError::InvalidConfig(format!(
                "slo_ns {} must be positive (f64::INFINITY for no SLO)",
                config.slo_ns
            )));
        }
        for (index, class) in config.classes.iter().enumerate() {
            if class.seq_len == 0 {
                return Err(RuntimeError::InvalidConfig(format!(
                    "request class {index} has zero seq_len"
                )));
            }
            if !(class.weight > 0.0 && class.weight.is_finite()) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "request class {index} has non-positive weight {}",
                    class.weight
                )));
            }
            if class.slo_ns.is_nan() || class.slo_ns <= 0.0 {
                return Err(RuntimeError::InvalidConfig(format!(
                    "request class {index} has non-positive slo_ns {}",
                    class.slo_ns
                )));
            }
        }
        Ok(RequestTrace { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Long-run mean offered rate, requests per second: the process mean
    /// (dwell-weighted over MMPP states) times the time-weighted mean
    /// rate-curve multiplier over one curve cycle.
    pub fn mean_qps(&self) -> f64 {
        let process_qps = match &self.config.process {
            ArrivalProcess::Poisson { qps } | ArrivalProcess::GammaBurst { qps, .. } => *qps,
            ArrivalProcess::Mmpp { states } => {
                let dwell: f64 = states.iter().map(|s| s.mean_dwell_s).sum();
                states.iter().map(|s| s.qps * s.mean_dwell_s).sum::<f64>() / dwell
            }
        };
        let curve_factor = if self.config.rate_curve.is_empty() {
            1.0
        } else {
            let span: f64 = self.config.rate_curve.iter().map(|p| p.duration_s).sum();
            self.config
                .rate_curve
                .iter()
                .map(|p| p.multiplier * p.duration_s)
                .sum::<f64>()
                / span
        };
        process_qps * curve_factor
    }

    /// Distinct request shapes the trace can yield: the mix's sequence
    /// lengths, or the single `seq_len` without a mix.
    pub(crate) fn seq_lens(&self) -> Vec<usize> {
        if self.config.classes.is_empty() {
            vec![self.config.seq_len]
        } else {
            self.config.classes.iter().map(|c| c.seq_len).collect()
        }
    }

    /// Display labels of the trace's phases, indexed by the per-request
    /// `phase` tag: the MMPP state labels, else the rate-curve segment
    /// labels, else a single `"steady"` phase.
    pub fn phase_labels(&self) -> Vec<String> {
        match &self.config.process {
            ArrivalProcess::Mmpp { states } => states.iter().map(|s| s.label.clone()).collect(),
            _ if !self.config.rate_curve.is_empty() => self
                .config
                .rate_curve
                .iter()
                .map(|p| p.label.clone())
                .collect(),
            _ => vec!["steady".to_string()],
        }
    }

    /// Loads a trace from a plain-text workload file (see
    /// [`RequestTrace::parse`] for the format).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an unreadable file or a
    /// malformed workload description.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            RuntimeError::InvalidConfig(format!("cannot read trace file {}: {e}", path.display()))
        })?;
        RequestTrace::parse(&text)
    }

    /// Parses a plain-text workload description into a validated trace.
    ///
    /// One `key = value` directive per line; `#` starts a comment. Keys:
    ///
    /// ```text
    /// process      = poisson qps=3000
    ///              | mmpp                      (states follow)
    ///              | gamma qps=3000 shape=0.25
    /// state        = burst qps=20000 dwell_s=0.02     (MMPP states, in order)
    /// phase        = peak duration_s=0.05 multiplier=3.0   (rate curve)
    /// num_requests = 500
    /// seq_len      = 128
    /// slo_ns       = 2e6 | inf
    /// class        = seq_len=64 weight=3 slo_ns=2e6 priority=1
    /// seed         = 42
    /// ```
    ///
    /// Unset keys keep the [`TrafficConfig::default`] values; `class` lines
    /// build the heterogeneous request mix (`slo_ns` and `priority` are
    /// optional per class). The format is hand-parsed — traces stay
    /// loadable without any serialization dependency.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] naming the offending line
    /// for unknown keys, malformed numbers, a `seq_len`, `num_requests` or
    /// class `priority` that is not a whole number in range (`seq_len` and
    /// `num_requests` must also be positive), `state` lines outside an MMPP
    /// process, or a configuration [`RequestTrace::new`] rejects.
    pub fn parse(text: &str) -> Result<Self> {
        let mut config = TrafficConfig::default();
        let mut states: Vec<MmppState> = Vec::new();
        let mut saw_mmpp = false;
        for (index, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad =
                |msg: String| RuntimeError::InvalidConfig(format!("line {}: {msg}", index + 1));
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "process" => {
                    let mut words = value.split_whitespace();
                    let kind = words
                        .next()
                        .ok_or_else(|| bad("empty process".to_string()))?;
                    let fields = parse_fields(words, index + 1)?;
                    config.process = match kind {
                        "poisson" => ArrivalProcess::Poisson {
                            qps: take_field(&fields, "qps", index + 1)?,
                        },
                        "mmpp" => {
                            saw_mmpp = true;
                            ArrivalProcess::Mmpp { states: Vec::new() }
                        }
                        "gamma" => ArrivalProcess::GammaBurst {
                            qps: take_field(&fields, "qps", index + 1)?,
                            shape: take_field(&fields, "shape", index + 1)?,
                        },
                        other => {
                            return Err(bad(format!(
                                "unknown process `{other}` (poisson, mmpp, gamma)"
                            )))
                        }
                    };
                }
                "state" => {
                    if !saw_mmpp {
                        return Err(bad("`state` requires `process = mmpp` first".to_string()));
                    }
                    let mut words = value.split_whitespace();
                    let label = words
                        .next()
                        .ok_or_else(|| bad("state needs a label".to_string()))?;
                    let fields = parse_fields(words, index + 1)?;
                    states.push(MmppState::new(
                        label,
                        take_field(&fields, "qps", index + 1)?,
                        take_field(&fields, "dwell_s", index + 1)?,
                    ));
                }
                "phase" => {
                    let mut words = value.split_whitespace();
                    let label = words
                        .next()
                        .ok_or_else(|| bad("phase needs a label".to_string()))?;
                    let fields = parse_fields(words, index + 1)?;
                    config.rate_curve.push(RatePhase::new(
                        label,
                        take_field(&fields, "duration_s", index + 1)?,
                        take_field(&fields, "multiplier", index + 1)?,
                    ));
                }
                "class" => {
                    let fields = parse_fields(value.split_whitespace(), index + 1)?;
                    let seq_len: usize = find_integer(&fields, "seq_len", index + 1)?
                        .ok_or_else(|| bad("missing `seq_len=`".to_string()))?;
                    if seq_len == 0 {
                        return Err(bad("class seq_len must be at least 1".to_string()));
                    }
                    let weight = take_field(&fields, "weight", index + 1)?;
                    let mut class = RequestClass::new(seq_len, weight);
                    if let Some(slo) = find_field(&fields, "slo_ns") {
                        class = class.with_slo_ns(slo);
                    }
                    if let Some(priority) = find_integer(&fields, "priority", index + 1)? {
                        class = class.with_priority(priority);
                    }
                    config.classes.push(class);
                }
                "num_requests" => {
                    config.num_requests = value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad(format!("bad num_requests `{value}` (need ≥ 1)")))?;
                }
                "seq_len" => {
                    config.seq_len = value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad(format!("bad seq_len `{value}` (need ≥ 1)")))?;
                }
                "slo_ns" => {
                    config.slo_ns =
                        parse_number(value).ok_or_else(|| bad(format!("bad slo_ns `{value}`")))?;
                }
                "seed" => {
                    config.seed = value
                        .parse()
                        .map_err(|_| bad(format!("bad seed `{value}`")))?;
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        if saw_mmpp {
            config.process = ArrivalProcess::Mmpp { states };
        }
        RequestTrace::new(config)
    }

    /// Opens the trace as a streaming iterator of arrivals (sorted by
    /// arrival time, ids sequential from 0, phases tagged). O(1) memory;
    /// bit-identical on every call for the same trace.
    pub fn stream(&self) -> TrafficStream {
        TrafficStream::new(self.config.clone())
    }

    /// Materializes the whole trace (for replay through
    /// [`ClusterSim::replay_traced`](crate::cluster::ClusterSim::replay_traced)
    /// and for tests). Prefer [`RequestTrace::stream`] for large traces.
    pub fn collect(&self) -> Vec<InferenceRequest> {
        self.stream().collect()
    }
}

/// Streaming generator over a [`RequestTrace`]: yields arrivals one at a
/// time without materializing the trace.
#[derive(Debug, Clone)]
pub struct TrafficStream {
    config: TrafficConfig,
    total_class_weight: f64,
    rng: Rng,
    /// Current simulation time, ns.
    t_ns: f64,
    emitted: usize,
    /// Current MMPP state index and the time its dwell ends, ns.
    state: usize,
    state_end_ns: f64,
    /// Current rate-curve segment index (into `rate_curve`, cycling) and
    /// the time it ends, ns.
    segment: usize,
    segment_end_ns: f64,
}

impl TrafficStream {
    fn new(config: TrafficConfig) -> Self {
        let total_class_weight = config.classes.iter().map(|c| c.weight).sum();
        let mut stream = TrafficStream {
            config,
            total_class_weight,
            rng: Rng::seed_from(0),
            t_ns: 0.0,
            emitted: 0,
            state: 0,
            state_end_ns: f64::INFINITY,
            segment: 0,
            segment_end_ns: f64::INFINITY,
        };
        stream.rng = Rng::seed_from(stream.config.seed);
        if !stream.config.rate_curve.is_empty() {
            stream.segment_end_ns = stream.config.rate_curve[0].duration_s * 1e9;
        }
        if let ArrivalProcess::Mmpp { states } = &stream.config.process {
            // The initial dwell is sampled up front so the first arrival
            // already lives inside a well-defined state window.
            let dwell = exponential(&mut stream.rng, states[0].mean_dwell_s);
            stream.state_end_ns = dwell * 1e9;
        }
        stream
    }

    /// Rate multiplier of the current curve segment.
    fn multiplier(&self) -> f64 {
        if self.config.rate_curve.is_empty() {
            1.0
        } else {
            self.config.rate_curve[self.segment % self.config.rate_curve.len()].multiplier
        }
    }

    /// Moves to the next rate-curve segment (cycling).
    fn advance_segment(&mut self) {
        let curve = &self.config.rate_curve;
        self.segment += 1;
        self.segment_end_ns += curve[self.segment % curve.len()].duration_s * 1e9;
    }

    /// Advances `t_ns` to the next arrival of a piecewise-constant-rate
    /// Poisson process (plain or Markov-modulated). Exact: the exponential
    /// is memoryless, so discarding a draw that crosses a rate boundary
    /// and re-sampling at the boundary preserves the process law.
    #[allow(clippy::unreachable)]
    fn next_memoryless_arrival(&mut self) {
        loop {
            let (rate_qps, state_end) = match &self.config.process {
                ArrivalProcess::Poisson { qps } => (*qps, f64::INFINITY),
                ArrivalProcess::Mmpp { states } => (states[self.state].qps, self.state_end_ns),
                // hyflex-lint: allow(E1) — dispatch invariant: next() routes
                // GammaBurst to next_gamma_arrival, so reaching this arm is a
                // bug in the stream itself and deserves a loud stop.
                ArrivalProcess::GammaBurst { .. } => unreachable!("gamma is not memoryless"),
            };
            let rate = rate_qps * self.multiplier();
            let boundary = state_end.min(self.segment_end_ns);
            let dt_ns = -(1.0 - self.rng.uniform()).ln() / rate * 1e9;
            if self.t_ns + dt_ns <= boundary {
                self.t_ns += dt_ns;
                return;
            }
            self.t_ns = boundary;
            if state_end <= self.segment_end_ns {
                // The MMPP dwell expired: cycle to the next state.
                if let ArrivalProcess::Mmpp { states } = &self.config.process {
                    self.state = (self.state + 1) % states.len();
                    let dwell = exponential(&mut self.rng, states[self.state].mean_dwell_s);
                    self.state_end_ns += dwell * 1e9;
                }
            } else {
                self.advance_segment();
            }
        }
    }

    /// Advances `t_ns` to the next arrival of the Gamma renewal process.
    fn next_gamma_arrival(&mut self, qps: f64, shape: f64) {
        // Mean inter-arrival 1/(qps · multiplier) seconds: Gamma(shape)
        // has mean `shape`, so scale by 1/(qps · shape).
        let scale_s = 1.0 / (qps * shape * self.multiplier());
        let dt_ns = gamma_sample(&mut self.rng, shape) * scale_s * 1e9;
        self.t_ns += dt_ns;
        while self.t_ns > self.segment_end_ns {
            self.advance_segment();
        }
    }

    /// The phase tag of an arrival at the current time.
    fn phase(&self) -> u8 {
        match &self.config.process {
            ArrivalProcess::Mmpp { .. } => self.state as u8,
            _ if !self.config.rate_curve.is_empty() => {
                (self.segment % self.config.rate_curve.len()) as u8
            }
            _ => 0,
        }
    }
}

impl Iterator for TrafficStream {
    type Item = InferenceRequest;

    fn next(&mut self) -> Option<InferenceRequest> {
        if self.emitted >= self.config.num_requests {
            return None;
        }
        match self.config.process.clone() {
            ArrivalProcess::GammaBurst { qps, shape } => self.next_gamma_arrival(qps, shape),
            _ => self.next_memoryless_arrival(),
        }
        // Weighted class draw: one extra uniform per request when a mix
        // is configured. The last class doubles as the rounding fallback.
        let class = match self.config.classes.last() {
            None => RequestClass::new(self.config.seq_len, 1.0).with_slo_ns(self.config.slo_ns),
            Some(&fallback) => {
                let mut pick = self.rng.uniform() * self.total_class_weight;
                let mut chosen = fallback;
                for class in &self.config.classes {
                    if pick < class.weight {
                        chosen = *class;
                        break;
                    }
                    pick -= class.weight;
                }
                chosen
            }
        };
        let deadline_ns = if class.slo_ns.is_finite() {
            self.t_ns + class.slo_ns
        } else {
            f64::INFINITY
        };
        let id = self.emitted as u64;
        self.emitted += 1;
        Some(
            InferenceRequest::new(id, self.t_ns, class.seq_len)
                .with_deadline_ns(deadline_ns)
                .with_priority(class.priority)
                .with_phase(self.phase()),
        )
    }
}

/// Exponential sample with the given mean.
fn exponential(rng: &mut Rng, mean: f64) -> f64 {
    -(1.0 - rng.uniform()).ln() * mean
}

/// Gamma(shape, scale = 1) sample via Marsaglia–Tsang squeeze (with the
/// standard `U^{1/k}` boost for `shape < 1`). Deterministic for the RNG
/// stream, like every sampler in the workspace.
fn gamma_sample(rng: &mut Rng, shape: f64) -> f64 {
    if shape < 1.0 {
        let boost = loop {
            let u = rng.uniform();
            if u > 0.0 {
                break u.powf(1.0 / shape);
            }
        };
        return gamma_sample(rng, shape + 1.0) * boost;
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (3.0 * d.sqrt());
    loop {
        let x = rng.normal();
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = rng.uniform();
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v3;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Splits `key=value` trace-file words into (key, number) pairs.
fn parse_fields<'a>(
    words: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Vec<(&'a str, f64)>> {
    words
        .map(|word| {
            let (key, value) = word.split_once('=').ok_or_else(|| {
                RuntimeError::InvalidConfig(format!(
                    "line {line}: expected `key=value`, got `{word}`"
                ))
            })?;
            let number = parse_number(value).ok_or_else(|| {
                RuntimeError::InvalidConfig(format!(
                    "line {line}: bad number `{value}` for `{key}`"
                ))
            })?;
            Ok((key, number))
        })
        .collect()
}

/// Looks up an optional field parsed by [`parse_fields`].
fn find_field(fields: &[(&str, f64)], key: &str) -> Option<f64> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Looks up an optional whole-number field parsed by [`parse_fields`],
/// rejecting fractional, negative, non-finite and out-of-range values for
/// `T` instead of coercing them.
fn find_integer<T: TryFrom<u64>>(
    fields: &[(&str, f64)],
    key: &str,
    line: usize,
) -> Result<Option<T>> {
    let Some(value) = find_field(fields, key) else {
        return Ok(None);
    };
    // 2^64 is exact in f64, so every value below it that passes the
    // fraction test converts to `u64` without rounding.
    let whole = value.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&value);
    whole
        .then(|| T::try_from(value as u64).ok())
        .flatten()
        .map(Some)
        .ok_or_else(|| {
            RuntimeError::InvalidConfig(format!(
                "line {line}: `{key}={value}` is not a whole number in the range of {}",
                std::any::type_name::<T>()
            ))
        })
}

/// Looks up a required field parsed by [`parse_fields`].
fn take_field(fields: &[(&str, f64)], key: &str, line: usize) -> Result<f64> {
    find_field(fields, key)
        .ok_or_else(|| RuntimeError::InvalidConfig(format!("line {line}: missing `{key}=`")))
}

/// Parses a number, accepting `inf` for unbounded SLOs.
fn parse_number(value: &str) -> Option<f64> {
    if value == "inf" {
        return Some(f64::INFINITY);
    }
    value.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(process: ArrivalProcess, n: usize) -> RequestTrace {
        RequestTrace::new(TrafficConfig {
            process,
            num_requests: n,
            ..TrafficConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn trace_files_round_trip() {
        let text = "\
# fig21-style burst workload
process = mmpp
state = calm qps=2000 dwell_s=0.08   # trough
state = burst qps=20000 dwell_s=0.02
phase = warm duration_s=0.05 multiplier=1.0
phase = peak duration_s=0.05 multiplier=3.0
num_requests = 500
seq_len = 64
slo_ns = 2e6
class = seq_len=64 weight=3 slo_ns=2e6 priority=1
class = seq_len=256 weight=1
seed = 42
";
        let parsed = RequestTrace::parse(text).unwrap();
        let expected = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("calm", 2000.0, 0.08),
                    MmppState::new("burst", 20000.0, 0.02),
                ],
            },
            rate_curve: vec![
                RatePhase::new("warm", 0.05, 1.0),
                RatePhase::new("peak", 0.05, 3.0),
            ],
            num_requests: 500,
            seq_len: 64,
            slo_ns: 2e6,
            classes: vec![
                RequestClass::new(64, 3.0).with_slo_ns(2e6).with_priority(1),
                RequestClass::new(256, 1.0),
            ],
            seed: 42,
        })
        .unwrap();
        assert_eq!(parsed, expected);

        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-traces");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.trace");
        std::fs::write(&path, text).unwrap();
        assert_eq!(RequestTrace::from_file(&path).unwrap(), expected);

        // Unset keys keep the defaults.
        let sparse = RequestTrace::parse("process = poisson qps=250\n").unwrap();
        let default_poisson = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 250.0 },
            ..TrafficConfig::default()
        })
        .unwrap();
        assert_eq!(sparse, default_poisson);
        let gamma = RequestTrace::parse("process = gamma qps=500 shape=0.25\n").unwrap();
        assert!((gamma.mean_qps() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn trace_parser_names_the_offending_line() {
        let err = |text: &str| RequestTrace::parse(text).unwrap_err().to_string();
        assert!(
            err("bogus = 1\n").contains("line 1"),
            "{}",
            err("bogus = 1\n")
        );
        assert!(err("bogus = 1\n").contains("bogus"));
        let no_eq = err("seed = 1\nseq_len\n");
        assert!(no_eq.contains("line 2"), "{no_eq}");
        let bad_number = err("seq_len = twelve\n");
        assert!(bad_number.contains("twelve"), "{bad_number}");
        let orphan_state = err("state = burst qps=100 dwell_s=0.1\n");
        assert!(orphan_state.contains("mmpp"), "{orphan_state}");
        let missing = err("process = gamma qps=100\n");
        assert!(missing.contains("shape"), "{missing}");
        let unknown = err("process = weibull qps=100\n");
        assert!(unknown.contains("weibull"), "{unknown}");
        // Validation still runs on parsed configs (mmpp with no states).
        assert!(RequestTrace::parse("process = mmpp\n").is_err());
        // Unreadable paths name the file.
        let gone = RequestTrace::from_file("/nonexistent/x.trace")
            .unwrap_err()
            .to_string();
        assert!(gone.contains("/nonexistent/x.trace"), "{gone}");
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        let bad = |config| RequestTrace::new(config).is_err();
        assert!(bad(TrafficConfig {
            num_requests: 0,
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 0.0 },
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            process: ArrivalProcess::Mmpp { states: vec![] },
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![MmppState::new("burst", -1.0, 1.0)],
            },
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![MmppState::new("burst", 100.0, 0.0)],
            },
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            process: ArrivalProcess::GammaBurst {
                qps: 100.0,
                shape: 0.0,
            },
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            rate_curve: vec![RatePhase::new("peak", 0.0, 1.0)],
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            rate_curve: vec![RatePhase::new("peak", 1.0, -0.5)],
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            classes: vec![RequestClass::new(64, 0.0)],
            ..TrafficConfig::default()
        }));
        assert!(bad(TrafficConfig {
            slo_ns: -1.0,
            ..TrafficConfig::default()
        }));
    }

    #[test]
    fn construction_rejects_a_zero_top_level_seq_len() {
        let err = RequestTrace::new(TrafficConfig {
            seq_len: 0,
            ..TrafficConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("seq_len"), "{err}");
    }

    #[test]
    fn construction_rejects_a_zero_class_seq_len() {
        let err = RequestTrace::new(TrafficConfig {
            classes: vec![RequestClass::new(64, 1.0), RequestClass::new(0, 1.0)],
            ..TrafficConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("class 1"), "{err}");
    }

    /// Parses `text`, expecting an `InvalidConfig` error naming `line` and
    /// mentioning `needle`.
    fn rejected_at(text: &str, line: usize, needle: &str) {
        let err = RequestTrace::parse(text).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("line {line}")), "{msg}");
        assert!(msg.contains(needle), "{msg}");
    }

    #[test]
    fn trace_parser_rejects_a_negative_class_seq_len() {
        rejected_at("seed = 1\nclass = seq_len=-5 weight=1\n", 2, "seq_len");
    }

    #[test]
    fn trace_parser_rejects_a_fractional_class_seq_len() {
        rejected_at("class = seq_len=64.9 weight=1\n", 1, "seq_len");
    }

    #[test]
    fn trace_parser_rejects_an_out_of_range_class_seq_len() {
        rejected_at("class = seq_len=1e30 weight=1\n", 1, "seq_len");
        rejected_at("class = seq_len=inf weight=1\n", 1, "seq_len");
    }

    #[test]
    fn trace_parser_rejects_a_zero_class_seq_len() {
        rejected_at("class = seq_len=0 weight=1\n", 1, "seq_len");
    }

    #[test]
    fn trace_parser_rejects_an_out_of_range_priority() {
        rejected_at("class = seq_len=64 weight=1 priority=300\n", 1, "priority");
    }

    #[test]
    fn trace_parser_rejects_a_negative_priority() {
        rejected_at("class = seq_len=64 weight=1 priority=-2\n", 1, "priority");
    }

    #[test]
    fn trace_parser_rejects_a_fractional_priority() {
        rejected_at("class = seq_len=64 weight=1 priority=1.5\n", 1, "priority");
    }

    #[test]
    fn trace_parser_rejects_a_zero_top_level_seq_len() {
        rejected_at("seed = 3\n\nseq_len = 0\n", 3, "seq_len");
    }

    #[test]
    fn trace_parser_rejects_a_zero_num_requests() {
        rejected_at("num_requests = 0\n", 1, "num_requests");
    }

    #[test]
    fn trace_parser_keeps_in_range_integer_fields() {
        let parsed = RequestTrace::parse("class = seq_len=1 weight=1 priority=255\n").unwrap();
        assert_eq!(
            parsed.config().classes,
            vec![RequestClass::new(1, 1.0).with_priority(255)]
        );
    }

    mod parser_robustness {
        use super::*;
        use proptest::prelude::*;

        /// Trace-file fragments: keys, field names, numbers (in and out of
        /// range) and junk, concatenated into arbitrary input.
        const FRAGMENTS: &[&str] = &[
            "\nclass = ",
            "\nprocess = ",
            "\nstate = burst ",
            "\nphase = peak ",
            "\nseq_len = ",
            "\nnum_requests = ",
            " weight=1 ",
            "process",
            "state",
            "phase",
            "class",
            "num_requests",
            "seq_len",
            "slo_ns",
            "seed",
            "bogus",
            "poisson",
            "mmpp",
            "gamma",
            "calm",
            "qps=",
            "dwell_s=",
            "shape=",
            "duration_s=",
            "multiplier=",
            "seq_len=",
            "weight=",
            "slo_ns=",
            "priority=",
            "0",
            "1",
            "3",
            "-2",
            "-5",
            "64.9",
            "300",
            "3000",
            "1e30",
            "1e-300",
            "inf",
            "-inf",
            "NaN",
            "18446744073709551616",
            "=",
            " = ",
            " ",
            "\t",
            "\n",
            "\r\n",
            "#",
            "==",
            "\u{e9}",
            "\u{1F600}",
            "",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Arbitrary input yields `Ok` or `Err`, never a panic.
            #[test]
            fn trace_parse_never_panics(
                parts in proptest::collection::vec(
                    proptest::sample::select(FRAGMENTS.to_vec()),
                    0..48,
                ),
            ) {
                let text: String = parts.concat();
                let outcome = RequestTrace::parse(&text);
                prop_assert!(outcome.is_ok() || outcome.is_err());
            }
        }
    }

    #[test]
    fn streams_are_sorted_sequential_and_deterministic() {
        let processes = [
            ArrivalProcess::Poisson { qps: 5000.0 },
            ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", 20_000.0, 0.02),
                    MmppState::new("trough", 2_000.0, 0.05),
                ],
            },
            ArrivalProcess::GammaBurst {
                qps: 5000.0,
                shape: 0.25,
            },
        ];
        for process in processes {
            let trace = trace(process, 2000);
            let a = trace.collect();
            assert_eq!(a.len(), 2000);
            for (index, request) in a.iter().enumerate() {
                assert_eq!(request.id, index as u64);
                assert!(request.arrival_ns.is_finite() && request.arrival_ns > 0.0);
            }
            assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
            // Bit-identical on re-stream.
            assert_eq!(a, trace.collect());
        }
    }

    #[test]
    fn poisson_trace_matches_the_closed_loop_generator_exactly() {
        // ClusterSim samples the Poisson trace of its config, so replaying
        // the same trace (same seed, rate, and mix) reproduces its report.
        use crate::cluster::{ClusterConfig, ClusterSim, DispatchPolicy};
        use crate::serving::ServingConfig;
        use hyflex_pim::backend::HyFlexPim;
        use hyflex_transformer::ModelConfig;

        let classes = vec![
            RequestClass::new(64, 3.0).with_slo_ns(2e6),
            RequestClass::new(256, 1.0).with_priority(1),
        ];
        let sim = ClusterSim::with_backend(
            HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap(),
            ClusterConfig {
                chips: 1,
                dispatch: DispatchPolicy::RoundRobin,
                serving: ServingConfig {
                    qps: 3000.0,
                    num_requests: 500,
                    classes: classes.clone(),
                    seed: 99,
                    ..ServingConfig::default()
                },
            },
        )
        .unwrap();
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 3000.0 },
            num_requests: 500,
            classes,
            seed: 99,
            ..TrafficConfig::default()
        })
        .unwrap();
        let (replayed, _) = sim.replay_traced(&trace.collect()).unwrap();
        assert_eq!(replayed, sim.run().unwrap());
    }

    #[test]
    fn mmpp_tags_phases_and_bursts_beat_troughs() {
        let trace = trace(
            ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", 50_000.0, 0.01),
                    MmppState::new("trough", 1_000.0, 0.01),
                ],
            },
            4000,
        );
        assert_eq!(trace.phase_labels(), vec!["burst", "trough"]);
        let arrivals = trace.collect();
        let burst = arrivals.iter().filter(|r| r.phase == 0).count();
        let trough = arrivals.iter().filter(|r| r.phase == 1).count();
        assert_eq!(burst + trough, 4000);
        // Equal dwell, 50x the rate: the burst phase carries far more.
        assert!(burst > 10 * trough, "burst {burst} vs trough {trough}");
        // Mean rate is the dwell-weighted state mean.
        assert!((trace.mean_qps() - 25_500.0).abs() < 1e-9);
    }

    #[test]
    fn rate_curve_modulates_density_and_tags_segments() {
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 10_000.0 },
            rate_curve: vec![
                RatePhase::new("peak", 0.05, 3.0),
                RatePhase::new("off-peak", 0.05, 0.2),
            ],
            num_requests: 3000,
            ..TrafficConfig::default()
        })
        .unwrap();
        assert_eq!(trace.phase_labels(), vec!["peak", "off-peak"]);
        assert!((trace.mean_qps() - 16_000.0).abs() < 1e-9);
        let arrivals = trace.collect();
        let peak = arrivals.iter().filter(|r| r.phase == 0).count();
        let off = arrivals.iter().filter(|r| r.phase == 1).count();
        assert_eq!(peak + off, 3000);
        // 15x the instantaneous rate over equal spans.
        assert!(peak > 5 * off, "peak {peak} vs off-peak {off}");
        // Phase tags agree with the curve segment of the arrival time.
        for request in &arrivals {
            let cycle_s = (request.arrival_ns * 1e-9) % 0.1;
            let expected = if cycle_s < 0.05 { 0 } else { 1 };
            assert_eq!(
                request.phase,
                expected,
                "at {} s",
                request.arrival_ns * 1e-9
            );
        }
    }

    #[test]
    fn gamma_shape_controls_burstiness() {
        // Coefficient of variation of inter-arrival times: shape 0.2 is
        // far burstier than Poisson (CV 1), shape 16 far smoother.
        let cv = |shape: f64| {
            let arrivals = trace(ArrivalProcess::GammaBurst { qps: 1000.0, shape }, 5000).collect();
            let gaps: Vec<f64> = arrivals
                .windows(2)
                .map(|w| w[1].arrival_ns - w[0].arrival_ns)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            (var.sqrt() / mean, mean)
        };
        let (bursty_cv, bursty_mean) = cv(0.2);
        let (smooth_cv, smooth_mean) = cv(16.0);
        assert!(bursty_cv > 1.5, "shape 0.2 CV {bursty_cv}");
        assert!(smooth_cv < 0.5, "shape 16 CV {smooth_cv}");
        // Both hold the configured mean rate (1 ms mean gap) within 10 %.
        for mean in [bursty_mean, smooth_mean] {
            assert!((mean - 1e6).abs() < 1e5, "mean gap {mean} ns");
        }
    }

    #[test]
    fn streaming_is_constant_memory_by_construction() {
        // The stream yields without materializing: walking a million
        // arrivals touches only the iterator's fixed state. (The memory
        // property is structural — this test pins the contract that the
        // walk completes and stays sorted without a Vec.)
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", 2e6, 0.005),
                    MmppState::new("trough", 4e5, 0.01),
                ],
            },
            num_requests: 1_000_000,
            ..TrafficConfig::default()
        })
        .unwrap();
        let mut last = 0.0f64;
        let mut count = 0usize;
        for request in trace.stream() {
            debug_assert!(request.arrival_ns >= last);
            last = request.arrival_ns;
            count += 1;
        }
        assert_eq!(count, 1_000_000);
        assert!(last > 0.0);
    }
}
