//! Shared command-line handling for the figure/table binaries.
//!
//! Every binary parses the same flags with [`BinArgs::parse`] and reads
//! the ones it uses; any other `--name` exits with status 2 and lists
//! these:
//!
//! * `--seed N` — override the binary's default experiment seed;
//! * `--mlc-bits B` — MLC cell level for ablations (2..=4, default 2; read
//!   by fig12 and fig18 only);
//! * `--out PATH` — tee every printed row to a file;
//! * `--threads N` — worker-pool width for parallelized sweeps
//!   (default: machine parallelism);
//! * `--backend NAME` — which comparison backend to evaluate (one of
//!   [`BACKENDS`](hyflex_baselines::BACKENDS): `hyflexpim`, `asadi-int8`,
//!   `asadi-fp32`, `nmp`, `sprint`, `non-pim`, `analog-attention`);
//!   binaries that only model HyFlexPIM (the accuracy sweeps) reject other
//!   names, and every binary rejects an unknown name with the roster
//!   listing;
//! * `--chips N` — cluster size for multi-chip serving binaries;
//! * `--dispatch NAME` — cluster request routing (`round-robin`/`rr`,
//!   `jsq`/`shortest-queue`);
//! * `--requests N` — request count for open-loop traffic binaries;
//! * `--trace PATH` — workload trace file for open-loop traffic binaries
//!   (see [`RequestTrace::parse`] for the format);
//! * `--smoke` — shrink an experiment to a seconds-scale CI smoke run.

use crate::output;
use hyflex_baselines::system::ensure_known;
use hyflex_rram::cell::CellMode;
use hyflex_runtime::{DispatchPolicy, JobPool, RequestTrace};
use std::fmt::Display;
use std::path::PathBuf;

/// Every flag [`BinArgs::parse`] accepts; all but `--smoke` take a value.
const FLAGS: [&str; 10] = [
    "--seed",
    "--mlc-bits",
    "--out",
    "--threads",
    "--backend",
    "--chips",
    "--dispatch",
    "--requests",
    "--trace",
    "--smoke",
];

/// Parsed common flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinArgs {
    /// `--seed N`: experiment seed override.
    pub seed: Option<u64>,
    /// `--mlc-bits B`: bits per MLC cell for ablations.
    pub mlc_bits: Option<u8>,
    /// `--out PATH`: file to tee output rows into.
    pub out: Option<PathBuf>,
    /// `--threads N`: worker-pool width.
    threads: Option<usize>,
    /// `--backend NAME`: registered comparison backend.
    pub backend: Option<String>,
    /// `--chips N`: cluster size for multi-chip serving.
    pub chips: Option<usize>,
    /// `--dispatch NAME`: cluster request-routing policy.
    pub dispatch: Option<String>,
    /// `--requests N`: request count for open-loop traffic binaries.
    pub requests: Option<usize>,
    /// `--trace PATH`: workload trace file for open-loop traffic binaries.
    pub trace: Option<PathBuf>,
    /// `--smoke`: shrink the experiment to a seconds-scale CI smoke run.
    pub smoke: bool,
}

impl BinArgs {
    /// Parses the process arguments. An unknown `--name` prints the
    /// accepted flags and exits with status 2, so a misspelt or retired
    /// flag never runs the default experiment in its place.
    pub fn parse() -> Self {
        or_exit(Self::parse_from(std::env::args().skip(1)))
    }

    /// Parses from an explicit argument iterator (testable core of
    /// [`BinArgs::parse`]).
    ///
    /// # Errors
    ///
    /// Names the first argument that looks like a flag (`--name`) but is
    /// not one of [`FLAGS`], and lists them.
    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        if let Some(unknown) = args
            .iter()
            .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
        {
            return Err(format!(
                "unknown flag {unknown}; expected one of: {}",
                FLAGS.join(", ")
            ));
        }
        let mut parsed = BinArgs::default();
        let value_of = |flag: &str| -> Option<&String> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|pos| args.get(pos + 1))
        };
        parsed.seed = value_of("--seed").and_then(|v| v.parse().ok());
        parsed.mlc_bits = value_of("--mlc-bits")
            .and_then(|v| v.parse().ok())
            .filter(|b| (2..=4).contains(b));
        parsed.out = value_of("--out").map(PathBuf::from);
        parsed.threads = value_of("--threads").and_then(|v| v.parse().ok());
        parsed.backend = value_of("--backend").cloned();
        parsed.chips = value_of("--chips").and_then(|v| v.parse().ok());
        parsed.dispatch = value_of("--dispatch").cloned();
        parsed.requests = value_of("--requests").and_then(|v| v.parse().ok());
        parsed.trace = value_of("--trace").map(PathBuf::from);
        parsed.smoke = args.iter().any(|a| a == "--smoke");
        Ok(parsed)
    }

    /// The `--chips` selection (or `default`). A zero or unparsable value
    /// falls back to the default, as for `--requests`. (An unparsable
    /// `--seed` or `--threads` also falls back, but zero is taken as given:
    /// `--seed 0` runs seed 0, and `--threads 0` gets the pool's one-worker
    /// minimum.)
    pub fn chips_or(&self, default: usize) -> usize {
        self.chips.filter(|&c| c > 0).unwrap_or(default)
    }

    /// The `--dispatch` selection (or `default`), validated against the
    /// dispatch-policy names.
    ///
    /// # Errors
    ///
    /// Returns [`hyflex_pim::PimError::InvalidConfig`] naming the accepted
    /// policies for an unknown name.
    fn dispatch_or(&self, default: DispatchPolicy) -> hyflex_pim::Result<DispatchPolicy> {
        match &self.dispatch {
            None => Ok(default),
            Some(name) => DispatchPolicy::parse(name).ok_or_else(|| {
                hyflex_pim::PimError::InvalidConfig(format!(
                    "unknown --dispatch {name}; expected one of: round-robin (rr), \
                     jsq (shortest-queue)"
                ))
            }),
        }
    }

    /// Binary-facing variant of `dispatch_or`: prints the error
    /// and exits with status 2 instead of returning it.
    pub fn dispatch_or_exit(&self, default: DispatchPolicy) -> DispatchPolicy {
        or_exit(self.dispatch_or(default))
    }

    /// The `--backend` selection (or `default`), validated against
    /// [`BACKENDS`](hyflex_baselines::BACKENDS). Binaries call this even
    /// when they only support one backend, so an unknown name always fails
    /// with the roster listing instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Returns the unknown-backend error of [`ensure_known`] (which names
    /// the available backends).
    fn backend_or(&self, default: &str) -> hyflex_pim::Result<String> {
        let name = self.backend.as_deref().unwrap_or(default);
        ensure_known(name)?;
        Ok(name.to_string())
    }

    /// Binary-facing variant of `backend_or`: prints the roster listing and
    /// exits with status 2 instead of returning an error.
    pub fn backend_or_exit(&self, default: &str) -> String {
        or_exit(self.backend_or(default))
    }

    /// The backends a comparison figure runs on: `default` without
    /// `--backend`, otherwise the one validated name (see
    /// [`BinArgs::backend_or_exit`]).
    pub fn backends_or_exit(&self, default: &[&str]) -> Vec<String> {
        or_exit(self.backends_or(default))
    }

    /// Testable core of [`BinArgs::backends_or_exit`].
    fn backends_or(&self, default: &[&str]) -> hyflex_pim::Result<Vec<String>> {
        match &self.backend {
            None => Ok(default.iter().map(|n| n.to_string()).collect()),
            Some(name) => ensure_known(name).map(|()| vec![name.clone()]),
        }
    }

    /// For binaries that model only HyFlexPIM (the accuracy/selection
    /// sweeps): validates `--backend` and exits with status 2 — printing
    /// the roster listing for unknown names, or `reason` for a baseline
    /// that has no such model.
    pub fn require_hyflexpim(&self, reason: &str) {
        let name = self.backend_or_exit("hyflexpim");
        if name != "hyflexpim" {
            or_exit::<()>(Err(format!(
                "{reason}; --backend {name} is not applicable \
                 (use fig19_backend_serving for cross-backend comparisons)"
            )));
        }
    }

    /// The binary's seed, unless overridden on the command line.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The `--requests` selection (or `default`). Zero or unparsable
    /// values fall back to the default, as for `--chips`.
    pub fn requests_or(&self, default: usize) -> usize {
        self.requests.filter(|&n| n > 0).unwrap_or(default)
    }

    /// The `--trace` workload loaded from its file, or `default()` when the
    /// flag is absent.
    ///
    /// # Errors
    ///
    /// Propagates [`RequestTrace::from_file`] errors (unreadable path,
    /// malformed workload line) unchanged.
    fn trace_or(
        &self,
        default: impl FnOnce() -> RequestTrace,
    ) -> hyflex_runtime::Result<RequestTrace> {
        match &self.trace {
            None => Ok(default()),
            Some(path) => RequestTrace::from_file(path),
        }
    }

    /// Binary-facing variant of `trace_or`: prints the error and
    /// exits with status 2 instead of returning it.
    pub fn trace_or_exit(&self, default: impl FnOnce() -> RequestTrace) -> RequestTrace {
        or_exit(self.trace_or(default))
    }

    /// The MLC cell mode selected by `--mlc-bits` (default 2-bit).
    pub fn mlc_mode(&self) -> CellMode {
        match self.mlc_bits {
            Some(bits) => CellMode::Mlc { bits },
            None => CellMode::MLC2,
        }
    }

    /// Worker pool sized by `--threads` (default: machine parallelism).
    pub fn pool(&self) -> JobPool {
        match self.threads {
            Some(threads) => JobPool::new(threads),
            None => JobPool::with_default_parallelism(),
        }
    }

    /// Applies the `--out` flag to the shared output sink. Call once at
    /// binary start-up, before the first printed row.
    pub fn init_output(&self) {
        if let Some(path) = &self.out {
            if let Err(e) = output::tee_to_file(path) {
                eprintln!("warning: cannot open --out {}: {e}", path.display());
            }
        }
    }
}

/// Unwraps a flag's validation result, or prints the error and exits with
/// status 2 (the binaries' usage-error code).
fn or_exit<T>(result: Result<T, impl Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<BinArgs, String> {
        BinArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> BinArgs {
        try_parse(args).unwrap()
    }

    #[test]
    fn parses_all_flags_and_rejects_unknown() {
        let args = parse(&[
            "--seed",
            "99",
            "--mlc-bits",
            "3",
            "--out",
            "rows.txt",
            "--threads",
            "4",
        ]);
        assert_eq!(args.seed_or(1), 99);
        assert_eq!(args.mlc_mode(), CellMode::Mlc { bits: 3 });
        assert_eq!(args.out.as_deref(), Some(std::path::Path::new("rows.txt")));
        assert_eq!(args.pool().workers(), 4);
        // An unknown flag is an error that names it and lists every flag.
        let err = try_parse(&["--seed", "99", "--verbose"]).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        for flag in FLAGS {
            assert!(err.contains(flag), "{err} should list {flag}");
        }
    }

    #[test]
    fn defaults_apply_when_flags_are_absent_or_invalid() {
        let args = parse(&[]);
        assert_eq!(args.seed_or(21), 21);
        assert_eq!(args.mlc_mode(), CellMode::MLC2);
        assert!(args.pool().workers() >= 1);
        // Out-of-range MLC level falls back to the default.
        let args = parse(&["--mlc-bits", "9"]);
        assert_eq!(args.mlc_mode(), CellMode::MLC2);
        let args = parse(&["--seed", "not-a-number"]);
        assert_eq!(args.seed_or(5), 5);
    }

    #[test]
    fn serving_flags_parse_and_validate() {
        let args = parse(&["--chips", "4", "--dispatch", "jsq"]);
        assert_eq!(args.chips_or(1), 4);
        assert_eq!(
            args.dispatch_or(DispatchPolicy::RoundRobin).unwrap(),
            DispatchPolicy::JoinShortestQueue
        );
        // Defaults apply when absent; zero chips falls back to the default.
        let args = parse(&["--requests", "50000", "--smoke"]);
        assert_eq!(args.requests_or(1_000_000), 50_000);
        assert!(args.smoke);
        let args = parse(&["--requests", "0"]);
        assert_eq!(args.requests_or(1_000_000), 1_000_000);
        assert!(!args.smoke);
        let args = parse(&["--chips", "0"]);
        assert_eq!(args.chips_or(2), 2);
        assert_eq!(
            args.dispatch_or(DispatchPolicy::JoinShortestQueue).unwrap(),
            DispatchPolicy::JoinShortestQueue
        );
        // Unknown names are errors that list the accepted values.
        let args = parse(&["--dispatch", "random"]);
        let err = args
            .dispatch_or(DispatchPolicy::RoundRobin)
            .unwrap_err()
            .to_string();
        assert!(err.contains("random") && err.contains("jsq"), "{err}");
    }

    #[test]
    fn trace_flag_loads_workload_files() {
        // Absent flag: the default closure supplies the workload.
        let args = parse(&[]);
        let fallback = args
            .trace_or(|| {
                RequestTrace::new(hyflex_runtime::TrafficConfig {
                    num_requests: 11,
                    ..Default::default()
                })
                .unwrap()
            })
            .unwrap();
        assert_eq!(fallback.collect().len(), 11);
        // Present flag: the file wins over the default.
        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-traces");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli_flag.trace");
        std::fs::write(&path, "process = poisson qps=4000\nnum_requests = 7\n").unwrap();
        let args = parse(&["--trace", path.to_str().unwrap()]);
        let loaded = args.trace_or(|| unreachable!("flag present")).unwrap();
        assert_eq!(loaded.collect().len(), 7);
        // Unreadable paths surface the loader's error.
        let args = parse(&["--trace", "/nonexistent/x.trace"]);
        assert!(args.trace_or(|| unreachable!("flag present")).is_err());
    }

    #[test]
    fn backend_flag_resolves_through_the_registry() {
        let args = parse(&["--backend", "sprint"]);
        assert_eq!(args.backend_or("hyflexpim").unwrap(), "sprint");
        // Default applies when the flag is absent.
        let args = parse(&[]);
        assert_eq!(args.backend_or("hyflexpim").unwrap(), "hyflexpim");
        // Unknown names fail with the roster listing.
        let args = parse(&["--backend", "gpu"]);
        let err = args.backend_or("hyflexpim").unwrap_err().to_string();
        assert!(err.contains("gpu") && err.contains("hyflexpim"), "{err}");
    }

    #[test]
    fn backends_flag_narrows_the_default_rows() {
        let default = ["asadi-int8", "sprint"];
        // Absent flag: every default row, in order.
        let args = parse(&[]);
        assert_eq!(args.backends_or(&default).unwrap(), default);
        // A valid name replaces the default with that one row.
        let args = parse(&["--backend", "analog-attention"]);
        assert_eq!(args.backends_or(&default).unwrap(), ["analog-attention"]);
        // "all" is not a backend name.
        let args = parse(&["--backend", "all"]);
        let err = args.backends_or(&default).unwrap_err().to_string();
        assert!(err.contains("'all'") && err.contains("sprint"), "{err}");
    }
}
