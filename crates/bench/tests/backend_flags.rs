//! `--backend` through every comparison binary: each roster name runs to
//! completion and shows up in the output, and the rejected names exit with
//! status 2 and say why. fig22, the one binary that reads `--trace`, replays
//! a trace file and turns a malformed one away the same way, and a flag no
//! binary knows is turned away before anything runs.

use hyflex_baselines::{SystemBuilder, BACKENDS};
use std::process::{Command, Output};

/// Every comparison binary that takes `--backend`, with the arguments that
/// keep it at CI scale.
const COMPARISON_BINARIES: [(&str, &str, &[&str]); 8] = [
    ("fig14", env!("CARGO_BIN_EXE_fig14_linear_energy"), &[]),
    ("fig15", env!("CARGO_BIN_EXE_fig15_end_to_end_energy"), &[]),
    ("fig16", env!("CARGO_BIN_EXE_fig16_throughput_speedup"), &[]),
    ("fig18", env!("CARGO_BIN_EXE_fig18_batch_throughput"), &[]),
    ("fig19", env!("CARGO_BIN_EXE_fig19_backend_serving"), &[]),
    ("fig20", env!("CARGO_BIN_EXE_fig20_serving_policies"), &[]),
    (
        "fig21",
        env!("CARGO_BIN_EXE_fig21_overload_survival"),
        &["--smoke"],
    ),
    (
        "fig22",
        env!("CARGO_BIN_EXE_fig22_decode_serving"),
        &["--smoke"],
    ),
];

fn run(exe: &str, args: &[&str], backend: &str) -> Output {
    Command::new(exe)
        .args(args)
        .args(["--backend", backend])
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

#[test]
fn every_backend_runs_through_every_comparison_binary() {
    for name in BACKENDS {
        let display = SystemBuilder::paper()
            .backend(name)
            .build()
            .unwrap()
            .name()
            .to_string();
        for (figure, exe, args) in COMPARISON_BINARIES {
            let output = run(exe, args, name);
            assert!(
                output.status.success(),
                "{figure} --backend {name} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                stdout.contains(&display) || stdout.contains(name),
                "{figure} --backend {name} never names {display:?} or {name:?}"
            );
        }
    }
}

#[test]
fn rejected_backend_names_exit_with_status_two() {
    let rejected = |exe: &str, backend: &str| -> String {
        let output = run(exe, &[], backend);
        assert_eq!(output.status.code(), Some(2), "--backend {backend}");
        assert!(output.stdout.is_empty(), "--backend {backend}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    // An unknown name gets the roster listing.
    let stderr = rejected(env!("CARGO_BIN_EXE_fig14_linear_energy"), "tpu");
    assert!(stderr.contains("'tpu'"), "{stderr}");
    for name in BACKENDS {
        assert!(stderr.contains(name), "{stderr} should list {name}");
    }
    // A HyFlexPIM-only binary turns a real baseline away with its reason.
    let stderr = rejected(env!("CARGO_BIN_EXE_fig02_ops_per_stage"), "sprint");
    assert!(stderr.contains("not applicable"), "{stderr}");
    // "all" is not a backend: omitting the flag already runs every design.
    let stderr = rejected(env!("CARGO_BIN_EXE_fig20_serving_policies"), "all");
    assert!(stderr.contains("'all'"), "{stderr}");
}

#[test]
fn fig22_replays_a_trace_file_and_rejects_a_malformed_one() {
    let fig22 = env!("CARGO_BIN_EXE_fig22_decode_serving");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("fig22_mmpp.trace");
    std::fs::write(
        &trace,
        "# two-state MMPP burst\n\
         process = mmpp\n\
         state = burst qps=20000 dwell_s=0.02\n\
         state = lull qps=4000 dwell_s=0.03\n\
         num_requests = 120\n\
         seq_len = 128\n\
         seed = 7\n",
    )
    .unwrap();
    let output = Command::new(fig22)
        .args(["--smoke", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "fig22 --trace exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("(120 requests)"), "{stdout}");

    let malformed = dir.join("fig22_malformed.trace");
    std::fs::write(
        &malformed,
        "process = poisson qps=3000\nnum_requests = 50\nbogus = 1\n",
    )
    .unwrap();
    let output = Command::new(fig22)
        .args(["--smoke", "--trace"])
        .arg(&malformed)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn an_unknown_flag_exits_with_status_two_and_lists_the_flags() {
    // `--svd-algo` was retired with the randomized SVD: it must fail, not
    // quietly print the default figure.
    let output = Command::new(env!("CARGO_BIN_EXE_fig11_gradient_redistribution"))
        .args(["--svd-algo", "randomized"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--svd-algo") && stderr.contains("--threads"),
        "{stderr}"
    );
}
