//! Golden-output test of every figure and table binary: runs each one and
//! compares its stdout byte for byte with the fixture committed under
//! `tests/fixtures/figs/`. Every experiment is seeded, so any difference is
//! a behaviour change. Re-record a fixture only together with an
//! explanation of why its cells moved (for example in EXPERIMENTS.md),
//! passing the same arguments as the test below:
//!
//! ```sh
//! cargo run --release --bin fig21_overload_survival -- --smoke \
//!     > tests/fixtures/figs/fig21_overload_survival.txt
//! ```
//!
//! fig12 and fig13 run with `--threads 2` because their header prints the
//! worker count; every other cell is independent of the pool width.

use std::path::PathBuf;
use std::process::Command;

/// Runs `exe` with `args` and diffs its stdout against `<name>.txt`.
fn check(name: &str, exe: &str, args: &[&str]) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/figs")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&fixture)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", fixture.display()));
    let actual = String::from_utf8_lossy(&output.stdout);
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(actual.lines().chain(std::iter::repeat("<end of output>")))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .unwrap_or((0, ("", "")));
    panic!(
        "{name} output differs from {} at line {}:\n  expected: {want}\n  actual:   {got}",
        fixture.display(),
        line + 1
    );
}

#[test]
fn fig02_ops_per_stage_matches_its_fixture() {
    check(
        "fig02_ops_per_stage",
        env!("CARGO_BIN_EXE_fig02_ops_per_stage"),
        &[],
    );
}

#[test]
fn fig11_gradient_redistribution_matches_its_fixture() {
    check(
        "fig11_gradient_redistribution",
        env!("CARGO_BIN_EXE_fig11_gradient_redistribution"),
        &[],
    );
}

/// Training runs on the `--threads` pool, and every width must print the
/// same bytes: the serial loop (1) and the data-parallel trainer (2).
#[test]
fn fig11_gradient_redistribution_is_independent_of_threads() {
    for threads in ["1", "2"] {
        check(
            "fig11_gradient_redistribution",
            env!("CARGO_BIN_EXE_fig11_gradient_redistribution"),
            &["--threads", threads],
        );
    }
}

#[test]
fn fig12_accuracy_vs_slc_rate_matches_its_fixture() {
    check(
        "fig12_accuracy_vs_slc_rate",
        env!("CARGO_BIN_EXE_fig12_accuracy_vs_slc_rate"),
        &["--threads", "2"],
    );
}

#[test]
fn fig13_selection_strategies_matches_its_fixture() {
    check(
        "fig13_selection_strategies",
        env!("CARGO_BIN_EXE_fig13_selection_strategies"),
        &["--threads", "2"],
    );
}

#[test]
fn fig14_linear_energy_matches_its_fixture() {
    check(
        "fig14_linear_energy",
        env!("CARGO_BIN_EXE_fig14_linear_energy"),
        &[],
    );
}

#[test]
fn fig15_end_to_end_energy_matches_its_fixture() {
    check(
        "fig15_end_to_end_energy",
        env!("CARGO_BIN_EXE_fig15_end_to_end_energy"),
        &[],
    );
}

#[test]
fn fig16_throughput_speedup_matches_its_fixture() {
    check(
        "fig16_throughput_speedup",
        env!("CARGO_BIN_EXE_fig16_throughput_speedup"),
        &[],
    );
}

#[test]
fn fig17_scalability_matches_its_fixture() {
    check(
        "fig17_scalability",
        env!("CARGO_BIN_EXE_fig17_scalability"),
        &[],
    );
}

#[test]
fn fig18_batch_throughput_matches_its_fixture() {
    check(
        "fig18_batch_throughput",
        env!("CARGO_BIN_EXE_fig18_batch_throughput"),
        &[],
    );
}

#[test]
fn fig19_backend_serving_matches_its_fixture() {
    check(
        "fig19_backend_serving",
        env!("CARGO_BIN_EXE_fig19_backend_serving"),
        &[],
    );
}

#[test]
fn fig20_serving_policies_matches_its_fixture() {
    check(
        "fig20_serving_policies",
        env!("CARGO_BIN_EXE_fig20_serving_policies"),
        &[],
    );
}

#[test]
fn fig21_overload_survival_smoke_matches_its_fixture() {
    check(
        "fig21_overload_survival",
        env!("CARGO_BIN_EXE_fig21_overload_survival"),
        &["--smoke"],
    );
}

#[test]
fn fig22_decode_serving_smoke_matches_its_fixture() {
    check(
        "fig22_decode_serving",
        env!("CARGO_BIN_EXE_fig22_decode_serving"),
        &["--smoke"],
    );
}

#[test]
fn table1_hyperparams_matches_its_fixture() {
    check(
        "table1_hyperparams",
        env!("CARGO_BIN_EXE_table1_hyperparams"),
        &[],
    );
}

#[test]
fn table2_hw_config_matches_its_fixture() {
    check(
        "table2_hw_config",
        env!("CARGO_BIN_EXE_table2_hw_config"),
        &[],
    );
}

// `--backend` narrows a comparison figure to one registered design. These
// fixtures pin the single-backend path: a figure-roster baseline (fig14), a
// backend outside the figure roster (fig15), and HyFlexPIM as its own
// denominator at the 5 % point (fig16).

#[test]
fn fig14_linear_energy_backend_sprint_matches_its_fixture() {
    check(
        "fig14_linear_energy_backend_sprint",
        env!("CARGO_BIN_EXE_fig14_linear_energy"),
        &["--backend", "sprint"],
    );
}

#[test]
fn fig15_end_to_end_energy_backend_analog_attention_matches_its_fixture() {
    check(
        "fig15_end_to_end_energy_backend_analog_attention",
        env!("CARGO_BIN_EXE_fig15_end_to_end_energy"),
        &["--backend", "analog-attention"],
    );
}

#[test]
fn fig16_throughput_speedup_backend_hyflexpim_matches_its_fixture() {
    check(
        "fig16_throughput_speedup_backend_hyflexpim",
        env!("CARGO_BIN_EXE_fig16_throughput_speedup"),
        &["--backend", "hyflexpim"],
    );
}

// fig20 on a two-replica fleet behind join-shortest-queue: the only figure
// path through multi-replica dispatch.

#[test]
fn fig20_serving_policies_chips_2_dispatch_jsq_matches_its_fixture() {
    check(
        "fig20_serving_policies_chips_2_dispatch_jsq",
        env!("CARGO_BIN_EXE_fig20_serving_policies"),
        &["--chips", "2", "--dispatch", "jsq"],
    );
}
