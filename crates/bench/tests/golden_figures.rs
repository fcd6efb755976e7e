//! Golden-output test of the serving figures: runs each figure binary and
//! compares its stdout byte for byte with the fixture committed under
//! `tests/fixtures/figs/`. Every simulator is seeded, so any difference is a
//! behaviour change. Re-record a fixture only together with an explanation
//! of why its cells moved (for example in EXPERIMENTS.md):
//!
//! ```sh
//! cargo run --release --bin fig21_overload_survival -- --smoke \
//!     > tests/fixtures/figs/fig21_overload_survival.txt
//! ```

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
