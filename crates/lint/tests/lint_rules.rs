// Integration tests panic by design (mirrors hyflex-lint rule E1's
// test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Fixture-based tests for the rule engine, plus the workspace self-check.
//!
//! Every file under `tests/fixtures/` holds exactly one known violation (or
//! one allow-directive scenario). The `fixtures` directory is excluded from
//! workspace scans, so these sources only reach the engine through
//! [`lint_source`] with synthetic workspace-relative paths — which is also
//! what lets one fixture be replayed against several crate tiers. The
//! `surface_*` fixtures are small workspaces: `// @file <path>` lines split
//! them into files for [`lint_sources`].

use std::path::{Path, PathBuf};
use std::process::Command;

use hyflex_lint::rules::{RuleId, Severity};
use hyflex_lint::{lint_source, lint_sources, lint_workspace, Finding};

/// Asserts a fixture produced exactly one finding with the expected
/// rule, severity, and 1-based line.
fn assert_single(findings: &[Finding], rule: RuleId, severity: Severity, line: usize) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one finding, got {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(
        (f.rule, f.severity, f.line),
        (rule, severity, line),
        "unexpected finding coordinates: {f:#?}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn d1_hash_map_fixture() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/d1_hash_map.rs"),
    );
    assert_single(&findings, RuleId::D1, Severity::Deny, 2);
}

#[test]
fn d2_wall_clock_fixture() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/d2_wall_clock.rs"),
    );
    assert_single(&findings, RuleId::D2, Severity::Deny, 3);
}

#[test]
fn d3_thread_spawn_fixture() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/d3_thread_spawn.rs"),
    );
    assert_single(&findings, RuleId::D3, Severity::Deny, 3);
}

#[test]
fn d3_is_exempt_inside_the_parallel_crate() {
    let findings = lint_source(
        "crates/parallel/src/fixture.rs",
        include_str!("fixtures/d3_thread_spawn.rs"),
    );
    assert!(
        findings.is_empty(),
        "hyflex-parallel owns std::thread: {findings:#?}"
    );
}

#[test]
fn d4_unsafe_fixture() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/d4_unsafe.rs"),
    );
    assert_single(&findings, RuleId::D4, Severity::Deny, 3);
}

#[test]
fn d5_missing_forbid_attr_fixture() {
    // D5 only applies to crate roots, so the fixture is replayed as lib.rs.
    let findings = lint_source(
        "crates/runtime/src/lib.rs",
        include_str!("fixtures/d5_missing_forbid.rs"),
    );
    assert_single(&findings, RuleId::D5, Severity::Deny, 1);
}

#[test]
fn e1_unwrap_fixture() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/e1_unwrap.rs"),
    );
    assert_single(&findings, RuleId::E1, Severity::Deny, 3);
}

#[test]
fn e1_severity_follows_the_crate_tier() {
    let src = include_str!("fixtures/e1_unwrap.rs");
    // There is one library tier: library code of every crate is deny…
    for path in ["crates/core/src/fixture.rs", "crates/tensor/src/fixture.rs"] {
        let deny = lint_source(path, src);
        assert_single(&deny, RuleId::E1, Severity::Deny, 3);
    }
    // …and test code is exempt outright.
    let test = lint_source("crates/runtime/tests/fixture.rs", src);
    assert!(test.is_empty(), "tests may panic: {test:#?}");
}

#[test]
fn allow_with_reason_suppresses_the_finding() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/allow_justified.rs"),
    );
    assert!(
        findings.is_empty(),
        "justified allow should suppress D1: {findings:#?}"
    );
}

#[test]
fn allow_without_reason_is_malformed_and_suppresses_nothing() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/allow_missing_reason.rs"),
    );
    assert_eq!(findings.len(), 2, "want A1 + the D1 it failed to suppress");
    assert_eq!(
        (findings[0].rule, findings[0].severity, findings[0].line),
        (RuleId::A1, Severity::Deny, 2),
        "{:#?}",
        findings[0]
    );
    assert_eq!(
        (findings[1].rule, findings[1].severity, findings[1].line),
        (RuleId::D1, Severity::Deny, 3),
        "{:#?}",
        findings[1]
    );
}

#[test]
fn unused_allow_is_flagged() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/allow_unused.rs"),
    );
    assert_single(&findings, RuleId::A2, Severity::Warn, 2);
}

/// U1 needs the workspace view: the fixture's `pub fn api` plus one
/// caller file, and only the fixture's findings.
fn u1_findings(fixture: &str, caller: Option<(&str, &str)>) -> Vec<Finding> {
    const PATH: &str = "crates/core/src/fixture.rs";
    let mut files = vec![(PATH, fixture)];
    files.extend(caller);
    lint_sources(&files)
        .findings
        .into_iter()
        .filter(|f| f.file == PATH)
        .collect()
}

const U1_FIXTURE: &str = include_str!("fixtures/u1_unreferenced.rs");

#[test]
fn u1_flags_a_pub_fn_reached_only_by_its_own_tests() {
    let findings = u1_findings(U1_FIXTURE, None);
    assert_single(&findings, RuleId::U1, Severity::Deny, 2);
    assert!(
        findings[0].message.contains("`pub fn api`"),
        "{findings:#?}"
    );
}

#[test]
fn u1_ignores_mentions_in_another_files_doc_comment() {
    let doc_only = "/// [`api`] is documented here, but never called.\nfn other() {}\n";
    let findings = u1_findings(U1_FIXTURE, Some(("crates/runtime/src/other.rs", doc_only)));
    assert_single(&findings, RuleId::U1, Severity::Deny, 2);
}

#[test]
fn u1_counts_callers_in_other_crates_tests_examples_and_the_benchmark() {
    let call = "fn caller() -> u32 {\n    hyflex_pim::fixture::api()\n}\n";
    for caller in ["crates/runtime/src/user.rs", "e2ebench/src/main.rs"] {
        let findings = u1_findings(U1_FIXTURE, Some((caller, call)));
        assert!(findings.is_empty(), "{caller}: {findings:#?}");
    }
    // A test or an example reaches the fn, so U1 holds, but U2 sees that
    // nothing else does.
    for caller in ["tests/user.rs", "examples/user.rs"] {
        let findings = u1_findings(U1_FIXTURE, Some((caller, call)));
        assert_single(&findings, RuleId::U2, Severity::Deny, 2);
    }
}

#[test]
fn u1_skips_test_pub_fns_restricted_visibility_and_bins() {
    let src = include_str!("fixtures/u1_not_surface.rs");
    let findings = u1_findings(src, None);
    assert!(findings.is_empty(), "{findings:#?}");
    let bin = lint_sources(&[("crates/bench/src/bin/fixture.rs", U1_FIXTURE)]);
    assert!(bin.findings.is_empty(), "{:#?}", bin.findings);
}

#[test]
fn u1_allow_with_reason_suppresses_the_finding() {
    let src = include_str!("fixtures/u1_allow_justified.rs");
    let findings = u1_findings(src, None);
    assert!(
        findings.is_empty(),
        "justified allow should suppress U1: {findings:#?}"
    );
}

/// Splits a `surface_*` fixture at its `// @file <path>` lines into
/// workspace-relative `(path, source)` files.
fn fixture_files(text: &str) -> Vec<(&str, String)> {
    let mut files: Vec<(&str, String)> = Vec::new();
    for line in text.lines() {
        if let Some(path) = line.strip_prefix("// @file ") {
            files.push((path, String::new()));
        } else if let Some((_, source)) = files.last_mut() {
            source.push_str(line);
            source.push('\n');
        }
    }
    files
}

/// Every finding of a `surface_*` fixture as `(rule, severity, file, line)`.
fn surface_findings(fixture: &str) -> Vec<(RuleId, Severity, String, usize)> {
    let files = fixture_files(fixture);
    let borrowed: Vec<(&str, &str)> = files.iter().map(|(p, s)| (*p, s.as_str())).collect();
    lint_sources(&borrowed)
        .findings
        .into_iter()
        .map(|f| (f.rule, f.severity, f.file, f.line))
        .collect()
}

fn at(
    rule: RuleId,
    severity: Severity,
    file: &str,
    line: usize,
) -> (RuleId, Severity, String, usize) {
    (rule, severity, file.to_string(), line)
}

#[test]
fn u1_is_not_fooled_by_a_local_of_the_same_name() {
    // `SystemBuilder::backend_name` once hid behind fig22's `let backend_name`.
    let findings = surface_findings(include_str!("fixtures/surface_local_hides_method.rs"));
    let want = at(
        RuleId::U1,
        Severity::Deny,
        "crates/baselines/src/system.rs",
        13,
    );
    assert_eq!(findings, [want]);
}

#[test]
fn u1_sees_the_live_service_ns_shape() {
    // e2ebench's `let service_ns = …` hid `LatencyBreakdown::service_ns`.
    let findings = surface_findings(include_str!("fixtures/surface_live_service_ns.rs"));
    assert_eq!(
        findings,
        [at(
            RuleId::U1,
            Severity::Deny,
            "crates/core/src/perf.rs",
            12
        )]
    );
}

#[test]
fn u1_resolves_type_paths_to_their_impl() {
    // `DecodeSim::capacity_cells` shared its name with a live method of
    // `BatchScheduler`, a field and a local.
    let findings = surface_findings(include_str!("fixtures/surface_shared_method_name.rs"));
    assert_eq!(
        findings,
        [at(
            RuleId::U1,
            Severity::Deny,
            "crates/runtime/src/decode.rs",
            16
        )]
    );
}

#[test]
fn u1_does_not_count_a_foreign_types_constructor() {
    let lib =
        "pub struct Pool;\n\nimpl Pool {\n    pub fn new() -> Self {\n        Pool\n    }\n}\n";
    let bin = "fn main() {\n    let v: Vec<u8> = Vec::new();\n    println!(\"{v:?}\");\n}\n";
    let findings = lint_sources(&[
        ("crates/parallel/src/pool.rs", lib),
        ("crates/bench/src/bin/fig02.rs", bin),
    ])
    .findings;
    assert_single(&findings, RuleId::U1, Severity::Deny, 4);
}

#[test]
fn u3_flags_a_pub_field_read_nowhere() {
    // `BackendSpec::summary` was set in the backend table and never read.
    let findings = surface_findings(include_str!("fixtures/surface_unread_field.rs"));
    assert_eq!(
        findings,
        [at(
            RuleId::U3,
            Severity::Warn,
            "crates/baselines/src/spec.rs",
            4
        )]
    );
}

#[test]
fn a_method_named_in_a_macro_argument_is_reached() {
    let findings = surface_findings(include_str!("fixtures/surface_macro_argument.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn a_fn_passed_as_a_value_is_reached() {
    let findings = surface_findings(include_str!("fixtures/surface_fn_value.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

/// The self-check: the lint must pass on the workspace that ships it.
#[test]
fn workspace_self_check_has_no_deny_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let denies: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .collect();
    assert!(
        denies.is_empty(),
        "deny findings on the actual workspace: {denies:#?}"
    );
}

/// Same self-check through the CLI: `hyflex-lint --check` exits 0.
#[test]
fn cli_check_passes_on_the_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_hyflex-lint"))
        .args(["--check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run hyflex-lint");
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A violation makes the CLI exit non-zero and report the rule id and line.
#[test]
fn cli_fails_on_a_violation_with_rule_id_and_line() {
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-cli-fixture");
    let src_dir = ws.join("crates/runtime/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir mini workspace");
    std::fs::write(ws.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("fixtures/d1_hash_map.rs"),
    )
    .expect("write fixture");
    // A bin caller keeps the fixture's `pub fn` clear of U1 and U2, so D1
    // stays the only finding.
    std::fs::create_dir_all(src_dir.join("bin")).expect("mkdir bin");
    std::fs::write(
        src_dir.join("bin/caller.rs"),
        "fn caller() {\n    let _ = runtime::entry_count;\n}\n",
    )
    .expect("write caller");

    let out = Command::new(env!("CARGO_BIN_EXE_hyflex-lint"))
        .args(["--check", "--root"])
        .arg(&ws)
        .output()
        .expect("run hyflex-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("crates/runtime/src/lib.rs:2:"), "{text}");
    assert!(text.contains("D1"), "{text}");

    let json = Command::new(env!("CARGO_BIN_EXE_hyflex-lint"))
        .args(["--json", "--root"])
        .arg(&ws)
        .output()
        .expect("run hyflex-lint --json");
    assert_eq!(json.status.code(), Some(1));
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.contains("\"rule\": \"D1\""), "{body}");
    assert!(body.contains("\"line\": 2"), "{body}");
    assert!(body.contains("\"deny\": 1"), "{body}");
}
