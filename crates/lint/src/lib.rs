#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! # hyflex-lint
//!
//! A dependency-free, token-level static-analysis pass over the workspace
//! that enforces the invariants every recorded number rests on: **same
//! seed, same bytes, under any thread count** — plus the safety policy
//! (no `unsafe`, no panic paths in library code) and the surface checks:
//! no library `pub fn` that no other file calls (U1) or that only tests
//! call (U2), and no library `pub` field that no other file reads (U3).
//! The surface rules tell a call apart from a same-named binding by the
//! shape of each mention, with no parser (see the `surface` module).
//!
//! The dynamic determinism suite (CI's multi-thread-count jobs, the golden
//! fixtures) proves these invariants hold *today*; this pass rejects the
//! violation at review time, before it can turn into a flaky CI diff. See
//! [`rules::RuleId`] for the rule set and the README's "Static analysis &
//! invariants" section for the rationale per rule.
//!
//! ## Allow directives
//!
//! A finding can be suppressed with a justified comment:
//!
//! ```text
//! // hyflex-lint: allow(D1) — iteration order never escapes: values are summed
//! let cache: HashMap<Key, f64> = HashMap::new();
//! ```
//!
//! The directive applies to its own line, or — when it stands on a
//! comment-only line — to the next line of code. `allow-file(RULE) —
//! reason` suppresses a rule for the whole file. A directive without a
//! reason is itself a deny-level finding ([`rules::RuleId::A1`]), and one
//! that suppresses nothing is flagged as unused ([`rules::RuleId::A2`]).

pub mod lexer;
pub mod rules;
mod surface;

use lexer::{doc_test_lines, find_word, lex, SourceLine};
use rules::{severity_for, FileKind, RuleId, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation (or directive-hygiene problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

/// The outcome of a workspace (or single-file) scan.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of deny-severity findings (the gate for `--check`).
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }
}

/// Which crate and target kind a file belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileCtx {
    /// Directory name under `crates/` (`runtime`, `core`, …) or `hyflex`
    /// for the workspace-root facade crate.
    crate_name: String,
    kind: FileKind,
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`)
    /// and must carry `#![forbid(unsafe_code)]` (rule D5).
    is_crate_root: bool,
}

/// Classifies a workspace-relative `/`-separated path. Returns `None` for
/// files outside the lint's scope (vendored code, non-Rust files).
fn classify(rel_path: &str) -> Option<FileCtx> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let (crate_name, rest) = match rel_path.strip_prefix("crates/") {
        Some(tail) => {
            let (name, rest) = tail.split_once('/')?;
            (name.to_string(), rest)
        }
        None => ("hyflex".to_string(), rel_path),
    };
    let kind = if rest.starts_with("tests/")
        || rest.starts_with("benches/")
        || rest.starts_with("examples/")
    {
        FileKind::Test
    } else if rest.starts_with("src/bin/") || rest == "src/main.rs" || rest == "build.rs" {
        FileKind::Bin
    } else if rest.starts_with("src/") {
        FileKind::Lib
    } else {
        return None;
    };
    let is_crate_root = rest == "src/lib.rs" || rest == "src/main.rs";
    Some(FileCtx {
        crate_name,
        kind,
        is_crate_root,
    })
}

/// A parsed `hyflex-lint:` comment directive.
#[derive(Debug, Clone)]
struct AllowDirective {
    rules: Vec<RuleId>,
    /// 0-based line the directive sits on.
    at: usize,
    /// Whole-file scope (`allow-file`) vs line scope (`allow`).
    whole_file: bool,
    used: bool,
}

/// Whether U1–U3 read `rel_path` for references. Every linted file counts,
/// and so does the end-to-end benchmark, whose calls into the crates are
/// API use even though its code sits outside the per-file rules.
fn is_indexed(rel_path: &str) -> bool {
    classify(rel_path).is_some()
        || (rel_path.starts_with("e2ebench/src/") && rel_path.ends_with(".rs"))
}

/// Scans in-memory `(workspace-relative path, source)` files as one
/// workspace: the per-file rules on every classified file, plus the surface
/// rules U1–U3, which look each library `pub fn` and `pub` field up in the
/// call-, path- and field-shaped mentions of every indexed file.
/// [`lint_workspace`] is this function over the files on disk.
pub fn lint_sources(files: &[(&str, &str)]) -> Report {
    let lexed: Vec<(&str, Option<FileCtx>, Vec<SourceLine>)> = files
        .iter()
        .filter(|(path, _)| is_indexed(path))
        .map(|&(path, source)| (path, classify(path), lex(source)))
        .collect();
    let test_lines: Vec<BTreeSet<usize>> = lexed
        .iter()
        .map(|(_, _, lines)| test_region_lines(lines))
        .collect();
    // A library file's doc examples compile as a crate of their own: one
    // more indexed file, of test tier, after the real ones.
    let doc_tests: Vec<Vec<SourceLine>> = lexed
        .iter()
        .filter(|(_, ctx, _)| ctx.as_ref().is_some_and(|c| c.kind == FileKind::Lib))
        .map(|(_, _, lines)| doc_test_lines(lines))
        .collect();
    let no_test_lines = BTreeSet::new();
    let indexed: Vec<surface::IndexedFile<'_>> = lexed
        .iter()
        .zip(&test_lines)
        .map(|((_, ctx, lines), test_lines)| surface::IndexedFile {
            lines,
            kind: ctx.as_ref().map(|c| c.kind),
            test_lines,
        })
        .chain(doc_tests.iter().map(|lines| surface::IndexedFile {
            lines,
            kind: Some(FileKind::Test),
            test_lines: &no_test_lines,
        }))
        .collect();
    let surface_hits = surface::surface_hits(&indexed);
    let mut report = Report::default();
    for (((path, ctx, lines), test_lines), hits) in lexed.iter().zip(&test_lines).zip(surface_hits)
    {
        let Some(ctx) = ctx else {
            continue;
        };
        report
            .findings
            .extend(lint_lines(path, ctx, lines, test_lines, hits));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Scans one file's source text on its own. `rel_path` decides crate and
/// kind; fixture tests call this directly with synthetic paths. U1–U3 need
/// the other files, so they run only through [`lint_sources`].
// hyflex-lint: allow(U2) — the single-file entry the rule fixtures in tests/lint_rules.rs replay under synthetic paths
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let Some(ctx) = classify(rel_path) else {
        return Vec::new();
    };
    let lines = lex(source);
    lint_lines(
        rel_path,
        &ctx,
        &lines,
        &test_region_lines(&lines),
        Vec::new(),
    )
}

/// The per-file rule pass. `surface_hits` are this file's U1–U3 candidates
/// from the workspace view; they get their severity and allow directives
/// here like every other rule's.
fn lint_lines(
    rel_path: &str,
    ctx: &FileCtx,
    lines: &[SourceLine],
    test_lines: &BTreeSet<usize>,
    surface_hits: Vec<surface::SurfaceHit>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut directives = parse_directives(rel_path, lines, &mut findings);

    // Map each line-scoped directive to the lines it covers: its own line
    // if that line has code (a trailing comment), else the statement that
    // starts at the next code line — rustfmt wraps long statements, so the
    // scope runs until a line ends in `;`, `{`, or `}`.
    let mut line_allows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, d) in directives.iter().enumerate() {
        if d.whole_file {
            continue;
        }
        if line_has_code(&lines[d.at]) {
            line_allows.entry(d.at).or_default().push(idx);
            continue;
        }
        let Some(start) = (d.at + 1..lines.len()).find(|&k| line_has_code(&lines[k])) else {
            continue;
        };
        for (k, line) in lines.iter().enumerate().skip(start) {
            line_allows.entry(k).or_default().push(idx);
            let code = line.code.trim_end();
            if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
                break;
            }
        }
    }

    for (i, line) in lines.iter().enumerate() {
        let kind = if test_lines.contains(&i) {
            FileKind::Test
        } else {
            ctx.kind
        };
        for rule in [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::D4, RuleId::E1] {
            let Some(severity) = severity_for(rule, &ctx.crate_name, kind) else {
                continue;
            };
            let Some(message) = detect(rule, &line.code) else {
                continue;
            };
            if suppressed(rule, i, &line_allows, &mut directives) {
                continue;
            }
            findings.push(Finding {
                rule,
                severity,
                file: rel_path.to_string(),
                line: i + 1,
                message,
            });
        }
    }

    // D5: crate roots must forbid unsafe code at the attribute level too,
    // so even code the token scan cannot see (macro expansions) is covered
    // by rustc itself.
    if ctx.is_crate_root
        && !lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"))
        && !suppressed(RuleId::D5, 0, &line_allows, &mut directives)
    {
        findings.push(Finding {
            rule: RuleId::D5,
            severity: Severity::Deny,
            file: rel_path.to_string(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    // U1–U3: library surface the rest of the workspace does not reach.
    for hit in surface_hits {
        let Some(severity) = severity_for(hit.rule, &ctx.crate_name, ctx.kind) else {
            continue;
        };
        if suppressed(hit.rule, hit.line, &line_allows, &mut directives) {
            continue;
        }
        findings.push(Finding {
            rule: hit.rule,
            severity,
            file: rel_path.to_string(),
            line: hit.line + 1,
            message: hit.message,
        });
    }

    // A2: a directive that suppressed nothing is stale and should go.
    for d in &directives {
        if !d.used {
            if let Some(severity) = severity_for(RuleId::A2, &ctx.crate_name, ctx.kind) {
                let listed = d
                    .rules
                    .iter()
                    .map(|r| r.id())
                    .collect::<Vec<_>>()
                    .join(", ");
                findings.push(Finding {
                    rule: RuleId::A2,
                    severity,
                    file: rel_path.to_string(),
                    line: d.at + 1,
                    message: format!("allow({listed}) suppressed no finding; remove it"),
                });
            }
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

fn line_has_code(line: &SourceLine) -> bool {
    !line.code.trim().is_empty()
}

/// Checks the line-scoped and file-scoped allows for `rule` at `line`,
/// marking the matching directive used.
fn suppressed(
    rule: RuleId,
    line: usize,
    line_allows: &BTreeMap<usize, Vec<usize>>,
    directives: &mut [AllowDirective],
) -> bool {
    if let Some(indices) = line_allows.get(&line) {
        for &idx in indices {
            if directives[idx].rules.contains(&rule) {
                directives[idx].used = true;
                return true;
            }
        }
    }
    for d in directives.iter_mut() {
        if d.whole_file && d.rules.contains(&rule) {
            d.used = true;
            return true;
        }
    }
    false
}

/// Extracts every `hyflex-lint:` directive from the comment channel,
/// reporting malformed ones (A1) into `findings`.
fn parse_directives(
    rel_path: &str,
    lines: &[SourceLine],
    findings: &mut Vec<Finding>,
) -> Vec<AllowDirective> {
    let mut directives = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // A directive must be the whole comment: `// hyflex-lint: …`. Doc
        // comments (`///`, `//!` — their text starts with `/` or `!`) and
        // prose that merely mentions the syntax never parse as directives.
        let trimmed = line.comment.trim_start();
        let Some(text) = trimmed.strip_prefix("hyflex-lint:") else {
            continue;
        };
        let text = text.trim_start();
        match parse_one_directive(text, i) {
            Ok(directive) => directives.push(directive),
            Err(why) => findings.push(Finding {
                rule: RuleId::A1,
                severity: Severity::Deny,
                file: rel_path.to_string(),
                line: i + 1,
                message: why,
            }),
        }
    }
    directives
}

/// Parses `allow(RULE[, RULE…]) — reason` / `allow-file(…) — reason`.
fn parse_one_directive(text: &str, at: usize) -> Result<AllowDirective, String> {
    let (whole_file, rest) = if let Some(rest) = text.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = text.strip_prefix("allow") {
        (false, rest)
    } else {
        return Err(format!(
            "unknown directive `hyflex-lint: {}`; expected `allow(…)` or `allow-file(…)`",
            text.split_whitespace().next().unwrap_or("")
        ));
    };
    let rest = rest.trim_start();
    let Some(inner_and_tail) = rest.strip_prefix('(') else {
        return Err("allow directive is missing its `(RULE)` list".to_string());
    };
    let Some(close) = inner_and_tail.find(')') else {
        return Err("allow directive is missing the closing `)`".to_string());
    };
    let mut rule_ids = Vec::new();
    for token in inner_and_tail[..close].split(',') {
        let token = token.trim();
        match RuleId::parse(token) {
            Some(rule) => rule_ids.push(rule),
            None => {
                let known = RuleId::ALL.map(RuleId::id).join(", ");
                return Err(format!(
                    "unknown rule id `{token}` in allow directive (known: {known})"
                ));
            }
        }
    }
    if rule_ids.is_empty() {
        return Err("allow directive names no rules".to_string());
    }
    // The justification is whatever follows the rule list, minus separator
    // punctuation. An allow without a *why* is unreviewable.
    let reason = inner_and_tail[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
        .trim();
    if reason.is_empty() {
        return Err(
            "allow directive has no justification; write `allow(RULE) — reason`".to_string(),
        );
    }
    Ok(AllowDirective {
        rules: rule_ids,
        at,
        whole_file,
        used: false,
    })
}

/// Returns the 0-based line numbers that sit inside a `#[cfg(test)]` (or
/// `#[test]`) item's block. Tracked by brace depth on the code channel: the
/// attribute arms the tracker, the next `{` opens the region, and the
/// matching `}` closes it.
fn test_region_lines(lines: &[SourceLine]) -> BTreeSet<usize> {
    let mut in_test = BTreeSet::new();
    let mut depth = 0i64;
    let mut region_close_depth: Option<i64> = None;
    let mut armed = false;
    for (i, line) in lines.iter().enumerate() {
        let mut line_touches_region = region_close_depth.is_some();
        let attr_pos = ["#[cfg(test)", "#[cfg(all(test", "#[test]"]
            .iter()
            .filter_map(|a| line.code.find(a))
            .min();
        for (k, c) in line.code.char_indices() {
            if armed || attr_pos.is_some_and(|p| k > p) {
                armed = true;
            }
            match c {
                '{' => {
                    if armed {
                        // The armed attribute's item starts here. If a test
                        // region is already open this item is inside it, so
                        // only the outermost attribute opens a region.
                        if region_close_depth.is_none() {
                            region_close_depth = Some(depth);
                            line_touches_region = true;
                        }
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_close_depth == Some(depth) {
                        region_close_depth = None;
                    }
                }
                _ => {}
            }
        }
        if line_touches_region || region_close_depth.is_some() {
            in_test.insert(i);
        }
    }
    in_test
}

/// Runs `rule`'s token check against one code line; returns the finding
/// message on a hit.
fn detect(rule: RuleId, code: &str) -> Option<String> {
    match rule {
        RuleId::D1 => ["HashMap", "HashSet", "hash_map", "hash_set", "RandomState"]
            .into_iter()
            .find(|w| find_word(code, w).is_some())
            .map(|w| {
                format!(
                    "`{w}` is iteration-order nondeterministic; use BTreeMap/BTreeSet \
                     (or justify with `hyflex-lint: allow(D1)`)"
                )
            }),
        RuleId::D2 => [
            "Instant",
            "SystemTime",
            "thread_rng",
            "from_entropy",
            "getrandom",
        ]
        .into_iter()
        .find(|w| find_word(code, w).is_some())
        .map(|w| {
            format!(
                "`{w}` reads the host clock or OS entropy; library code runs on \
                     simulated time and seeded RNGs only"
            )
        }),
        RuleId::D3 => (code.contains("std::thread") || code.contains("thread::spawn")).then(|| {
            "raw `std::thread` use outside hyflex-parallel; route parallelism through \
             `JobPool` so the determinism proofs cover it"
                .to_string()
        }),
        RuleId::D4 => find_word(code, "unsafe").map(|_| {
            "`unsafe` is banned workspace-wide (crate roots carry \
             `#![forbid(unsafe_code)]`)"
                .to_string()
        }),
        RuleId::D5 => None, // whole-file check, handled in lint_source
        RuleId::E1 => {
            let hit = if code.contains(".unwrap()") {
                Some(".unwrap()")
            } else if code.contains(".expect(") {
                Some(".expect(…)")
            } else {
                ["panic", "unreachable", "todo", "unimplemented"]
                    .into_iter()
                    .find(|w| {
                        find_word(code, w).is_some_and(|at| code[at + w.len()..].starts_with('!'))
                    })
                    .map(|w| match w {
                        "panic" => "panic!",
                        "unreachable" => "unreachable!",
                        "todo" => "todo!",
                        _ => "unimplemented!",
                    })
            };
            hit.map(|h| {
                format!(
                    "`{h}` in library code aborts the process; return a typed error \
                     (PimError/RuntimeError/…) or justify with `hyflex-lint: allow(E1)`"
                )
            })
        }
        RuleId::U1 | RuleId::U2 | RuleId::U3 => None, // cross-file, see `surface`
        RuleId::A1 | RuleId::A2 => None,              // directive hygiene, handled elsewhere
    }
}

/// Recursively collects workspace `.rs` files, sorted for deterministic
/// reports. Skips build output, vendored stand-ins, VCS metadata, and
/// fixture data directories (the lint's own fixtures contain deliberate
/// violations).
fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans the whole workspace under `root` (see [`lint_sources`]).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for (rel, abs) in collect_files(root)? {
        if is_indexed(&rel) {
            let source = std::fs::read_to_string(&abs)?;
            files.push((rel, source));
        }
    }
    let borrowed: Vec<(&str, &str)> = files
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    Ok(lint_sources(&borrowed))
}

/// Renders the human-readable report. Deny findings are always listed;
/// warn findings are listed when `show_warns` and summarized per rule
/// otherwise.
pub fn render_text(report: &Report, show_warns: bool) -> String {
    let mut out = String::new();
    let mut warn_tally: BTreeMap<RuleId, usize> = BTreeMap::new();
    for f in &report.findings {
        if f.severity == Severity::Deny || show_warns {
            let _ = writeln!(
                out,
                "{}:{}: [{} {}/{}] {}",
                f.file,
                f.line,
                f.severity,
                f.rule,
                f.rule.name(),
                f.message
            );
        }
        if f.severity == Severity::Warn {
            *warn_tally.entry(f.rule).or_default() += 1;
        }
    }
    if !show_warns {
        for (rule, count) in &warn_tally {
            let _ = writeln!(
                out,
                "warn: [{} {}] {} finding(s) (re-run with --warnings for details)",
                rule,
                rule.name(),
                count
            );
        }
    }
    let _ = writeln!(
        out,
        "hyflex-lint: {} deny, {} warn across {} files",
        report.deny_count(),
        report.warn_count(),
        report.files_scanned
    );
    out
}

/// Renders the report as a machine-readable JSON document.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", \
             \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule,
            f.rule.name(),
            f.severity,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"deny\": {},\n  \"warn\": {},\n  \"files_scanned\": {}\n}}\n",
        report.deny_count(),
        report.warn_count(),
        report.files_scanned
    );
    out
}

fn json_escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\t' => escaped.push_str("\\t"),
            '\r' => escaped.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_crates_and_kinds() {
        let ctx = classify("crates/runtime/src/cluster.rs").unwrap();
        assert_eq!(ctx.crate_name, "runtime");
        assert_eq!(ctx.kind, FileKind::Lib);
        assert!(!ctx.is_crate_root);
        let ctx = classify("crates/bench/src/bin/fig11.rs").unwrap();
        assert_eq!(ctx.kind, FileKind::Bin);
        let ctx = classify("crates/tensor/src/lib.rs").unwrap();
        assert!(ctx.is_crate_root);
        let ctx = classify("tests/backend_api.rs").unwrap();
        assert_eq!(ctx.crate_name, "hyflex");
        assert_eq!(ctx.kind, FileKind::Test);
        let ctx = classify("src/lib.rs").unwrap();
        assert_eq!(ctx.kind, FileKind::Lib);
        assert!(ctx.is_crate_root);
        assert!(classify("crates/runtime/Cargo.toml").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn cfg_test_regions_exempt_e1_but_not_d1() {
        let source = "#![forbid(unsafe_code)]\n\
                      pub fn lib_code() {}\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          use std::collections::HashMap;\n\
                          #[test]\n\
                          fn t() { let x: Option<u8> = None; x.unwrap(); }\n\
                      }\n";
        let findings = lint_source("crates/runtime/src/demo.rs", source);
        assert!(
            findings.iter().any(|f| f.rule == RuleId::D1 && f.line == 5),
            "D1 applies inside test modules: {findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::E1),
            "E1 must not fire inside #[cfg(test)]: {findings:?}"
        );
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let source = "#![forbid(unsafe_code)]\n\
                      // HashMap unsafe panic! std::thread::spawn Instant\n\
                      pub const DOC: &str = \"HashMap unsafe panic!()\";\n";
        let findings = lint_source("crates/core/src/demo.rs", source);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_on_preceding_comment_line_covers_next_code_line() {
        let source = "pub fn f() {\n\
                      // hyflex-lint: allow(E1) — arrival times are validated non-NaN upstream\n\
                      let v = [1.0f64].iter().copied().next().unwrap();\n\
                      let _ = v;\n}\n";
        let findings = lint_source("crates/runtime/src/demo.rs", source);
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::E1),
            "{findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::A2),
            "the allow was used: {findings:?}"
        );
    }

    #[test]
    fn unused_allow_is_flagged() {
        let source = "// hyflex-lint: allow(D1) — nothing here uses a map at all\n\
                      pub fn f() {}\n";
        let findings = lint_source("crates/runtime/src/demo.rs", source);
        assert!(
            findings.iter().any(|f| f.rule == RuleId::A2 && f.line == 1),
            "{findings:?}"
        );
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let source = "// hyflex-lint: allow(D1)\n\
                      use std::collections::HashMap;\n";
        let findings = lint_source("crates/runtime/src/demo.rs", source);
        assert!(
            findings.iter().any(|f| f.rule == RuleId::A1),
            "{findings:?}"
        );
        // The malformed allow must not suppress the finding it points at.
        assert!(
            findings.iter().any(|f| f.rule == RuleId::D1),
            "{findings:?}"
        );
    }

    #[test]
    fn unknown_rule_message_lists_every_rule() {
        let source = "// hyflex-lint: allow(U9) — no such rule\npub fn f() {}\n";
        let findings = lint_source("crates/runtime/src/demo.rs", source);
        let a1 = findings.iter().find(|f| f.rule == RuleId::A1).unwrap();
        assert!(
            a1.message.contains("U2") && a1.message.contains("U3"),
            "{}",
            a1.message
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
