//! The rule set: what each invariant is, where it applies, and how a
//! violation is detected on the lexed code channel.
//!
//! Severity is decided per (rule, crate, file-kind) by [`severity_for`]; the
//! detection logic itself lives in [`crate::lint_source`].

use std::fmt;

/// How bad a finding is. `Deny` findings fail the build (`--check` exits
/// non-zero); `Warn` findings are reported but do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable rule identifiers (`D*` = determinism/safety, `E*` = error
/// handling, `A*` = allow-directive hygiene).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `HashMap`/`HashSet` (iteration order is seeded per-process and
    /// breaks bit-identity the moment an iteration escapes).
    D1,
    /// No wall-clock or OS entropy in library code (sim time only).
    D2,
    /// No `std::thread` outside `hyflex-parallel` (all parallelism goes
    /// through `JobPool` so the determinism proofs cover it).
    D3,
    /// No `unsafe` anywhere.
    D4,
    /// Every crate root carries `#![forbid(unsafe_code)]`.
    D5,
    /// No `unwrap`/`expect`/`panic!` family in non-test library code.
    E1,
    /// A `hyflex-lint:` directive that is malformed or lacks a reason.
    A1,
    /// An allow directive that suppressed nothing.
    A2,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::E1,
        RuleId::A1,
        RuleId::A2,
    ];

    /// The stable id used in reports and allow directives.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::E1 => "E1",
            RuleId::A1 => "A1",
            RuleId::A2 => "A2",
        }
    }

    /// Human-readable rule slug.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "no-hash-collections",
            RuleId::D2 => "no-wall-clock",
            RuleId::D3 => "no-raw-thread-spawn",
            RuleId::D4 => "no-unsafe",
            RuleId::D5 => "forbid-unsafe-attr",
            RuleId::E1 => "no-panic-paths",
            RuleId::A1 => "malformed-allow",
            RuleId::A2 => "unused-allow",
        }
    }

    /// One-line rationale shown by `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "HashMap/HashSet iteration order is per-process random; use \
                 BTreeMap/BTreeSet so same seed means same bytes"
            }
            RuleId::D2 => {
                "Instant/SystemTime/OS entropy make results depend on the \
                 host clock; library code runs on simulated time only"
            }
            RuleId::D3 => {
                "raw std::thread use bypasses JobPool, so the bit-identity \
                 proofs for pooled paths no longer cover it"
            }
            RuleId::D4 => "no unsafe blocks anywhere in the workspace",
            RuleId::D5 => "every crate root must carry #![forbid(unsafe_code)]",
            RuleId::E1 => {
                "unwrap/expect/panic in library code turns recoverable \
                 conditions into aborts; return typed errors instead"
            }
            RuleId::A1 => "hyflex-lint allow directives must name a rule and give a reason",
            RuleId::A2 => "an allow directive that suppresses nothing should be removed",
        }
    }

    /// Parses a rule id as written inside an allow directive.
    pub fn parse(text: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == text)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// What kind of target a file belongs to; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` of a crate, excluding `src/bin/`).
    Lib,
    /// Binary targets (`src/bin/`, `src/main.rs`).
    Bin,
    /// Tests, benches, and examples.
    Test,
}

/// The crate allowed to touch `std::thread` (it *is* the pool).
pub const D3_EXEMPT_CRATE: &str = "parallel";

/// Decides whether `rule` applies to code in (`crate_name`, `kind`) and at
/// what severity. `None` means the rule does not apply there at all.
pub fn severity_for(rule: RuleId, crate_name: &str, kind: FileKind) -> Option<Severity> {
    match rule {
        // Hash-ordered collections are banned in every first-party target:
        // test helpers feed golden fixtures, and bins print the recorded
        // figures, so nondeterministic iteration anywhere can reach bytes.
        RuleId::D1 => Some(Severity::Deny),
        // Wall-clock reads are banned in lib and bin targets (figures must
        // be replayable); tests may time themselves if they ever need to.
        RuleId::D2 => match kind {
            FileKind::Lib | FileKind::Bin => Some(Severity::Deny),
            FileKind::Test => None,
        },
        RuleId::D3 => {
            if crate_name == D3_EXEMPT_CRATE {
                None
            } else {
                Some(Severity::Deny)
            }
        }
        RuleId::D4 | RuleId::D5 | RuleId::A1 => Some(Severity::Deny),
        // Non-test library code must be panic-free in every crate: a panic
        // in the figure pipeline or a serving sim is an availability bug,
        // not a debugging aid.
        RuleId::E1 => match kind {
            FileKind::Lib => Some(Severity::Deny),
            // Panics are the right failure mode in tests, and bins may
            // unwrap at top level after printing context.
            FileKind::Bin | FileKind::Test => None,
        },
        RuleId::A2 => Some(Severity::Warn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_parse() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.id()), Some(rule));
        }
        assert_eq!(RuleId::parse("D9"), None);
        assert_eq!(RuleId::parse("d1"), None);
    }

    #[test]
    fn e1_tiers_match_the_policy() {
        for crate_name in [
            "runtime",
            "parallel",
            "transformer",
            "tensor",
            "bench",
            "lint",
        ] {
            assert_eq!(
                severity_for(RuleId::E1, crate_name, FileKind::Lib),
                Some(Severity::Deny)
            );
        }
        assert_eq!(severity_for(RuleId::E1, "runtime", FileKind::Test), None);
        assert_eq!(severity_for(RuleId::E1, "bench", FileKind::Bin), None);
    }

    #[test]
    fn d3_exempts_only_the_pool_crate() {
        assert_eq!(severity_for(RuleId::D3, "parallel", FileKind::Lib), None);
        assert_eq!(
            severity_for(RuleId::D3, "runtime", FileKind::Lib),
            Some(Severity::Deny)
        );
    }
}
