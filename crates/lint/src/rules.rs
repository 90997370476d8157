//! The file-scoped rule families: determinism and panic-safety.
//!
//! Rules fire on classified code lines (see [`crate::scan`]) and are
//! suppressed by an adjacent justification comment — `// invariant:` for
//! panic-safety, or the explicit `// lint: allow(<rule-id>): <reason>`
//! grammar for anything — on the flagged line or up to
//! [`JUSTIFICATION_WINDOW`] lines above it.

use crate::scan::{self, Line};

/// How far above a flagged line a justification comment may sit (in
/// lines). Same-line trailing comments always count.
pub const JUSTIFICATION_WINDOW: usize = 3;

/// Identity of a lint rule. String forms are `family/name`, e.g.
/// `determinism/hash-collections`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in a determinism-critical crate: iteration
    /// order is seeded per process and leaks straight into results.
    DetHashCollections,
    /// `Instant`/`SystemTime` in a determinism-critical crate.
    DetWallClock,
    /// Ambient randomness (`thread_rng`, `RandomState`, …) in a
    /// determinism-critical crate; all randomness must flow through
    /// `nemo_sparse::rng::DetRng`.
    DetAmbientRandomness,
    /// `Mutex`/`RwLock`/`Condvar`/atomics outside the two modules allowed
    /// to own shared-state concurrency (`nemo_sparse::parallel`,
    /// `nemo_core::pool`).
    DetSyncPrimitives,
    /// `.unwrap()` without an adjacent justification.
    PanicUnwrap,
    /// `.expect(...)` without an adjacent justification.
    PanicExpect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` without an
    /// adjacent justification.
    PanicExplicit,
    /// `get_unchecked` / `get_unchecked_mut` without an adjacent
    /// justification.
    PanicUncheckedIndex,
    /// A config-switch enum with no differential test under `tests/`.
    DoctrineSwitchDifferential,
    /// A `pub enum` in `crates/core/src/config.rs` that is not in the
    /// lint's switch registry (add it there plus a differential test, or
    /// annotate why it is not a fast/reference switch).
    DoctrineUnregisteredSwitch,
    /// A `BENCH_kernel.json` section with no matching bench kernel
    /// function.
    DoctrineBenchKernel,
    /// A bench kernel function without an `NEMO_BENCH_ENFORCE` gate.
    DoctrineBenchEnforce,
    /// A published crate missing `#![warn(missing_docs)]`.
    DoctrineMissingDocs,
    /// A `Cargo.lock` package with a registry source: the workspace is
    /// hermetic by doctrine (workspace members only).
    DoctrineLockfileHermetic,
    /// A malformed or unknown `lint: allow(...)` annotation.
    BadAllow,
}

/// Every rule, for CLI listings and annotation validation.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::DetHashCollections,
    RuleId::DetWallClock,
    RuleId::DetAmbientRandomness,
    RuleId::DetSyncPrimitives,
    RuleId::PanicUnwrap,
    RuleId::PanicExpect,
    RuleId::PanicExplicit,
    RuleId::PanicUncheckedIndex,
    RuleId::DoctrineSwitchDifferential,
    RuleId::DoctrineUnregisteredSwitch,
    RuleId::DoctrineBenchKernel,
    RuleId::DoctrineBenchEnforce,
    RuleId::DoctrineMissingDocs,
    RuleId::DoctrineLockfileHermetic,
    RuleId::BadAllow,
];

impl RuleId {
    /// The `family/name` string form used in output and annotations.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::DetHashCollections => "determinism/hash-collections",
            RuleId::DetWallClock => "determinism/wall-clock",
            RuleId::DetAmbientRandomness => "determinism/ambient-randomness",
            RuleId::DetSyncPrimitives => "determinism/sync-primitives",
            RuleId::PanicUnwrap => "panic/unwrap",
            RuleId::PanicExpect => "panic/expect",
            RuleId::PanicExplicit => "panic/explicit-panic",
            RuleId::PanicUncheckedIndex => "panic/unchecked-index",
            RuleId::DoctrineSwitchDifferential => "doctrine/switch-differential",
            RuleId::DoctrineUnregisteredSwitch => "doctrine/unregistered-switch",
            RuleId::DoctrineBenchKernel => "doctrine/bench-kernel",
            RuleId::DoctrineBenchEnforce => "doctrine/bench-enforce",
            RuleId::DoctrineMissingDocs => "doctrine/missing-docs",
            RuleId::DoctrineLockfileHermetic => "doctrine/lockfile-hermetic",
            RuleId::BadAllow => "lint/bad-allow",
        }
    }

    /// The family prefix (`determinism`, `panic`, `doctrine`, `lint`).
    pub fn family(self) -> &'static str {
        match self.as_str().split_once('/') {
            Some((fam, _)) => fam,
            // invariant: every rule id contains a '/' by construction.
            None => "lint",
        }
    }
}

/// One rule violation, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number of the violation.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule.as_str(), self.message)
    }
}

/// Crates whose result-affecting paths must be deterministic: selection,
/// distance, label-model, and featurization kernels.
const DETERMINISM_CRATES: &[&str] =
    &["crates/core/src/", "crates/sparse/src/", "crates/labelmodel/src/", "crates/text/src/"];

/// The only modules allowed to own shared-state synchronization: the
/// work-stealing scheduler and the session pool.
const SYNC_ALLOWED_FILES: &[&str] = &["crates/sparse/src/parallel.rs", "crates/core/src/pool.rs"];

/// Crates exempt from file-scoped rules: the proptest shim is test
/// infrastructure, the bench harness legitimately measures wall-clock
/// time (its perf claims are gated by `NEMO_BENCH_ENFORCE`, not by
/// bit-identity).
const FILE_RULE_EXEMPT: &[&str] = &["crates/proptest/", "crates/bench/"];

fn in_determinism_scope(path: &str) -> bool {
    DETERMINISM_CRATES.iter().any(|p| path.starts_with(p))
}

fn sync_allowed(path: &str) -> bool {
    SYNC_ALLOWED_FILES.contains(&path)
}

fn exempt(path: &str) -> bool {
    FILE_RULE_EXEMPT.iter().any(|p| path.starts_with(p))
}

/// Outcome of parsing one `lint: allow(...)` occurrence.
enum AllowParse {
    /// A well-formed annotation for the given rule id or family string.
    Target(String),
    /// Malformed (missing reason) or naming an unknown rule.
    Bad(&'static str),
    /// A documentation placeholder (`lint: allow(<rule>)`), not an
    /// annotation.
    Placeholder,
}

/// Parse every `lint: allow(...)` occurrence in a comment.
fn parse_allows(comment: &str) -> Vec<AllowParse> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = comment[from..].find("lint: allow(") {
        let start = from + at + "lint: allow(".len();
        from = start;
        let rest = &comment[start..];
        // Documentation placeholders — `lint: allow(<rule>)` or
        // `lint: allow(...)` — describe the grammar, they don't use it.
        if rest.starts_with('<') || rest.starts_with("...") {
            out.push(AllowParse::Placeholder);
            continue;
        }
        let Some(close) = rest.find(')') else {
            out.push(AllowParse::Bad("unclosed `lint: allow(`"));
            continue;
        };
        let id = rest[..close].trim();
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            out.push(AllowParse::Bad("missing `: reason` after `lint: allow(...)`"));
            continue;
        };
        if reason.trim().is_empty() {
            out.push(AllowParse::Bad("empty reason in `lint: allow(...)`"));
            continue;
        }
        let known = ALL_RULES.iter().any(|r| r.as_str() == id || r.family() == id);
        if known {
            out.push(AllowParse::Target(id.to_string()));
        } else {
            out.push(AllowParse::Bad("unknown rule id in `lint: allow(...)`"));
        }
    }
    out
}

/// Whether the comments on `lines[lo..=line]` justify a finding of
/// `rule` on `line` (0-based): an allow annotation naming the rule or
/// its family, or — for the panic family — an `invariant:` comment.
pub fn justified(lines: &[Line], line: usize, rule: RuleId) -> bool {
    let lo = line.saturating_sub(JUSTIFICATION_WINDOW);
    for l in &lines[lo..=line.min(lines.len() - 1)] {
        if rule.family() == "panic" && l.comment.contains("invariant:") {
            return true;
        }
        for allow in parse_allows(&l.comment) {
            if let AllowParse::Target(id) = allow {
                if id == rule.as_str() || id == rule.family() {
                    return true;
                }
            }
        }
    }
    false
}

/// Tokens of the determinism family, per rule.
const HASH_TOKENS: &[&str] = &["HashMap", "HashSet"];
const WALL_CLOCK_TOKENS: &[&str] = &["Instant", "SystemTime"];
const RANDOMNESS_TOKENS: &[&str] = &["thread_rng", "from_entropy", "RandomState", "getrandom"];
const SYNC_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn has_macro(code: &str, name: &str) -> bool {
    let needle = format!("{name}!");
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(&needle) {
        let start = from + at;
        let before_ok = start == 0 || !scan::is_ident(bytes[start - 1] as char);
        if before_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn has_atomic_type(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find("Atomic") {
        let start = from + at;
        let end = start + "Atomic".len();
        let before_ok = start == 0 || !scan::is_ident(bytes[start - 1] as char);
        // AtomicU64, AtomicBool, … — an identifier *extending* "Atomic".
        let after_ok = end < code.len() && scan::is_ident(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Run the file-scoped rules over one source file. `path` is the
/// workspace-relative path (forward slashes); it decides which rule
/// scopes apply. Only production sources are checked: paths under
/// `crates/*/src/` or the facade `src/`.
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let is_production = (path.starts_with("crates/") && path.contains("/src/"))
        || (path.starts_with("src/") && !path.starts_with("src/bin/"));
    if !is_production || exempt(path) || !path.ends_with(".rs") {
        return findings;
    }
    let lines = scan::classify(source);
    let det = in_determinism_scope(path);
    fn push(
        findings: &mut Vec<Finding>,
        lines: &[Line],
        path: &str,
        rule: RuleId,
        line: usize,
        message: String,
    ) {
        if !justified(lines, line, rule) {
            findings.push(Finding { rule, file: path.to_string(), line: line + 1, message });
        }
    }

    for (i, l) in lines.iter().enumerate() {
        // Annotation hygiene applies everywhere, test code included: a
        // malformed allow silently allows nothing.
        for allow in parse_allows(&l.comment) {
            if let AllowParse::Bad(why) = allow {
                findings.push(Finding {
                    rule: RuleId::BadAllow,
                    file: path.to_string(),
                    line: i + 1,
                    message: why.to_string(),
                });
            }
        }
        if l.in_test {
            continue;
        }
        let code = &l.code;
        if det {
            for tok in HASH_TOKENS {
                if scan::has_ident(code, tok) {
                    push(
                        &mut findings,
                        &lines,
                        path,
                        RuleId::DetHashCollections,
                        i,
                        format!(
                            "`{tok}` in a determinism-critical crate: iteration order is \
                             process-seeded; use BTreeMap/BTreeSet, a Vec keyed by dense ids, \
                             or justify why order cannot leak"
                        ),
                    );
                }
            }
            for tok in WALL_CLOCK_TOKENS {
                if scan::has_ident(code, tok) {
                    push(
                        &mut findings,
                        &lines,
                        path,
                        RuleId::DetWallClock,
                        i,
                        format!(
                            "`{tok}` in a determinism-critical crate: wall-clock values must \
                             not reach result-affecting paths"
                        ),
                    );
                }
            }
            for tok in RANDOMNESS_TOKENS {
                if scan::has_ident(code, tok) {
                    push(
                        &mut findings,
                        &lines,
                        path,
                        RuleId::DetAmbientRandomness,
                        i,
                        format!(
                            "`{tok}`: ambient randomness is banned; seed a \
                             `nemo_sparse::rng::DetRng` instead"
                        ),
                    );
                }
            }
        }
        if !sync_allowed(path) {
            let sync_hit = SYNC_TOKENS.iter().find(|t| scan::has_ident(code, t));
            if let Some(tok) = sync_hit {
                push(
                    &mut findings,
                    &lines,
                    path,
                    RuleId::DetSyncPrimitives,
                    i,
                    format!(
                        "`{tok}` outside nemo_sparse::parallel / nemo_core::pool: shared-state \
                         synchronization is confined to the scheduler modules"
                    ),
                );
            } else if has_atomic_type(code) {
                push(
                    &mut findings,
                    &lines,
                    path,
                    RuleId::DetSyncPrimitives,
                    i,
                    "atomic type outside nemo_sparse::parallel / nemo_core::pool: shared-state \
                     synchronization is confined to the scheduler modules"
                        .to_string(),
                );
            }
        }
        if code.contains(".unwrap()") {
            push(
                &mut findings,
                &lines,
                path,
                RuleId::PanicUnwrap,
                i,
                "`.unwrap()` without an adjacent `// invariant:` justification".to_string(),
            );
        }
        if code.contains(".expect(") {
            push(
                &mut findings,
                &lines,
                path,
                RuleId::PanicExpect,
                i,
                "`.expect(...)` without an adjacent `// invariant:` justification".to_string(),
            );
        }
        if PANIC_MACROS.iter().any(|m| has_macro(code, m)) {
            push(
                &mut findings,
                &lines,
                path,
                RuleId::PanicExplicit,
                i,
                "explicit panic without an adjacent `// invariant:` justification".to_string(),
            );
        }
        if scan::has_ident(code, "get_unchecked") || scan::has_ident(code, "get_unchecked_mut") {
            push(
                &mut findings,
                &lines,
                path,
                RuleId::PanicUncheckedIndex,
                i,
                "unchecked indexing without an adjacent `// invariant:` justification".to_string(),
            );
        }
    }
    findings
}
