//! The cross-file structural rules: every fast path keeps its reference
//! path honest.
//!
//! These checks read the workspace as a whole — the config-switch
//! registry against the differential-test suite, `BENCH_kernel.json`
//! against the bench harness, `#![warn(missing_docs)]` on the published
//! crates, and `Cargo.lock` hermeticity.

use std::fs;
use std::io;
use std::path::Path;

use crate::rules::{justified, Finding, RuleId};
use crate::scan;

/// The config-switch registry: every fast-path/reference-path switch in
/// the workspace, with the file declaring it. A new switch must be added
/// here *and* exercised by a differential test under `tests/` — the
/// [`RuleId::DoctrineUnregisteredSwitch`] rule flags any `pub enum` in
/// `crates/core/src/config.rs` that is neither registered nor annotated.
/// Empty: every fast path is the only production path, checked against
/// its reference implementation as a test oracle.
pub const SWITCH_REGISTRY: &[(&str, &str)] = &[];

/// Published crates that must carry `#![warn(missing_docs)]` in their
/// `src/lib.rs` (escalated to an error by `clippy -D warnings` in CI).
/// `bench` (harness binary) and `proptest` (test shim) are exempt.
pub const DOCUMENTED_CRATES: &[&str] = &[
    "baselines",
    "core",
    "data",
    "endmodel",
    "labelmodel",
    "lf",
    "lint",
    "persist",
    "sparse",
    "text",
];

/// Top-level `BENCH_kernel.json` keys that are metadata, not kernel
/// sections.
const BENCH_META_KEYS: &[&str] = &["profile", "dataset", "train_n", "benchmarks"];

/// Where the kernel bench harness lives.
const BENCH_FILE: &str = "crates/bench/benches/kernel_microbench.rs";

/// Run every structural rule against the workspace at `root`, with
/// `registry` as the config-switch registry (the workspace passes
/// [`SWITCH_REGISTRY`]).
pub fn check(root: &Path, registry: &[(&str, &str)]) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    check_switches(root, registry, &mut findings)?;
    check_bench_sections(root, &mut findings)?;
    check_missing_docs(root, &mut findings)?;
    check_lockfile(root, &mut findings)?;
    Ok(findings)
}

fn read_rel(root: &Path, rel: &str) -> io::Result<Option<String>> {
    let path = root.join(rel);
    if !path.is_file() {
        return Ok(None);
    }
    fs::read_to_string(path).map(Some)
}

/// 0-based line of the `pub enum <name>` declaration in classified
/// `lines`, if any.
fn enum_decl_line(lines: &[scan::Line], name: &str) -> Option<usize> {
    lines
        .iter()
        .position(|l| !l.in_test && l.code.contains("pub enum") && scan::has_ident(&l.code, name))
}

fn check_switches(
    root: &Path,
    registry: &[(&str, &str)],
    findings: &mut Vec<Finding>,
) -> io::Result<()> {
    // Gather the differential-test corpus once: raw text of tests/*.rs.
    let tests_dir = root.join("tests");
    let mut test_sources: Vec<String> = Vec::new();
    if tests_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&tests_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        entries.sort();
        for p in entries {
            test_sources.push(fs::read_to_string(p)?);
        }
    }

    for &(name, decl_file) in registry {
        let Some(source) = read_rel(root, decl_file)? else {
            findings.push(Finding {
                rule: RuleId::DoctrineSwitchDifferential,
                file: decl_file.to_string(),
                line: 1,
                message: format!("registered switch `{name}`: declaration file is missing"),
            });
            continue;
        };
        let lines = scan::classify(&source);
        let Some(decl) = enum_decl_line(&lines, name) else {
            findings.push(Finding {
                rule: RuleId::DoctrineSwitchDifferential,
                file: decl_file.to_string(),
                line: 1,
                message: format!(
                    "registered switch `{name}` is no longer declared here; update the \
                     nemo-lint SWITCH_REGISTRY alongside the enum"
                ),
            });
            continue;
        };
        let exercised = test_sources.iter().any(|s| scan::has_ident(s, name));
        if !exercised && !justified(&lines, decl, RuleId::DoctrineSwitchDifferential) {
            findings.push(Finding {
                rule: RuleId::DoctrineSwitchDifferential,
                file: decl_file.to_string(),
                line: decl + 1,
                message: format!(
                    "config switch `{name}` has no differential test: no file under tests/ \
                     mentions it; every fast path must be pinned bit-identical to its \
                     reference path"
                ),
            });
        }
    }

    // Any pub enum in config.rs outside the registry is a config switch
    // the doctrine does not know about.
    let config_rel = "crates/core/src/config.rs";
    if let Some(source) = read_rel(root, config_rel)? {
        let lines = scan::classify(&source);
        for (i, l) in lines.iter().enumerate() {
            if l.in_test || !l.code.contains("pub enum") {
                continue;
            }
            let name = l
                .code
                .split("pub enum")
                .nth(1)
                .map(|rest| rest.trim_start().chars().take_while(|&c| scan::is_ident(c)).collect())
                .unwrap_or_else(String::new);
            if name.is_empty() || registry.iter().any(|&(n, _)| n == name) {
                continue;
            }
            if !justified(&lines, i, RuleId::DoctrineUnregisteredSwitch) {
                findings.push(Finding {
                    rule: RuleId::DoctrineUnregisteredSwitch,
                    file: config_rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{name}` is not in the nemo-lint switch registry: register it with a \
                         differential test, or annotate why it is not a fast/reference switch"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Top-level keys of a JSON object with their 1-based line numbers, via
/// a depth-tracking scan (string-aware; no JSON parser dependency).
fn json_top_level_keys(text: &str) -> Vec<(String, usize)> {
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut cur_key = String::new();
    let mut line = 1usize;
    // After a string closes at depth 1, a ':' makes it a key.
    let mut pending: Option<(String, usize)> = None;
    for c in text.chars() {
        if c == '\n' {
            line += 1;
        }
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
                if depth == 1 {
                    pending = Some((std::mem::take(&mut cur_key), line));
                }
            } else if depth == 1 {
                cur_key.push(c);
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur_key.clear();
            }
            ':' => {
                if let Some(kv) = pending.take() {
                    keys.push(kv);
                }
            }
            '{' | '[' => {
                depth += 1;
                pending = None;
            }
            '}' | ']' => {
                depth -= 1;
                pending = None;
            }
            ',' => pending = None,
            _ => {}
        }
    }
    keys
}

fn check_bench_sections(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    let Some(json) = read_rel(root, "BENCH_kernel.json")? else {
        findings.push(Finding {
            rule: RuleId::DoctrineBenchKernel,
            file: "BENCH_kernel.json".to_string(),
            line: 1,
            message: "BENCH_kernel.json is missing; run the kernel microbench to record it"
                .to_string(),
        });
        return Ok(());
    };
    let Some(bench_src) = read_rel(root, BENCH_FILE)? else {
        findings.push(Finding {
            rule: RuleId::DoctrineBenchKernel,
            file: BENCH_FILE.to_string(),
            line: 1,
            message: "the kernel microbench harness is missing".to_string(),
        });
        return Ok(());
    };
    let bench_lines = scan::classify(&bench_src);
    let raw_lines: Vec<&str> = bench_src.lines().collect();

    // Top-level functions of the harness: (name, 0-based decl line).
    let mut fns: Vec<(String, usize)> = Vec::new();
    for (i, l) in bench_lines.iter().enumerate() {
        if let Some(rest) = l.code.strip_prefix("fn ") {
            let name: String =
                rest.trim_start().chars().take_while(|&c| scan::is_ident(c)).collect();
            if !name.is_empty() {
                fns.push((name, i));
            }
        }
    }

    for (key, line) in json_top_level_keys(&json) {
        if BENCH_META_KEYS.contains(&key.as_str()) {
            continue;
        }
        let kernel_fn = fns.iter().position(|(name, _)| {
            *name == format!("{key}_bench") || *name == format!("{key}_summary")
        });
        let Some(at) = kernel_fn else {
            findings.push(Finding {
                rule: RuleId::DoctrineBenchKernel,
                file: "BENCH_kernel.json".to_string(),
                line,
                message: format!(
                    "section `{key}` has no matching bench kernel: expected fn `{key}_bench` \
                     or `{key}_summary` in {BENCH_FILE}"
                ),
            });
            continue;
        };
        let (_, decl) = &fns[at];
        let body_end = fns.get(at + 1).map(|(_, l)| *l).unwrap_or(raw_lines.len());
        // NEMO_BENCH_ENFORCE appears inside a string literal
        // (`env::var("NEMO_BENCH_ENFORCE")`), so search the raw text.
        let gated = raw_lines[*decl..body_end].iter().any(|l| l.contains("NEMO_BENCH_ENFORCE"));
        if !gated && !justified(&bench_lines, *decl, RuleId::DoctrineBenchEnforce) {
            findings.push(Finding {
                rule: RuleId::DoctrineBenchEnforce,
                file: BENCH_FILE.to_string(),
                line: decl + 1,
                message: format!(
                    "bench kernel for section `{key}` has no NEMO_BENCH_ENFORCE gate: every \
                     recorded section must fail the build when its speedup regresses"
                ),
            });
        }
    }
    Ok(())
}

fn check_missing_docs(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    // The facade crate plus every published workspace crate.
    let mut targets: Vec<(String, String)> =
        vec![("src/lib.rs".to_string(), "nemo (facade)".to_string())];
    for name in DOCUMENTED_CRATES {
        targets.push((format!("crates/{name}/src/lib.rs"), format!("nemo-{name}")));
    }
    for (rel, label) in targets {
        let Some(source) = read_rel(root, &rel)? else {
            findings.push(Finding {
                rule: RuleId::DoctrineMissingDocs,
                file: rel.clone(),
                line: 1,
                message: format!("{label}: src/lib.rs is missing"),
            });
            continue;
        };
        if !source.contains("#![warn(missing_docs)]") {
            findings.push(Finding {
                rule: RuleId::DoctrineMissingDocs,
                file: rel.clone(),
                line: 1,
                message: format!(
                    "{label}: published crate must carry #![warn(missing_docs)] (CI escalates \
                     it to an error)"
                ),
            });
        }
    }
    Ok(())
}

fn check_lockfile(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    let Some(lock) = read_rel(root, "Cargo.lock")? else {
        findings.push(Finding {
            rule: RuleId::DoctrineLockfileHermetic,
            file: "Cargo.lock".to_string(),
            line: 1,
            message: "Cargo.lock is missing; the workspace pins a hermetic lockfile".to_string(),
        });
        return Ok(());
    };
    let mut package = String::new();
    for (i, line) in lock.lines().enumerate() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name = ") {
            package = rest.trim_matches('"').to_string();
        }
        if line.starts_with("source = ") {
            findings.push(Finding {
                rule: RuleId::DoctrineLockfileHermetic,
                file: "Cargo.lock".to_string(),
                line: i + 1,
                message: format!(
                    "package `{package}` has a non-path source: the workspace is hermetic — \
                     in-repo replacements only, no registry dependencies"
                ),
            });
        }
    }
    Ok(())
}
