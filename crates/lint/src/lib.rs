#![warn(missing_docs)]
//! Workspace static analysis for the nemo doctrine.
//!
//! Every speedup in this workspace rests on one promise: fast paths are
//! bit-identical to their reference paths under any thread count,
//! eviction order, or checkpoint churn. The differential tests and
//! bench gates enforce that promise dynamically; `nemo-lint` enforces
//! the *conventions* that keep it enforceable statically:
//!
//! - **determinism/**: no `HashMap`/`HashSet`, wall-clock reads, or
//!   ambient randomness in result-affecting crates; synchronization
//!   confined to the scheduler modules.
//! - **panic/**: `unwrap`/`expect`/`panic!`/unchecked indexing in
//!   production code requires an adjacent `// invariant:` comment or a
//!   `// lint: allow(<rule>): <reason>` annotation.
//! - **doctrine/**: every config switch has a differential test, every
//!   recorded bench section has a gated kernel, every published crate
//!   warns on missing docs, and `Cargo.lock` stays hermetic.
//!
//! Run as `cargo run -p nemo-lint -- --deny`, or call
//! [`check_workspace`] / [`rules::check_source`] from tests.

pub mod doctrine;
pub mod rules;
pub mod scan;

pub use rules::{Finding, RuleId, ALL_RULES, JUSTIFICATION_WINDOW};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect the production `.rs` sources under `root` that the
/// file-scoped rules apply to: `crates/*/src/**/*.rs` plus the facade
/// `src/**/*.rs`. Paths are returned workspace-relative with forward
/// slashes, sorted, so findings are reproducible across platforms.
pub fn production_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), root, &mut out)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                // invariant: every collected path is built by joining root.
                .expect("collected path is under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Run every rule — file-scoped and structural — over the workspace at
/// `root`. Findings are sorted by (file, line, rule) for stable output.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in production_sources(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        findings.extend(rules::check_source(&rel, &source));
    }
    findings.extend(doctrine::check(root, doctrine::SWITCH_REGISTRY)?);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Walk upward from `start` to the workspace root: the first ancestor
/// holding both `Cargo.lock` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.lock").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
