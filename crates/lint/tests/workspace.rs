//! Repo-wide gate plus seeded-regression self-tests: the workspace is
//! clean today, and the lint actually catches the regressions it exists
//! to prevent — a `HashMap` slipped into a selection kernel, a config
//! switch whose differential test was deleted, a bench section whose
//! enforce gate vanished, a registry dependency in `Cargo.lock`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use nemo_lint::rules::check_source;
use nemo_lint::{doctrine, RuleId};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root exists")
}

#[test]
fn workspace_has_zero_findings() {
    let findings = nemo_lint::check_workspace(&repo_root()).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "nemo-lint must be clean on the repo; found:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_hashmap_in_session_is_caught() {
    let real = fs::read_to_string(repo_root().join("crates/core/src/session.rs"))
        .expect("read session.rs");
    let seeded = format!("use std::collections::HashMap;\n{real}");
    let findings = check_source("crates/core/src/session.rs", &seeded);
    assert!(
        findings.iter().any(|f| f.rule == RuleId::DetHashCollections && f.line == 1),
        "seeded HashMap import must be flagged at line 1, got {findings:?}"
    );
    // The unmodified file stays clean: the seed is the only delta.
    assert!(check_source("crates/core/src/session.rs", &real).is_empty());
}

/// The switch registry of the mini workspace: synthetic enums declared
/// in its `config.rs`.
const FIXTURE_REGISTRY: &[(&str, &str)] = &[
    ("DistanceBackend", "crates/core/src/config.rs"),
    ("SeuScoring", "crates/core/src/config.rs"),
    ("WarmStart", "crates/core/src/config.rs"),
    ("RefinementCaching", "crates/core/src/config.rs"),
    ("SelectionStrategy", "crates/core/src/config.rs"),
];

/// A minimal workspace for the structural rules: registered switches,
/// one bench section, a documented crate set, a hermetic lockfile.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("nemo-lint-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let ws = Self { root };
        ws.write("Cargo.lock", "[[package]]\nname = \"nemo\"\nversion = \"0.1.0\"\n");
        ws.write(
            "crates/core/src/config.rs",
            "/// Switch.\npub enum DistanceBackend { A, B }\n\
             /// Switch.\npub enum SeuScoring { A, B }\n\
             /// Switch.\npub enum WarmStart { A, B }\n\
             /// Switch.\npub enum RefinementCaching { A, B }\n\
             /// Switch.\npub enum SelectionStrategy { A, B }\n",
        );
        ws.write(
            "tests/differentials.rs",
            "// Exercises DistanceBackend, SeuScoring, WarmStart,\n\
             // RefinementCaching, and SelectionStrategy.\n",
        );
        ws.write("BENCH_kernel.json", "{\n  \"profile\": \"quick\",\n  \"seu_loop\": {}\n}\n");
        ws.write(
            "crates/bench/benches/kernel_microbench.rs",
            "fn seu_loop_bench() {\n    std::env::var(\"NEMO_BENCH_ENFORCE\").ok();\n}\n\
             fn main() {}\n",
        );
        ws.write("src/lib.rs", "#![warn(missing_docs)]\n");
        for name in doctrine::DOCUMENTED_CRATES {
            ws.write(&format!("crates/{name}/src/lib.rs"), "#![warn(missing_docs)]\n");
        }
        ws
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        // invariant: temp-dir paths always have a parent.
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture file");
    }

    fn check(&self) -> Vec<(RuleId, String, usize)> {
        doctrine::check(&self.root, FIXTURE_REGISTRY)
            .expect("doctrine scan")
            .into_iter()
            .map(|f| (f.rule, f.file, f.line))
            .collect()
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn mini_workspace_baseline_is_clean() {
    let ws = MiniWorkspace::new("baseline");
    assert_eq!(ws.check(), vec![]);
}

#[test]
fn deleted_differential_test_is_caught() {
    let ws = MiniWorkspace::new("switch");
    // The differential file no longer mentions RefinementCaching.
    ws.write(
        "tests/differentials.rs",
        "// Exercises DistanceBackend, SeuScoring, WarmStart,\n\
         // and SelectionStrategy.\n",
    );
    let got = ws.check();
    assert_eq!(
        got,
        vec![(RuleId::DoctrineSwitchDifferential, "crates/core/src/config.rs".to_string(), 8)],
        "RefinementCaching (declared at line 8) lost its differential test"
    );
}

#[test]
fn selection_strategy_is_a_registered_switch() {
    // Good case: the baseline fixture exercises SelectionStrategy from
    // tests/. Bad case: dropping the mention is a
    // doctrine finding at the enum's declaration line.
    let ws = MiniWorkspace::new("selection");
    assert_eq!(ws.check(), vec![]);
    ws.write(
        "tests/differentials.rs",
        "// Exercises DistanceBackend, SeuScoring, WarmStart,\n\
         // and RefinementCaching.\n",
    );
    let got = ws.check();
    assert_eq!(
        got,
        vec![(RuleId::DoctrineSwitchDifferential, "crates/core/src/config.rs".to_string(), 10)],
        "SelectionStrategy (declared at line 10) lost its differential test"
    );
}

#[test]
fn unregistered_switch_is_caught() {
    let ws = MiniWorkspace::new("unregistered");
    ws.write(
        "crates/core/src/config.rs",
        "/// Switch.\npub enum DistanceBackend { A, B }\n\
         /// Switch.\npub enum SeuScoring { A, B }\n\
         /// Switch.\npub enum WarmStart { A, B }\n\
         /// Switch.\npub enum RefinementCaching { A, B }\n\
         /// Switch.\npub enum SelectionStrategy { A, B }\n\
         /// New switch nobody registered.\npub enum MysteryPath { Fast, Reference }\n",
    );
    let got = ws.check();
    assert_eq!(
        got,
        vec![(RuleId::DoctrineUnregisteredSwitch, "crates/core/src/config.rs".to_string(), 12)]
    );
}

#[test]
fn missing_bench_kernel_and_gate_are_caught() {
    let ws = MiniWorkspace::new("bench");
    ws.write(
        "BENCH_kernel.json",
        "{\n  \"profile\": \"quick\",\n  \"seu_loop\": {},\n  \"phantom\": {}\n}\n",
    );
    ws.write("crates/bench/benches/kernel_microbench.rs", "fn seu_loop_bench() {}\nfn main() {}\n");
    let got = ws.check();
    assert_eq!(
        got,
        vec![
            (
                RuleId::DoctrineBenchEnforce,
                "crates/bench/benches/kernel_microbench.rs".to_string(),
                1
            ),
            (RuleId::DoctrineBenchKernel, "BENCH_kernel.json".to_string(), 4),
        ],
        "seu_loop lost its enforce gate; phantom has no kernel fn"
    );
}

#[test]
fn undocumented_crate_is_caught() {
    let ws = MiniWorkspace::new("docs");
    ws.write("crates/text/src/lib.rs", "//! No missing_docs warning here.\n");
    let got = ws.check();
    assert_eq!(got, vec![(RuleId::DoctrineMissingDocs, "crates/text/src/lib.rs".to_string(), 1)]);
}

#[test]
fn registry_dependency_in_lockfile_is_caught() {
    let ws = MiniWorkspace::new("lockfile");
    ws.write(
        "Cargo.lock",
        "[[package]]\nname = \"nemo\"\nversion = \"0.1.0\"\n\n\
         [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
         source = \"registry+https://github.com/rust-lang/crates.io-index\"\n",
    );
    let got = ws.check();
    assert_eq!(got, vec![(RuleId::DoctrineLockfileHermetic, "Cargo.lock".to_string(), 8)]);
}

#[test]
fn cli_exits_zero_on_clean_repo_and_nonzero_on_findings() {
    let bin = env!("CARGO_BIN_EXE_nemo-lint");
    let repo = repo_root();

    let ok =
        Command::new(bin).args(["--deny", "--root"]).arg(&repo).output().expect("run nemo-lint");
    assert!(
        ok.status.success(),
        "nemo-lint --deny must pass on the repo:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Seed a regression in a scratch copy of the mini workspace plus one
    // bad production file; --deny must exit nonzero and name the span.
    let ws = MiniWorkspace::new("cli");
    ws.write("crates/core/src/bad.rs", "pub fn f(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n");
    let bad =
        Command::new(bin).args(["--deny", "--root"]).arg(&ws.root).output().expect("run nemo-lint");
    assert!(!bad.status.success(), "--deny must fail on a seeded regression");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/core/src/bad.rs:1: panic/unwrap"),
        "finding must carry its file:line span and rule id, got:\n{stdout}"
    );

    // Without --deny the same findings are advisory.
    let advisory = Command::new(bin).arg("--root").arg(&ws.root).output().expect("run nemo-lint");
    assert!(advisory.status.success(), "advisory mode must not fail the build");
}
