//! Tier-1 gate for the detlint rules: the build fails on any violation.
//!
//! This is the enforcement half of the workspace's determinism policy
//! (DESIGN.md § Determinism). `cargo run -p detlint` gives the same answer
//! interactively; this test makes `cargo test` sufficient to catch a
//! regression.

use detlint::Scan;
use std::fs;
use std::path::{Path, PathBuf};

fn scan() -> Scan {
    detlint::scan_workspace(detlint::workspace_root())
        .expect("detlint scan should read the workspace")
}

#[test]
fn workspace_has_no_new_detlint_violations() {
    // The raw scan: there is no baseline to subtract, so "no new" is "none".
    let violations = scan().violations;
    if !violations.is_empty() {
        let mut report = String::new();
        for violation in &violations {
            report.push_str(&format!("  {violation}\n"));
        }
        panic!(
            "\n{} detlint violation(s):\n{report}\
             Run `cargo run -p detlint -- --explain <rule>` for each rule's \
             rationale and escape hatch.\n",
            violations.len()
        );
    }
}

/// Every escape past a rule, by form: the honoured detlint annotations,
/// and the non-test `allow`s of the clippy lints that decide R3
/// (`disallowed_types`) and R5 (`unwrap_used`, `expect_used`). This table
/// is the workspace's whole grandfathered debt: a new escape is a reviewed
/// one-line diff here.
const ESCAPE_CENSUS: [(&str, usize); 8] = [
    ("allow(R1)", 4),
    ("allow(R8)", 2),
    ("allow(R9)", 3),
    ("conformance: strict", 5),
    // Statement sites in the protocol crates, each beside a `// why`.
    ("#[allow(clippy::unwrap_used)]", 9),
    // The four golden-vector builders in conformance/src/cases/.
    ("#![allow(clippy::unwrap_used)]", 4),
    ("#![allow(clippy::expect_used)]", 4),
    ("#[allow(clippy::disallowed_types)]", 0),
];

#[test]
fn escape_hatch_census_is_as_reviewed() {
    let escapes = scan().escapes;
    let sites = |form: &str| -> Vec<String> {
        escapes
            .iter()
            .filter(|e| e.form == form)
            .map(|e| format!("{}:{}", e.path, e.line))
            .collect()
    };
    for (form, want) in ESCAPE_CENSUS {
        let got = sites(form);
        assert_eq!(got.len(), want, "`{form}` sites: {got:#?}");
    }
    let listed: usize = ESCAPE_CENSUS.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        escapes.len(),
        listed,
        "an escape form is missing from ESCAPE_CENSUS: {escapes:#?}"
    );
    // The wall-clock escapes are the benchmark harness's clock and nothing
    // else (`benchmark/` is frozen, so are they).
    for site in sites("allow(R1)") {
        assert!(site.starts_with("benchmark/src/clock.rs:"), "{site}");
    }
    for site in sites("#![allow(clippy::unwrap_used)]") {
        assert!(site.starts_with("crates/conformance/src/cases/"), "{site}");
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// serde's derive owns every JSON wire format: no source outside
/// `vendor/` reaches into serde's unversioned private module to write
/// one by hand.
#[test]
fn no_source_names_serde_private() {
    // Spelled in two halves so this file does not match itself.
    let needle = ["__", "private"].concat();
    let root = detlint::workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let hits: Vec<_> = files
        .iter()
        .filter(|path| {
            fs::read_to_string(path)
                .expect("source is UTF-8")
                .contains(&needle)
        })
        .map(|path| {
            path.strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string()
        })
        .collect();
    assert!(
        hits.is_empty(),
        "sources naming serde's `{needle}`: {hits:#?}"
    );
}

/// The public modules a crate may still declare, each with its reason. A
/// crate's API is what its `lib.rs` re-exports, so that rustc's
/// `dead_code` lint sees every item no other crate uses; a new entry here
/// needs a reason as good as these, and an entry whose module went private
/// is struck (the test fails while it stays).
const PUBLIC_MODULES: [(&str, &str); 7] = [
    (
        "ethcrypto::aes",
        "benchmark/src imports `ethcrypto::aes::AesCtr`",
    ),
    (
        "ethcrypto::ecies",
        "benchmark/src calls `ecies::encrypt` through the module",
    ),
    (
        "ethcrypto::secp256k1",
        "benchmark/src imports keys and `recover` from it",
    ),
    (
        "ethpop::world",
        "benchmark/src imports `ethpop::world::{World, WorldConfig}`",
    ),
    (
        "netsim::sched",
        "benchmark/src imports `netsim::sched::TimerWheel`",
    ),
    (
        "obs::profile",
        "benchmark/src calls `obs::profile::{install, summary, ..}`",
    ),
    (
        "obs::snap",
        "the module path is the codec's API: every layer's `Snap` impl names it",
    ),
];

/// No crate declares a `pub mod` beyond [`PUBLIC_MODULES`]; a nested one
/// is reported as `file: name`, which no entry matches.
#[test]
fn no_crate_declares_a_public_module() {
    let root = detlint::workspace_root();
    let mut declared = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let krate = krate.expect("directory entry is readable").path();
        let Some(name) = krate.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        for file in files {
            let text = fs::read_to_string(&file).expect("source is UTF-8");
            let is_root = file == krate.join("src").join("lib.rs");
            for line in text.lines() {
                let Some(rest) = line.trim_start().strip_prefix("pub mod ") else {
                    continue;
                };
                let module = rest.trim_end_matches([';', '{', ' ']);
                declared.push(if is_root {
                    format!("{name}::{module}")
                } else {
                    let rel = file.strip_prefix(root).unwrap_or(&file);
                    format!("{}: {module}", rel.display())
                });
            }
        }
    }
    let exempt: Vec<&str> = PUBLIC_MODULES.iter().map(|&(path, _)| path).collect();
    let unlisted: Vec<_> = declared
        .iter()
        .filter(|d| !exempt.contains(&d.as_str()))
        .collect();
    assert!(
        unlisted.is_empty(),
        "public modules beyond PUBLIC_MODULES (make them `mod` and re-export \
         what other crates use from lib.rs): {unlisted:#?}"
    );
    let stale: Vec<_> = exempt
        .iter()
        .filter(|e| !declared.iter().any(|d| d == *e))
        .collect();
    assert!(
        stale.is_empty(),
        "PUBLIC_MODULES entries no longer declared: {stale:#?}"
    );
}
