//! Tier-1 gate for the detlint rules: the build fails on any violation.
//!
//! This is the enforcement half of the workspace's determinism policy
//! (DESIGN.md § Determinism). `cargo run -p detlint` gives the same answer
//! interactively; this test makes `cargo test` sufficient to catch a
//! regression.

use detlint::Scan;

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
    ("allow(R8)", 3),
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
