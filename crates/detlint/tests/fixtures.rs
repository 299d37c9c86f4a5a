//! Fixture self-test: every rule in the table has a minimal passing and a
//! minimal failing fixture under `fixtures/{pass,fail}/`, and the failing
//! fixture produces exactly the expected diagnostic codes at the expected
//! lines. This pins both halves of each rule: that it fires, and that its
//! documented escape hatch / compliant pattern silences it.
//!
//! Fixtures are scanned under a *virtual* repo-relative path (`vpath`) so
//! path-scoped rules (R1 allowlist, R5/R7 crate scope, R8/R9 library
//! scope, R6 path resolution) behave exactly as in a workspace scan; R10
//! keys on the package name the manifest fixture declares. The real
//! `fixtures/` directory itself is excluded from workspace scans.

use detlint::{rules, scan_manifest_source, scan_rust_source, Violation};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

struct Fixture {
    rule: &'static str,
    /// Fixture file name under `fixtures/{pass,fail}/`.
    file: &'static str,
    /// Virtual repo-relative path the fixture is scanned as.
    vpath: &'static str,
    /// Exact `(code, line)` set the fail fixture must produce.
    expected_fail: &'static [(&'static str, usize)],
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        rule: "R1",
        file: "r1.rs",
        vpath: "crates/netsim/src/engine.rs",
        expected_fail: &[("R1.wall_clock", 3)],
    },
    Fixture {
        rule: "R2",
        file: "r2.rs",
        vpath: "crates/netsim/src/rng.rs",
        expected_fail: &[("R2.ambient_entropy", 3), ("R2.ambient_entropy", 4)],
    },
    Fixture {
        rule: "R3",
        file: "r3.rs",
        vpath: "crates/nodefinder/src/crawl.rs",
        expected_fail: &[("R3.hash_collection", 2), ("R3.hash_collection", 3)],
    },
    Fixture {
        rule: "R4",
        file: "r4.rs",
        vpath: "crates/rlp/src/raw.rs",
        expected_fail: &[("R4.unsafe_code", 3)],
    },
    Fixture {
        rule: "R5",
        file: "r5.rs",
        vpath: "crates/rlp/src/decode.rs",
        expected_fail: &[("R5.panic_escape", 3)],
    },
    Fixture {
        rule: "R6",
        file: "r6.toml",
        vpath: "crates/x/Cargo.toml",
        expected_fail: &[
            ("R6.registry_dep", 7),
            ("R6.git_dep", 8),
            ("R6.abs_path", 9),
            ("R6.escaping_path", 10),
        ],
    },
    Fixture {
        rule: "R7",
        file: "r7.rs",
        vpath: "crates/rlp/src/decode.rs",
        expected_fail: &[
            ("R7.ensure_exact", 3),
            ("R7.item_count", 4),
            ("R7.trailing_bytes", 5),
        ],
    },
    Fixture {
        rule: "R8",
        file: "r8.rs",
        vpath: "crates/netsim/src/state.rs",
        expected_fail: &[
            ("R8.static_mut", 2),
            ("R8.interior_mut", 3),
            ("R8.thread_local_cell", 5),
        ],
    },
    Fixture {
        rule: "R9",
        file: "r9.rs",
        vpath: "crates/netsim/src/rng.rs",
        expected_fail: &[("R9.literal_seed", 5), ("R9.ambient_seed", 11)],
    },
    Fixture {
        rule: "R10",
        file: "r10.toml",
        vpath: "crates/rlp/Cargo.toml",
        expected_fail: &[("R10.layer_dep", 6), ("R10.layer_dep", 9)],
    },
    Fixture {
        rule: "R10",
        file: "r10_obs.toml",
        vpath: "crates/obs/Cargo.toml",
        expected_fail: &[("R10.obs_dep", 6)],
    },
    // A retired rule id (R11–R13) in an annotation is an unrecognized
    // annotation, which detlint has always filed under R3.
    Fixture {
        rule: "R3",
        file: "retired.rs",
        vpath: "crates/netsim/src/hot.rs",
        expected_fail: &[("R3.annotation", 2)],
    },
];

fn scan_fixture(kind: &str, fixture: &Fixture) -> Vec<Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
        .join(fixture.file);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if fixture.file.ends_with(".toml") {
        scan_manifest_source(fixture.vpath, &source)
    } else {
        scan_rust_source(fixture.vpath, &source)
    }
}

#[test]
fn every_rule_has_both_fixtures() {
    let covered: BTreeSet<&str> = FIXTURES.iter().map(|f| f.rule).collect();
    for row in &rules::TABLE {
        assert!(
            covered.contains(row.id),
            "rule {} has no fixture entry",
            row.id
        );
    }
    assert_eq!(covered.len(), rules::TABLE.len(), "stray fixture entries");
}

#[test]
fn fail_fixtures_produce_exactly_the_expected_codes() {
    for fixture in FIXTURES {
        let got: BTreeSet<(String, usize)> = scan_fixture("fail", fixture)
            .into_iter()
            .map(|v| (v.code.to_string(), v.line))
            .collect();
        let want: BTreeSet<(String, usize)> = fixture
            .expected_fail
            .iter()
            .map(|&(code, line)| (code.to_string(), line))
            .collect();
        assert_eq!(
            got, want,
            "fail fixture for {} ({})",
            fixture.rule, fixture.file
        );
        // Every expected code belongs to the rule under test: the fixture
        // must not smuggle in violations of other rules.
        for (code, _) in &want {
            assert_eq!(
                code.split('.').next(),
                Some(fixture.rule),
                "fixture {} expects a foreign code {code}",
                fixture.rule
            );
        }
    }
}

#[test]
fn pass_fixtures_are_clean() {
    for fixture in FIXTURES {
        let got = scan_fixture("pass", fixture);
        assert!(
            got.is_empty(),
            "pass fixture for {} ({}) is not clean: {:?}",
            fixture.rule,
            fixture.file,
            got.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn fail_fixtures_never_fire_foreign_rules() {
    for fixture in FIXTURES {
        for violation in scan_fixture("fail", fixture) {
            assert_eq!(
                violation.rule.info().id,
                fixture.rule,
                "fail fixture for {} fired {}: {violation}",
                fixture.rule,
                violation.code
            );
        }
    }
}
