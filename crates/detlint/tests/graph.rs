//! Layering over the *real* `Cargo.lock`: every crate the layering rule
//! (R10) names is a package of the repository that cargo resolved, and
//! none of their dependency lists — dev edges included — points up.

use detlint::{check_lock, parse_lock, PROTOCOL_CRATES, UPPER_LAYERS};
use std::collections::BTreeMap;
use std::fs;

#[test]
fn layering_matrix_matches_cargo_lock_reality() {
    let root = detlint::workspace_root();
    let packages = detlint::scan_workspace(root)
        .expect("scan the workspace")
        .packages;
    let lock = fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
    let deps: BTreeMap<String, Vec<String>> = parse_lock(&lock)
        .into_iter()
        .map(|p| (p.name, p.dependencies.into_iter().map(|(d, _)| d).collect()))
        .collect();

    // Every crate the rule names is resolved, and lives under crates/, or
    // the rule guards nothing.
    for name in PROTOCOL_CRATES.iter().chain(&UPPER_LAYERS).chain(&["obs"]) {
        assert!(deps.contains_key(*name), "{name} is not in Cargo.lock");
        let dir = packages.get(*name).map(String::as_str);
        assert_eq!(dir, Some(format!("crates/{name}").as_str()), "{name}");
    }
    // The matrix: protocol crates never reach an upper layer, and obs
    // reaches nothing under crates/.
    for protocol in PROTOCOL_CRATES {
        for upper in UPPER_LAYERS {
            assert!(
                !deps[protocol].iter().any(|d| d == upper),
                "{protocol} (protocol) depends on {upper} (upper layer)"
            );
        }
    }
    for dep in &deps["obs"] {
        let dir = packages.get(dep).map_or("", String::as_str);
        assert!(!dir.starts_with("crates/"), "obs depends on {dep} ({dir})");
    }
    // The other direction is there: the upper layers sit on the protocol
    // crates.
    assert!(deps["nodefinder"].iter().any(|d| d == "discv4"));
    assert_eq!(check_lock("Cargo.lock", &lock, &packages), []);
}
