//! Workspace-graph integration test: the graph built from the *real*
//! repository manifests has the members the layering rule (R10) names, and
//! none of their edges — dev edges included — points up.

use detlint::manifest::{parse_manifest, Manifest, WorkspaceGraph, PROTOCOL_CRATES, UPPER_LAYERS};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Read every Cargo.toml in the repository, as the scanner does.
fn collect_manifests(root: &Path, dir: &Path, out: &mut Vec<Manifest>) {
    for entry in fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .to_string();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || path.ends_with("detlint/fixtures") {
                continue;
            }
            collect_manifests(root, &path, out);
        } else if name == "Cargo.toml" {
            let rel = path.strip_prefix(root).expect("relative");
            let text = fs::read_to_string(&path).expect("read manifest");
            out.push(parse_manifest(
                &rel.to_string_lossy().replace('\\', "/"),
                &text,
            ));
        }
    }
}

#[test]
fn layering_matrix_matches_cargo_toml_reality() {
    let root = detlint::workspace_root();
    let mut manifests = Vec::new();
    collect_manifests(root, root, &mut manifests);
    let graph = WorkspaceGraph::from_manifests(&manifests);

    // The members are derived from the manifests read; every crate the rule
    // names must be among them, or the rule guards nothing.
    for name in PROTOCOL_CRATES.iter().chain(&UPPER_LAYERS).chain(&["obs"]) {
        let member = graph.crates.get(*name);
        let manifest = member.map(|m| m.manifest.as_str());
        let expected = format!("crates/{name}/Cargo.toml");
        assert_eq!(manifest, Some(expected.as_str()), "{name}");
    }
    // The matrix: protocol crates never reach an upper layer, and obs
    // reaches nothing under crates/.
    for protocol in PROTOCOL_CRATES {
        let targets: BTreeSet<&str> = graph.crates[protocol]
            .edges
            .iter()
            .map(|edge| edge.target.as_str())
            .collect();
        for upper in UPPER_LAYERS {
            assert!(
                !targets.contains(upper),
                "{protocol} (protocol) depends on {upper} (upper layer)"
            );
        }
    }
    for edge in &graph.crates["obs"].edges {
        let dir = edge.dir.as_deref().unwrap_or("");
        assert!(!dir.starts_with("crates/"), "obs depends on {edge:?}");
    }
    // The other direction resolves: the upper layers do sit on the protocol
    // crates, through `workspace = true` inheritance.
    let crawler = &graph.crates["nodefinder"].edges;
    assert!(
        crawler
            .iter()
            .any(|e| e.target == "discv4" && e.dir.as_deref() == Some("crates/discv4")),
        "{crawler:?}"
    );
    assert!(graph.layering_violations().is_empty());
}
