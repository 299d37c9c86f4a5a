//! Golden-vector suite: every checked-in vector must decode to the
//! expected value, and the expected value must re-encode to the canonical
//! bytes.
//!
//! Regenerate the files after an intentional wire change with
//!
//! ```text
//! CONFORMANCE_BLESS=1 cargo test -p conformance --test golden
//! ```
//!
//! and review the diff — the vector files ARE the wire-format spec of
//! record for this repo.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use conformance::{diff_bytes, load_vectors, render_vectors};
use conformance::{layers, Layer};
use std::path::PathBuf;

fn vector_path(layer: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("vectors")
        .join(format!("{layer}.txt"))
}

fn bless_requested() -> bool {
    std::env::var("CONFORMANCE_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn run_layer(layer: &Layer) {
    let cases = (layer.build)();
    assert!(!cases.is_empty(), "{}: empty case registry", layer.name);

    // Case names must be unique: they key the vector file.
    let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        cases.len(),
        "{}: duplicate case names",
        layer.name
    );

    let path = vector_path(layer.name);
    if bless_requested() {
        let entries: Vec<(String, Vec<u8>, Vec<u8>)> = cases
            .iter()
            .map(|c| {
                let built = (c.build)();
                (c.name.to_string(), built.wire, built.canonical)
            })
            .collect();
        let text = render_vectors(layer.header, &entries);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed {} ({} vectors)", path.display(), entries.len());
        return;
    }

    let on_disk = load_vectors(&path).unwrap_or_else(|e| {
        panic!(
            "{e}\nhint: run `CONFORMANCE_BLESS=1 cargo test -p conformance --test golden` \
             to (re)generate the vector files, then review the diff"
        )
    });

    // No stale vectors: the file and the registry must list the same cases.
    let registry: Vec<&str> = cases.iter().map(|c| c.name).collect();
    for name in on_disk.keys() {
        assert!(
            registry.contains(&name.as_str()),
            "{}: vector {name:?} on disk has no registered case (stale? re-bless)",
            layer.name
        );
    }

    let mut failures = Vec::new();
    for case in &cases {
        let built = (case.build)();
        let Some(v) = on_disk.get(case.name) else {
            failures.push(format!(
                "{}/{}: missing from {} (re-bless)",
                layer.name,
                case.name,
                path.display()
            ));
            continue;
        };
        // The checked-in wire bytes are authoritative: the builder must
        // reproduce them...
        let d = diff_bytes(
            &format!("{}/{} wire", layer.name, case.name),
            &v.wire,
            &built.wire,
        );
        if !d.is_empty() {
            failures.push(d);
            continue;
        }
        let d = diff_bytes(
            &format!("{}/{} canonical", layer.name, case.name),
            &v.canonical,
            &built.canonical,
        );
        if !d.is_empty() {
            failures.push(d);
            continue;
        }
        // ...and both forms must decode to the expected value.
        if let Err(e) = (built.check)(&v.wire) {
            failures.push(format!("{}/{} wire decode: {e}", layer.name, case.name));
        }
        if let Err(e) = (built.check)(&v.canonical) {
            failures.push(format!(
                "{}/{} canonical decode: {e}",
                layer.name, case.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn rlp_golden() {
    run_layer(&layers().remove(0));
}

#[test]
fn discv4_golden() {
    run_layer(&layers().remove(1));
}

#[test]
fn rlpx_golden() {
    run_layer(&layers().remove(2));
}

#[test]
fn devp2p_golden() {
    run_layer(&layers().remove(3));
}

/// The acceptance floor from the conformance subsystem's design: at least
/// 40 vectors across the four layers, with every layer represented.
#[test]
fn vector_census() {
    if bless_requested() {
        return;
    }
    let mut total = 0usize;
    for layer in layers() {
        let n = load_vectors(&vector_path(layer.name))
            .map(|m| m.len())
            .unwrap_or(0);
        assert!(n > 0, "layer {} has no checked-in vectors", layer.name);
        total += n;
    }
    assert!(total >= 40, "only {total} vectors checked in; floor is 40");
}
