//! Cargo's resolved graph: the one lock-file reader, and the two rules
//! judged on what it yields — R6 (every package resolves inside the
//! repository) and R10 (layering) — over each `Cargo.lock` in the
//! repository. A manifest is read only for its `[package] name`, which says
//! which packages the repository itself provides.

use crate::rules::Rule;
use crate::scan::Violation;
use std::collections::BTreeMap;

/// Protocol-layer crates: pure byte-in/byte-out libraries that must be
/// hostable by any driver (rule R10).
pub const PROTOCOL_CRATES: [&str; 7] =
    ["rlp", "enode", "kad", "discv4", "rlpx", "devp2p", "ethwire"];

/// Upper layers the protocol crates must never reach (rule R10).
pub const UPPER_LAYERS: [&str; 3] = ["netsim", "nodefinder", "bench"];

/// The repository's packages: name → repo-relative directory (empty for
/// the root package).
pub type Packages = BTreeMap<String, String>;

/// One `[[package]]` entry of a lock file. Lines are 1-based.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockPackage {
    pub name: String,
    /// Line of the `name` key.
    pub line: usize,
    /// The `source` value and its line; absent for a path package.
    pub source: Option<(String, usize)>,
    /// Each `dependencies` entry's package name and line.
    pub dependencies: Vec<(String, usize)>,
}

/// The `[package] name` of a manifest; `None` for a virtual one.
pub fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if let (true, Some((key, value))) = (in_package, line.split_once('=')) {
            if key.trim() == "name" {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Read a lock file as cargo writes it: `[[package]]` tables of
/// `key = "value"` lines, whose `dependencies` array holds one quoted entry
/// per line. An entry is `"name"`, or `"name version"` (and a source in
/// parentheses) when the name alone is ambiguous; its first word is kept.
pub fn parse_lock(source: &str) -> Vec<LockPackage> {
    let mut packages = Vec::new();
    let mut current: Option<LockPackage> = None;
    let mut in_dependencies = false;
    for (line_no, line) in (1..).zip(source.lines().map(str::trim)) {
        if in_dependencies {
            in_dependencies = line != "]";
            let entry = line.trim_end_matches(',').trim_matches('"');
            if let (true, Some(name), Some(package)) = (
                in_dependencies,
                entry.split_whitespace().next(),
                current.as_mut(),
            ) {
                package.dependencies.push((name.to_string(), line_no));
            }
        } else if line.starts_with('[') {
            packages.extend(current.take());
            if line == "[[package]]" {
                current = Some(LockPackage::default());
            }
        } else if let (Some(package), Some((key, value))) = (current.as_mut(), line.split_once('='))
        {
            let value = value.trim().trim_matches('"');
            match key.trim() {
                "name" => (package.name, package.line) = (value.to_string(), line_no),
                "source" => package.source = Some((value.to_string(), line_no)),
                "dependencies" => in_dependencies = value == "[",
                _ => {}
            }
        }
    }
    packages.extend(current);
    packages
}

/// Rules R6 and R10 over one lock file at repo-relative `path`; `packages`
/// are the repository's own.
pub fn check_lock(path: &str, source: &str, packages: &Packages) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut push = |rule: Rule, code: &'static str, line: usize, message: String| {
        violations.push(Violation {
            rule,
            code,
            path: path.to_string(),
            line,
            message: format!("{message} (see --explain {rule})"),
        });
    };
    for package in parse_lock(source) {
        let name = package.name.as_str();
        match &package.source {
            Some((source, line)) => {
                let code = if source.starts_with("git+") {
                    "R6.git_dep"
                } else {
                    "R6.registry_dep"
                };
                let message =
                    format!("`{name}` resolves from `{source}`, not from this repository");
                push(Rule::R6, code, *line, message);
            }
            None if !packages.contains_key(name) => {
                let message = format!("path package `{name}` is not in this repository");
                push(Rule::R6, "R6.outside_repo", package.line, message);
            }
            None => {}
        }
        for (dep, line) in &package.dependencies {
            let under_crates = packages
                .get(dep)
                .is_some_and(|dir| dir.starts_with("crates/"));
            if PROTOCOL_CRATES.contains(&name) && UPPER_LAYERS.contains(&dep.as_str()) {
                let message = format!("protocol crate `{name}` depends on upper layer `{dep}`");
                push(Rule::R10, "R10.layer_dep", *line, message);
            } else if name == "obs" && under_crates {
                let message = format!("obs must depend on nothing in-workspace, found `{dep}`");
                push(Rule::R10, "R10.obs_dep", *line, message);
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_reader_keeps_names_sources_and_dependency_names() {
        let lock = "\
# This file is automatically @generated by Cargo.
# It is not intended for manual editing.
version = 4

[[package]]
name = \"leaf\"
version = \"0.1.0\"

[[package]]
name = \"serde\"
version = \"1.0.200\"
source = \"registry+https://github.com/rust-lang/crates.io-index\"
dependencies = [
 \"leaf\",
 \"serde_derive 1.0.200 (registry+https://github.com/rust-lang/crates.io-index)\",
]
";
        let got = parse_lock(lock);
        assert_eq!(got.len(), 2, "{got:?}");
        // No `dependencies` array: an empty list, not a missing package.
        assert_eq!((got[0].name.as_str(), got[0].line), ("leaf", 6));
        assert!(got[0].source.is_none() && got[0].dependencies.is_empty());
        let source = got[1].source.as_ref().map(|(s, line)| (s.as_str(), *line));
        assert_eq!(
            source,
            Some(("registry+https://github.com/rust-lang/crates.io-index", 12))
        );
        let deps: Vec<(&str, usize)> = got[1]
            .dependencies
            .iter()
            .map(|(name, line)| (name.as_str(), *line))
            .collect();
        assert_eq!(deps, [("leaf", 14), ("serde_derive", 15)]);
    }

    #[test]
    fn package_name_reads_only_the_package_table() {
        let manifest = "[workspace]\nname = \"no\"\n\n[package]\nversion = \"1\"\nname = \"rlp\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("rlp"));
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
