//! `Cargo.toml` manifests: the one reader, and the two rules judged on what
//! it yields — R6 (offline-approved dependency sources) on each declaration,
//! R10 (layering) on the workspace graph the declarations form.
//!
//! The reader is structural, not a TOML parser: it walks `[section]` headers
//! and `key = value` lines and yields one [`Dep`] per source-defining key
//! (`path`, `git`, `version`, `workspace`) of every dependency declaration —
//! inline table, dotted key or `[dependencies.NAME]` table alike — so a
//! declaration that names two sources is judged on both.

use crate::rules::Rule;
use crate::scan::Violation;
use std::collections::BTreeMap;

/// Registry-style dependency names that are approved because an offline
/// stand-in is vendored in-repo (rule R6).
const APPROVED_DEPS: [&str; 7] = [
    "rand",
    "proptest",
    "criterion",
    "bytes",
    "serde",
    "serde_derive",
    "serde_json",
];

/// Protocol-layer crates: pure byte-in/byte-out libraries that must be
/// hostable by any driver (rule R10).
pub const PROTOCOL_CRATES: [&str; 7] =
    ["rlp", "enode", "kad", "discv4", "rlpx", "devp2p", "ethwire"];

/// Upper layers the protocol crates must never reach (rule R10).
pub const UPPER_LAYERS: [&str; 3] = ["netsim", "nodefinder", "bench"];

/// Where a dependency declaration points.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DepSource {
    /// `path = "…"` as written, relative to the declaring manifest.
    Path(String),
    /// `workspace = true`: inherited from the root manifest's
    /// `[workspace.dependencies]` table.
    Workspace,
    /// A bare `"1.0"` string or a `version = …` key: a registry dependency.
    Registry,
    Git,
    /// An inline table that names no source at all.
    Unknown,
}

/// One source-defining key of one dependency declaration.
#[derive(Debug, Clone)]
struct Dep {
    name: String,
    /// 1-based line of the key in its `Cargo.toml`.
    line: usize,
    source: DepSource,
}

/// What the reader keeps of one `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Repo-relative path with `/` separators.
    path: String,
    /// `[package] name`; absent for a virtual manifest.
    package: Option<String>,
    /// Every `[…dependencies]` table, dev and build edges included.
    deps: Vec<Dep>,
    /// Entries of a `[workspace.dependencies]` table (root manifest only).
    workspace_deps: Vec<Dep>,
}

impl Manifest {
    /// Repo-relative directory (`crates/rlp`), empty for the root manifest.
    fn dir(&self) -> &str {
        self.path.rfind('/').map_or("", |idx| &self.path[..idx])
    }
}

/// Read one manifest. `path` must be its (would-be) repo-relative path,
/// since path dependencies resolve against it.
pub fn parse_manifest(path: &str, source: &str) -> Manifest {
    enum Section {
        Other,
        Package,
        /// `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`, …
        Deps,
        /// `[dependencies.NAME]` — keys on following lines describe NAME.
        SingleDep(String),
    }
    let mut section = Section::Other;
    let mut workspace_table = false;
    let mut manifest = Manifest {
        path: path.to_string(),
        package: None,
        deps: Vec::new(),
        workspace_deps: Vec::new(),
    };

    for (idx, raw_line) in source.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let name = line.trim_start_matches('[').trim_end_matches(']').trim();
            let (table, single) = match name.rsplit_once('.') {
                Some((head, dep)) if head.ends_with("dependencies") => (head, Some(dep)),
                _ => (name, None),
            };
            workspace_table = table.starts_with("workspace.");
            section = if name == "package" {
                Section::Package
            } else if !table.ends_with("dependencies") {
                Section::Other
            } else if let Some(dep) = single {
                Section::SingleDep(dep.trim_matches('"').to_string())
            } else {
                Section::Deps
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let mut push = |name: &str, source: DepSource| {
            let table = if workspace_table {
                &mut manifest.workspace_deps
            } else {
                &mut manifest.deps
            };
            table.push(Dep {
                name: name.trim_matches('"').to_string(),
                line: idx + 1,
                source,
            });
        };
        match &section {
            Section::Other => {}
            Section::Package => {
                if key == "name" {
                    manifest.package = Some(value.trim_matches('"').to_string());
                }
            }
            Section::Deps => match key.split_once('.') {
                // `name.workspace = true` / `name.path = "…"` dotted form.
                Some((name, sub_key)) => {
                    if let Some(source) = source_of(sub_key.trim(), value) {
                        push(name, source);
                    }
                }
                None if value.starts_with('{') => {
                    let body = value.trim_start_matches('{').trim_end_matches('}');
                    let mut sources = split_inline_table(body)
                        .into_iter()
                        .filter_map(|part| part.split_once('='))
                        .filter_map(|(k, v)| source_of(k.trim(), v.trim()))
                        .peekable();
                    if sources.peek().is_none() {
                        push(key, DepSource::Unknown);
                    }
                    for source in sources {
                        push(key, source);
                    }
                }
                // Bare version string.
                None => push(key, DepSource::Registry),
            },
            // version / features / optional / default-features keys of a
            // multi-line table: only the source-defining ones yield a Dep.
            Section::SingleDep(name) => {
                if let Some(source) = source_of(key, value) {
                    push(name, source);
                }
            }
        }
    }
    manifest
}

/// The source a `key = value` pair of a dependency declaration defines.
fn source_of(key: &str, value: &str) -> Option<DepSource> {
    match key {
        "workspace" => Some(DepSource::Workspace),
        "path" => Some(DepSource::Path(value.trim_matches('"').to_string())),
        "git" => Some(DepSource::Git),
        "version" => Some(DepSource::Registry),
        _ => None,
    }
}

/// Normalize `manifest_dir` + `rel` into a repo-relative directory, or the
/// R6 code and wording for how the path leaves the repository.
fn resolve_path(manifest_dir: &str, rel: &str) -> Result<String, (&'static str, &'static str)> {
    if rel.starts_with('/') || rel.chars().nth(1) == Some(':') {
        return Err(("R6.abs_path", "is absolute"));
    }
    let rel = rel.replace('\\', "/");
    let mut parts: Vec<&str> = Vec::new();
    for component in manifest_dir.split('/').chain(rel.split('/')) {
        match component {
            "" | "." => {}
            ".." => {
                if parts.pop().is_none() {
                    return Err(("R6.escaping_path", "escapes the repository"));
                }
            }
            other => parts.push(other),
        }
    }
    Ok(parts.join("/"))
}

/// Drop a trailing `# comment` from a TOML line (respecting quoted strings).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split an inline TOML table body on commas outside quotes/brackets.
fn split_inline_table(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut bracket_depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => bracket_depth += 1,
            ']' if !in_string => bracket_depth = bracket_depth.saturating_sub(1),
            ',' if !in_string && bracket_depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Rules R6 and R10 over a set of manifests: each declaration on its own,
/// then the layering of the graph they form.
pub(crate) fn check_manifests(manifests: &[Manifest]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for manifest in manifests {
        check_r6(manifest, &mut violations);
    }
    violations.extend(WorkspaceGraph::from_manifests(manifests).layering_violations());
    violations
}

/// Rule R6: every source of every declaration must resolve offline.
fn check_r6(manifest: &Manifest, violations: &mut Vec<Violation>) {
    for dep in manifest.deps.iter().chain(&manifest.workspace_deps) {
        let name = &dep.name;
        let (code, message) = match &dep.source {
            // Inherited from [workspace.dependencies], which is judged
            // where it is defined (the root manifest).
            DepSource::Workspace => continue,
            DepSource::Path(rel) => match resolve_path(manifest.dir(), rel) {
                Ok(_) => continue,
                Err((code, how)) => (code, format!("dependency `{name}` path `{rel}` {how}")),
            },
            DepSource::Git => (
                "R6.git_dep",
                format!("dependency `{name}` uses a git source (offline build)"),
            ),
            DepSource::Registry if APPROVED_DEPS.contains(&name.as_str()) => continue,
            DepSource::Registry => (
                "R6.registry_dep",
                format!("registry dependency `{name}` is not offline-approved"),
            ),
            DepSource::Unknown => (
                "R6.unknown_source",
                format!("dependency `{name}` has no recognizable source"),
            ),
        };
        violations.push(Violation {
            rule: Rule::R6,
            code,
            path: manifest.path.clone(),
            line: dep.line,
            message: format!("{message} (see --explain R6)"),
        });
    }
}

/// One dependency edge of a workspace member, resolved.
#[derive(Debug, Clone)]
pub struct Edge {
    /// 1-based line of the declaration in the member's manifest.
    pub line: usize,
    /// The package the edge reaches: the one whose manifest sits where a
    /// path dependency resolves to, otherwise the dependency's own name.
    pub target: String,
    /// Repo-relative directory of the target, when it is in the repository.
    pub dir: Option<String>,
}

/// One package of the repository.
#[derive(Debug, Clone)]
pub struct Member {
    /// Repo-relative manifest path.
    pub manifest: String,
    /// Dependency edges, dev- and build-dependencies included.
    pub edges: Vec<Edge>,
}

/// The crate-level dependency graph, built from the manifests read — the
/// members are whatever packages those manifests declare.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceGraph {
    /// Keyed by package name.
    pub crates: BTreeMap<String, Member>,
}

impl WorkspaceGraph {
    pub fn from_manifests(manifests: &[Manifest]) -> WorkspaceGraph {
        // Where each package lives, and where the root manifest's
        // `[workspace.dependencies]` table sends `workspace = true`.
        let mut package_at: BTreeMap<&str, &str> = BTreeMap::new();
        let mut dir_of: BTreeMap<&str, String> = BTreeMap::new();
        let mut inherited: BTreeMap<&str, String> = BTreeMap::new();
        for manifest in manifests {
            if let Some(name) = &manifest.package {
                package_at.insert(manifest.dir(), name);
                dir_of.insert(name, manifest.dir().to_string());
            }
            for dep in &manifest.workspace_deps {
                if let DepSource::Path(rel) = &dep.source {
                    if let Ok(dir) = resolve_path(manifest.dir(), rel) {
                        inherited.insert(&dep.name, dir);
                    }
                }
            }
        }
        let mut graph = WorkspaceGraph::default();
        for manifest in manifests {
            let Some(name) = &manifest.package else {
                continue;
            };
            let edges = manifest.deps.iter().map(|dep| {
                let name = dep.name.as_str();
                let dir = match &dep.source {
                    DepSource::Path(rel) => resolve_path(manifest.dir(), rel).ok(),
                    DepSource::Workspace => inherited.get(name).cloned(),
                    _ => None,
                }
                .or_else(|| dir_of.get(name).cloned());
                let target = dir.as_deref().and_then(|dir| package_at.get(dir).copied());
                Edge {
                    line: dep.line,
                    target: target.unwrap_or(name).to_string(),
                    dir,
                }
            });
            let member = Member {
                manifest: manifest.path.clone(),
                edges: edges.collect(),
            };
            graph.crates.insert(name.clone(), member);
        }
        graph
    }

    /// Rule R10: protocol crates must not depend on the upper layers, and
    /// obs must not depend on any package under `crates/`.
    pub fn layering_violations(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (name, member) in &self.crates {
            for edge in &member.edges {
                let target = edge.target.as_str();
                let in_crates = edge
                    .dir
                    .as_deref()
                    .is_some_and(|d| d.starts_with("crates/"));
                let (code, message) =
                    if PROTOCOL_CRATES.contains(&name.as_str()) && UPPER_LAYERS.contains(&target) {
                        (
                            "R10.layer_dep",
                            format!("protocol crate `{name}` depends on upper layer `{target}`"),
                        )
                    } else if name == "obs" && in_crates {
                        (
                            "R10.obs_dep",
                            format!("obs must depend on nothing in-workspace, found `{target}`"),
                        )
                    } else {
                        continue;
                    };
                violations.push(Violation {
                    rule: Rule::R10,
                    code,
                    path: member.manifest.clone(),
                    line: edge.line,
                    message: format!("{message} (see --explain R10)"),
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, source: &str) -> Vec<Violation> {
        check_manifests(&[parse_manifest(path, source)])
    }

    #[test]
    fn r6_rejects_git_and_unapproved_registry_deps() {
        let manifest = "\
[dependencies]
serde = { path = \"../../vendor/serde\", features = [\"derive\"] }
rand.workspace = true
left-pad = \"1\"
evil = { git = \"https://example.com/evil\" }
";
        let v = check("crates/x/Cargo.toml", manifest);
        let messages: Vec<&str> = v.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(v.len(), 2, "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("left-pad")));
        assert!(messages.iter().any(|m| m.contains("git source")));
    }

    #[test]
    fn r6_judges_every_source_a_declaration_names() {
        // The path is fine; the git key beside it is still a git source.
        let manifest = "[dependencies]\nboth = { path = \"../both\", git = \"https://x\" }\n";
        let v = check("crates/x/Cargo.toml", manifest);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].code, v[0].line), ("R6.git_dep", 2));
        // An inline table naming none is its own finding.
        let v = check(
            "crates/x/Cargo.toml",
            "[dependencies]\nnone = { optional = true }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].code, "R6.unknown_source");
    }

    #[test]
    fn r6_rejects_escaping_paths() {
        let manifest = "[dependencies]\nescape = { path = \"../../../elsewhere\" }\n";
        let v = check("crates/x/Cargo.toml", manifest);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("escapes the repository"));

        // In-repo relative paths are fine.
        let ok = "[dependencies]\nrlp = { path = \"../rlp\" }\n";
        let v = check("crates/x/Cargo.toml", ok);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r6_handles_multiline_dep_tables() {
        let manifest = "[dependencies.badcrate]\nfeatures = [\"x\"]\nversion = \"3\"\n";
        let v = check("crates/x/Cargo.toml", manifest);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("badcrate"));
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn toml_comment_stripping_respects_strings() {
        assert_eq!(strip_comment("a = \"x#y\" # real comment"), "a = \"x#y\" ");
        assert_eq!(strip_comment("plain = 1"), "plain = 1");
    }

    const ROOT: &str = "\
[workspace]
members = [\"crates/*\"]

[workspace.dependencies]
rand = { path = \"vendor/rand\" }
netsim = { path = \"crates/netsim\" }

[package]
name = \"root-pkg\"

[dependencies]
rlp = { path = \"crates/rlp\" }
";

    fn graph_with(member_path: &str, member: &str) -> WorkspaceGraph {
        let netsim = "[package]\nname = \"netsim\"\n";
        WorkspaceGraph::from_manifests(&[
            parse_manifest("Cargo.toml", ROOT),
            parse_manifest("crates/netsim/Cargo.toml", netsim),
            parse_manifest(member_path, member),
        ])
    }

    #[test]
    fn edges_resolve_paths_and_workspace_inheritance() {
        let rlp = "\
[package]
name = \"rlp\"

[dependencies]
bytes = { path = \"../../vendor/bytes\" }
rand.workspace = true
";
        let graph = graph_with("crates/rlp/Cargo.toml", rlp);
        let edges = &graph.crates["rlp"].edges;
        assert_eq!(edges[0].dir.as_deref(), Some("vendor/bytes"));
        assert_eq!(edges[1].dir.as_deref(), Some("vendor/rand"));
        // root-pkg's path dep on crates/rlp reaches the package declared there.
        assert_eq!(graph.crates["root-pkg"].edges[0].target, "rlp");
        assert!(graph.layering_violations().is_empty());
    }

    #[test]
    fn layering_flags_protocol_to_upper_edges_dev_edges_included() {
        let rlp = "\
[package]
name = \"rlp\"

[dev-dependencies]
netsim.workspace = true
sim = { path = \"../netsim\" }
";
        let violations = graph_with("crates/rlp/Cargo.toml", rlp).layering_violations();
        let got: Vec<(&str, &str, usize)> = violations
            .iter()
            .map(|v| (v.code, v.path.as_str(), v.line))
            .collect();
        let manifest = "crates/rlp/Cargo.toml";
        assert_eq!(
            got,
            [
                ("R10.layer_dep", manifest, 5),
                ("R10.layer_dep", manifest, 6)
            ]
        );
    }

    #[test]
    fn obs_must_not_depend_in_workspace() {
        let obs = "\
[package]
name = \"obs\"

[dependencies]
netsim.workspace = true
rand.workspace = true
";
        let violations = graph_with("crates/obs/Cargo.toml", obs).layering_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].code, "R10.obs_dep");
        assert_eq!(violations[0].line, 5);
    }
}
