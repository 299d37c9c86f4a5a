//! The workspace scanner: walks every `.rs` and `Cargo.toml` under the
//! repository root and applies the rules.
//!
//! R1–R7 are token rules evaluated directly here; R8 and R9 are semantic
//! rules evaluated in [`crate::semantic`] over the item table each file
//! parse produces; R6 and R10 are judged in [`crate::manifest`] on what the
//! one manifest reader yields.

use crate::lexer::{self, LineComment};
use crate::manifest;
use crate::parser;
use crate::rules::Rule;
use crate::semantic;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Files (by repo-relative prefix) where R1 wall-clock reads are sanctioned.
/// `obs::profile` is the self-profiler's wall-clock quarantine: the ONLY
/// first-party file allowed to read `Instant`. Its readings feed a side
/// table exported to `results/obs_profile.json` and never reach sim state
/// (`tests/observability.rs` proves byte-identical outputs with the
/// profiler on vs off). The allowlist is checked before the no-escape
/// ban below, so this entry punches a deliberate, single-file hole in it.
const R1_ALLOWLIST: [&str; 2] = ["vendor/criterion/", "crates/obs/src/profile.rs"];

/// Paths where R1 is a hard ban: the `allow(R1)` escape hatch is not
/// honored and the annotation itself is a violation. The observability
/// layer stamps every trace record with sim-time; a single wall-clock
/// read there would silently break byte-identical trace replay.
const R1_NO_ESCAPE: [&str; 1] = ["crates/obs/"];

/// Crates whose `src/` must be panic-free (rule R5): they decode bytes that
/// arrive from arbitrary remote peers.
const R5_SCOPE: [&str; 5] = [
    "crates/rlp/src/",
    "crates/discv4/src/",
    "crates/rlpx/src/",
    "crates/devp2p/src/",
    "crates/ethwire/src/",
];

/// Crates whose `src/` decoders fall under the EIP-8 lenient-decode policy
/// (rule R7): strict trailing-data rejection there must be justified. Same
/// crates as R5 plus enode, whose Endpoint/NodeRecord decoders are nested
/// inside every discv4 packet.
const R7_SCOPE: [&str; 6] = [
    "crates/rlp/src/",
    "crates/discv4/src/",
    "crates/rlpx/src/",
    "crates/devp2p/src/",
    "crates/ethwire/src/",
    "crates/enode/src/",
];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 2] = ["target", ".git"];

/// Repo-relative directory prefixes never scanned: detlint's own fixture
/// corpus deliberately violates every rule and must not contaminate the
/// workspace verdict.
const SKIP_PREFIXES: [&str; 1] = ["crates/detlint/fixtures"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub rule: Rule,
    /// Stable diagnostic code (`R8.static_mut`): the identity the fixture
    /// expectations are written in.
    pub code: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {} [{}]",
            self.rule, self.path, self.line, self.message, self.code
        )
    }
}

/// One honoured escape-hatch annotation: well-formed, justified, and for a
/// rule that has an escape hatch where it stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// The annotation form, normalized: `allow(R5)`, `order-insensitive`,
    /// `conformance: strict`.
    pub form: String,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
}

/// A workspace scan: the verdict, and the census of what was waved through.
#[derive(Debug, Clone, Default)]
pub struct Scan {
    /// All violations, sorted.
    pub violations: Vec<Violation>,
    /// Every honoured escape-hatch annotation, in path then line order.
    pub escapes: Vec<Escape>,
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Scan> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();

    let mut scan = Scan::default();
    let mut manifests = Vec::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if SKIP_PREFIXES
            .iter()
            .any(|prefix| rel_str.starts_with(prefix))
        {
            continue;
        }
        let source = fs::read_to_string(root.join(rel))?;
        if rel_str.ends_with("Cargo.toml") {
            manifests.push(manifest::parse_manifest(&rel_str, &source));
            continue;
        }
        check_rust_file(&rel_str, &source, &mut scan);
        if rel_str.ends_with("src/lib.rs") {
            check_forbid_header(&rel_str, &source, &mut scan.violations);
        }
    }
    scan.violations
        .extend(manifest::check_manifests(&manifests));
    // A declaration naming two sources is two edges to one target; R10
    // says so once.
    scan.violations.sort();
    scan.violations.dedup();
    Ok(scan)
}

/// Scan a single Rust source as the fixture harness does. `path` scopes
/// the path-sensitive rules exactly as in a workspace scan.
pub fn scan_rust_source(path: &str, source: &str) -> Vec<Violation> {
    let mut scan = Scan::default();
    check_rust_file(path, source, &mut scan);
    scan.violations.sort();
    scan.violations
}

/// Scan a single manifest source (rules R6 and R10). `path` must be the
/// manifest's would-be repo-relative path, since path deps resolve against
/// it and R10 keys on the package it declares.
pub fn scan_manifest_source(path: &str, source: &str) -> Vec<Violation> {
    let mut violations = manifest::check_manifests(&[manifest::parse_manifest(path, source)]);
    violations.sort();
    violations
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

/// Per-line allowances parsed from `// detlint:` comments. An annotation
/// applies to its own line (trailing form) and the next line (preceding
/// form).
#[derive(Debug)]
pub struct Allowances {
    by_line: BTreeMap<usize, BTreeSet<Rule>>,
}

impl Allowances {
    pub fn allows(&self, line: usize, rule: Rule) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|set| set.contains(&rule))
    }
}

fn parse_annotations(path: &str, comments: &[LineComment], scan: &mut Scan) -> Allowances {
    let Scan {
        violations,
        escapes,
    } = scan;
    let mut by_line: BTreeMap<usize, BTreeSet<Rule>> = BTreeMap::new();
    let mut honour = |rule: Rule, form: String, line: usize| {
        for covered in [line, line + 1] {
            by_line.entry(covered).or_default().insert(rule);
        }
        escapes.push(Escape {
            form,
            path: path.to_string(),
            line,
        });
    };
    for comment in comments {
        let body = comment.text.trim_start_matches('/').trim();
        // `// conformance: strict -- <why>` is R7's dedicated escape hatch:
        // it both suppresses the finding and documents the policy decision.
        if let Some(directive) = body.strip_prefix("conformance:") {
            let directive = directive.trim();
            let (spec, reason) = match directive.split_once("--") {
                Some((spec, reason)) => (spec.trim(), reason.trim()),
                None => (directive, ""),
            };
            if spec != "strict" {
                violations.push(Violation {
                    rule: Rule::R7,
                    code: "R7.annotation",
                    path: path.to_string(),
                    line: comment.line,
                    message: format!(
                        "unrecognized conformance annotation `{directive}` \
                         (expected `strict -- <why>`)"
                    ),
                });
            } else if reason.is_empty() {
                violations.push(Violation {
                    rule: Rule::R7,
                    code: "R7.annotation",
                    path: path.to_string(),
                    line: comment.line,
                    message: "conformance annotation without a justification \
                              (append ` -- <why>`)"
                        .to_string(),
                });
            } else {
                honour(Rule::R7, "conformance: strict".to_string(), comment.line);
            }
            continue;
        }
        let Some(directive) = body.strip_prefix("detlint:") else {
            continue;
        };
        let directive = directive.trim();
        let (spec, reason) = match directive.split_once("--") {
            Some((spec, reason)) => (spec.trim(), reason.trim()),
            None => (directive, ""),
        };
        let parsed = if spec == "order-insensitive" {
            Some((Rule::R3, spec.to_string()))
        } else {
            spec.strip_prefix("allow(")
                .and_then(|rest| rest.strip_suffix(')'))
                .and_then(Rule::parse)
                .map(|rule| (rule, format!("allow({rule})")))
        };
        let Some((rule, form)) = parsed else {
            violations.push(Violation {
                rule: Rule::R3,
                code: "R3.annotation",
                path: path.to_string(),
                line: comment.line,
                message: format!(
                    "unrecognized detlint annotation `{directive}` (expected \
                     `order-insensitive -- <why>` or `allow(Rn) -- <why>`)"
                ),
            });
            continue;
        };
        // R4 (memory safety), R6 (offline build) and R10 (layering) have no
        // per-site escape: they are architectural, not judgment calls.
        if rule == Rule::R4 || rule == Rule::R6 || rule == Rule::R10 {
            violations.push(Violation {
                rule,
                code: rule.info().annotation_code,
                path: path.to_string(),
                line: comment.line,
                message: format!("rule {rule} has no annotation escape hatch"),
            });
            continue;
        }
        if rule == Rule::R1 && R1_NO_ESCAPE.iter().any(|prefix| path.starts_with(prefix)) {
            violations.push(Violation {
                rule,
                code: "R1.no_escape",
                path: path.to_string(),
                line: comment.line,
                message: "rule R1 has no annotation escape hatch under crates/obs/ \
                          (trace records are sim-time-stamped by contract)"
                    .to_string(),
            });
            continue;
        }
        if reason.is_empty() {
            violations.push(Violation {
                rule,
                code: rule.info().annotation_code,
                path: path.to_string(),
                line: comment.line,
                message: "detlint annotation without a justification \
                          (append ` -- <why>`)"
                    .to_string(),
            });
            continue;
        }
        honour(rule, form, comment.line);
    }
    Allowances { by_line }
}

// ---------------------------------------------------------------------------
// Rust-file checks (R1–R5)
// ---------------------------------------------------------------------------

/// An identifier token in the masked code.
struct Token {
    word: String,
    line: usize,
    /// Char indices into the masked text.
    start: usize,
    end: usize,
}

fn tokenize(masked: &[char]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < masked.len() {
        let c = masked[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < masked.len() && (masked[i].is_alphanumeric() || masked[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                word: masked[start..i].iter().collect(),
                line,
                start,
                end: i,
            });
        } else {
            i += 1;
        }
    }
    tokens
}

fn next_nonspace(masked: &[char], mut i: usize) -> Option<char> {
    while i < masked.len() {
        let c = masked[i];
        if !c.is_whitespace() {
            return Some(c);
        }
        i += 1;
    }
    None
}

fn prev_nonspace(masked: &[char], start: usize) -> Option<char> {
    masked[..start]
        .iter()
        .rev()
        .find(|c| !c.is_whitespace())
        .copied()
}

/// True if the chars immediately before `start` (ignoring whitespace) spell
/// `suffix`, e.g. `suffix = "rand::"`.
fn preceded_by(masked: &[char], start: usize, suffix: &str) -> bool {
    let mut want = suffix.chars().rev();
    let mut i = start;
    let mut current = want.next();
    while let Some(expected) = current {
        if i == 0 {
            return false;
        }
        i -= 1;
        let c = masked[i];
        if c.is_whitespace() {
            continue;
        }
        if c != expected {
            return false;
        }
        current = want.next();
    }
    true
}

/// True if a `!=` operator appears between `from` and the end of its line.
fn neq_on_rest_of_line(masked: &[char], from: usize) -> bool {
    let mut i = from;
    while i < masked.len() && masked[i] != '\n' {
        if masked[i] == '!' && masked.get(i + 1) == Some(&'=') {
            return true;
        }
        i += 1;
    }
    false
}

fn check_rust_file(path: &str, source: &str, scan: &mut Scan) {
    let masked_file = lexer::mask(source);
    let masked: Vec<char> = masked_file.code.chars().collect();
    let allowances = parse_annotations(path, &masked_file.line_comments, scan);
    let violations = &mut scan.violations;
    let tokens = tokenize(&masked);
    let test_regions = find_test_regions(&masked);
    let in_test_region = |pos: usize| {
        test_regions
            .iter()
            .any(|&(start, end)| pos >= start && pos < end)
    };
    let r1_allowlisted = R1_ALLOWLIST.iter().any(|prefix| path.starts_with(prefix));
    let r1_no_escape = R1_NO_ESCAPE.iter().any(|prefix| path.starts_with(prefix));
    let r5_in_scope = R5_SCOPE.iter().any(|prefix| path.starts_with(prefix));
    let r7_in_scope = R7_SCOPE.iter().any(|prefix| path.starts_with(prefix));

    let mut push = |rule: Rule, code: &'static str, line: usize, message: String| {
        violations.push(Violation {
            rule,
            code,
            path: path.to_string(),
            line,
            message,
        });
    };

    for token in &tokens {
        match token.word.as_str() {
            "Instant" | "SystemTime"
                if !r1_allowlisted
                    && (r1_no_escape || !allowances.allows(token.line, Rule::R1)) =>
            {
                push(
                    Rule::R1,
                    "R1.wall_clock",
                    token.line,
                    format!(
                        "wall-clock type `{}` (simulation time must come from the \
                         virtual clock; see --explain R1)",
                        token.word
                    ),
                );
            }
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom"
                if !allowances.allows(token.line, Rule::R2) =>
            {
                push(
                    Rule::R2,
                    "R2.ambient_entropy",
                    token.line,
                    format!(
                        "ambient entropy source `{}` (all randomness must flow from \
                         the experiment seed; see --explain R2)",
                        token.word
                    ),
                );
            }
            "random"
                if preceded_by(&masked, token.start, "rand::")
                    && !allowances.allows(token.line, Rule::R2) =>
            {
                push(
                    Rule::R2,
                    "R2.ambient_entropy",
                    token.line,
                    "ambient entropy source `rand::random` (see --explain R2)".to_string(),
                );
            }
            "HashMap" | "HashSet" if !allowances.allows(token.line, Rule::R3) => {
                push(
                    Rule::R3,
                    "R3.hash_collection",
                    token.line,
                    format!(
                        "`{}` has randomized iteration order; use BTreeMap/BTreeSet \
                         or justify with `// detlint: order-insensitive -- <why>`",
                        token.word
                    ),
                );
            }
            "unsafe" => {
                push(
                    Rule::R4,
                    "R4.unsafe_code",
                    token.line,
                    "`unsafe` is banned workspace-wide (see --explain R4)".to_string(),
                );
            }
            "unwrap" | "expect"
                if r5_in_scope
                    && !in_test_region(token.start)
                    && prev_nonspace(&masked, token.start) == Some('.')
                    && next_nonspace(&masked, token.end) == Some('(')
                    && !allowances.allows(token.line, Rule::R5) =>
            {
                push(
                    Rule::R5,
                    "R5.panic_escape",
                    token.line,
                    format!(
                        "`.{}()` in attacker-facing decode path; return Result \
                         instead (see --explain R5)",
                        token.word
                    ),
                );
            }
            "ensure_exact"
                if r7_in_scope
                    && !in_test_region(token.start)
                    && !allowances.allows(token.line, Rule::R7) =>
            {
                push(
                    Rule::R7,
                    "R7.ensure_exact",
                    token.line,
                    "`ensure_exact` rejects trailing data; EIP-8 policy is \
                     tolerate-and-count — justify with `// conformance: strict \
                     -- <why>` (see --explain R7)"
                        .to_string(),
                );
            }
            // Constructing the strict error imposes the policy; a match arm
            // (`TrailingBytes =>`) or variant declaration (no leading `::`)
            // merely handles or defines it.
            "TrailingBytes"
                if r7_in_scope
                    && !in_test_region(token.start)
                    && preceded_by(&masked, token.start, "::")
                    && next_nonspace(&masked, token.end) != Some('=')
                    && !allowances.allows(token.line, Rule::R7) =>
            {
                push(
                    Rule::R7,
                    "R7.trailing_bytes",
                    token.line,
                    "constructing `TrailingBytes` hard-rejects trailing data; \
                     justify with `// conformance: strict -- <why>` \
                     (see --explain R7)"
                        .to_string(),
                );
            }
            "item_count"
                if r7_in_scope
                    && !in_test_region(token.start)
                    && neq_on_rest_of_line(&masked, token.end)
                    && !allowances.allows(token.line, Rule::R7) =>
            {
                push(
                    Rule::R7,
                    "R7.item_count",
                    token.line,
                    "exact `item_count` check (`!=`) rejects EIP-8 extra list \
                     elements; use a `<` reject / `>` tolerate-and-count split, \
                     or justify with `// conformance: strict -- <why>` \
                     (see --explain R7)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    // Item-level pass: parse the file once and run the semantic rules.
    let (toks, table) = parser::parse(&masked);
    semantic::check_r8(path, &table, &allowances, &in_test_region, violations);
    semantic::check_r9(
        path,
        &table,
        &toks,
        &allowances,
        &in_test_region,
        violations,
    );
}

/// Whitespace-tolerant match of `pattern` (which must not itself contain
/// whitespace) in `masked` starting at `from`. Returns the char index just
/// past the match.
fn match_pattern(masked: &[char], from: usize, pattern: &str) -> Option<usize> {
    let mut i = from;
    for expected in pattern.chars() {
        while i < masked.len() && masked[i].is_whitespace() {
            i += 1;
        }
        if i >= masked.len() || masked[i] != expected {
            return None;
        }
        i += 1;
    }
    Some(i)
}

/// Char ranges covered by `#[cfg(test)]` items and `#[test]` functions: the
/// attribute's following brace-delimited block.
fn find_test_regions(masked: &[char]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for (i, &c) in masked.iter().enumerate() {
        if c != '#' {
            continue;
        }
        let matched = match_pattern(masked, i, "#[cfg(test)]")
            .or_else(|| match_pattern(masked, i, "#[test]"));
        if let Some(after) = matched {
            if let Some(region) = brace_block(masked, after) {
                regions.push(region);
            }
        }
    }
    regions
}

/// From `from`, find the next `{` and return the char range through its
/// matching `}` (inclusive).
fn brace_block(masked: &[char], from: usize) -> Option<(usize, usize)> {
    let open = (from..masked.len()).find(|&i| masked[i] == '{')?;
    let mut depth = 0usize;
    for (i, &c) in masked.iter().enumerate().skip(open) {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Rule R4's second half: every crate root must carry the forbid header.
fn check_forbid_header(path: &str, source: &str, violations: &mut Vec<Violation>) {
    let masked_file = lexer::mask(source);
    let masked: Vec<char> = masked_file.code.chars().collect();
    let found = masked
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == '#')
        .any(|(i, _)| match_pattern(&masked, i, "#![forbid(unsafe_code)]").is_some());
    if !found {
        violations.push(Violation {
            rule: Rule::R4,
            code: "R4.missing_forbid",
            path: path.to_string(),
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]` (see --explain R4)".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_source(path: &str, source: &str) -> Vec<Violation> {
        scan_rust_source(path, source)
    }

    #[test]
    fn r3_flags_hash_collections() {
        let v = scan_source("crates/x/src/a.rs", "use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R3);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn r3_annotation_suppresses_with_reason() {
        let src = "\
// detlint: order-insensitive -- only probed by key, never iterated
use std::collections::HashMap;
";
        assert!(scan_source("a.rs", src).is_empty());
        let trailing = "let m: HashMap<u8, u8> = x; // detlint: order-insensitive -- probe only\n";
        assert!(scan_source("a.rs", trailing).is_empty());
    }

    #[test]
    fn r3_annotation_without_reason_is_itself_a_violation() {
        let src = "// detlint: order-insensitive\nuse std::collections::HashMap;\n";
        let v = scan_source("a.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .any(|x| x.message.contains("without a justification")));
    }

    #[test]
    fn annotations_survive_crlf_tabs_and_eof() {
        // CRLF: the \r must not end up inside the justification.
        let crlf =
            "// detlint: order-insensitive -- probe only\r\nuse std::collections::HashMap;\r\n";
        assert!(scan_source("a.rs", crlf).is_empty(), "CRLF annotation");
        // Tab / leading-whitespace indentation.
        let tabbed =
            "\t// detlint: order-insensitive -- probe only\n\tuse std::collections::HashMap;\n";
        assert!(scan_source("a.rs", tabbed).is_empty(), "tabbed annotation");
        // Trailing annotation on the file's unterminated last line.
        let eof = "use std::collections::HashMap; // detlint: order-insensitive -- probe only";
        assert!(scan_source("a.rs", eof).is_empty(), "EOF annotation");
        // CRLF conformance variant too (different directive parser arm).
        let conf = "// conformance: strict -- whole-buffer by contract\r\nfn f(r: &Rlp<'_>) { r.ensure_exact().ok(); }\r\n";
        assert!(
            scan_source("crates/rlp/src/lib.rs", conf).is_empty(),
            "CRLF conformance annotation"
        );
    }

    #[test]
    fn r3_ignores_strings_and_comments() {
        let src = "let s = \"HashMap\"; // HashMap in a comment\n/* HashMap */\n";
        assert!(scan_source("a.rs", src).is_empty());
    }

    #[test]
    fn r1_flags_wall_clock_outside_allowlist() {
        let src = "let t = std::time::Instant::now();\n";
        let v = scan_source("crates/netsim/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R1);
        assert!(scan_source("vendor/criterion/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r1_profile_module_is_the_only_obs_quarantine() {
        // The self-profiler file is sanctioned — the allowlist entry wins
        // over the crates/obs/ hard ban …
        let src = "let t = std::time::Instant::now();\n";
        assert!(scan_source("crates/obs/src/profile.rs", src).is_empty());
        // … but every other obs file stays hard-banned.
        for path in [
            "crates/obs/src/lib.rs",
            "crates/obs/src/trace.rs",
            "crates/obs/src/bin/obsctl.rs",
        ] {
            let v = scan_source(path, src);
            assert_eq!(v.len(), 1, "{path} should flag: {v:?}");
            assert_eq!(v[0].rule, Rule::R1);
        }
    }

    #[test]
    fn r1_hard_ban_under_obs_ignores_annotation() {
        let src = "\
// detlint: allow(R1) -- trying to sneak wall clock into the tracer
let t = std::time::Instant::now();
";
        let v = scan_source("crates/obs/src/lib.rs", src);
        // Both the annotation itself and the wall-clock read are flagged.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::R1));
        assert!(v.iter().any(|x| x
            .message
            .contains("no annotation escape hatch under crates/obs/")));
        assert!(v.iter().any(|x| x.message.contains("wall-clock type")));
        // The same source outside crates/obs/ is clean: the annotation works.
        assert!(scan_source("crates/netsim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_ambient_entropy() {
        let v = scan_source("a.rs", "let mut rng = rand::thread_rng();\n");
        assert_eq!(v[0].rule, Rule::R2);
        let v = scan_source("a.rs", "let x: u8 = rand::random();\n");
        assert_eq!(v[0].rule, Rule::R2);
        // `random` as a plain identifier is fine.
        assert!(scan_source("a.rs", "let random = 4;\n").is_empty());
    }

    #[test]
    fn r4_flags_unsafe_keyword() {
        let v = scan_source("a.rs", "let p = unsafe { *ptr };\n");
        assert_eq!(v[0].rule, Rule::R4);
        // ...but not the string or the lint name.
        assert!(scan_source("a.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn r5_flags_unwrap_only_in_scope_and_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(scan_source("crates/rlp/src/decode.rs", src).len(), 1);
        assert!(scan_source("crates/netsim/src/engine.rs", src).is_empty());
        assert!(scan_source("crates/rlp/tests/decode.rs", src).is_empty());

        let test_mod = "\
fn decode(x: Option<u8>) -> Option<u8> { x }

#[cfg(test)]
mod tests {
    fn helper(x: Option<u8>) -> u8 { x.unwrap() }
}
";
        assert!(scan_source("crates/rlp/src/decode.rs", test_mod).is_empty());

        let test_fn = "#[test]\nfn t() { Some(1u8).unwrap(); }\n";
        assert!(scan_source("crates/rlp/src/decode.rs", test_fn).is_empty());
    }

    #[test]
    fn r5_allows_with_annotation() {
        let src = "\
fn f(x: [u8; 4]) -> u32 {
    // detlint: allow(R5) -- slice is exactly 4 bytes by construction
    u32::from_be_bytes(x[..4].try_into().unwrap())
}
";
        assert!(scan_source("crates/rlp/src/decode.rs", src).is_empty());
    }

    #[test]
    fn r7_flags_strict_decode_only_in_scope_and_outside_tests() {
        let src = "fn f(b: &[u8]) { let r = Rlp::new(b); r.ensure_exact().ok(); }\n";
        let v = scan_source("crates/devp2p/src/messages.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::R7);
        // Out of scope (netsim, tests dir) and inside test regions: clean.
        assert!(scan_source("crates/netsim/src/engine.rs", src).is_empty());
        assert!(scan_source("crates/devp2p/tests/wire.rs", src).is_empty());
        let test_fn = "#[test]\nfn t() { Rlp::new(b\"x\").ensure_exact().ok(); }\n";
        assert!(scan_source("crates/devp2p/src/messages.rs", test_fn).is_empty());
    }

    #[test]
    fn r7_conformance_annotation_suppresses_with_reason() {
        let src = "\
// conformance: strict -- one-shot decode is whole-buffer by contract
fn f(r: &Rlp<'_>) { r.ensure_exact().ok(); }
";
        assert!(scan_source("crates/rlp/src/lib.rs", src).is_empty());
        let trailing =
            "fn f(r: &Rlp<'_>) { r.ensure_exact().ok(); } // conformance: strict -- contract\n";
        assert!(scan_source("crates/rlp/src/lib.rs", trailing).is_empty());
    }

    #[test]
    fn r7_annotation_without_reason_or_unknown_spec_is_itself_a_violation() {
        let src = "// conformance: strict\nfn f(r: &Rlp<'_>) { r.ensure_exact().ok(); }\n";
        let v = scan_source("crates/rlp/src/lib.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .any(|x| x.message.contains("without a justification")));

        let v = scan_source("a.rs", "// conformance: lenient -- nope\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unrecognized conformance annotation"));
    }

    #[test]
    fn r7_flags_trailing_bytes_construction_but_not_handling() {
        let construct = "fn f() -> Result<(), RlpError> { Err(RlpError::TrailingBytes) }\n";
        let v = scan_source("crates/rlp/src/decode.rs", construct);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("TrailingBytes"));

        // Match arms inspect the error; the enum declares it. Neither
        // imposes strictness.
        let handle =
            "fn g(e: &RlpError) -> u8 { match e { RlpError::TrailingBytes => 1, _ => 0 } }\n";
        assert!(scan_source("crates/rlp/src/decode.rs", handle).is_empty());
        let declare = "enum RlpError { TrailingBytes, Other }\n";
        assert!(scan_source("crates/rlp/src/error.rs", declare).is_empty());
    }

    #[test]
    fn r7_flags_exact_item_count_check_but_not_range_split() {
        let strict = "fn f(r: &Rlp<'_>) -> bool { r.item_count().unwrap_or(0) != 4 }\n";
        let v = scan_source("crates/enode/src/record.rs", strict);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::R7);

        let lenient = "fn f(r: &Rlp<'_>) -> bool { r.item_count().unwrap_or(0) < 4 }\n";
        assert!(scan_source("crates/enode/src/record.rs", lenient).is_empty());
    }

    #[test]
    fn forbid_header_required_in_lib_roots() {
        let mut v = Vec::new();
        check_forbid_header("crates/x/src/lib.rs", "pub fn f() {}\n", &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R4);

        let mut v = Vec::new();
        check_forbid_header(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
            &mut v,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn census_counts_honoured_annotations_only() {
        let src = "\
// detlint: order-insensitive -- probe only
use std::collections::HashMap;
// detlint: allow(r5) -- exact slice
// detlint: allow(R5)
// conformance: strict -- contract
// detlint: allow(R4) -- no such hatch
";
        let mut scan = Scan::default();
        check_rust_file("crates/x/src/a.rs", src, &mut scan);
        let forms: Vec<(&str, usize)> = scan
            .escapes
            .iter()
            .map(|e| (e.form.as_str(), e.line))
            .collect();
        assert_eq!(
            forms,
            [
                ("order-insensitive", 1),
                ("allow(R5)", 3),
                ("conformance: strict", 5)
            ]
        );
        // The unjustified and the hatch-less annotation are findings instead.
        assert_eq!(scan.violations.len(), 2, "{:?}", scan.violations);
    }
}
