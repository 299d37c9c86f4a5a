//! The workspace scanner: walks every `.rs`, `Cargo.toml` and `Cargo.lock`
//! under the repository root and applies the rules.
//!
//! R1, R4 and R7 are evaluated directly here on the masked text; R8 and R9
//! are semantic rules evaluated in [`crate::semantic`] over the item table
//! each file parse produces; R6 and R10 are judged in [`crate::manifest`]
//! on each lock file.

use crate::lexer::{self, LineComment};
use crate::manifest::{self, Packages};
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

/// Crates whose `src/` decoders fall under the EIP-8 lenient-decode policy
/// (rule R7): strict trailing-data rejection there must be justified. The
/// crates that deny `clippy::unwrap_used` (rule R5) plus enode, whose
/// Endpoint/NodeRecord decoders are nested inside every discv4 packet.
const R7_SCOPE: [&str; 6] = [
    "crates/rlp/src/",
    "crates/discv4/src/",
    "crates/rlpx/src/",
    "crates/devp2p/src/",
    "crates/ethwire/src/",
    "crates/enode/src/",
];

/// Clippy lints whose `allow` is the escape from a rule clippy enforces
/// (R3: `disallowed_types`; R5: `unwrap_used`, `expect_used`). Each
/// non-test site is an [`Escape`], so the census still counts them.
const CENSUSED_LINTS: [&str; 3] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::disallowed_types",
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

/// One escape past a rule: an honoured annotation (well-formed, justified,
/// and for a rule that has an escape hatch where it stands), or a non-test
/// attribute allowing one of `CENSUSED_LINTS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// The form, normalized: `allow(R8)`, `conformance: strict`, or the
    /// attribute with one lint, `#[allow(clippy::unwrap_used)]`.
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
    /// Every escape, in path then line order.
    pub escapes: Vec<Escape>,
    /// Every package a `Cargo.toml` in the repository declares.
    pub packages: Packages,
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Scan> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();

    let mut scan = Scan::default();
    let mut locks = Vec::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if SKIP_PREFIXES
            .iter()
            .any(|prefix| rel_str.starts_with(prefix))
        {
            continue;
        }
        let source = fs::read_to_string(root.join(rel))?;
        if let Some(dir) = rel_str.strip_suffix("Cargo.toml") {
            if let Some(name) = manifest::package_name(&source) {
                scan.packages
                    .insert(name, dir.trim_end_matches('/').to_string());
            }
        } else if rel_str.ends_with("Cargo.lock") {
            locks.push((rel_str, source));
        } else {
            check_rust_file(&rel_str, &source, &mut scan);
        }
    }
    for (path, source) in &locks {
        let found = manifest::check_lock(path, source, &scan.packages);
        scan.violations.extend(found);
    }
    // Two tokens on one line are one finding.
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
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
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
        ..
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
    let mut flag = |rule: Rule, code: &'static str, line: usize, message: String| {
        violations.push(Violation {
            rule,
            code,
            path: path.to_string(),
            line,
            message,
        });
    };
    const UNJUSTIFIED: &str = "annotation without a justification (append ` -- <why>`)";
    for comment in comments {
        let body = comment.text.trim_start_matches('/').trim();
        let line = comment.line;
        // `// conformance: strict -- <why>` is R7's dedicated escape hatch:
        // it both suppresses the finding and documents the policy decision.
        let (conformance, directive) = match body.strip_prefix("conformance:") {
            Some(directive) => (true, directive.trim()),
            None => match body.strip_prefix("detlint:") {
                Some(directive) => (false, directive.trim()),
                None => continue,
            },
        };
        let (spec, reason) = match directive.split_once("--") {
            Some((spec, reason)) => (spec.trim(), reason.trim()),
            None => (directive, ""),
        };
        if conformance {
            if spec != "strict" {
                let message = format!(
                    "unrecognized conformance annotation `{directive}` \
                     (expected `strict -- <why>`)"
                );
                flag(Rule::R7, "R7.annotation", line, message);
            } else if reason.is_empty() {
                flag(
                    Rule::R7,
                    "R7.annotation",
                    line,
                    format!("conformance {UNJUSTIFIED}"),
                );
            } else {
                honour(Rule::R7, "conformance: strict".to_string(), line);
            }
            continue;
        }
        let parsed = spec
            .strip_prefix("allow(")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(Rule::parse);
        let Some(rule) = parsed else {
            let message = format!(
                "unrecognized detlint annotation `{directive}` (expected \
                 `allow(Rn) -- <why>` for a rule in `--explain`)"
            );
            flag(Rule::R1, "R1.annotation", line, message);
            continue;
        };
        let code = rule.info().annotation_code;
        // R4 (memory safety), R6 (offline build) and R10 (layering) have no
        // per-site escape: they are architectural, not judgment calls.
        if rule == Rule::R4 || rule == Rule::R6 || rule == Rule::R10 {
            flag(
                rule,
                code,
                line,
                format!("rule {rule} has no annotation escape hatch"),
            );
        } else if rule == Rule::R1 && R1_NO_ESCAPE.iter().any(|p| path.starts_with(p)) {
            let message = "rule R1 has no annotation escape hatch under crates/obs/ \
                           (trace records are sim-time-stamped by contract)";
            flag(rule, "R1.no_escape", line, message.to_string());
        } else if reason.is_empty() {
            flag(rule, code, line, format!("detlint {UNJUSTIFIED}"));
        } else {
            honour(rule, format!("allow({rule})"), line);
        }
    }
    Allowances { by_line }
}

// ---------------------------------------------------------------------------
// Rust-file checks
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

/// True if the chars immediately before `start` (ignoring whitespace) spell
/// `suffix`, e.g. `suffix = "::"`.
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
    let Scan {
        violations,
        escapes,
        ..
    } = scan;
    let tokens = tokenize(&masked);
    let test_regions = find_test_regions(&masked);
    let in_test_region = |pos: usize| {
        test_regions
            .iter()
            .any(|&(start, end)| pos >= start && pos < end)
    };
    let r1_allowlisted = R1_ALLOWLIST.iter().any(|prefix| path.starts_with(prefix));
    let r1_no_escape = R1_NO_ESCAPE.iter().any(|prefix| path.starts_with(prefix));
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

    if path.ends_with("src/lib.rs") {
        check_forbid_header(path, &masked, violations);
    }
    if !path.starts_with("tests/") && !path.contains("/tests/") {
        census_lint_allows(path, &masked, &in_test_region, escapes);
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

/// Record each `allow`/`expect` attribute naming one of [`CENSUSED_LINTS`]
/// outside test code, once per lint it names.
fn census_lint_allows(
    path: &str,
    masked: &[char],
    in_test_region: &dyn Fn(usize) -> bool,
    escapes: &mut Vec<Escape>,
) {
    const HEADS: [&str; 4] = ["#[allow(", "#![allow(", "#[expect(", "#![expect("];
    for (i, _) in masked.iter().enumerate().filter(|&(_, &c)| c == '#') {
        let Some((head, after)) = HEADS
            .iter()
            .find_map(|head| Some((head, match_pattern(masked, i, head)?)))
        else {
            continue;
        };
        if in_test_region(i) {
            continue;
        }
        let list: String = masked[after..]
            .iter()
            .take_while(|&&c| c != ')')
            .filter(|c| !c.is_whitespace())
            .collect();
        let line = 1 + masked[..i].iter().filter(|&&c| c == '\n').count();
        for lint in list.split(',').filter(|lint| CENSUSED_LINTS.contains(lint)) {
            escapes.push(Escape {
                form: format!("{head}{lint})]"),
                path: path.to_string(),
                line,
            });
        }
    }
}

/// Rule R4: every crate root must carry the forbid header.
fn check_forbid_header(path: &str, masked: &[char], violations: &mut Vec<Violation>) {
    let found = masked
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == '#')
        .any(|(i, _)| match_pattern(masked, i, "#![forbid(unsafe_code)]").is_some());
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
    fn annotations_survive_crlf_tabs_and_eof() {
        // CRLF: the \r must not end up inside the justification.
        let crlf = "// detlint: allow(R1) -- harness\r\nlet t = Instant::now();\r\n";
        assert!(scan_source("a.rs", crlf).is_empty(), "CRLF annotation");
        // Tab / leading-whitespace indentation.
        let tabbed = "\t// detlint: allow(R1) -- harness\n\tlet t = Instant::now();\n";
        assert!(scan_source("a.rs", tabbed).is_empty(), "tabbed annotation");
        // Trailing annotation on the file's unterminated last line.
        let eof = "let t = Instant::now(); // detlint: allow(R1) -- harness";
        assert!(scan_source("a.rs", eof).is_empty(), "EOF annotation");
        // CRLF conformance variant too (different directive parser arm).
        let conf = "// conformance: strict -- whole-buffer by contract\r\nfn f(r: &Rlp<'_>) { r.ensure_exact().ok(); }\r\n";
        assert!(
            scan_source("crates/rlp/src/decode.rs", conf).is_empty(),
            "CRLF conformance annotation"
        );
    }

    #[test]
    fn r1_ignores_strings_and_comments() {
        let src = "let s = \"Instant\"; // Instant in a comment\n/* SystemTime */\n";
        assert!(scan_source("a.rs", src).is_empty());
    }

    #[test]
    fn r1_flags_wall_clock_outside_allowlist() {
        let src = "let t = std::time::Instant::now();\n";
        let v = scan_source("crates/netsim/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R1);
        assert!(scan_source("vendor/criterion/src/timer.rs", src).is_empty());
    }

    #[test]
    fn r1_profile_module_is_the_only_obs_quarantine() {
        // The self-profiler file is sanctioned — the allowlist entry wins
        // over the crates/obs/ hard ban …
        let src = "let t = std::time::Instant::now();\n";
        assert!(scan_source("crates/obs/src/profile.rs", src).is_empty());
        // … but every other obs file stays hard-banned.
        for path in ["crates/obs/src/trace.rs", "crates/obs/src/query.rs"] {
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
        let v = scan_source("crates/obs/src/trace.rs", src);
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
        assert!(scan_source("crates/rlp/src/decode.rs", src).is_empty());
        let trailing =
            "fn f(r: &Rlp<'_>) { r.ensure_exact().ok(); } // conformance: strict -- contract\n";
        assert!(scan_source("crates/rlp/src/decode.rs", trailing).is_empty());
    }

    #[test]
    fn r7_annotation_without_reason_or_unknown_spec_is_itself_a_violation() {
        let src = "// conformance: strict\nfn f(r: &Rlp<'_>) { r.ensure_exact().ok(); }\n";
        let v = scan_source("crates/rlp/src/decode.rs", src);
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
    fn forbid_header_required_in_lib_roots_only() {
        let v = scan_source("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert_eq!((v.len(), v[0].code), (1, "R4.missing_forbid"));
        let with_header = "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(scan_source("crates/x/src/lib.rs", with_header).is_empty());
        assert!(scan_source("crates/x/src/main.rs", "fn main() {}\n").is_empty());
    }

    #[test]
    fn census_counts_honoured_annotations_and_non_test_lint_allows() {
        let src = "\
// detlint: allow(r8) -- memo
// detlint: allow(R8)
// conformance: strict -- contract
// detlint: allow(R4) -- no such hatch
#![allow(clippy::unwrap_used, clippy::expect_used)]
#[allow(clippy::unwrap_used, dead_code)]
fn f() {}
#[cfg(test)]
mod tests {
    #[allow(clippy::disallowed_types)]
    fn g() {}
}
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
                ("allow(R8)", 1),
                ("conformance: strict", 3),
                ("#![allow(clippy::unwrap_used)]", 5),
                ("#![allow(clippy::expect_used)]", 5),
                ("#[allow(clippy::unwrap_used)]", 6),
            ]
        );
        // The unjustified and the hatch-less annotation are findings instead.
        assert_eq!(scan.violations.len(), 2, "{:?}", scan.violations);
        // A tests/ file is test code throughout.
        let mut scan = Scan::default();
        check_rust_file("crates/x/tests/t.rs", src, &mut scan);
        assert_eq!(scan.escapes.len(), 2);
    }
}
