//! Semantic rules over the item table: R8 (shared mutable state) and R9
//! (RNG stream discipline).
//!
//! These rules see structure — declarations, fn signatures and bodies —
//! where R1–R7 see tokens. They still over-approximate deliberately: R9's
//! dataflow is a linear walk of `let` bindings, not an SSA graph, and errs
//! on the side of asking for an explicit justification.

use crate::parser::{is_punct, skip_balanced, word_at, FnDef, ItemTable, Tok};
use crate::rules::Rule;
use crate::scan::{Allowances, Violation};
use std::collections::BTreeSet;

/// Types with interior mutability through a shared reference: a `static`
/// holding one is writable global state (rule R8).
const INTERIOR_MUT: [&str; 9] = [
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "LazyLock",
];

/// The single-threaded subset flagged inside `thread_local!` blocks.
const CELL_LIKE: [&str; 5] = ["Cell", "RefCell", "UnsafeCell", "OnceCell", "LazyCell"];

/// RNG constructors whose argument R9 traces to a parameter.
const SEEDED_CTORS: [&str; 2] = ["seed_from_u64", "from_seed"];

/// True for `crates/<name>/src/…` and the root package's `src/…` — the
/// library code rules R8 and R9 govern. Vendored stand-ins, tests/,
/// benches/ and examples/ directories fall outside.
pub fn in_library_src(path: &str) -> bool {
    match path.strip_prefix("crates/") {
        Some(rest) => match rest.split_once('/') {
            Some((_, rest)) => rest.starts_with("src/"),
            None => false,
        },
        None => path.starts_with("src/"),
    }
}

/// Binary targets and `main.rs` are experiment roots: they pin concrete
/// seeds on purpose (rule R9 exempts them).
fn is_experiment_root(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("src/main.rs")
}

fn interior_marker(ty: &[String]) -> Option<&str> {
    ty.iter().find_map(|word| {
        INTERIOR_MUT
            .iter()
            .find(|&&m| m == word)
            .copied()
            .or_else(|| {
                if word.starts_with("Atomic") && word.len() > "Atomic".len() {
                    Some("Atomic*")
                } else {
                    None
                }
            })
    })
}

fn cell_marker(ty: &[String]) -> Option<&str> {
    ty.iter()
        .find_map(|word| CELL_LIKE.iter().find(|&&m| m == word).copied())
}

/// Render type tokens back into a readable string (`Rc < [ u8 ] >` →
/// `Rc<[u8]>`): spaces only between adjacent words and after commas.
fn render_type(ty: &[String]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    let mut prev_comma = false;
    for tok in ty {
        let word = tok
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if (word && prev_word) || prev_comma {
            out.push(' ');
        }
        out.push_str(tok);
        prev_word = word;
        prev_comma = tok == ",";
    }
    out
}

// ---------------------------------------------------------------------------
// R8: shared mutable state
// ---------------------------------------------------------------------------

pub fn check_r8(
    path: &str,
    table: &ItemTable,
    allowances: &Allowances,
    in_test: &dyn Fn(usize) -> bool,
    violations: &mut Vec<Violation>,
) {
    if !in_library_src(path) {
        return;
    }
    let in_obs = path.starts_with("crates/obs/");
    for decl in &table.statics {
        if in_test(decl.pos) {
            continue;
        }
        let allowed = allowances.allows(decl.line, Rule::R8);
        if decl.is_mut {
            if !allowed {
                violations.push(Violation {
                    rule: Rule::R8,
                    code: "R8.static_mut",
                    path: path.to_string(),
                    line: decl.line,
                    message: format!(
                        "`static mut {}` is shared mutable state that no \
                         snapshot captures and every world in the process \
                         shares (see --explain R8)",
                        decl.name
                    ),
                });
            }
            continue;
        }
        if decl.thread_local {
            if in_obs {
                // The observability recorder is thread-local by design:
                // installed around one world's run, its state written to
                // its own `OBSS` image.
                continue;
            }
            if let Some(marker) = cell_marker(&decl.ty) {
                if !allowed {
                    violations.push(Violation {
                        rule: Rule::R8,
                        code: "R8.thread_local_cell",
                        path: path.to_string(),
                        line: decl.line,
                        message: format!(
                            "`thread_local! {}: {}` holds `{marker}` outside \
                             crates/obs/; no snapshot captures it, and it \
                             outlives its world on the thread (see --explain R8)",
                            decl.name,
                            render_type(&decl.ty)
                        ),
                    });
                }
            }
        } else if let Some(marker) = interior_marker(&decl.ty) {
            if !allowed {
                violations.push(Violation {
                    rule: Rule::R8,
                    code: "R8.interior_mut",
                    path: path.to_string(),
                    line: decl.line,
                    message: format!(
                        "`static {}: {}` has interior mutability (`{marker}`); \
                         shared mutable state (see --explain R8)",
                        decl.name,
                        render_type(&decl.ty)
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R9: RNG stream discipline
// ---------------------------------------------------------------------------

pub fn check_r9(
    path: &str,
    table: &ItemTable,
    toks: &[Tok],
    allowances: &Allowances,
    in_test: &dyn Fn(usize) -> bool,
    violations: &mut Vec<Violation>,
) {
    if !in_library_src(path) || is_experiment_root(path) {
        return;
    }
    for fn_def in &table.fns {
        let Some(body) = fn_def.body else {
            continue;
        };
        if in_test(fn_def.pos) || in_test(body.pos) {
            continue;
        }
        let seed_ok = seed_ok_idents(fn_def, toks, body.tok_lo, body.tok_hi);
        let mut i = body.tok_lo;
        while i < body.tok_hi {
            let t = &toks[i];
            if t.word
                && SEEDED_CTORS.contains(&t.text.as_str())
                && is_punct(toks, i + 1, '(')
                && i.checked_sub(1).and_then(|j| word_at(toks, j)) != Some("fn")
            {
                let end = skip_balanced(toks, i + 1, body.tok_hi, '(', ')');
                let args: Vec<&Tok> = toks[i + 2..end.saturating_sub(1)].iter().collect();
                let derived = args
                    .iter()
                    .any(|a| a.word && seed_ok.contains(a.text.as_str()));
                if !derived && !allowances.allows(t.line, Rule::R9) {
                    let ambient = args.iter().find(|a| {
                        a.word
                            && a.text
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_ascii_lowercase())
                    });
                    match ambient {
                        Some(arg) => violations.push(Violation {
                            rule: Rule::R9,
                            code: "R9.ambient_seed",
                            path: path.to_string(),
                            line: t.line,
                            message: format!(
                                "`{}` seed `{}` does not derive from a parameter \
                                 of `{}`; thread it from SimConfig (see \
                                 --explain R9)",
                                t.text, arg.text, fn_def.name
                            ),
                        }),
                        None => violations.push(Violation {
                            rule: Rule::R9,
                            code: "R9.literal_seed",
                            path: path.to_string(),
                            line: t.line,
                            message: format!(
                                "`{}` pins a literal/constant seed inside `{}`; \
                                 library code must take the seed as a parameter \
                                 (see --explain R9)",
                                t.text, fn_def.name
                            ),
                        }),
                    }
                }
                i = end;
                continue;
            }
            i += 1;
        }
    }
}

/// The set of identifiers known to derive from the fn's parameters: the
/// parameters themselves (plus `self`), `let` bindings whose right-hand
/// side mentions a derived identifier (processed in order), and closure
/// parameters.
fn seed_ok_idents(fn_def: &FnDef, toks: &[Tok], lo: usize, hi: usize) -> BTreeSet<String> {
    let mut ok: BTreeSet<String> = fn_def.params.iter().cloned().collect();
    ok.insert("self".to_string());

    // Pass 1: closure parameter lists anywhere in the body. This runs
    // before the `let` pass because a closure usually sits on a `let` RHS
    // (`let seal = |plain, seed| { … };`) whose scan consumes it whole.
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if !t.word && t.text == "|" && !is_punct(toks, i + 1, '|') {
            let mut j = i + 1;
            let mut names = Vec::new();
            let mut closed = false;
            while j < hi && j - i < 64 {
                let p = &toks[j];
                if p.word {
                    names.push(p.text.clone());
                } else {
                    match p.text.as_str() {
                        "|" => {
                            closed = true;
                            break;
                        }
                        "," | ":" | "&" | "(" | ")" | "[" | "]" | "<" | ">" | "_" | "'" => {}
                        _ => break,
                    }
                }
                j += 1;
            }
            if closed {
                ok.extend(names.into_iter().filter(|n| n != "mut" && n != "ref"));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: `let` derivation chains, in statement order.
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.word && t.text == "let" {
            // Pattern words until a top-level `=` (or `;` for `let x;`).
            let mut j = i + 1;
            let mut depth = 0isize;
            let mut pattern = Vec::new();
            while j < hi {
                let p = &toks[j];
                if p.word {
                    if p.text != "mut" && p.text != "ref" {
                        pattern.push(p.text.clone());
                    }
                } else {
                    match p.text.chars().next().unwrap_or(' ') {
                        '(' | '[' | '<' => depth += 1,
                        ')' | ']' => depth -= 1,
                        '>' if !(j > 0 && is_punct(toks, j - 1, '-')) => depth -= 1,
                        '=' if depth <= 0 && !is_punct(toks, j + 1, '=') => break,
                        ';' | '{' if depth <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            // RHS until the statement ends; if it mentions a derived
            // identifier, the whole pattern becomes derived.
            let mut derived = false;
            let mut depth = 0isize;
            while j < hi {
                let p = &toks[j];
                if p.word && ok.contains(p.text.as_str()) {
                    derived = true;
                }
                if !p.word {
                    match p.text.chars().next().unwrap_or(' ') {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => depth -= 1,
                        ';' if depth <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if derived {
                ok.extend(pattern);
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    ok
}
