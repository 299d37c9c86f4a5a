//! Item-level parsing on top of [`crate::lexer`].
//!
//! The lexer masks comments and literal bodies; this module turns the masked
//! text into a flat token stream (words + single-char punctuation) and then
//! into a per-file **item table**: `static` / `thread_local!` declarations
//! (rule R8) and `fn` signatures with parameter names and body spans (rule
//! R9), found at item level, inside `mod` / `trait` / `impl` blocks, and —
//! statics only — inside fn bodies. It is still not a Rust parser — it is a
//! recoverable recognizer that over-approximates where it must (anything it
//! cannot classify is skipped, never misattributed), which is the right
//! failure mode for a linter: a construct the parser misses is a construct
//! the semantic rules silently tolerate, not a false positive.

/// One token of masked source: an identifier/number word or a single
/// punctuation char.
#[derive(Debug, Clone)]
pub struct Tok {
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// Char index into the masked text (comparable with test-region spans).
    pub pos: usize,
    /// True for identifier/number words, false for punctuation.
    pub word: bool,
}

/// Tokenize masked code into words and punctuation.
pub fn lex(masked: &[char]) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < masked.len() {
        let c = masked[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < masked.len() && (masked[i].is_alphanumeric() || masked[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                text: masked[start..i].iter().collect(),
                line,
                pos: start,
                word: true,
            });
        } else {
            toks.push(Tok {
                text: c.to_string(),
                line,
                pos: i,
                word: false,
            });
            i += 1;
        }
    }
    toks
}

/// A `static` declaration, either free-standing or inside `thread_local!`.
#[derive(Debug, Clone)]
pub struct StaticDecl {
    pub name: String,
    pub line: usize,
    /// Char position of the `static` keyword (for test-region checks).
    pub pos: usize,
    pub is_mut: bool,
    /// Type tokens (words and punctuation), in order.
    pub ty: Vec<String>,
    pub thread_local: bool,
}

/// Token-index span of a brace-delimited body, with the matching char span.
#[derive(Debug, Clone, Copy)]
pub struct BodySpan {
    /// Index of the opening `{` token.
    pub tok_lo: usize,
    /// Index one past the closing `}` token.
    pub tok_hi: usize,
    /// Char position of the opening `{` (for test-region checks).
    pub pos: usize,
}

/// A fn definition (free, in an impl, or in a trait; bodyless trait
/// signatures have `body: None`).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Char position of the `fn` keyword (for test-region checks).
    pub pos: usize,
    /// Names bound by the parameter patterns, `self` included.
    pub params: Vec<String>,
    pub body: Option<BodySpan>,
}

/// Everything the semantic rules need from one file.
#[derive(Debug, Clone, Default)]
pub struct ItemTable {
    pub statics: Vec<StaticDecl>,
    pub fns: Vec<FnDef>,
}

/// Parse masked code into tokens plus an item table.
pub fn parse(masked: &[char]) -> (Vec<Tok>, ItemTable) {
    let toks = lex(masked);
    let mut table = ItemTable::default();
    parse_range(&toks, 0, toks.len(), false, &mut table);
    (toks, table)
}

pub(crate) fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i)
        .is_some_and(|t| !t.word && t.text.starts_with(c))
}

pub(crate) fn word_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .and_then(|t| if t.word { Some(t.text.as_str()) } else { None })
}

/// From `i` pointing at `open`, return the index one past the matching
/// `close`. Falls back to the end of the range on unbalanced input.
pub(crate) fn skip_balanced(
    toks: &[Tok],
    mut i: usize,
    hi: usize,
    open: char,
    close: char,
) -> usize {
    let mut depth = 0usize;
    while i < hi {
        if is_punct(toks, i, open) {
            depth += 1;
        } else if is_punct(toks, i, close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    hi
}

/// From `i` pointing at `<`, return the index one past the matching `>`,
/// treating the `>` of a `->` arrow as not-a-closer.
fn skip_generics(toks: &[Tok], mut i: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    while i < hi {
        if is_punct(toks, i, '<') {
            depth += 1;
        } else if is_punct(toks, i, '>') && !(i > 0 && is_punct(toks, i - 1, '-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    hi
}

/// Collect type tokens from `i` until a top-level terminator char, tracking
/// `()[]{}<>` nesting. Returns (tokens, index at the terminator).
fn collect_type(toks: &[Tok], mut i: usize, hi: usize, stop: &[char]) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    let mut paren = 0isize;
    let mut angle = 0isize;
    while i < hi {
        let t = &toks[i];
        if !t.word {
            let c = t.text.chars().next().unwrap_or(' ');
            if paren == 0 && angle == 0 && stop.contains(&c) {
                return (out, i);
            }
            match c {
                '(' | '[' | '{' => paren += 1,
                ')' | ']' | '}' => paren -= 1,
                '<' => angle += 1,
                '>' if !(i > 0 && is_punct(toks, i - 1, '-')) => angle -= 1,
                _ => {}
            }
            if paren < 0 {
                // Closing the caller's delimiter (e.g. the `)` of a param
                // list we were called inside of).
                return (out, i);
            }
        }
        out.push(t.text.clone());
        i += 1;
    }
    (out, hi)
}

fn parse_range(toks: &[Tok], lo: usize, hi: usize, thread_local: bool, table: &mut ItemTable) {
    let mut i = lo;
    while i < hi {
        let Some(word) = word_at(toks, i) else {
            if is_punct(toks, i, '{') {
                // A brace at item level (a type definition's body, a const
                // initializer's struct expression): skip it wholesale so its
                // contents are never misread as items.
                i = skip_balanced(toks, i, hi, '{', '}');
            } else {
                i += 1;
            }
            continue;
        };
        match word {
            "static" if !(i > 0 && is_punct(toks, i - 1, '\'')) => {
                i = parse_static(toks, i, hi, thread_local, table);
            }
            "thread_local" if is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '{') => {
                let end = skip_balanced(toks, i + 2, hi, '{', '}');
                parse_range(toks, i + 3, end.saturating_sub(1), true, table);
                i = end;
            }
            "fn" => i = parse_fn(toks, i, hi, table),
            "mod" | "trait" | "impl" => {
                // `mod name { … }`, `trait … { … }`, `impl … { … }`: recurse
                // into the block; `mod name;` is skipped. Generic arguments
                // in the header are stepped over whole, so the `;` of
                // `impl From<[u8; 32]> for Id` does not end it.
                while i < hi && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') {
                    i = if is_punct(toks, i, '<') {
                        skip_generics(toks, i, hi)
                    } else {
                        i + 1
                    };
                }
                if is_punct(toks, i, '{') {
                    let end = skip_balanced(toks, i, hi, '{', '}');
                    parse_range(toks, i + 1, end.saturating_sub(1), false, table);
                    i = end;
                }
            }
            "macro_rules" => {
                // Skip macro definitions entirely: their arms are patterns,
                // not items.
                while i < hi && !is_punct(toks, i, '{') {
                    i += 1;
                }
                i = skip_balanced(toks, i, hi, '{', '}');
            }
            _ => i += 1,
        }
    }
}

fn parse_static(
    toks: &[Tok],
    start: usize,
    hi: usize,
    thread_local: bool,
    table: &mut ItemTable,
) -> usize {
    let line = toks[start].line;
    let pos = toks[start].pos;
    let mut i = start + 1;
    let is_mut = word_at(toks, i) == Some("mut");
    if is_mut {
        i += 1;
    }
    let Some(name) = word_at(toks, i) else {
        return i;
    };
    let name = name.to_string();
    i += 1;
    let mut ty = Vec::new();
    if is_punct(toks, i, ':') {
        let (collected, at) = collect_type(toks, i + 1, hi, &['=', ';']);
        ty = collected;
        i = at;
    }
    // Skip the initializer expression (may contain braces) to `;`.
    let mut depth = 0usize;
    while i < hi {
        if is_punct(toks, i, '{') || is_punct(toks, i, '(') || is_punct(toks, i, '[') {
            depth += 1;
        } else if is_punct(toks, i, '}') || is_punct(toks, i, ')') || is_punct(toks, i, ']') {
            depth = depth.saturating_sub(1);
        } else if is_punct(toks, i, ';') && depth == 0 {
            i += 1;
            break;
        }
        i += 1;
    }
    table.statics.push(StaticDecl {
        name,
        line,
        pos,
        is_mut,
        ty,
        thread_local,
    });
    i
}

fn parse_fn(toks: &[Tok], start: usize, hi: usize, table: &mut ItemTable) -> usize {
    let pos = toks[start].pos;
    let mut i = start + 1;
    let Some(name) = word_at(toks, i) else {
        return i;
    };
    let name = name.to_string();
    i += 1;
    if is_punct(toks, i, '<') {
        i = skip_generics(toks, i, hi);
    }
    let mut params = Vec::new();
    if is_punct(toks, i, '(') {
        let end = skip_balanced(toks, i, hi, '(', ')');
        parse_params(toks, i + 1, end.saturating_sub(1), &mut params);
        i = end;
    }
    // Return type / where clause, then the body (or `;` for a signature).
    while i < hi && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') {
        i += 1;
    }
    let mut body = None;
    if is_punct(toks, i, '{') {
        let end = skip_balanced(toks, i, hi, '{', '}');
        body = Some(BodySpan {
            tok_lo: i,
            tok_hi: end,
            pos: toks[i].pos,
        });
        // Function-local statics (the lazy-init pattern: `static TABLE:
        // OnceLock<…>` inside an accessor fn) are still global shared
        // state — collect them so R8 sees them.
        scan_body_statics(toks, i + 1, end.saturating_sub(1), false, table);
        i = end;
    } else {
        i += 1;
    }
    table.fns.push(FnDef {
        name,
        pos,
        params,
        body,
    });
    i
}

/// Walk a function body collecting `static` and `thread_local!` statement
/// declarations only — expressions are never misread as items because the
/// scan keys on the two keywords alone.
fn scan_body_statics(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    thread_local: bool,
    table: &mut ItemTable,
) {
    let mut i = lo;
    while i < hi {
        match word_at(toks, i) {
            Some("static") if !(i > 0 && is_punct(toks, i - 1, '\'')) => {
                i = parse_static(toks, i, hi, thread_local, table);
            }
            Some("thread_local") if is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '{') => {
                let end = skip_balanced(toks, i + 2, hi, '{', '}');
                scan_body_statics(toks, i + 3, end.saturating_sub(1), true, table);
                i = end;
            }
            _ => i += 1,
        }
    }
}

/// Parameter list: split on top-level `,`; within each part, the bound
/// names are the words before the top-level `:` (minus pattern keywords).
/// `self` receivers have no ascription and are names in full.
fn parse_params(toks: &[Tok], lo: usize, hi: usize, params: &mut Vec<String>) {
    let mut i = lo;
    while i < hi {
        let part_lo = i;
        // Find the end of this parameter (top-level comma).
        let mut depth = 0isize;
        let mut colon: Option<usize> = None;
        while i < hi {
            let t = &toks[i];
            if !t.word {
                match t.text.chars().next().unwrap_or(' ') {
                    '(' | '[' | '{' | '<' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    '>' if !(i > 0 && is_punct(toks, i - 1, '-')) => depth -= 1,
                    ':' if depth == 0 && colon.is_none() && !is_punct(toks, i + 1, ':') => {
                        colon = Some(i);
                    }
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        let part_hi = i;
        i += 1; // past the comma
        if part_lo >= part_hi {
            continue;
        }
        let name_hi = colon.unwrap_or(part_hi);
        params.extend(
            toks[part_lo..name_hi]
                .iter()
                .filter(|t| t.word && t.text != "mut" && t.text != "ref")
                .map(|t| t.text.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn table(src: &str) -> ItemTable {
        let masked: Vec<char> = lexer::mask(src).code.chars().collect();
        parse(&masked).1
    }

    #[test]
    fn statics_and_thread_locals() {
        let src = "\
static mut COUNTER: u64 = 0;
static NAME: &str = \"x\";
thread_local! {
    static CACHE: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}
";
        let t = table(src);
        assert_eq!(t.statics.len(), 3);
        assert!(t.statics[0].is_mut);
        assert_eq!(t.statics[0].name, "COUNTER");
        assert!(!t.statics[1].is_mut);
        assert!(t.statics[2].thread_local);
        assert_eq!(t.statics[2].name, "CACHE");
        assert!(t.statics[2].ty.contains(&"RefCell".to_string()));
        assert_eq!(t.statics[2].line, 4);
    }

    #[test]
    fn static_lifetimes_are_not_declarations() {
        let t = table("fn f(x: &'static str) -> &'static str { x }\n");
        assert!(t.statics.is_empty());
        assert_eq!(t.fns.len(), 1);
    }

    #[test]
    fn type_bodies_hold_no_items() {
        let src = "\
pub struct Slot {
    pub host: Option<Box<dyn Host>>,
    name: &'static str,
    hook: fn(u8) -> u8,
}
struct Pair(u8, &'static str, fn(u8));
enum Ev {
    Timer { at: u64 },
    Quit,
}
static AFTER: u8 = 0;
";
        let t = table(src);
        assert!(t.fns.is_empty());
        assert_eq!(t.statics.len(), 1);
        assert_eq!(t.statics[0].name, "AFTER");
    }

    #[test]
    fn fns_params_and_bodies() {
        let src = "\
impl NetSim {
    pub fn with_host(&mut self, addr: HostAddr, f: impl FnOnce(&mut Ctx)) -> bool {
        let x = 1;
        x > 0
    }
}
fn free(seed: u64) {}
fn sig_only(x: u8);
";
        let t = table(src);
        assert_eq!(t.fns.len(), 3);
        let wh = &t.fns[0];
        assert_eq!(wh.name, "with_host");
        assert!(wh.body.is_some());
        assert_eq!(wh.params, ["self", "addr", "f"]);
        assert!(t.fns[2].body.is_none());
    }

    #[test]
    fn impl_headers_with_array_generics_are_entered() {
        let t =
            table("impl From<[u8; 32]> for Id {\n    fn from(b: [u8; 32]) -> Self { Id(b) }\n}\n");
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].params, ["b"]);
    }

    #[test]
    fn function_local_statics_are_collected() {
        let src = "\
fn table() -> &'static [u8] {
    static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
    TABLE.get_or_init(Vec::new)
}
";
        let t = table(src);
        assert_eq!(t.statics.len(), 1);
        assert_eq!(t.statics[0].name, "TABLE");
        assert_eq!(t.statics[0].line, 2);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "\
macro_rules! m {
    ($x:ident) => { static FAKE: u8 = 0; };
}
static REAL: u8 = 0;
";
        let t = table(src);
        assert_eq!(t.statics.len(), 1);
        assert_eq!(t.statics[0].name, "REAL");
    }
}
