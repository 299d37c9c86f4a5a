//! A small Rust source masker.
//!
//! detlint does not parse Rust; it scans tokens. To do that soundly it must
//! never see the *contents* of comments, string/char literals, or doc
//! comments — the word `HashMap` inside an error message is not a
//! violation. [`mask`] rewrites a source file so that:
//!
//! * every comment byte becomes a space (line comments are additionally
//!   recorded verbatim, because detlint annotations live in them);
//! * every string/char-literal *body* becomes spaces (the delimiting quotes
//!   survive, so token boundaries stay put);
//! * newlines survive everywhere, so a position in the masked text is on
//!   the same line as in the original file.
//!
//! Handled literal shapes: `"…"`, `b"…"`, `c"…"`, `r"…"`/`r#"…"#`/…,
//! `br#"…"#`, `cr#"…"#`, `'x'`, `'\n'`, `'\u{1F600}'` — and lifetimes
//! (`'a`) are correctly *not* treated as char literals. Block comments
//! nest, as in real Rust.

/// One `//` comment, with the line (1-based) it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    pub line: usize,
    /// Full comment text including the leading `//`.
    pub text: String,
}

/// Result of [`mask`]: scannable code plus the comments that were removed.
#[derive(Debug, Clone)]
pub struct MaskedFile {
    /// The source with comment and literal bodies blanked to spaces.
    /// Same number of lines as the input.
    pub code: String,
    /// All `//` comments, in file order.
    pub line_comments: Vec<LineComment>,
}

/// Blank out comments and literal bodies; see module docs.
pub fn mask(source: &str) -> MaskedFile {
    Masker {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        code: String::with_capacity(source.len()),
        line_comments: Vec::new(),
    }
    .run()
}

struct Masker {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    code: String,
    line_comments: Vec<LineComment>,
}

impl Masker {
    fn run(mut self) -> MaskedFile {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_body(0),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' | 'c' => {
                    if !self.string_prefix() {
                        self.keep(c);
                    }
                }
                _ => self.keep(c),
            }
        }
        MaskedFile {
            code: self.code,
            line_comments: self.line_comments,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Emit the current char unchanged and advance.
    fn keep(&mut self, c: char) {
        if c == '\n' {
            self.line += 1;
        }
        self.code.push(c);
        self.pos += 1;
    }

    /// Advance one char, emitting a space (or the newline itself).
    fn blank(&mut self) {
        let c = self.chars[self.pos];
        if c == '\n' {
            self.line += 1;
            self.code.push('\n');
        } else {
            self.code.push(' ');
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.blank();
        }
        let mut text: String = self.chars[start..self.pos].iter().collect();
        // CRLF sources leave the `\r` on the comment tail; strip it so
        // annotation directives (`-- why\r`) parse identically to LF files.
        if text.ends_with('\r') {
            text.pop();
        }
        self.line_comments.push(LineComment { line, text });
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.blank();
                self.blank();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.blank();
                self.blank();
                if depth == 0 {
                    return;
                }
            } else {
                self.blank();
            }
        }
    }

    /// Try to consume a literal with an `r`/`b`/`c`/`br`/`cr` prefix
    /// starting at the current position. Returns false if this is an
    /// ordinary identifier (e.g. `r#raw_ident` or the variable `b`).
    fn string_prefix(&mut self) -> bool {
        // A prefix only starts a literal if it is not the tail of a wider
        // identifier (`attr"` inside `my_attr"x"` can't happen in valid
        // Rust, but be safe).
        if self.pos > 0 {
            let prev = self.chars[self.pos - 1];
            if prev.is_alphanumeric() || prev == '_' {
                return false;
            }
        }
        let mut len = 1;
        let two: String = self.chars[self.pos..(self.pos + 2).min(self.chars.len())]
            .iter()
            .collect();
        if two == "br" || two == "cr" {
            len = 2;
        }
        let raw = self.peek(len - 1) == Some('r');
        // Count `#`s after the prefix (raw strings only).
        let mut hashes = 0;
        while raw && self.peek(len + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(len + hashes) != Some('"') {
            return false;
        }
        if !raw && hashes > 0 {
            return false;
        }
        // Emit the prefix and hashes unchanged, then the string body.
        for _ in 0..len + hashes {
            let c = self.chars[self.pos];
            self.keep(c);
        }
        if raw {
            self.raw_string_body(hashes);
        } else {
            self.string_body(0);
        }
        true
    }

    /// Consume `"…"` (cursor on the opening quote), blanking the body.
    /// `_hashes` is unused for cooked strings but keeps the signature
    /// parallel with [`raw_string_body`].
    fn string_body(&mut self, _hashes: usize) {
        self.keep('"');
        while let Some(c) = self.peek(0) {
            match c {
                '"' => {
                    self.keep('"');
                    return;
                }
                '\\' => {
                    self.blank();
                    if self.peek(0).is_some() {
                        self.blank();
                    }
                }
                _ => self.blank(),
            }
        }
    }

    /// Consume a raw string body terminated by `"` + `hashes` `#`s.
    fn raw_string_body(&mut self, hashes: usize) {
        self.keep('"');
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let closed = (0..hashes).all(|k| self.peek(1 + k) == Some('#'));
                if closed {
                    self.keep('"');
                    for _ in 0..hashes {
                        self.keep('#');
                    }
                    return;
                }
            }
            self.blank();
        }
    }

    /// Distinguish `'x'` / `'\n'` (char literals: blank the body) from
    /// lifetimes `'a` (kept as-is).
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some('\\') => {
                // Escaped char literal: consume until the closing quote.
                self.keep('\'');
                while let Some(c) = self.peek(0) {
                    match c {
                        '\'' => {
                            self.keep('\'');
                            return;
                        }
                        '\\' => {
                            self.blank();
                            if self.peek(0).is_some() {
                                self.blank();
                            }
                        }
                        _ => self.blank(),
                    }
                }
            }
            Some(_) if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') => {
                // 'x' — one-char literal.
                self.keep('\'');
                self.blank();
                self.keep('\'');
            }
            _ => {
                // Lifetime ('a) or stray quote: emit and move on.
                self.keep('\'');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_and_recorded() {
        let m = mask("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!m.code.contains("HashMap"));
        assert_eq!(m.line_comments.len(), 1);
        assert_eq!(m.line_comments[0].line, 1);
        assert!(m.line_comments[0].text.contains("HashMap here"));
        assert!(m.code.contains("let y = 2;"));
    }

    #[test]
    fn block_comments_nest() {
        let m = mask("a /* x /* HashMap */ y */ b");
        assert!(!m.code.contains("HashMap"));
        assert!(m.code.starts_with('a'));
        assert!(m.code.ends_with('b'));
    }

    #[test]
    fn string_bodies_are_blanked() {
        let m = mask(r#"let s = "HashMap"; let t = b"unsafe";"#);
        assert!(!m.code.contains("HashMap"));
        assert!(!m.code.contains("unsafe"));
        assert!(m.code.contains("let t ="));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let m = mask(r###"let s = r#"say "HashMap""#; let x = 1;"###);
        assert!(!m.code.contains("HashMap"));
        assert!(m.code.contains("let x = 1;"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let m = mask(r#"let s = "a\"HashMap"; let x = 1;"#);
        assert!(!m.code.contains("HashMap"));
        assert!(m.code.contains("let x = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = mask("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(m.code.contains("'a str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let m = mask("let c = 'h'; let q = '\\''; let n = '\\n';");
        assert!(m.code.contains("let c = ' ';"));
        assert!(!m.code.contains('h'));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let m = mask("let r#match = 1; let x = r#match;");
        assert!(m.code.contains("r#match"));
    }

    #[test]
    fn newlines_in_strings_preserve_line_numbers() {
        let m = mask("let s = \"a\nb\";\nlet x = 1; // note\n");
        assert_eq!(m.code.matches('\n').count(), 3);
        assert_eq!(m.line_comments[0].line, 3);
    }

    #[test]
    fn multibyte_chars_survive() {
        let m = mask("let s = \"héllo wörld\"; let x = 1;");
        assert!(m.code.contains("let x = 1;"));
    }

    #[test]
    fn crlf_comments_lose_the_carriage_return() {
        let m = mask("// detlint: allow(R8) -- why\r\nlet x = 1;\r\n");
        assert_eq!(m.line_comments.len(), 1);
        assert_eq!(m.line_comments[0].text, "// detlint: allow(R8) -- why");
        // The \r stays in the masked code (blanked like any other char),
        // so char positions keep lining up with the source.
        assert_eq!(m.code.matches('\n').count(), 2);
    }

    #[test]
    fn tab_indented_comments_are_recorded() {
        let m = mask("\t\t// detlint: allow(R8) -- tabbed in\nlet x = 1;\n");
        assert_eq!(m.line_comments.len(), 1);
        assert_eq!(m.line_comments[0].line, 1);
        assert_eq!(
            m.line_comments[0].text,
            "// detlint: allow(R8) -- tabbed in"
        );
    }

    #[test]
    fn comment_on_last_line_without_newline_is_recorded() {
        let m = mask("let x = 1; // trailing note");
        assert_eq!(m.line_comments.len(), 1);
        assert_eq!(m.line_comments[0].text, "// trailing note");
        let m = mask("// whole file is one comment, no newline");
        assert_eq!(m.line_comments.len(), 1);
    }
}
