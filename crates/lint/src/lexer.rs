//! A minimal Rust lexer: splits a source file into per-line *code* and
//! *comment* channels so the rules can match tokens without being fooled by
//! string literals or comment text.
//!
//! This is deliberately not a full parser (the workspace builds offline, so
//! `syn` is unavailable). It understands exactly the constructs that would
//! otherwise produce false positives or negatives at the token level:
//!
//! * line comments (`//`, `///`, `//!`) — routed to the comment channel;
//! * block comments (`/* … */`), including nesting and multi-line spans;
//! * string literals (`"…"` with escapes), byte strings (`b"…"`), and raw
//!   strings (`r"…"`, `r#"…"#`, any hash count) — contents blanked;
//! * char literals (`'x'`, `'\n'`, `'\u{1F600}'`) versus lifetimes (`'a`).
//!
//! Everything else passes through verbatim on the code channel, preserving
//! line structure so findings carry exact line numbers.

/// One source line, split into its code and comment channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceLine {
    /// The line with comments removed and string/char literal *contents*
    /// blanked to spaces (the delimiting quotes remain, so the token
    /// structure around a literal is preserved).
    pub code: String,
    /// The concatenated text of every comment that touches this line.
    pub comment: String,
}

/// Lexer state carried across characters (and, for block comments and
/// multi-line strings, across lines).
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* … */`.
    BlockComment(u32),
    /// Inside a `"…"` (or `b"…"`) literal.
    Str,
    /// Inside a raw string; the payload is the hash count of the opener.
    RawStr(usize),
}

/// Splits `source` into per-line code/comment channels.
pub fn lex(source: &str) -> Vec<SourceLine> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut line = SourceLine::default();
    let mut state = State::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    line.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    // A quote ends a raw-string opener if the code emitted so
                    // far ends with `r`, `r#…#`, `br`, or `br#…#` (and the
                    // `r` is not the tail of an identifier).
                    match raw_string_hashes(&line.code) {
                        Some(hashes) => state = State::RawStr(hashes),
                        None => state = State::Str,
                    }
                    line.code.push('"');
                    i += 1;
                } else if c == '\'' {
                    // Char literal or lifetime? `'\…'` and `'x'` are
                    // literals; `'ident` (no closing quote right after one
                    // char) is a lifetime and stays on the code channel.
                    if chars.get(i + 1) == Some(&'\\') {
                        line.code.push('\'');
                        i += 2; // consume the backslash
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            line.code.push(' ');
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        line.code.push_str("' '");
                        i += 3;
                    } else {
                        line.code.push('\'');
                        i += 1;
                    }
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        line.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    line.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    line.code.push('"');
                    // Blank the closing hashes too (they are delimiters).
                    for _ in 0..hashes {
                        line.code.push(' ');
                    }
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Flush a final line without a trailing newline.
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

/// If the code emitted so far ends with a raw-string opener prefix
/// (`r`/`br` plus zero or more `#`), returns the hash count.
fn raw_string_hashes(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut k = bytes.len();
    let mut hashes = 0usize;
    while k > 0 && bytes[k - 1] == b'#' {
        hashes += 1;
        k -= 1;
    }
    if k == 0 || bytes[k - 1] != b'r' {
        return None;
    }
    k -= 1;
    // Optional byte-string prefix.
    if k > 0 && bytes[k - 1] == b'b' {
        k -= 1;
    }
    // The `r` must start the prefix, not end an identifier like `var`.
    let prev_is_ident = k > 0 && (bytes[k - 1].is_ascii_alphanumeric() || bytes[k - 1] == b'_');
    if prev_is_ident {
        // `r#raw_ident` is a raw identifier, not a raw string — but that
        // case has `#` right before the quote only when an identifier char
        // precedes the `r`, which this branch rejects.
        None
    } else {
        Some(hashes)
    }
}

/// Whether the quote at `chars[i]` is followed by exactly enough hashes to
/// close a raw string opened with `hashes` hashes.
fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Finds `word` in `code` with non-identifier characters (or line edges) on
/// both sides. Returns the byte offset of the first such match.
pub fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0
            || code[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = at + word.len();
        let after_ok = code[after..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(source: &str) -> Vec<String> {
        lex(source).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_stripped_and_captured() {
        let lines = lex("let x = 1; // trailing HashMap\n// full line\nlet y = 2;\n");
        assert_eq!(lines[0].code.trim_end(), "let x = 1;");
        assert!(lines[0].comment.contains("HashMap"));
        assert_eq!(lines[1].code.trim(), "");
        assert!(lines[1].comment.contains("full line"));
        assert_eq!(lines[2].code.trim_end(), "let y = 2;");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = code_of("a /* one /* two */ still */ b\nc /* open\nHashMap\n*/ d\n");
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        assert!(!lines[0].contains("still"));
        assert!(!lines[2].contains("HashMap"));
        assert!(lines[3].contains('d'));
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = code_of("let s = \"HashMap::new() // not a comment\"; let t = 1;\n");
        assert!(!lines[0].contains("HashMap"));
        assert!(lines[0].contains("let t = 1;"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let lines = code_of("let s = \"a\\\"HashMap\"; let u = 2;\n");
        assert!(!lines[0].contains("HashMap"));
        assert!(lines[0].contains("let u = 2;"));
    }

    #[test]
    fn raw_strings_are_blanked_respecting_hashes() {
        let lines = code_of("let s = r#\"has \"quotes\" and HashMap\"#; let v = 3;\n");
        assert!(!lines[0].contains("HashMap"));
        assert!(lines[0].contains("let v = 3;"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let lines = code_of("fn f<'a>(x: &'a str) -> char { 'x' }\nlet q = '\\'';\n");
        assert!(lines[0].contains("'a"));
        assert!(!lines[0].contains('x') || lines[0].contains("x:"));
        assert!(lines[1].contains("let q ="));
    }

    #[test]
    fn multi_line_strings_stay_blanked() {
        let lines = code_of("let s = \"line one\nHashMap line two\";\nlet w = 4;\n");
        assert!(!lines[1].contains("HashMap"));
        assert!(lines[2].contains("let w = 4;"));
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        assert!(find_word("use std::collections::HashMap;", "HashMap").is_some());
        assert!(find_word("type MyHashMap = ();", "HashMap").is_none());
        assert!(find_word("HashMapLike", "HashMap").is_none());
        assert!(find_word("HashMap::new()", "HashMap").is_some());
    }
}
