//! A small hand-written Rust lexer.
//!
//! This is not a full Rust grammar: the invariant rules only need a
//! faithful token stream with comments, string/char literals and
//! `#[cfg(test)]` regions correctly recognised, so that pattern matches
//! never fire inside a literal, a comment or test-only code.

/// Token kind. Literals are collapsed to a single opaque kind: no rule
/// ever matches on literal contents, only on identifiers and punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Punct(char),
    Lit,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]` or `#[test]`
    /// item; rules skip such tokens.
    pub in_test: bool,
}

impl Token {
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }
}

#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`, collecting comments and marking test regions.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut line: u32 = 1;
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while chars.get(i).is_some_and(|&ch| ch != '\n') {
                i += 1;
            }
            out.comments.push(Comment {
                line,
                text: chars.get(start..i).unwrap_or_default().iter().collect(),
            });
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1;
            while depth > 0 {
                match chars.get(i) {
                    None => break,
                    Some('\n') => {
                        line += 1;
                        i += 1;
                    }
                    Some('/') if chars.get(i + 1) == Some(&'*') => {
                        depth += 1;
                        i += 2;
                    }
                    Some('*') if chars.get(i + 1) == Some(&'/') => {
                        depth -= 1;
                        i += 2;
                    }
                    Some(_) => i += 1,
                }
            }
        } else if c == '"' {
            i = scan_string(&chars, i, &mut line);
            out.tokens.push(Token {
                tok: Tok::Lit,
                line,
                in_test: false,
            });
        } else if c == '\'' {
            // Lifetime or char literal. A lifetime is a quote followed by an
            // identifier NOT closed by another quote ('a vs 'a').
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_lifetime = matches!(next, Some(n) if is_ident_start(n))
                && after != Some('\'')
                && next != Some('\\');
            if is_lifetime {
                i += 1;
                while chars.get(i).is_some_and(|&ch| is_ident_continue(ch)) {
                    i += 1;
                }
            } else {
                // Char literal, possibly escaped ('\n', '\x7f', '\u{1f4a9}').
                let mut j = i + 1;
                if chars.get(j) == Some(&'\\') {
                    j += 2;
                } else {
                    j += 1;
                }
                while let Some(&cj) = chars.get(j) {
                    if cj == '\'' {
                        break;
                    }
                    if cj == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
                i = j + 1;
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                    in_test: false,
                });
            }
        } else if is_ident_start(c) {
            let start = i;
            while chars.get(i).is_some_and(|&ch| is_ident_continue(ch)) {
                i += 1;
            }
            let word: String = chars.get(start..i).unwrap_or_default().iter().collect();
            // Raw / byte string prefixes glue onto the following quote.
            let raw_follows =
                matches!(chars.get(i), Some(&'"') | Some(&'#')) && (word == "r" || word == "br");
            let byte_str_follows = chars.get(i) == Some(&'"') && word == "b";
            if raw_follows {
                i = scan_raw_string(&chars, i, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                    in_test: false,
                });
            } else if byte_str_follows {
                i = scan_string(&chars, i, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line,
                    in_test: false,
                });
            } else {
                out.tokens.push(Token {
                    tok: Tok::Ident(word),
                    line,
                    in_test: false,
                });
            }
        } else if c.is_ascii_digit() {
            while chars.get(i).is_some_and(|&ch| is_ident_continue(ch)) {
                i += 1;
            }
            // Fractional part: `1.5` but not `1.foo()` / `1..n`.
            if chars.get(i) == Some(&'.')
                && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit())
            {
                i += 1;
                while chars.get(i).is_some_and(|&ch| is_ident_continue(ch)) {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                tok: Tok::Lit,
                line,
                in_test: false,
            });
        } else {
            out.tokens.push(Token {
                tok: Tok::Punct(c),
                line,
                in_test: false,
            });
            i += 1;
        }
    }
    mark_test_regions(&mut out.tokens);
    out
}

/// Scan a (possibly byte-) string literal starting at the opening quote or
/// at a `b` prefix whose next char is the quote. Returns the index past the
/// closing quote.
fn scan_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while chars.get(i).is_some_and(|&c| c != '"') {
        i += 1;
    }
    i += 1; // past opening quote
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scan a raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`) starting at the
/// prefix's end (first `#` or `"`). Returns the index past the closing quote.
fn scan_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // past opening quote
    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            *line += 1;
            i += 1;
        } else if c == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Find the index of the token matching `open` at `open_idx`.
pub fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Mark every token belonging to a `#[cfg(test)]` or `#[test]` item.
///
/// When such an attribute is seen, any further attributes are skipped and
/// the following item — up to its closing brace or terminating semicolon —
/// is flagged `in_test`.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_punct('#'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let Some(close) = matching(tokens, i + 1, '[', ']') else {
                break;
            };
            let idents: Vec<&str> = tokens
                .get(i + 1..close)
                .unwrap_or_default()
                .iter()
                .filter_map(|t| t.ident())
                .collect();
            let is_test_attr =
                idents == ["test"] || (idents.contains(&"cfg") && idents.contains(&"test"));
            if is_test_attr {
                let mut j = close + 1;
                // Skip any further attributes on the same item.
                while tokens.get(j).is_some_and(|t| t.is_punct('#'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching(tokens, j + 1, '[', ']') {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // Find the item end: first `;` at depth 0 or the matching
                // brace of the first `{`.
                let mut end = tokens.len() - 1;
                let mut k = j;
                while let Some(tk) = tokens.get(k) {
                    if tk.is_punct(';') {
                        end = k;
                        break;
                    }
                    if tk.is_punct('{') {
                        end = matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
                        break;
                    }
                    k += 1;
                }
                for t in tokens.get_mut(i..=end).into_iter().flatten() {
                    t.in_test = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in a block /* nested */ comment */
            let s = "unwrap() inside a string";
            let r = r#"thread_rng in a raw "string""#;
            let b = b"bytes";
            let c = '\'';
            let l: &'static str = s;
        "##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|i| i == "unwrap" || i == "panic" || i == "thread_rng"));
        // Lifetimes are consumed without emitting tokens.
        assert!(!ids.contains(&"static".to_owned()));
        assert!(ids.contains(&"str".to_owned()));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let lexed = lex("let a = 1;\n// nasd-lint: allow(arith, \"x\")\nlet b = 2;\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("nasd-lint"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = lexed.tokens.iter().find(|t| t.is_ident("live2")).unwrap();
        assert!(!live2.in_test);
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(lexed.tokens.iter().all(|t| t.tok != Tok::Lit));
    }
}
