//! C1: cast and arithmetic safety on wire-decoded / on-disk integers,
//! over the codec and replay modules. Two halves:
//!
//! - **narrowing `as` casts** — `x as u32`, `x as usize`, … silently
//!   truncate; a hostile frame length survives the cast and corrupts the
//!   replay cursor. Clippy holds this half: each module (or, for a
//!   prefix, its crate root) denies `clippy::cast_possible_truncation`,
//!   and C1 requires that line, so deleting it cannot drop the rule.
//! - **unchecked `+`/`*` on tainted values** — a single forward pass
//!   marks `let` bindings whose initializer reads wire/disk integers
//!   (`.u32()`, `read_u64(..)`, `from_be_bytes`, or another tainted
//!   binding) as tainted; `+`, `*` or `+=` touching a tainted name must
//!   be `checked_add`/`checked_mul` or carry `allow(arith, "…")`.

use crate::lexer::{Tok, Token};
use crate::rules::{in_file_scope, inner_lints};
use crate::{RawFinding, Source};
use std::collections::BTreeSet;

/// Decode/replay modules where integer provenance is the wire or the
/// platter — exactly where truncation becomes silent corruption.
pub(crate) const C1_FILES: &[&str] = &[
    "crates/object/src/layout.rs",
    "crates/object/src/wal.rs",
    "crates/object/src/persist.rs",
    "crates/dedup/src/blob.rs",
    "crates/dedup/src/index.rs",
    "crates/dedup/src/manifest.rs",
];

/// Path prefixes in C1 scope: the whole wire codec, and the checker
/// itself (self-check — nasd-lint decodes untrusted source text).
pub(crate) const C1_PREFIXES: &[&str] = &["crates/proto/src/", "crates/nasd-lint/src/"];

/// Methods/functions whose result is wire- or disk-derived.
const TAINT_SOURCES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "read_u32",
    "read_u64",
    "from_be_bytes",
    "from_le_bytes",
];

/// C1 over one file: a C1 module, or a crate root under a C1 prefix, must
/// deny `clippy::cast_possible_truncation` (the narrowing half is
/// clippy's); every file in scope gets the arithmetic half.
pub(crate) fn check_c1(src: &Source, out: &mut Vec<RawFinding>) {
    let module = in_file_scope(&src.path, C1_FILES, false);
    let prefix = C1_PREFIXES.iter().find(|p| src.path.contains(*p));
    let root =
        prefix.is_some_and(|p| matches!(src.path.rsplit_once(*p), Some((_, "lib.rs" | "main.rs"))));
    let toks = &src.lexed.tokens;
    if (module || root) && !inner_lints(toks, "deny").contains("cast_possible_truncation") {
        out.push(RawFinding {
            rule: "C1",
            file: src.path.clone(),
            line: 1,
            message: "C1 module does not deny clippy::cast_possible_truncation; \
                      clippy holds its narrowing casts only through that \
                      `#![deny(..)]` line"
                .to_owned(),
            allow: None,
        });
    }
    if module || prefix.is_some() {
        check_taint_arith(src, toks, out);
    }
}

/// True when the token ends an operand (so a following `*` is binary
/// multiplication, not a dereference).
fn ends_operand(t: &Token) -> bool {
    matches!(
        &t.tok,
        Tok::Ident(_) | Tok::Lit | Tok::Punct(')') | Tok::Punct(']')
    )
}

fn check_taint_arith(src: &Source, toks: &[Token], out: &mut Vec<RawFinding>) {
    // Forward pass: collect tainted binding names.
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    let mut i = 0;
    while let Some(t) = toks.get(i) {
        if !t.in_test && t.is_ident("let") {
            // `let (mut)? name (: ty)? = rhs… ;` — taint `name` if the rhs
            // calls a taint source or mentions an already-tainted name.
            // `let Some(name) = …` / `let Ok(name) = …` bind through the
            // single-field pattern.
            let mut ni = i + 1;
            if toks
                .get(ni)
                .is_some_and(|t| t.is_ident("mut") || t.is_ident("ref"))
            {
                ni += 1;
            }
            if toks.get(ni).is_some_and(|t| t.ident().is_some())
                && toks.get(ni + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(ni + 2).is_some_and(|t| t.ident().is_some())
                && toks.get(ni + 3).is_some_and(|t| t.is_punct(')'))
            {
                ni += 2;
            }
            let name = toks.get(ni).and_then(|t| t.ident());
            if let Some(name) = name {
                let mut k = ni + 1;
                let mut eq = None;
                while let Some(tk) = toks.get(k) {
                    if tk.is_punct('=') {
                        eq = Some(k);
                        break;
                    }
                    if tk.is_punct(';') || tk.is_punct('{') {
                        break;
                    }
                    k += 1;
                }
                if let Some(eq) = eq {
                    let mut k = eq + 1;
                    let mut is_tainted = false;
                    while let Some(tk) = toks.get(k) {
                        if tk.is_punct(';') {
                            break;
                        }
                        if let Some(id) = tk.ident() {
                            let called = toks.get(k + 1).is_some_and(|n| n.is_punct('('));
                            if (called && TAINT_SOURCES.contains(&id)) || tainted.contains(id) {
                                is_tainted = true;
                            }
                        }
                        k += 1;
                    }
                    if is_tainted {
                        tainted.insert(name);
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
    if tainted.is_empty() {
        return;
    }

    // Flag unchecked +/* adjacent to a tainted name. One finding per
    // line keeps `a + b` (both tainted) from double-reporting.
    let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(name) = t.ident() else {
            continue;
        };
        if !tainted.contains(name) {
            continue;
        }
        let next = toks.get(i + 1);
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let prev2 = i.checked_sub(2).and_then(|j| toks.get(j));
        // `name + …` / `name += …` / `name * …`
        let next_arith = next.is_some_and(|n| n.is_punct('+'))
            || (next.is_some_and(|n| n.is_punct('*'))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.ident().is_some() || n.tok == Tok::Lit));
        // `… + name` / `… * name` (binary `*` only) / `x += name`
        let prev_arith = prev.is_some_and(|p| p.is_punct('+'))
            || (prev.is_some_and(|p| p.is_punct('*')) && prev2.is_some_and(ends_operand))
            || (prev.is_some_and(|p| p.is_punct('='))
                && prev2.is_some_and(|p| p.is_punct('+') || p.is_punct('*')));
        if !(next_arith || prev_arith) {
            continue;
        }
        if !seen_lines.insert(t.line) {
            continue;
        }
        out.push(RawFinding {
            rule: "C1",
            file: src.path.clone(),
            line: t.line,
            message: format!(
                "unchecked `+`/`*` on wire-derived integer `{name}`; use \
                 checked_add/checked_mul mapped to a typed error, or justify \
                 with allow(arith)"
            ),
            allow: Some("arith"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(body: &str) -> Vec<RawFinding> {
        let src = Source {
            path: "crates/proto/src/wire.rs".to_owned(),
            lexed: lex(body),
        };
        let mut out = Vec::new();
        check_c1(&src, &mut out);
        out
    }

    #[test]
    fn taint_propagates_through_bindings() {
        let out =
            run("fn f(r: &mut R) { let n = r.u32()?; let m = n; let p = base + m; body(p); }");
        assert!(out.iter().any(|f| f.message.contains("`m`")));
    }

    #[test]
    fn deref_is_not_multiplication() {
        let out = run("fn f(r: &mut R) { let n = r.u32()?; g(*n_ref, n); }");
        assert!(out.is_empty());
    }

    #[test]
    fn compound_add_flagged() {
        let out = run("fn f(r: &mut R) { let n = r.u64()?; let mut pos = 0; pos += n; }");
        assert!(!out.is_empty());
    }
}
