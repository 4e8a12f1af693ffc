//! W1: wire exhaustiveness.
//!
//! Parses the watched protocol enums out of `crates/proto` and verifies
//! every variant appears in the wire encode arms, the wire decode arms,
//! the fault-injection matrices (`NasdStatus::retry_class`,
//! `RequestBody::mutates`) and the drive's access policy
//! (`RequestBody::authority`). The enums are `#[non_exhaustive]`, so a new
//! variant compiles even when a downstream `match` silently routes it
//! through a `_` arm — this rule is what makes forgetting an arm a CI
//! failure.

use crate::lexer::{matching, Token};
use crate::{RawFinding, Source};

enum RegionKind {
    /// Body of `impl <trait> for <enum>`.
    ImplFor(&'static str),
    /// Body of `fn <name>` anywhere in the enum's crate.
    Fn(&'static str),
}

struct Region {
    label: &'static str,
    kind: RegionKind,
}

struct Spec {
    enum_name: &'static str,
    regions: &'static [Region],
}

const SPECS: &[Spec] = &[
    Spec {
        enum_name: "NasdStatus",
        regions: &[
            Region {
                label: "wire encode (NasdStatus::to_byte)",
                kind: RegionKind::Fn("to_byte"),
            },
            Region {
                label: "wire decode (NasdStatus::from_byte)",
                kind: RegionKind::Fn("from_byte"),
            },
            Region {
                label: "fault-injection retry matrix (NasdStatus::retry_class)",
                kind: RegionKind::Fn("retry_class"),
            },
        ],
    },
    Spec {
        enum_name: "RequestBody",
        regions: &[
            Region {
                label: "wire encode (impl WireEncode)",
                kind: RegionKind::ImplFor("WireEncode"),
            },
            Region {
                label: "wire decode (impl WireDecode)",
                kind: RegionKind::ImplFor("WireDecode"),
            },
            Region {
                label: "fault-injection mutation matrix (RequestBody::mutates)",
                kind: RegionKind::Fn("mutates"),
            },
            Region {
                label: "authority table (RequestBody::authority)",
                kind: RegionKind::Fn("authority"),
            },
        ],
    },
    Spec {
        enum_name: "ReplyBody",
        regions: &[
            Region {
                label: "wire encode (impl WireEncode)",
                kind: RegionKind::ImplFor("WireEncode"),
            },
            // Replies decode only from an owned receive buffer: the
            // decode arms live in `ReplyBody::decode_owned`.
            Region {
                label: "wire decode (ReplyBody::decode_owned)",
                kind: RegionKind::Fn("decode_owned"),
            },
        ],
    },
];

pub(crate) fn check_w1(sources: &[Source], out: &mut Vec<RawFinding>) {
    for spec in SPECS {
        // Locate the enum definition.
        let Some((def_idx, enum_start, variants)) = find_enum(sources, spec.enum_name) else {
            continue; // enum not in this source set (e.g. fixtures)
        };
        let Some(def) = sources.get(def_idx) else {
            continue;
        };
        let crate_prefix = def
            .path
            .rsplit_once("/src/")
            .map(|(p, _)| format!("{p}/src/"))
            .unwrap_or_else(|| def.path.clone());

        for region in spec.regions {
            let spans = find_regions(sources, &crate_prefix, spec.enum_name, &region.kind);
            if spans.is_empty() {
                out.push(RawFinding {
                    rule: "W1",
                    file: def.path.clone(),
                    line: def.lexed.tokens.get(enum_start).map_or(0, |t| t.line),
                    message: format!(
                        "`{}` has no {} region; the codec/matrix is missing entirely",
                        spec.enum_name, region.label
                    ),
                    allow: None,
                });
                continue;
            }
            for (vname, vline) in &variants {
                let covered = spans.iter().any(|(src_idx, lo, hi)| {
                    sources.get(*src_idx).is_some_and(|s| {
                        let toks = &s.lexed.tokens;
                        (*lo..*hi).any(|i| {
                            toks.get(i)
                                .is_some_and(|t| t.is_ident(spec.enum_name) || t.is_ident("Self"))
                                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                                && toks.get(i + 3).is_some_and(|t| t.is_ident(vname))
                        })
                    })
                });
                if !covered {
                    out.push(RawFinding {
                        rule: "W1",
                        file: def.path.clone(),
                        line: *vline,
                        message: format!(
                            "`{}::{}` is not covered by the {}",
                            spec.enum_name, vname, region.label
                        ),
                        allow: None,
                    });
                }
            }
        }
    }
}

/// A located enum: source index, token index of the `enum` keyword, and
/// variants as `(name, line)`.
type EnumDef = (usize, usize, Vec<(String, u32)>);

/// Find `enum <name>` in any source.
fn find_enum(sources: &[Source], name: &str) -> Option<EnumDef> {
    for (si, src) in sources.iter().enumerate() {
        let toks = &src.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.in_test || !t.is_ident("enum") {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
                continue;
            }
            let open =
                (i + 2..toks.len()).find(|&k| toks.get(k).is_some_and(|t| t.is_punct('{')))?;
            let close = matching(toks, open, '{', '}')?;
            return Some((si, i, extract_variants(toks, open, close)));
        }
    }
    None
}

/// Collect variant identifiers at brace depth 1 of the enum body, skipping
/// attributes, payloads (`{..}`, `(..)`) and discriminants.
fn extract_variants(toks: &[Token], open: usize, close: usize) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut bdepth = 1usize;
    let mut pdepth = 0usize;
    let mut expecting = true;
    let mut i = open + 1;
    while i < close {
        let Some(t) = toks.get(i) else { break };
        // Skip attribute groups like `#[doc = "…"]`.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            if let Some(end) = matching(toks, i + 1, '[', ']') {
                i = end + 1;
                continue;
            }
        }
        match &t.tok {
            crate::lexer::Tok::Punct('{') => bdepth += 1,
            crate::lexer::Tok::Punct('}') => bdepth -= 1,
            crate::lexer::Tok::Punct('(') | crate::lexer::Tok::Punct('[') => pdepth += 1,
            crate::lexer::Tok::Punct(')') | crate::lexer::Tok::Punct(']') => pdepth -= 1,
            crate::lexer::Tok::Punct(',') if bdepth == 1 && pdepth == 0 => expecting = true,
            crate::lexer::Tok::Ident(name) if expecting && bdepth == 1 && pdepth == 0 => {
                variants.push((name.clone(), t.line));
                expecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// All `(source, start, end)` token spans for the requested region kind,
/// restricted to files in the enum's own crate.
fn find_regions(
    sources: &[Source],
    crate_prefix: &str,
    enum_name: &str,
    kind: &RegionKind,
) -> Vec<(usize, usize, usize)> {
    let mut spans = Vec::new();
    for (si, src) in sources.iter().enumerate() {
        if !src.path.starts_with(crate_prefix) {
            continue;
        }
        let toks = &src.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let body_start = match kind {
                RegionKind::ImplFor(trait_name) => {
                    if t.is_ident("impl")
                        && toks.get(i + 1).is_some_and(|t| t.is_ident(trait_name))
                        && toks.get(i + 2).is_some_and(|t| t.is_ident("for"))
                        && toks.get(i + 3).is_some_and(|t| t.is_ident(enum_name))
                    {
                        Some(i + 4)
                    } else {
                        None
                    }
                }
                RegionKind::Fn(fn_name) => {
                    if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident(fn_name)) {
                        Some(i + 2)
                    } else {
                        None
                    }
                }
            };
            let Some(from) = body_start else { continue };
            // Find the body's opening brace (a `;` first means a trait
            // method declaration with no body — not a region).
            let Some(open) = (from..toks.len()).find(|&k| {
                toks.get(k)
                    .is_some_and(|t| t.is_punct('{') || t.is_punct(';'))
            }) else {
                continue;
            };
            if toks.get(open).is_some_and(|t| t.is_punct(';')) {
                continue;
            }
            if let Some(close) = matching(toks, open, '{', '}') {
                spans.push((si, open, close));
            }
        }
    }
    spans
}
