//! Token-scan rules: D1 determinism, P1 panic-free request paths, H1
//! hot-path copy discipline, E1 swallowed results, C1 cast/arithmetic
//! safety (in `casts.rs`), F1 forbid-unsafe, A1 one call surface and M1
//! one mint.

use crate::lexer::{Tok, Token};
use crate::{crate_of, RawFinding, Source};

/// Crates whose behaviour is visible to the simulation. Wall-clock time,
/// OS entropy and real-thread sleeps in these crates would make chaos-test
/// replays diverge. `net` is included: its pacing sleep and the
/// in-process call's deadline check each carry an explicit suppression.
pub(crate) const D1_CRATES: &[&str] = &[
    "sim", "disk", "object", "proto", "cheops", "fm", "pfs", "net", "obs", "mgmt", "dedup",
    "workload",
];

/// Request-path modules that must return `NasdStatus` errors rather than
/// panic: a drive that panics mid-request breaks the acknowledgement
/// promise the chaos suite verifies dynamically. These files double as
/// the *entry points* of the P2 transitive-panic analysis (`graph.rs`).
pub(crate) const P1_FILES: &[&str] = &[
    "crates/object/src/drive.rs",
    "crates/object/src/store.rs",
    "crates/object/src/persist.rs",
    "crates/object/src/layout.rs",
    "crates/object/src/wal.rs",
    "crates/object/src/cache.rs",
    "crates/object/src/security.rs",
    "crates/fm/src/drives.rs",
    "crates/fm/src/core.rs",
    "crates/fm/src/nfs.rs",
    "crates/fm/src/afs.rs",
    "crates/fm/src/handle.rs",
    "crates/fm/src/dirfmt.rs",
    "crates/cheops/src/manager.rs",
    "crates/cheops/src/client.rs",
    "crates/mgmt/src/service.rs",
    "crates/mgmt/src/rebuild.rs",
    "crates/mgmt/src/scrub.rs",
    "crates/mgmt/src/health.rs",
    "crates/mgmt/src/spare.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/rpc.rs",
    "crates/net/src/socket.rs",
    "crates/net/src/transport.rs",
    "crates/net/src/connect.rs",
    "crates/dedup/src/blob.rs",
    "crates/dedup/src/checksum.rs",
    "crates/dedup/src/chunker.rs",
    "crates/dedup/src/client.rs",
    "crates/dedup/src/error.rs",
    "crates/dedup/src/gc.rs",
    "crates/dedup/src/index.rs",
    "crates/dedup/src/manifest.rs",
    "crates/dedup/src/prune.rs",
    "crates/dedup/src/store.rs",
];

/// Path prefixes additionally swept by P1/E1 (and C1, see `casts.rs`):
/// the checker itself must satisfy its own rules — a lint that panics on
/// a hostile source file is no better than a drive that panics on a
/// hostile frame.
pub(crate) const SELF_CHECK_PREFIX: &str = "crates/nasd-lint/src/";

/// Whether `path` is in scope for a rule given its file list, honouring
/// the self-check prefix when `self_check` is set.
pub(crate) fn in_file_scope(path: &str, files: &[&str], self_check: bool) -> bool {
    files.iter().any(|f| path.ends_with(f)) || (self_check && path.contains(SELF_CHECK_PREFIX))
}

/// Keywords that can legitimately precede `[` without it being an index
/// expression (slice patterns, array literals in returns, etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "break", "else", "match", "if", "while", "for", "loop",
    "move", "box", "yield", "dyn", "as", "const", "static", "pub", "use", "where", "unsafe",
    "async", "await", "impl", "fn", "enum", "struct", "trait", "type", "mod", "crate",
];

fn seq_path(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_ident(a))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
}

/// D1: no wall-clock, OS entropy or real-thread sleeps in sim-visible crates.
pub(crate) fn check_d1(src: &Source, out: &mut Vec<RawFinding>) {
    let Some(krate) = crate_of(&src.path) else {
        return;
    };
    if !D1_CRATES.contains(&krate) {
        return;
    }
    let toks = &src.lexed.tokens;
    let mut push = |line: u32, what: &str| {
        out.push(RawFinding {
            rule: "D1",
            file: src.path.clone(),
            line,
            message: format!(
                "`{what}` in sim-visible crate `{krate}`; use the simulated \
                 clock/rng (nasd-sim) or nasd_net::pace for real-thread pacing"
            ),
            allow: Some("wall-clock"),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if seq_path(toks, i, "Instant", "now") {
            push(t.line, "Instant::now");
        } else if t.is_ident("SystemTime") {
            push(t.line, "SystemTime");
        } else if t.is_ident("thread_rng") {
            push(t.line, "thread_rng");
        } else if seq_path(toks, i, "thread", "sleep") {
            push(t.line, "thread::sleep");
        }
    }
}

/// A potential panic at token `i`: `(line, description, is_indexing)`.
/// Shared between P1 (direct sites in request modules) and P2 (sites in
/// helpers reachable from request modules through the call graph).
pub(crate) fn panic_at(toks: &[Token], i: usize) -> Option<(u32, String, bool)> {
    let t = toks.get(i)?;
    if t.is_punct('.') && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
        let next = toks.get(i + 1)?;
        if let Some(name) = next.ident() {
            if name == "unwrap" || name == "expect" {
                return Some((next.line, format!("`.{name}()`"), false));
            }
        }
    } else if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
        if let Some(name) = t.ident() {
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
                return Some((t.line, format!("`{name}!`"), false));
            }
        }
    } else if t.is_punct('[') && i > 0 {
        let indexes = match toks.get(i - 1).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
            _ => false,
        };
        if indexes {
            return Some((t.line, "bare indexing".to_owned(), true));
        }
    }
    None
}

/// P1: no panics or bare indexing in request-path modules.
pub(crate) fn check_p1(src: &Source, out: &mut Vec<RawFinding>) {
    if !in_file_scope(&src.path, P1_FILES, true) {
        return;
    }
    let toks = &src.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some((line, what, is_index)) = panic_at(toks, i) else {
            continue;
        };
        let message = if is_index {
            "bare indexing may panic on out-of-range; use .get()/.get_mut() \
             and map None to a NasdStatus error"
                .to_owned()
        } else {
            format!("{what} in request path; return a NasdStatus error instead")
        };
        out.push(RawFinding {
            rule: "P1",
            file: src.path.clone(),
            line,
            message,
            allow: Some("panic"),
        });
    }
}

/// Ack/durability/repair paths where a silently discarded `Result` hides
/// a failure the protocol promised to surface: the RPC reply path, the
/// drive's durable-write stack, the Cheops managers, and the nasd-mgmt
/// repair bookkeeping.
pub(crate) const E1_FILES: &[&str] = &[
    "crates/net/src/rpc.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/socket.rs",
    "crates/net/src/transport.rs",
    "crates/net/src/connect.rs",
    "crates/mgmt/src/service.rs",
    "crates/mgmt/src/rebuild.rs",
    "crates/mgmt/src/scrub.rs",
    "crates/mgmt/src/health.rs",
    "crates/mgmt/src/spare.rs",
    "crates/object/src/drive.rs",
    "crates/object/src/store.rs",
    "crates/object/src/persist.rs",
    "crates/object/src/wal.rs",
    "crates/cheops/src/manager.rs",
    "crates/cheops/src/client.rs",
    "crates/fm/src/drives.rs",
    "crates/fm/src/core.rs",
    "crates/fm/src/nfs.rs",
    "crates/fm/src/afs.rs",
    "crates/dedup/src/store.rs",
    "crates/dedup/src/gc.rs",
    "crates/dedup/src/client.rs",
];

/// E1: swallowed results on ack/durability/repair paths. Flags
/// `let _ = …;` discards and statement-level `.ok();` — each surviving
/// site must handle the error, propagate it, count it in an obs metric,
/// or justify the discard with `allow(swallowed-error, "…")`.
pub(crate) fn check_e1(src: &Source, out: &mut Vec<RawFinding>) {
    if !in_file_scope(&src.path, E1_FILES, true) {
        return;
    }
    let toks = &src.lexed.tokens;
    let mut push = |line: u32, what: &str| {
        out.push(RawFinding {
            rule: "E1",
            file: src.path.clone(),
            line,
            message: format!(
                "{what} swallows a Result on an ack/durability/repair path; \
                 handle it, propagate it, or count it in an obs error metric \
                 (or justify with allow(swallowed-error))"
            ),
            allow: Some("swallowed-error"),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            push(t.line, "`let _ = …`");
        } else if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("ok"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct(';'))
            && ok_result_discarded(toks, i)
        {
            push(t.line, "statement-level `.ok()`");
        }
    }
}

/// Whether the `.ok()` ending at token `dot` throws its Option away.
/// `let rx = x.ok();` or `return x.ok();` keeps the value — only a bare
/// expression statement discards it. Walk back to the statement start
/// looking for a binding (`=`) or a value-producing keyword.
fn ok_result_discarded(toks: &[Token], dot: usize) -> bool {
    for t in toks.iter().take(dot).rev() {
        match &t.tok {
            Tok::Punct(';' | '{' | '}') => return true,
            Tok::Punct('=') => return false,
            Tok::Ident(w) if w == "return" || w == "break" => return false,
            _ => {}
        }
    }
    true
}

/// Data-path modules where every payload memcpy must be deliberate.
/// The zero-copy read path (cache-block views riding a `ByteRope` from
/// the cache through the wire to the client) dies one `to_vec()` at a
/// time; any copy on these paths carries a reasoned suppression.
pub(crate) const H1_FILES: &[&str] = &[
    "crates/object/src/drive.rs",
    "crates/object/src/store.rs",
    "crates/object/src/wal.rs",
    "crates/object/src/cache.rs",
    "crates/proto/src/message.rs",
    "crates/proto/src/wire.rs",
    "crates/fm/src/drives.rs",
    "crates/fm/src/core.rs",
    "crates/fm/src/nfs.rs",
    "crates/fm/src/afs.rs",
    "crates/cheops/src/client.rs",
    "crates/pfs/src/sio.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/socket.rs",
    "crates/dedup/src/blob.rs",
    "crates/dedup/src/checksum.rs",
    "crates/dedup/src/client.rs",
    "crates/dedup/src/store.rs",
];

/// Copying method calls H1 flags when they appear as `.name(`.
const H1_METHODS: &[&str] = &["to_vec", "copy_from_slice", "extend_from_slice"];

/// H1: no casual payload copies in data-path modules. Flags
/// `.to_vec()` / `.copy_from_slice(..)` / `.extend_from_slice(..)`
/// method calls and the `Bytes::copy_from_slice` constructor; each
/// surviving site must justify itself with
/// `// nasd-lint: allow(hot-path-copy, "why the copy is the point")`.
pub(crate) fn check_h1(src: &Source, out: &mut Vec<RawFinding>) {
    if !in_file_scope(&src.path, H1_FILES, false) {
        return;
    }
    let toks = &src.lexed.tokens;
    let mut push = |line: u32, what: &str| {
        out.push(RawFinding {
            rule: "H1",
            file: src.path.clone(),
            line,
            message: format!(
                "`{what}` copies payload bytes on the data path; keep the \
                 zero-copy rope/Bytes views, or justify the copy with a \
                 reasoned allow(hot-path-copy)"
            ),
            allow: Some("hot-path-copy"),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_punct('.') && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                if H1_METHODS.contains(&name) {
                    if let Some(next) = toks.get(i + 1) {
                        push(next.line, &format!(".{name}()"));
                    }
                }
            }
        } else if seq_path(toks, i, "Bytes", "copy_from_slice") {
            push(t.line, "Bytes::copy_from_slice");
        }
    }
}

/// The deleted blocking call surface: defining any of these in the
/// transport crate resurrects the pre-`CallOptions` API.
const A1_LEGACY_METHODS: &[&str] = &["call", "call_timeout", "call_retry"];

/// A1: the deprecated blocking call methods stay deleted. PR 8 collapsed
/// `Rpc::call` / `call_timeout` / `call_retry` onto the single
/// `call_with(&CallOptions)` surface shared by every transport; a fresh
/// `fn call(` in `crates/net` would fork the API again, and callers
/// would silently lose retry/timeout/stats policy. Unsuppressable.
pub(crate) fn check_a1(src: &Source, out: &mut Vec<RawFinding>) {
    if crate_of(&src.path) != Some("net") {
        return;
    }
    let toks = &src.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|n| n.ident()) else {
            continue;
        };
        if A1_LEGACY_METHODS.contains(&name)
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('<'))
        {
            out.push(RawFinding {
                rule: "A1",
                file: src.path.clone(),
                line: t.line,
                message: format!(
                    "`fn {name}` reintroduces the deleted blocking call surface; \
                     route callers through `call_with(&CallOptions)` on a \
                     Channel/Transport instead"
                ),
                allow: None,
            });
        }
    }
}

/// Crates whose managers (and the backup store) use capabilities.
pub(crate) const M1_CRATES: &[&str] = &["fm", "cheops", "mgmt", "pfs", "dedup"];

/// The file holding the fleet's mint, the one place a capability is signed.
pub(crate) const M1_MINT_FILE: &str = "crates/fm/src/drives.rs";

/// M1: one mint. A manager makes a capability only through
/// `fleet.mint(..)`, which signs at the version the fleet's one table
/// tracks. Any other `.mint(` call in a manager crate's non-test code
/// (an endpoint's, a `CapabilityPublic`'s, a private helper) can sign at
/// a version a revocation already retired, and a `.mint_partition(`
/// there signs for a partition the caller picked rather than the
/// fleet's. Unsuppressable.
pub(crate) fn check_m1(src: &Source, out: &mut Vec<RawFinding>) {
    let manager_src = crate_of(&src.path)
        .is_some_and(|c| M1_CRATES.contains(&c) && src.path.contains(&format!("crates/{c}/src/")));
    if !manager_src || src.path.ends_with(M1_MINT_FILE) {
        return;
    }
    let toks = &src.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let called = |name| {
            t.is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_ident(name))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        };
        let receiver = i.checked_sub(1).and_then(|r| toks.get(r));
        let via_fleet = receiver.is_some_and(|r| r.is_ident("fleet"));
        let message = if called("mint") && !via_fleet {
            "`.mint(` outside the fleet signs at a version the fleet's \
             table may have revoked; mint through `fleet.mint(fh, rights, \
             region)` instead"
        } else if called("mint_partition") {
            "`.mint_partition(` outside the fleet signs for a partition of \
             the caller's choosing; list and create through `fleet.list(ep)` \
             and `fleet.create(ep, near, preallocate)` instead"
        } else {
            continue;
        };
        out.push(RawFinding {
            rule: "M1",
            file: src.path.clone(),
            line: t.line,
            message: message.to_owned(),
            allow: None,
        });
    }
}

/// F1: every crate root keeps `#![forbid(unsafe_code)]`.
pub(crate) fn check_f1(src: &Source, out: &mut Vec<RawFinding>) {
    if !src.path.ends_with("src/lib.rs") {
        return;
    }
    let toks = &src.lexed.tokens;
    let found = (0..toks.len()).any(|i| {
        toks.get(i).is_some_and(|t| t.is_punct('#'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 7).is_some_and(|t| t.is_punct(']'))
    });
    if !found {
        out.push(RawFinding {
            rule: "F1",
            file: src.path.clone(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
            allow: None,
        });
    }
}
