//! L1 lock-order and L2 guard-across-blocking analysis.
//!
//! Scans each function body for `.lock()` call chains, names each lock by
//! the field/variable it is called on (`self.state.lock()` → `state`),
//! tracks which guards are still live (let-bound guards live to the end of
//! their block unless `drop(guard)` kills them; temporaries die with their
//! statement), and records an edge A → B whenever B is acquired while A is
//! held. Edges are aggregated per crate into a digraph; any cycle — or a
//! re-acquisition of a lock already held — is a finding. The sanctioned
//! global order is documented in DESIGN.md §Static invariants.
//!
//! L2 reuses the same guard-scope tracking: a call to `pace(..)` (the
//! sanctioned real-thread sleep), `.observe(..)` (histogram under its own
//! lock) or device I/O (`.read_block(..)` / `.write_block(..)`) while any
//! guard is live serializes every contender on that lock for the whole
//! blocking call — a real stall, since every in-process call and every
//! socket connection runs on its caller's own thread. Drop or scope the
//! guard first, or justify with `allow(lock-across-blocking, "…")`.

use crate::lexer::{matching, Tok, Token};
use crate::{crate_of, RawFinding, Source};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug)]
struct Edge {
    file: String,
    line: u32,
}

pub(crate) fn check_l1(sources: &[Source], out: &mut Vec<RawFinding>) {
    // (crate, from-lock, to-lock) -> first site observed
    let mut edges: BTreeMap<(String, String, String), Edge> = BTreeMap::new();
    for src in sources {
        let Some(krate) = crate_of(&src.path) else {
            continue;
        };
        let toks = &src.lexed.tokens;
        let mut i = 0;
        while let Some(t) = toks.get(i) {
            if !t.in_test && t.is_ident("fn") {
                if let Some(open) = (i + 1..toks.len()).find(|&k| {
                    toks.get(k)
                        .is_some_and(|t| t.is_punct('{') || t.is_punct(';'))
                }) {
                    if toks.get(open).is_some_and(|t| t.is_punct('{')) {
                        if let Some(close) = matching(toks, open, '{', '}') {
                            scan_body(src, krate, toks, open, close, &mut edges, out);
                        }
                    }
                }
            }
            i += 1;
        }
    }

    // Detect cycles per crate.
    let crates: BTreeSet<&str> = edges.keys().map(|(c, _, _)| c.as_str()).collect();
    for krate in crates {
        let adj: BTreeMap<&str, Vec<&str>> = {
            let mut m: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (c, from, to) in edges.keys() {
                if c == krate {
                    m.entry(from.as_str()).or_default().push(to.as_str());
                }
            }
            m
        };
        for cycle in find_cycles(&adj) {
            let (Some(&from), Some(&to)) = (cycle.last(), cycle.first()) else {
                continue;
            };
            let Some(site) = edges.get(&(krate.to_owned(), from.to_owned(), to.to_owned())) else {
                continue;
            };
            out.push(RawFinding {
                rule: "L1",
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "lock-order cycle in crate `{}`: {} -> {}; acquire locks in the \
                     global order documented in DESIGN.md",
                    krate,
                    cycle.join(" -> "),
                    to
                ),
                allow: Some("lock-order"),
            });
        }
    }
}

#[derive(Debug)]
struct Guard {
    lock: String,
    var: Option<String>,
    depth: usize,
}

/// Method calls L2 treats as blocking: histogram recording (takes the
/// histogram's own lock) and the simulated-device I/O entry points.
const BLOCKING_METHODS: &[&str] = &["observe", "read_block", "write_block"];

/// L2: report `what` called at `line` while any guard is live.
fn check_l2(src: &Source, line: u32, what: &str, guards: &[Guard], out: &mut Vec<RawFinding>) {
    let Some(g) = guards.last() else {
        return;
    };
    out.push(RawFinding {
        rule: "L2",
        file: src.path.clone(),
        line,
        message: format!(
            "`{what}` called while a guard on `{}` is live; every contender \
             on that lock stalls for the whole call — drop/scope the guard \
             first, or justify with allow(lock-across-blocking)",
            g.lock
        ),
        allow: Some("lock-across-blocking"),
    });
}

fn scan_body(
    src: &Source,
    krate: &str,
    toks: &[Token],
    open: usize,
    close: usize,
    edges: &mut BTreeMap<(String, String, String), Edge>,
    out: &mut Vec<RawFinding>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 1usize;
    let mut stmt_start = open + 1;
    let mut k = open + 1;
    while k < close {
        let Some(t) = toks.get(k) else { break };
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                stmt_start = k + 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_start = k + 1;
            }
            Tok::Punct(';') => {
                stmt_start = k + 1;
            }
            // L2: pace(..) while a guard is live blocks all contenders.
            Tok::Ident(name)
                if name == "pace" && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                check_l2(src, t.line, "pace(..)", &guards, out);
            }
            // L2: observe/device-I/O method calls while a guard is live.
            Tok::Punct('.')
                if toks.get(k + 2).is_some_and(|t| t.is_punct('('))
                    && toks
                        .get(k + 1)
                        .is_some_and(|t| BLOCKING_METHODS.iter().any(|m| t.is_ident(m))) =>
            {
                if let Some(m) = toks.get(k + 1).and_then(|t| t.ident()) {
                    check_l2(src, t.line, &format!(".{m}(..)"), &guards, out);
                }
            }
            // drop(guard) releases a named guard early.
            Tok::Ident(name)
                if name == "drop"
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(var) = toks.get(k + 2).and_then(|t| t.ident()) {
                    guards.retain(|g| g.var.as_deref() != Some(var));
                }
            }
            Tok::Punct('.')
                if toks.get(k + 1).is_some_and(|t| t.is_ident("lock"))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                let line = toks.get(k + 1).map_or(t.line, |n| n.line);
                if let Some(lock) = lock_name(toks, k) {
                    for g in &guards {
                        if g.lock == lock {
                            out.push(RawFinding {
                                rule: "L1",
                                file: src.path.clone(),
                                line,
                                message: format!(
                                    "`{lock}` acquired while a guard on `{lock}` is \
                                     still live (self-deadlock)"
                                ),
                                allow: Some("lock-order"),
                            });
                        } else {
                            edges
                                .entry((krate.to_owned(), g.lock.clone(), lock.clone()))
                                .or_insert(Edge {
                                    file: src.path.clone(),
                                    line,
                                });
                        }
                    }
                    // Let-bound guards stay live; temporaries die with the
                    // statement and contribute only outgoing edges above.
                    if let Some(var) = binding_of(toks, stmt_start, k) {
                        guards.push(Guard { lock, var, depth });
                    }
                }
                k += 3;
            }
            _ => {}
        }
        k += 1;
    }
}

/// The lock's name: walk back from the `.` over index/call groups to the
/// nearest identifier (`self.slots[idx].lock()` → `slots`).
fn lock_name(toks: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &toks.get(j)?.tok {
            Tok::Punct(']') => j = matching_back(toks, j, '[', ']')?.checked_sub(1)?,
            Tok::Punct(')') => j = matching_back(toks, j, '(', ')')?.checked_sub(1)?,
            Tok::Ident(s) => return Some(s.clone()),
            Tok::Punct('.') => j = j.checked_sub(1)?,
            _ => return None,
        }
    }
}

fn matching_back(toks: &[Token], close_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close_idx).rev() {
        let Some(t) = toks.get(k) else { continue };
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// If the statement is `let [mut] <var> = … .lock()`, return `Some(Some(var))`;
/// `let <pattern> = …` returns `Some(None)` (guard live, unnamed); a bare
/// expression returns `None` (temporary).
fn binding_of(toks: &[Token], stmt_start: usize, lock_dot: usize) -> Option<Option<String>> {
    let first = toks.get(stmt_start)?;
    if !first.is_ident("let") {
        return None;
    }
    let mut j = stmt_start + 1;
    while j < lock_dot && toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Ident(v)) => Some(Some(v.clone())),
        _ => Some(None),
    }
}

/// All elementary cycles' node lists (deduplicated by node set); simple DFS,
/// fine for the handful of locks per crate.
fn find_cycles<'a>(adj: &BTreeMap<&'a str, Vec<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut cycles: Vec<Vec<&str>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<&str>> = BTreeSet::new();
    for &start in adj.keys() {
        let mut path: Vec<&str> = vec![start];
        dfs(start, start, adj, &mut path, &mut cycles, &mut seen_sets, 0);
    }
    cycles
}

fn dfs<'a>(
    start: &'a str,
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<&'a str>>,
    seen: &mut BTreeSet<Vec<&'a str>>,
    depth: usize,
) {
    if depth > 16 {
        return;
    }
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if next == start && path.len() > 1 {
            let mut key = path.clone();
            key.sort_unstable();
            if seen.insert(key) {
                cycles.push(path.clone());
            }
        } else if !path.contains(&next) {
            path.push(next);
            dfs(start, next, adj, path, cycles, seen, depth + 1);
            path.pop();
        }
    }
}
