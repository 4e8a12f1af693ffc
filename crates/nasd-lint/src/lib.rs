//! nasd-lint: workspace invariant checker.
//!
//! Statically enforces the invariants the NASD reproduction relies on but
//! the compiler cannot check:
//!
//! - **D1 determinism** — simulation-visible crates must not read wall
//!   clocks, real entropy, or sleep real threads; all time comes from the
//!   simulated clock so chaos runs stay replayable.
//! - **P1 panic-free request paths** — drive / file-manager / Cheops
//!   request handling must return `NasdStatus`-style errors, never
//!   `unwrap()`, `expect()`, `panic!` or bare slice indexing.
//! - **H1 hot-path copy discipline** — data-path modules (drive, store,
//!   cache, wire codec, file-manager and striping clients) must not copy
//!   payload bytes casually: `.to_vec()`, `.copy_from_slice(..)`,
//!   `.extend_from_slice(..)` and `Bytes::copy_from_slice` each need a
//!   reasoned `allow(hot-path-copy)` explaining why the copy is the point.
//! - **P2 transitive panic-freedom** — the same panic patterns reachable
//!   *through helpers* from request entry points, found by BFS over a
//!   workspace call graph (pass 1 of the two-pass analyzer, `graph.rs`).
//! - **C1 cast/arithmetic safety** — narrowing `as` casts and unchecked
//!   `+`/`*` on wire-decoded or on-disk integers in the codec and replay
//!   modules must use `try_from`/`checked_*` or carry a reasoned allow.
//! - **E1 swallowed results** — `let _ = …` and statement-level `.ok()`
//!   on ack/durability/repair paths must handle, propagate or count the
//!   error in an obs metric.
//! - **W1 wire exhaustiveness** — every `RequestBody`, `ReplyBody` and
//!   `NasdStatus` variant must appear in the wire encode arms, the wire
//!   decode arms, the fault-injection matrices and (requests) the
//!   authority table.
//! - **L1 lock order** — nested `Mutex::lock()` acquisitions must form an
//!   acyclic global order.
//! - **L2 guard-across-blocking** — no lock guard may be held across
//!   `pace(..)`, `.observe(..)` or device I/O.
//! - **F1 forbid-unsafe** — every crate root must carry
//!   `#![forbid(unsafe_code)]`.
//! - **A1 one call surface** — the deleted `Rpc::call` /
//!   `call_timeout` / `call_retry` methods must not be redefined in the
//!   transport crate; every caller goes through
//!   `call_with(&CallOptions)`.
//! - **M1 one mint** — in the manager crates (`fm`, `cheops`, `mgmt`,
//!   `pfs`) and the backup store (`dedup`) a capability is minted only
//!   through `fleet.mint(..)`, at the version the fleet's one table
//!   tracks; any other `.mint(`, and any `.mint_partition(`, outside
//!   `crates/fm/src/drives.rs` is a finding.
//!
//! The analyzer runs in two passes: pass 1 lexes every source file,
//! builds a symbol table of `fn` definitions and an over-approximated
//! name-resolved call graph (pruned by crate dependencies parsed from
//! the workspace `Cargo.toml` manifests); pass 2 runs the per-file rules
//! plus the graph-based P2 over it.
//!
//! Findings can be suppressed at a site with a reasoned comment:
//!
//! ```text
//! // nasd-lint: allow(wall-clock, "real-thread RPC pacing, not sim-visible")
//! ```
//!
//! A suppression without a reason string is itself a finding (S0), as is a
//! suppression that no longer matches anything (S1).
//!
//! `NasdStatus` is the status-code enum of the NASD drive interface
//! (Gibson et al., ASPLOS '98, <https://www.pdl.cmu.edu/NASD/>).

#![forbid(unsafe_code)]

pub mod lexer;

mod casts;
mod graph;
mod locks;
mod rules;
mod wire;

use lexer::Lexed;
use nasd_obs::Json;
use std::fmt;

/// A single lint finding: stable rule ID plus file:line location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding before suppression filtering. `allow` names the suppression
/// class that can silence it (`None` = unsuppressable).
#[derive(Debug)]
pub(crate) struct RawFinding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub allow: Option<&'static str>,
}

/// One lexed source file, with a workspace-relative path.
pub(crate) struct Source {
    pub path: String,
    pub lexed: Lexed,
}

#[derive(Debug)]
struct Suppression {
    file_idx: usize,
    line: u32,
    name: String,
    /// Line of code the suppression applies to: the comment's own line if
    /// code shares it, otherwise the next line holding a token.
    target_line: Option<u32>,
    used: bool,
}

/// Run every rule over `(path, contents)` pairs and return the findings
/// that survive suppression, plus any suppression-hygiene findings.
///
/// Paths ending in `Cargo.toml` are treated as workspace manifests: they
/// feed the call graph's crate-dependency map (pruning cross-crate P2
/// edges) and are not lexed as Rust. Without manifests every call-graph
/// edge resolves, which is what small fixture trees want.
pub fn check_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut manifests: Vec<(String, String)> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    for (p, s) in files {
        let path = p.replace('\\', "/");
        if path.ends_with("Cargo.toml") {
            manifests.push((path, s.clone()));
        } else {
            sources.push(Source {
                path,
                lexed: lexer::lex(s),
            });
        }
    }

    let mut raw: Vec<RawFinding> = Vec::new();
    for src in &sources {
        rules::check_d1(src, &mut raw);
        rules::check_p1(src, &mut raw);
        rules::check_e1(src, &mut raw);
        rules::check_h1(src, &mut raw);
        rules::check_f1(src, &mut raw);
        rules::check_a1(src, &mut raw);
        rules::check_m1(src, &mut raw);
        casts::check_c1(src, &mut raw);
    }
    wire::check_w1(&sources, &mut raw);
    locks::check_l1(&sources, &mut raw);
    let call_graph = graph::build(&sources, &manifests);
    graph::check_p2(&sources, &call_graph, &mut raw);

    let mut findings: Vec<Finding> = Vec::new();
    let mut supps: Vec<Suppression> = Vec::new();
    for (idx, src) in sources.iter().enumerate() {
        collect_suppressions(idx, src, &mut supps, &mut findings);
    }

    for r in raw {
        let suppressed = r.allow.is_some_and(|class| {
            supps.iter_mut().any(|s| {
                let hit = sources.get(s.file_idx).is_some_and(|f| f.path == r.file)
                    && s.name == class
                    && s.target_line == Some(r.line);
                if hit {
                    s.used = true;
                }
                hit
            })
        });
        if !suppressed {
            findings.push(Finding {
                rule: r.rule,
                file: r.file,
                line: r.line,
                message: r.message,
            });
        }
    }

    // S1: suppressions that silence nothing are stale and must be removed
    // (skip suppressions that target test-only code, which rules ignore).
    for s in &supps {
        if s.used {
            continue;
        }
        let Some(src) = sources.get(s.file_idx) else {
            continue;
        };
        let targets_test_code = s.target_line.is_some_and(|tl| {
            let on_line: Vec<_> = src.lexed.tokens.iter().filter(|t| t.line == tl).collect();
            !on_line.is_empty() && on_line.iter().all(|t| t.in_test)
        });
        if !targets_test_code {
            findings.push(Finding {
                rule: "S1",
                file: src.path.clone(),
                line: s.line,
                message: format!(
                    "suppression `allow({})` does not match any finding; remove it",
                    s.name
                ),
            });
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

fn collect_suppressions(
    file_idx: usize,
    src: &Source,
    supps: &mut Vec<Suppression>,
    findings: &mut Vec<Finding>,
) {
    for c in &src.lexed.comments {
        // Only plain `// nasd-lint: …` line comments are suppressions; doc
        // comments (`///`, `//!`) may mention the syntax without effect.
        let Some(rest) = c.text.strip_prefix("//") else {
            continue;
        };
        if rest.starts_with('/') || rest.starts_with('!') {
            continue;
        }
        if !rest.trim_start().starts_with("nasd-lint") {
            continue;
        }
        match parse_suppression(&c.text) {
            Some((name, reason)) => {
                let has_reason = reason.is_some_and(|r| !r.trim().is_empty());
                if !has_reason {
                    findings.push(Finding {
                        rule: "S0",
                        file: src.path.clone(),
                        line: c.line,
                        message: format!(
                            "suppression `allow({name})` has no reason; write \
                             `// nasd-lint: allow({name}, \"why this is safe\")`"
                        ),
                    });
                }
                // Reason-less suppressions still suppress, so CI reports
                // exactly one error (the S0 above) per such site.
                supps.push(Suppression {
                    file_idx,
                    line: c.line,
                    name,
                    target_line: target_line(&src.lexed, c.line),
                    used: false,
                });
            }
            None => {
                findings.push(Finding {
                    rule: "S0",
                    file: src.path.clone(),
                    line: c.line,
                    message: "malformed nasd-lint comment; expected \
                              `// nasd-lint: allow(<rule-class>, \"reason\")`"
                        .to_owned(),
                });
            }
        }
    }
}

/// Parse `nasd-lint: allow(name)` / `nasd-lint: allow(name, "reason")` out
/// of a comment. Returns `(name, reason)`, or `None` if malformed.
fn parse_suppression(text: &str) -> Option<(String, Option<String>)> {
    let rest = text.split_once("nasd-lint")?.1;
    let rest = rest.trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix("allow")?;
    let rest = rest.trim_start().strip_prefix('(')?;
    let end = rest.find([',', ')'])?;
    let name = rest.get(..end)?.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return None;
    }
    let after = rest.get(end..)?;
    if let Some(tail) = after.strip_prefix(',') {
        let tail = tail.trim_start();
        let tail = tail.strip_prefix('"')?;
        let (reason, rest) = tail.split_once('"')?;
        rest.trim_start().strip_prefix(')')?;
        Some((name.to_owned(), Some(reason.to_owned())))
    } else {
        after.strip_prefix(')')?;
        Some((name.to_owned(), None))
    }
}

fn target_line(lexed: &Lexed, comment_line: u32) -> Option<u32> {
    if lexed.tokens.iter().any(|t| t.line == comment_line) {
        return Some(comment_line);
    }
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .filter(|&l| l > comment_line)
        .min()
}

/// The crate directory name (`object` in `crates/object/src/...`), if any.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    let (_, rest) = path.split_once("crates/")?;
    rest.split('/').next()
}

/// One entry in the rule registry, driving `explain <rule>` and the JSON
/// report's rule table.
pub struct RuleInfo {
    pub id: &'static str,
    pub title: &'static str,
    /// Suppression class accepted at a site, `None` = unsuppressable.
    pub allow: Option<&'static str>,
    pub rationale: &'static str,
}

/// Every rule the analyzer runs, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        title: "determinism in sim-visible crates",
        allow: Some("wall-clock"),
        rationale: "Chaos runs replay from a seed; any wall clock, OS entropy or \
                    real-thread sleep in a sim-visible crate makes replays diverge. \
                    All time comes from the simulated clock; real-thread pacing goes \
                    through nasd_net::pace.",
    },
    RuleInfo {
        id: "P1",
        title: "panic-free request paths (direct)",
        allow: Some("panic"),
        rationale: "A drive promises every request completes or returns a typed \
                    NasdStatus error; unwrap/expect/panic!/bare indexing in a request \
                    module breaks the acknowledgement promise the chaos suite checks.",
    },
    RuleInfo {
        id: "P2",
        title: "panic-free request paths (transitive, call-graph)",
        allow: Some("transitive-panic"),
        rationale: "P1 is module-local; a helper two hops away can still panic on \
                    behalf of a request. Pass 1 builds a workspace call graph (name- \
                    resolved, so trait-method calls over-approximate to every impl, \
                    pruned by crate dependencies); P2 BFS-reaches helpers from the \
                    request entry modules and flags panic sites there, each with an \
                    example call path.",
    },
    RuleInfo {
        id: "C1",
        title: "cast/arithmetic safety on wire and on-disk integers",
        allow: Some("cast / arith"),
        rationale: "A hostile frame length survives a narrowing `as` cast and \
                    corrupts the replay cursor silently; unchecked +/* on decoded \
                    offsets overflows the same way. Decode paths use try_from and \
                    checked_add/checked_mul mapped to typed Corrupt errors.",
    },
    RuleInfo {
        id: "E1",
        title: "no swallowed Results on ack/durability/repair paths",
        allow: Some("swallowed-error"),
        rationale: "`let _ = send(..)` turns a lost acknowledgement or a failed \
                    repair step into silence. Such sites must handle the error, \
                    propagate it, or at minimum count it in an obs error metric so \
                    operators can see the loss rate.",
    },
    RuleInfo {
        id: "H1",
        title: "hot-path copy discipline",
        allow: Some("hot-path-copy"),
        rationale: "The zero-copy read path dies one to_vec() at a time; every \
                    payload copy on a data-path module must argue why the copy is \
                    the point.",
    },
    RuleInfo {
        id: "W1",
        title: "wire exhaustiveness",
        allow: None,
        rationale: "Every RequestBody/ReplyBody/NasdStatus variant must appear in \
                    wire encode, wire decode, the fault-injection matrices and \
                    (requests) the authority table RequestBody::authority; a \
                    missing arm is a silent protocol or access-policy hole. \
                    Unsuppressable.",
    },
    RuleInfo {
        id: "L1",
        title: "lock-order acyclicity",
        allow: Some("lock-order"),
        rationale: "Nested Mutex acquisitions must follow one global order per \
                    crate; any cycle is a latent deadlock.",
    },
    RuleInfo {
        id: "L2",
        title: "no lock guard held across blocking calls",
        allow: Some("lock-across-blocking"),
        rationale: "pace(..), .observe(..) and device I/O can block; holding a \
                    guard across them serializes every contender for the whole \
                    call, and every in-process call runs on its caller's thread, \
                    so the stall is real.",
    },
    RuleInfo {
        id: "F1",
        title: "forbid unsafe code",
        allow: None,
        rationale: "Every crate root carries #![forbid(unsafe_code)]; the \
                    reproduction needs no unsafe and allowing any would undermine \
                    the panic-freedom analysis. Unsuppressable.",
    },
    RuleInfo {
        id: "A1",
        title: "one call surface on the transport",
        allow: None,
        rationale: "The transport exposes exactly one blocking entry, \
                    call_with(&CallOptions), shared by the in-proc and socket \
                    implementations; redefining the deleted call/call_timeout/\
                    call_retry methods in crates/net would fork retry/timeout \
                    policy away from CallOptions again. Unsuppressable.",
    },
    RuleInfo {
        id: "M1",
        title: "one capability mint",
        allow: None,
        rationale: "Revocation is a version bump (§4.1), and it only holds if \
                    every manager mints at the version the fleet's one table \
                    tracks. In crates fm, cheops, mgmt, pfs and dedup, a `.mint(` \
                    call outside crates/fm/src/drives.rs that is not \
                    `fleet.mint(..)` signs around that table, and a \
                    `.mint_partition(` there signs for a partition other than \
                    the fleet's. Unsuppressable.",
    },
    RuleInfo {
        id: "S0",
        title: "suppressions carry a reason",
        allow: None,
        rationale: "An allow() without a reason string is a finding itself: the \
                    reason is the review artifact.",
    },
    RuleInfo {
        id: "S1",
        title: "suppressions stay load-bearing",
        allow: None,
        rationale: "An allow() that no longer matches any finding is stale and \
                    must be removed, so the suppression inventory never outgrows \
                    the real exception list.",
    },
];

/// Registry lookup by rule id (case-insensitive) or allow class.
#[must_use]
pub fn rule_info(query: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| {
        r.id.eq_ignore_ascii_case(query)
            || r.allow
                .is_some_and(|a| a.split('/').any(|c| c.trim() == query))
    })
}

/// Build the machine-readable findings report (`nasd-lint-report/v1`),
/// shaped like the bench reports CI already archives.
#[must_use]
pub fn report_json(files_checked: usize, findings: &[Finding]) -> Json {
    let mut by_rule: Vec<(String, u64)> = Vec::new();
    for f in findings {
        match by_rule.iter_mut().find(|(r, _)| r == f.rule) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((f.rule.to_owned(), 1)),
        }
    }
    Json::Obj(vec![
        ("schema".to_owned(), Json::str("nasd-lint-report/v1")),
        (
            "files_checked".to_owned(),
            Json::num_u64(files_checked as u64),
        ),
        (
            "finding_count".to_owned(),
            Json::num_u64(findings.len() as u64),
        ),
        (
            "by_rule".to_owned(),
            Json::Obj(
                by_rule
                    .into_iter()
                    .map(|(r, n)| (r, Json::num_u64(n)))
                    .collect(),
            ),
        ),
        (
            "findings".to_owned(),
            Json::Arr(
                findings
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("rule".to_owned(), Json::str(f.rule)),
                            ("file".to_owned(), Json::str(f.file.clone())),
                            ("line".to_owned(), Json::num_u64(u64::from(f.line))),
                            ("message".to_owned(), Json::str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_suppression_forms() {
        assert_eq!(
            parse_suppression("// nasd-lint: allow(wall-clock, \"rpc pacing\")"),
            Some(("wall-clock".into(), Some("rpc pacing".into())))
        );
        assert_eq!(
            parse_suppression("// nasd-lint: allow(panic)"),
            Some(("panic".into(), None))
        );
        assert_eq!(parse_suppression("// nasd-lint: allow()"), None);
        assert_eq!(parse_suppression("// nasd-lint allow(panic)"), None);
        assert_eq!(
            parse_suppression("// nasd-lint: allow(panic, reason)"),
            None
        );
    }

    #[test]
    fn crate_of_extracts_dir() {
        assert_eq!(crate_of("crates/object/src/store.rs"), Some("object"));
        assert_eq!(crate_of("shims/rand/src/lib.rs"), None);
    }

    /// A scope entry naming a file or crate that no longer exists is
    /// ignored silently, so a rule would quietly stop covering code that
    /// moved. Every entry must resolve against the workspace root.
    #[test]
    fn every_scope_entry_names_something_that_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let crates = rules::D1_CRATES.iter().chain(rules::M1_CRATES);
        let mut paths: Vec<String> = crates.map(|c| format!("crates/{c}")).collect();
        paths.extend(
            [
                rules::P1_FILES,
                rules::E1_FILES,
                rules::H1_FILES,
                casts::C1_FILES,
                casts::C1_PREFIXES,
                &[rules::M1_MINT_FILE],
            ]
            .concat()
            .iter()
            .map(|p| (*p).to_owned()),
        );
        let missing: Vec<&String> = paths.iter().filter(|p| !root.join(p).exists()).collect();
        assert!(
            missing.is_empty(),
            "scope entries naming nothing: {missing:?}"
        );
    }
}
