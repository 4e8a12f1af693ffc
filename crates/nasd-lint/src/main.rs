//! nasd-lint CLI.
//!
//! Usage:
//!   `cargo run -p nasd-lint -- check [--root <workspace-dir>] [--json <path>]`
//!   `cargo run -p nasd-lint -- explain <rule-or-allow-class>`
//!
//! `check` scans `crates/*/src/**/*.rs`, every shim crate root and the
//! umbrella `src/lib.rs`, prints findings as `file:line: [RULE] message`,
//! optionally writes the machine-readable
//! `nasd-lint-report/v1` JSON, and exits nonzero if any finding survives
//! suppression. `explain` prints a rule's rationale and allow syntax.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![deny(clippy::cast_possible_truncation)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => check(it),
        Some("explain") => explain(it),
        _ => usage("expected the `check` or `explain` subcommand"),
    }
}

fn check<'a>(mut it: impl Iterator<Item = &'a String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json needs a file path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // When invoked via `cargo run -p nasd-lint` the cwd is already the
    // workspace root; honour --root for out-of-tree invocation.
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_crate_sources(&root, &mut paths);
    if paths.is_empty() {
        eprintln!(
            "nasd-lint: no crates/*/src/**/*.rs under {} (wrong --root?)",
            root.display()
        );
        return ExitCode::FAILURE;
    }
    for shim in list_dir(&root.join("shims")) {
        let lib = shim.join("src").join("lib.rs");
        if lib.is_file() {
            paths.push(lib);
        }
    }
    let umbrella = root.join("src").join("lib.rs");
    if umbrella.is_file() {
        paths.push(umbrella);
    }
    paths.sort();

    let mut files: Vec<(String, String)> = Vec::new();
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(contents) => files.push((relative(&root, p), contents)),
            Err(e) => {
                eprintln!("nasd-lint: cannot read {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let findings = nasd_lint::check_sources(&files);
    for f in &findings {
        println!("{f}");
    }
    println!(
        "nasd-lint: {} files checked, {} finding{}",
        files.len(),
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );

    if let Some(path) = json_out {
        let report = nasd_lint::report_json(files.len(), &findings);
        let mut text = report.to_pretty_string();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("nasd-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("nasd-lint: report written to {}", path.display());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn explain<'a>(mut it: impl Iterator<Item = &'a String>) -> ExitCode {
    let Some(query) = it.next() else {
        eprintln!("nasd-lint: explain needs a rule id or allow class; one of:");
        for r in nasd_lint::RULES {
            eprintln!("  {:3} {}", r.id, r.title);
        }
        return ExitCode::FAILURE;
    };
    let Some(rule) = nasd_lint::rule_info(query) else {
        eprintln!("nasd-lint: no rule or allow class named `{query}`");
        return ExitCode::FAILURE;
    };
    println!("{} — {}", rule.id, rule.title);
    println!();
    println!("{}", unwrap_ws(rule.rationale));
    println!();
    match rule.allow {
        Some(class) => {
            println!("suppress a reviewed site with (reason string required):");
            println!("  // nasd-lint: allow({class}, \"why this is safe\")");
        }
        None => println!("this rule is unsuppressable."),
    }
    ExitCode::SUCCESS
}

/// Collapse the multi-line rationale literals' internal padding.
fn unwrap_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn usage(err: &str) -> ExitCode {
    eprintln!("nasd-lint: {err}");
    eprintln!("usage: cargo run -p nasd-lint -- check [--root <workspace-dir>] [--json <path>]");
    eprintln!("       cargo run -p nasd-lint -- explain <rule-or-allow-class>");
    ExitCode::FAILURE
}

fn collect_crate_sources(root: &Path, out: &mut Vec<PathBuf>) {
    for krate in list_dir(&root.join("crates")) {
        walk_rs(&krate.join("src"), out);
    }
}

fn list_dir(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut v: Vec<PathBuf> = rd
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    v.sort();
    v
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(Result::ok) {
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn relative(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.to_string_lossy().replace('\\', "/")
}
