//! Bench-suite JSON tooling.
//!
//! ```text
//! benchjson baseline <out.json>   # run every experiment, write the suite
//! benchjson check <file...>       # validate report/suite files against the schema
//! ```
//!
//! `baseline` is how `BENCH_baseline.json` is regenerated; `check` is
//! what CI runs over freshly produced `--json` artifacts.

use nasd::obs::{BenchReport, Json, BENCH_SUITE_SCHEMA};
use nasd_bench::report;
use std::process::ExitCode;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::probe;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "baseline" => baseline(rest),
        Some((cmd, rest)) if cmd == "check" && !rest.is_empty() => check(rest),
        _ => {
            eprintln!("usage: benchjson baseline <out.json> | benchjson check <file...>");
            ExitCode::FAILURE
        }
    }
}

fn baseline(rest: &[String]) -> ExitCode {
    let Some(out) = rest.first() else {
        eprintln!("usage: benchjson baseline <out.json>");
        return ExitCode::FAILURE;
    };
    eprintln!("running the full bench suite (13 experiments)...");
    let suite = report::suite_with(Some(probe));
    let json = BenchReport::suite_to_json(&suite);
    if let Err(e) = std::fs::write(out, json.to_pretty_string()) {
        eprintln!("benchjson: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let rows: usize = suite.iter().map(|r| r.rows.len()).sum();
    eprintln!("wrote {out}: {} reports, {rows} rows", suite.len());
    ExitCode::SUCCESS
}

fn check(files: &[String]) -> ExitCode {
    let mut failed = false;
    for file in files {
        match validate(file) {
            Ok(desc) => println!("{file}: ok ({desc})"),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validate one file as either a single report or a suite.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| format!("bad JSON: {e}"))?;
    let is_suite = json
        .get("schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s == BENCH_SUITE_SCHEMA);
    if is_suite {
        let suite = BenchReport::suite_from_json(&json).map_err(|e| e.to_string())?;
        let rows: usize = suite.iter().map(|r| r.rows.len()).sum();
        Ok(format!("suite of {} reports, {rows} rows", suite.len()))
    } else {
        let report = BenchReport::from_json(&json).map_err(|e| e.to_string())?;
        Ok(format!(
            "report '{}', {} rows",
            report.bench,
            report.rows.len()
        ))
    }
}
