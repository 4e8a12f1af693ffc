//! `nasd-bench`: run experiments from the registry and judge their reports.
//!
//! ```text
//! nasd-bench <name>... [--json <path>] [--max <key>=<bound>]... [--min <key>=<bound>]...
//!                      [--drives 13,32] [--clients 100,400]
//! nasd-bench all <suite.json>     # every experiment, bundled (BENCH_baseline.json)
//! nasd-bench check <file>...      # validate report/suite files against the schema
//! nasd-bench list                 # the registry
//! ```
//!
//! Each named experiment is run, printed through `table::render_report`
//! and, under `--json`, written as a `nasd-bench-report/v1` file. Every
//! `--max`/`--min` is then judged against the report's `derived` values
//! plus `wall_secs` (the run's wall-clock time, measured here); a missed
//! bound or an unknown key exits non-zero. `--drives`/`--clients`
//! truncate the `scale` matrix for CI's smoke run.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "reports each run's wall_secs; no simulated result reads it"
)]

use nasd::obs::{BenchReport, Json};
use nasd_bench::report::{Experiment, Gate, RunArgs, REGISTRY};
use nasd_bench::table;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

mod counting_alloc;

const USAGE: &str = "usage: nasd-bench <name>... [--json <path>] [--max <key>=<bound>] \
[--min <key>=<bound>] [--drives a,b] [--clients a,b]
       nasd-bench all <suite.json> | check <file>... | list";

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("nasd-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `a,b,c` as a non-empty list of counts.
fn counts(flag: &str, spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| s.trim().parse().ok().filter(|&n| n > 0))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("{flag} {spec}: expected a comma-separated list of counts"))
}

fn run(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let mut words = Vec::new();
    let mut json = None;
    let mut gates = Vec::new();
    let mut args = RunArgs {
        probe: Some(counting_alloc::probe),
        ..RunArgs::default()
    };
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            words.push(arg);
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--json" => json = Some(PathBuf::from(value)),
            "--max" | "--min" => gates.push(Gate::parse(&arg, &value)?),
            "--drives" => args.drives = counts(&arg, &value)?,
            "--clients" => args.clients = counts(&arg, &value)?,
            _ => return Err(format!("unknown option {arg}\n{USAGE}")),
        }
    }
    let Some((cmd, rest)) = words.split_first() else {
        return Err(USAGE.to_owned());
    };
    match (cmd.as_str(), rest) {
        ("check", [_, ..]) => check(rest),
        ("list", []) => {
            for e in REGISTRY {
                println!("{:<13} {}", e.name, e.title);
            }
            Ok(())
        }
        ("all", [out]) => {
            let suite = REGISTRY
                .iter()
                .map(|e| run_one(e, &args, None, &gates))
                .collect::<Result<Vec<_>, _>>()?;
            let text = BenchReport::suite_to_json(&suite).to_pretty_string();
            std::fs::write(out, text).map_err(|e| format!("write {out}: {e}"))?;
            let rows: usize = suite.iter().map(|r| r.rows.len()).sum();
            eprintln!("wrote {out}: {} reports, {rows} rows", suite.len());
            Ok(())
        }
        ("check" | "list" | "all", _) => Err(USAGE.to_owned()),
        _ => {
            let chosen = words
                .iter()
                .map(|name| {
                    REGISTRY
                        .iter()
                        .find(|e| e.name == name)
                        .ok_or_else(|| format!("no experiment named {name}; try `nasd-bench list`"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if json.is_some() && chosen.len() > 1 {
                return Err("--json writes one report; `all <file>` writes a suite".to_owned());
            }
            for e in chosen {
                run_one(e, &args, json.as_deref(), &gates)?;
            }
            Ok(())
        }
    }
}

/// Run one experiment: print it, write it, gate it.
fn run_one(
    e: &Experiment,
    args: &RunArgs,
    json: Option<&Path>,
    gates: &[Gate],
) -> Result<BenchReport, String> {
    println!("{}\n", e.title);
    let started = Instant::now();
    let report = (e.run)(args);
    let wall_secs = started.elapsed().as_secs_f64();
    print!("{}", table::render_report(&report));
    if !e.notes.is_empty() {
        println!("\n{}", e.notes);
    }
    println!();
    if let Some(path) = json {
        report
            .write_to(path)
            .map_err(|err| format!("--json {}: {err}", path.display()))?;
        eprintln!("wrote {} ({})", path.display(), report.bench);
    }
    let mut values = report.derived.clone();
    values.push(("wall_secs".to_owned(), wall_secs));
    let mut missed = 0;
    for gate in gates {
        let verdict = gate.check(&values);
        missed += usize::from(verdict.is_err());
        let (Ok(text) | Err(text)) = verdict;
        eprintln!("{}: {text}", e.name);
    }
    if missed > 0 {
        return Err(format!("{}: {missed} bound(s) missed", e.name));
    }
    Ok(report)
}

fn check(files: &[String]) -> Result<(), String> {
    let mut invalid = 0;
    for file in files {
        match validate(file) {
            Ok(desc) => println!("{file}: ok ({desc})"),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                invalid += 1;
            }
        }
    }
    if invalid > 0 {
        return Err(format!("{invalid} invalid file(s)"));
    }
    Ok(())
}

/// Validate one file as a suite (it has a `reports` array) or a single
/// report.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| format!("bad JSON: {e}"))?;
    let reports = match json.get("reports") {
        Some(_) => BenchReport::suite_from_json(&json),
        None => BenchReport::from_json(&json).map(|report| vec![report]),
    }
    .map_err(|e| e.to_string())?;
    let names: Vec<&str> = reports.iter().map(|r| r.bench.as_str()).collect();
    let rows: usize = reports.iter().map(|r| r.rows.len()).sum();
    Ok(format!("{rows} rows in {}", names.join(" ")))
}
