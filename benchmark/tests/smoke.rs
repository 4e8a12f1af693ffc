//! Smoke tests of the benchmark binary: every workload runs clean at
//! smoke size, every output check fires when a stored byte is wrong,
//! and the names the binary prints are the names `BENCHMARK.json` lists.

use nasd::obs::Json;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nasd-benchmark");
/// Scratch space cargo provides to integration tests, inside the
/// target directory.
const TMP: &str = env!("CARGO_TARGET_TMPDIR");
const SMOKE_SECONDS: &str = "0.2";

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Run the binary from the scratch directory with its outputs under
/// `out` (relative, so socket paths stay short); returns the exit
/// status and the result object, if a last line was printed.
fn run(out: &str, args: &[&str]) -> (bool, Option<Json>) {
    let output = Command::new(BIN)
        .current_dir(TMP)
        .env("NASD_BENCH_OUT", out)
        .args(args)
        .output()
        .expect("start the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout
        .lines()
        .last()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {l}")));
    (output.status.success(), last)
}

fn workload_names() -> Vec<String> {
    names_of(benchmark_json().get("workloads").expect("workloads"))
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
    let expected = names_of(benchmark_json().get("end_to_end").expect("end_to_end"));
    for w in workload_names() {
        let (ok, result) = run(
            "clean",
            &[
                "--workload",
                &w,
                "--seed",
                "5",
                "--seconds",
                SMOKE_SECONDS,
                "--trace",
                "0",
            ],
        );
        let result = result.expect("a result line");
        assert!(ok, "{w} exited non-zero: {result:?}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        assert!(
            result.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
            "{w}"
        );
        assert_eq!(metric_names(&result), expected, "{w}");
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            assert!(
                value > 0.0,
                "{w} {name} = {value}: end-to-end metrics are never 0"
            );
        }
    }
}

#[test]
fn one_wrong_stored_byte_fails_every_workload() {
    for w in workload_names() {
        let (ok, result) = run(
            "corrupt",
            &[
                "--workload",
                &w,
                "--seed",
                "5",
                "--seconds",
                SMOKE_SECONDS,
                "--trace",
                "0",
                "--corrupt",
            ],
        );
        let result = result.expect("a result line");
        assert!(!ok, "{w} exited zero although its stored bytes are wrong");
        assert!(
            result.get("failed").and_then(Json::as_u64).unwrap() > 0,
            "{w}"
        );
        assert_eq!(
            result.get("correct").map(Json::to_json_string).as_deref(),
            Some("false"),
            "{w}"
        );
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_a_trace() {
    let expected = names_of(benchmark_json().get("per_layer").expect("per_layer"));
    for w in workload_names() {
        let (ok, result) = run(
            "traced",
            &[
                "--workload",
                &w,
                "--seed",
                "5",
                "--seconds",
                SMOKE_SECONDS,
                "--trace",
                "1",
            ],
        );
        let result = result.expect("a result line");
        assert!(ok, "{w} exited non-zero: {result:?}");
        assert_eq!(metric_names(&result), expected, "{w}");
        let trace = Path::new(TMP)
            .join("traced")
            .join(format!("trace-{w}.jsonl"));
        let text = std::fs::read_to_string(&trace).expect("trace file");
        let first = Json::parse(text.lines().next().expect("a span")).expect("span is JSON");
        for key in [
            "thread", "req", "span", "parent", "name", "start_ns", "end_ns",
        ] {
            assert!(first.get(key).is_some(), "{w}: span lacks {key}");
        }
    }
}

#[test]
fn unknown_workload_prints_no_result() {
    let (ok, result) = run(
        "unknown",
        &["--workload", "nope", "--seconds", SMOKE_SECONDS],
    );
    assert!(!ok);
    assert!(result.is_none());
}

/// The binary's catalogue and `BENCHMARK.json` name the same workloads
/// and the same metrics, with the same units, directions and bounds.
#[test]
fn catalogue_matches_benchmark_json() {
    let (ok, catalogue) = run("catalogue", &["catalogue"]);
    assert!(ok);
    let catalogue = catalogue.expect("a catalogue line");
    let file = benchmark_json();
    let listed: Vec<&str> = catalogue
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|n| n.as_str().expect("a name"))
        .collect();
    assert_eq!(listed, workload_names());
    for section in ["end_to_end", "per_layer"] {
        assert_eq!(
            catalogue.get(section).map(Json::to_json_string),
            file.get(section).map(Json::to_json_string),
            "{section} differs between the binary and BENCHMARK.json"
        );
    }
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_u64),
        Some(10),
        "DEFAULT_SECONDS in main.rs is run_seconds"
    );
}
