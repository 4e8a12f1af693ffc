//! Runs the `nasd-bench` binary: a registry entry writes a report that
//! `check` accepts, a missed bound and an unknown name exit non-zero.

use std::process::{Command, Output};

fn nasd_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nasd-bench"))
        .args(args)
        .output()
        .expect("spawn nasd-bench")
}

#[test]
fn report_is_written_checked_and_gated() {
    let path = std::env::temp_dir().join(format!("nasd-bench-cli-{}.json", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");

    let run = nasd_bench(&["fig7", "--json", file]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "fig7 failed\n{stdout}");
    assert!(stdout.contains("aggregate_mb_s"), "no table\n{stdout}");

    let check = nasd_bench(&["check", file]);
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success(), "check rejected {file}\n{stdout}");
    assert!(stdout.contains("ok (10 rows in fig7)"), "{stdout}");

    let gated = nasd_bench(&["fig7", "--json", file, "--min", "max_aggregate_mb_s=1e9"]);
    let stderr = String::from_utf8_lossy(&gated.stderr);
    assert!(!gated.status.success(), "an unreachable --min passed");
    assert!(
        stderr.contains("max_aggregate_mb_s") && stderr.contains("--min 1000000000"),
        "{stderr}"
    );

    let unknown_key = nasd_bench(&["fig7", "--max", "no_such_key=1"]);
    assert!(!unknown_key.status.success(), "an unknown key passed");

    std::fs::remove_file(&path).expect("remove temp report");
}

#[test]
fn unknown_experiment_is_an_error() {
    let out = nasd_bench(&["nosuch"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nosuch"));
}
