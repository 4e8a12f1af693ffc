//! Runs the nasd-lint binary against the fixture corpus: the good tree
//! must exit 0, and every known-bad tree must exit nonzero with the
//! expected rule ID in its report.

use std::path::PathBuf;
use std::process::Output;

fn run_on(fixture: &str) -> Output {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    std::process::Command::new(env!("CARGO_BIN_EXE_nasd-lint"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("spawn nasd-lint")
}

fn expect_bad(fixture: &str, rule: &str) {
    let out = run_on(fixture);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "{fixture}: expected nonzero exit, got success\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("[{rule}]")),
        "{fixture}: expected a [{rule}] finding\n{stdout}"
    );
}

#[test]
fn good_tree_is_clean() {
    let out = run_on("good");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "good: expected exit 0\n{stdout}");
    assert!(stdout.contains("0 findings"), "good: {stdout}");
}

#[test]
fn w1_missing_matrix_arm_is_reported() {
    expect_bad("bad-w1", "W1");
    let out = run_on("bad-w1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("NasdStatus::Busy") && stdout.contains("retry"),
        "bad-w1 should name the variant missing from the retry matrix\n{stdout}"
    );
}

#[test]
fn w1_missing_authority_row_is_reported() {
    let out = run_on("bad-w1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("RequestBody::Format") && stdout.contains("authority table"),
        "bad-w1 should name the request kind with no declared authority\n{stdout}"
    );
    assert!(
        !stdout.contains("RequestBody::Read"),
        "fully covered variants must not be flagged\n{stdout}"
    );
}

#[test]
fn l1_lock_order_cycle_is_reported() {
    expect_bad("bad-l1", "L1");
}

#[test]
fn f1_missing_forbid_or_deny_line_is_reported() {
    expect_bad("bad-f1", "F1");
    let out = run_on("bad-f1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(
            "workload/src/lib.rs:1: [F1] crate root is missing `#![forbid(unsafe_code)]`"
        ),
        "a crate root without the forbid line is flagged\n{stdout}"
    );
    assert!(
        stdout.contains("object/src/lib.rs:1: [F1] request-path crate root does not deny clippy::indexing_slicing;"),
        "a request-path deny line missing one lint names that lint\n{stdout}"
    );
    assert!(
        stdout.contains("sim/src/main.rs:1: [F1] request-path crate root does not deny"),
        "a request-path binary root needs the deny line too\n{stdout}"
    );
    assert!(
        stdout.contains("3 findings"),
        "nothing else fires\n{stdout}"
    );
}

#[test]
fn suppressions_require_a_reason() {
    expect_bad("bad-suppress", "S0");
    let out = run_on("bad-suppress");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("[H1]"),
        "the reasonless allow still suppresses the H1 finding itself\n{stdout}"
    );
}

#[test]
fn c1_missing_cast_deny_and_tainted_arith_are_reported() {
    expect_bad("bad-c1", "C1");
    let out = run_on("bad-c1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wal.rs:1: [C1] C1 module does not deny clippy::cast_possible_truncation"),
        "bad-c1 should flag the replay module that lost its cast deny line\n{stdout}"
    );
    assert!(
        stdout.contains("unchecked `+`/`*` on wire-derived integer `len`"),
        "bad-c1 should flag arithmetic on the wire-read binding\n{stdout}"
    );
    assert_eq!(
        stdout.matches("[C1]").count(),
        2,
        "exactly the deny line and the `+` — `u64::from` widening is fine\n{stdout}"
    );
}

#[test]
fn e1_discards_are_reported_but_bindings_are_not() {
    expect_bad("bad-e1", "E1");
    let out = run_on("bad-e1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("`let _ = …`") && stdout.contains("statement-level `.ok()`"),
        "both discard shapes should be flagged\n{stdout}"
    );
    assert_eq!(
        stdout.matches("[E1]").count(),
        2,
        "`let rx = ….ok();` keeps the Option and must not be flagged\n{stdout}"
    );
}

#[test]
fn l2_blocking_calls_under_a_guard_are_reported() {
    expect_bad("bad-l2", "L2");
    let out = run_on("bad-l2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(".write_block(..)") && stdout.contains("pace(..)"),
        "device I/O and pace under the guard should both be flagged\n{stdout}"
    );
    assert_eq!(
        stdout.matches("[L2]").count(),
        2,
        "dropping the guard before pace is the sanctioned shape\n{stdout}"
    );
}

#[test]
fn json_report_is_valid_and_counts_match() {
    let report = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bad-c1-report.json");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad-c1");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nasd-lint"))
        .args(["check", "--root"])
        .arg(&root)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("spawn nasd-lint");
    assert!(!out.status.success(), "bad-c1 has findings");
    let text = std::fs::read_to_string(&report).expect("report file written");
    let json = nasd_obs::json::Json::parse(&text).expect("report parses as JSON");
    let get = |k: &str| match &json {
        nasd_obs::json::Json::Obj(fields) => fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.clone())
            .expect("key present"),
        other => panic!("report root should be an object, got {other:?}"),
    };
    assert_eq!(
        get("schema"),
        nasd_obs::json::Json::str("nasd-lint-report/v1")
    );
    assert_eq!(get("finding_count"), nasd_obs::json::Json::num_u64(2));
    match get("findings") {
        nasd_obs::json::Json::Arr(items) => assert_eq!(items.len(), 2),
        other => panic!("findings should be an array, got {other:?}"),
    }
}

#[test]
fn explain_covers_every_suppressible_rule_and_allow_class() {
    for query in ["C1", "E1", "L2", "arith", "swallowed-error"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nasd-lint"))
            .args(["explain", query])
            .output()
            .expect("spawn nasd-lint");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "explain {query} should succeed\n{stdout}"
        );
        assert!(
            stdout.contains("nasd-lint: allow("),
            "explain {query} should show the allow syntax\n{stdout}"
        );
    }
    // The rules clippy holds now are not nasd-lint's to explain.
    for query in ["no-such-rule", "P1", "P2", "D1", "wall-clock", "cast"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nasd-lint"))
            .args(["explain", query])
            .output()
            .expect("spawn nasd-lint");
        assert!(!out.status.success(), "explain {query} should fail");
    }
}

#[test]
fn h1_hot_path_copies_are_reported() {
    expect_bad("bad-h1", "H1");
    let out = run_on("bad-h1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(".to_vec()") && stdout.contains(".copy_from_slice()"),
        "bad-h1 should flag both the flat copy and the staging copy\n{stdout}"
    );
    assert!(
        !stdout.contains("copies_in_tests_are_fine"),
        "test-only copies must not be flagged\n{stdout}"
    );
}

#[test]
fn a1_resurrected_call_surface_is_reported() {
    expect_bad("bad-a1", "A1");
    let out = run_on("bad-a1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("`fn call`") && stdout.contains("`fn call_timeout`"),
        "bad-a1 should flag both legacy definitions\n{stdout}"
    );
    assert!(
        stdout.contains("call_with"),
        "the finding should point at the one surviving surface\n{stdout}"
    );
}

#[test]
fn m1_a_mint_around_the_fleet_is_reported() {
    expect_bad("bad-m1", "M1");
    let out = run_on("bad-m1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let flagged: Vec<&str> = stdout.lines().filter(|l| l.contains("[M1]")).collect();
    assert_eq!(
        flagged.len(),
        3,
        "only the raw mints outside the fleet are flagged: not `fleet.mint`, \
         not test code, not the fleet's own file\n{stdout}"
    );
    for line in [
        "cheops/src/manager.rs:9",
        "dedup/src/store.rs:7",
        "dedup/src/store.rs:12",
    ] {
        assert!(
            flagged.iter().any(|f| f.contains(line)),
            "the findings name the raw mint at {line}\n{stdout}"
        );
    }
    assert!(
        flagged.iter().any(|f| f.contains("mint_partition")),
        "a partition mint is named as such\n{stdout}"
    );
    assert!(
        stdout.contains("3 findings"),
        "nothing else fires\n{stdout}"
    );
}
