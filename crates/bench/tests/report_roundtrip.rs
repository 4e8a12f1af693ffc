//! Golden-file test for the machine-readable bench output: the `fig6`
//! report must survive a full serialize → parse → re-serialize cycle
//! byte-for-byte, and every suite report must validate against the
//! schema it claims.

use nasd::obs::{BenchReport, Json, BENCH_REPORT_SCHEMA};
use nasd_bench::{fig6, report};

#[test]
fn fig6_json_round_trips_exactly() {
    let original = report::fig6_report(&fig6::run());
    let text = original.to_json_string();

    // Parse back through the schema-checked path.
    let parsed = BenchReport::from_json_str(&text).expect("schema-valid");
    assert_eq!(parsed.bench, "fig6");
    assert_eq!(parsed.rows.len(), original.rows.len());
    assert_eq!(parsed.config.len(), original.config.len());

    // Golden property: re-serialization is byte-identical, so float
    // precision and key order both survive the trip.
    assert_eq!(parsed.to_json_string(), text);
}

#[test]
fn fig6_report_claims_the_versioned_schema() {
    let json = report::fig6_report(&fig6::run()).to_json();
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some(BENCH_REPORT_SCHEMA)
    );
}

#[test]
fn fig6_rows_expose_every_curve_of_the_figure() {
    let parsed =
        BenchReport::from_json_str(&report::fig6_report(&fig6::run()).to_json_string()).unwrap();
    let needed = [
        "size",
        "ffs_hit",
        "nasd_hit",
        "raw_read",
        "nasd_miss",
        "ffs_miss",
        "ffs_write",
        "nasd_write",
        "raw_write",
    ];
    for row in &parsed.rows {
        for key in needed {
            assert!(
                row.iter().any(|(k, _)| k == key),
                "row missing column {key}"
            );
        }
    }
}

/// The oracle for every refactor of the simulated testbed and of the
/// drive's request pipeline: the SimTime-derived rows, config and
/// derived fields of `fig7`, `fig9` and `scale`, the per-request
/// instruction accounting of `table1` (every cell is a live
/// `NasdDrive::handle` call), and `andrew`'s operation counts and
/// modelled times equal the checked-in `BENCH_baseline.json`. Only
/// `events_per_wall_sec` (a host wall-clock measurement) is excluded.
#[test]
fn deterministic_reports_match_baseline() {
    use nasd_bench::{andrew, fig7, fig9, scale};

    fn without_wall_clock(mut r: BenchReport) -> String {
        for row in &mut r.rows {
            row.retain(|(k, _)| k != "events_per_wall_sec");
        }
        r.to_json_string()
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_baseline.json");
    let baseline = BenchReport::suite_from_json(&Json::parse(&text).expect("baseline is JSON"))
        .expect("baseline is a schema-valid suite");

    for fresh in [
        report::fig7_report(&fig7::run()),
        report::fig9_report(&fig9::run()),
        report::scale_report(&scale::run()),
        report::table1_report(),
        report::andrew_report(&andrew::run()),
    ] {
        let bench = fresh.bench.clone();
        let golden = baseline
            .iter()
            .find(|r| r.bench == bench)
            .unwrap_or_else(|| panic!("baseline has no {bench} report"));
        assert_eq!(
            without_wall_clock(fresh),
            without_wall_clock(golden.clone()),
            "{bench} drifted from BENCH_baseline.json"
        );
    }
}
