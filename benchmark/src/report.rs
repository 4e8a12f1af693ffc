//! Output: the one-line result object of a single run, the table and
//! result file of a full run, and the two-set agreement check.

use crate::metrics::{AllocProbe, END_TO_END, PER_LAYER};
use crate::run::{self, Outcome};
use crate::workloads::{Config, NAMES};
use nasd::obs::Json;

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — values with all their
/// digits (`Json` writes the shortest text that reads back exactly).
fn metrics_object(outcome: &Outcome) -> Json {
    obj(outcome
        .metrics
        .iter()
        .map(|&(name, value)| {
            let metric = obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]);
            (name, metric)
        })
        .collect())
}

fn outcome_fields(correct: bool, attempted: u64, failed: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
    ]
}

/// The result object a single run prints as its last line.
pub fn result_line(outcome: &Outcome) -> String {
    let mut fields = outcome_fields(outcome.correct, outcome.attempted, outcome.failed);
    fields.push(("metrics", metrics_object(outcome)));
    obj(fields).to_json_string()
}

/// The metric sections of `BENCHMARK.json`, as this binary knows them:
/// what the drift test compares the committed file with.
pub fn catalogue() -> String {
    let end_to_end = END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj(vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ])
    });
    obj(vec![
        (
            "workloads",
            Json::Arr(NAMES.iter().map(|n| Json::str(*n)).collect()),
        ),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
    .to_json_string()
}

fn print_table(title: &str, outcome: &Outcome) {
    println!(
        "{title}: {} ops and checks, {} failed",
        outcome.attempted, outcome.failed
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// Every workload untraced, then every workload traced; a table of
/// every metric by name with its unit, and `results.json` beside the
/// trace files, headed by where the numbers come from (the CPU pinned
/// to, the CPUs the machine offered). False when any output check
/// failed.
pub fn all(
    cfg: &Config,
    seconds: f64,
    (pinned, nproc): (Option<usize>, usize),
    alloc: AllocProbe,
) -> bool {
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    println!(
        "pinned: {}  nproc: {nproc}  seed: {}  seconds: {seconds}",
        pinned.map_or("no".to_string(), |cpu| format!("cpu {cpu}")),
        cfg.seed
    );
    let mut ok = true;
    let mut end_to_end = Vec::new();
    for name in NAMES {
        let outcome = run::untraced(name, cfg, seconds).expect("known workload");
        print_table(&format!("{name} end-to-end (tracing off)"), &outcome);
        ok &= outcome.correct;
        end_to_end.push(outcome);
    }
    let mut per_workload = Vec::new();
    for (name, e2e) in NAMES.iter().zip(&end_to_end) {
        let layers = run::traced(name, cfg, seconds, alloc).expect("known workload");
        print_table(
            &format!("{name} per-layer (traced run + layer rig)"),
            &layers,
        );
        ok &= layers.correct;
        let mut fields = outcome_fields(
            e2e.correct && layers.correct,
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
        );
        fields.push(("end_to_end", metrics_object(e2e)));
        fields.push(("per_layer", metrics_object(&layers)));
        per_workload.push((*name, obj(fields)));
    }
    let json = obj(vec![
        ("pinned", Json::Bool(pinned.is_some())),
        ("nproc", Json::num_u64(nproc as u64)),
        ("rustc", env("NASD_BENCH_RUSTC")),
        ("commit", env("NASD_BENCH_COMMIT")),
        ("seed", Json::num_u64(cfg.seed)),
        ("seconds", Json::Num(seconds)),
        ("workloads", obj(per_workload)),
    ])
    .to_pretty_string();
    let path = cfg.out_dir.join("results.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// Run the untraced set twice and compare: set B may be worse than set
/// A by at most each metric's bound, on every workload. Prints every
/// pair; false on any disagreement or failed output check.
pub fn agree(cfg: &Config, seconds: f64) -> bool {
    let set = |label: &str| -> Vec<Outcome> {
        NAMES
            .iter()
            .map(|name| {
                eprintln!("set {label}: {name}");
                run::untraced(name, cfg, seconds).expect("known workload")
            })
            .collect()
    };
    let (a, b) = (set("A"), set("B"));
    let mut ok = true;
    println!(
        "{:<14} {:<10} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set A", "set B", "worse", "bound"
    );
    for ((name, a), b) in NAMES.iter().zip(&a).zip(&b) {
        ok &= a.correct && b.correct;
        for (m, ((_, va), (_, vb))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            let worse = if m.better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse <= m.bound { "" } else { "  DISAGREE" };
            ok &= worse <= m.bound;
            println!(
                "{name:<14} {:<10} {va:>14.4} {vb:>14.4} {:>7.1}% {:>5.0}%{verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}
