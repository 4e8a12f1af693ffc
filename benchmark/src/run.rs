//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::metrics::{AllocProbe, Values, END_TO_END, PER_LAYER};
use crate::probe::{self, Probe};
use crate::rig;
use crate::stats::{median, quantile_us, robust_rate};
use crate::workloads::{self, Checks, Config, LayerWindow};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Logical ops and output checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind, in catalogue order.
    pub metrics: Values,
}

impl Outcome {
    fn new(probes: &[&[Probe]], checks: Checks, metrics: Values) -> Self {
        let all = || probes.iter().flat_map(|p| p.iter());
        let attempted = checks.attempted + all().map(|p| p.attempted).sum::<u64>();
        let failed = checks.failed + all().map(|p| p.failed).sum::<u64>();
        assert!(
            metrics.iter().all(|(_, v)| v.is_finite()),
            "non-finite metric in {metrics:?}"
        );
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }
}

/// Every op sample of every client thread, ascending.
fn pooled(probes: &[Probe]) -> Vec<u32> {
    let mut all: Vec<u32> = probes
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Ops per busy second, summed over the concurrent client threads.
fn ops_per_s(probes: &[Probe]) -> f64 {
    probes.iter().map(|p| robust_rate(&p.samples)).sum()
}

/// The untraced run: set up [`SETUPS`] times (median is `setup_s`),
/// measure the last for `seconds`, make the final checks.
pub fn untraced(name: &str, cfg: &Config, seconds: f64) -> Option<Outcome> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut checks = Checks::default();
    let mut built = None;
    for _ in 0..SETUPS {
        if let Some(previous) = built.take() {
            let previous: Box<dyn workloads::Workload> = previous;
            checks.add(previous.finish());
        }
        let t0 = Instant::now();
        built = Some(workloads::build(name, cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = built.expect("at least one set-up");
    let probes = workload.measure(Duration::from_secs_f64(seconds), false);
    checks.add(workload.finish());

    let values = vec![
        ("ops_per_s", ops_per_s(&probes)),
        ("op_p50_us", quantile_us(&pooled(&probes), 0.5)),
        ("setup_s", median(&mut setup_s)),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, lookup(&values, m.name)))
        .collect();
    Some(Outcome::new(&[&probes], checks, metrics))
}

/// Measurements the traced run takes on the workload itself.
fn workload_layers(
    plain_sorted: &[u32],
    traced: &[Probe],
    window: &LayerWindow,
    hidden: &LayerWindow,
) -> Values {
    let p50_of = |span: &str| quantile_us(&Probe::durations_of(traced, span), 0.5);
    // Aggregate payload rate of the concurrent clients: bytes over the
    // mean per-client time spent in the named calls.
    let mb_s = |bytes: u64, spans: &[&str]| {
        let busy_ns: u64 = spans
            .iter()
            .flat_map(|s| Probe::durations_of(traced, s))
            .map(u64::from)
            .sum();
        if busy_ns == 0 {
            0.0
        } else {
            bytes as f64 * traced.len() as f64 / 1e6 / (busy_ns as f64 / 1e9)
        }
    };
    let per = |count: u64, of: u64| {
        if of == 0 {
            0.0
        } else {
            count as f64 / of as f64
        }
    };
    let c = &window.counters;
    let h = &hidden.counters;
    vec![
        ("client.op_p99_us", quantile_us(plain_sorted, 0.99)),
        ("client.open_p50_us", p50_of("client.open")),
        ("client.read_p50_us", p50_of("client.read")),
        ("client.write_p50_us", p50_of("client.write")),
        ("client.write_small_p50_us", p50_of("client.write_small")),
        ("client.getattr_p50_us", p50_of("client.getattr")),
        (
            "client.read_mb_s",
            mb_s(traced.iter().map(|p| p.read_bytes).sum(), &["client.read"]),
        ),
        (
            "client.write_mb_s",
            mb_s(
                traced.iter().map(|p| p.write_bytes).sum(),
                &["client.write", "client.write_small"],
            ),
        ),
        (
            "client.trace_overhead_frac",
            quantile_us(&pooled(traced), 0.5) / quantile_us(plain_sorted, 0.5) - 1.0,
        ),
        ("client.capcache_hit_frac", per(c.cap_hits, c.cap_lookups)),
        ("fm.calls_per_op", per(c.fm_calls, window.ops)),
        (
            "object.cache_hit_frac",
            per(h.cache_hits, h.cache_hits + h.cache_misses),
        ),
        ("disk.dev_reads_per_op", per(h.dev.reads, hidden.ops)),
        ("disk.dev_writes_per_op", per(h.dev.writes, hidden.ops)),
        ("disk.dev_busy_frac", per(h.dev.busy_ns, hidden.wall_ns)),
        (
            "disk.dev_bytes_per_user_byte",
            per(h.dev.bytes, hidden.user_bytes),
        ),
    ]
}

fn lookup(values: &Values, metric: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == metric)
        .unwrap_or_else(|| panic!("{metric} was not measured"))
        .1
}

/// Which layer self-times one logical op of `name` is made of, in µs.
/// On one pinned CPU with a closed loop nothing overlaps, so the op's
/// median should be close to their sum; the rest is unattributed.
fn recipe(name: &str, v: &dyn Fn(&str) -> f64) -> Vec<(String, f64)> {
    let us = |metric: &str| v(metric) / 1e3;
    let part = |label: &str, value: f64| (label.to_string(), value);
    let times = |n: f64, metric: &str, value: f64| (format!("{n} x {metric}"), n * value);
    match name {
        "hot_read" => vec![
            part(
                "client.open_p50_us (capability cache)",
                v("client.open_p50_us"),
            ),
            part("client.sign_ns_64k_read", us("client.sign_ns_64k_read")),
            part("net.inproc_rtt_us", v("net.inproc_rtt_us")),
            part("object.read_hit_us_64k", v("object.read_hit_us_64k")),
        ],
        // open = two file-manager lookups, each one hop away; then the
        // 60/15/25 read/write/getattr call, one hop to the drive.
        "meta_mix" => vec![
            times(2.0, "fm.lookup_us", v("fm.lookup_us")),
            times(3.0, "net.inproc_rtt_us", v("net.inproc_rtt_us")),
            part("client.sign_ns_64k_read", us("client.sign_ns_64k_read")),
            times(0.60, "object.read_miss_us_8k", v("object.read_miss_us_8k")),
            times(0.15, "object.write_us_8k", v("object.write_us_8k")),
            times(0.25, "object.getattr_us", v("object.getattr_us")),
        ],
        // A 64 KiB store and a 64 KiB fetch, each across the socket. Two
        // clients share the one CPU, so an op also spans the other
        // client's work: the same sum once more.
        "socket_stream" => {
            let mut own = vec![
                part("client.sign_ns_64k_write", us("client.sign_ns_64k_write")),
                part("client.sign_ns_64k_read", us("client.sign_ns_64k_read")),
                times(2.0, "net.uds_rtt_us", v("net.uds_rtt_us")),
                part("proto.req_encode_ns_64k", us("proto.req_encode_ns_64k")),
                part("proto.req_decode_ns_64k", us("proto.req_decode_ns_64k")),
                part("proto.reply_encode_ns_64k", us("proto.reply_encode_ns_64k")),
                part("proto.reply_decode_ns_64k", us("proto.reply_decode_ns_64k")),
                times(
                    2.0,
                    "net.frame_encode_ns_64k",
                    us("net.frame_encode_ns_64k"),
                ),
                times(
                    2.0,
                    "net.frame_decode_ns_64k",
                    us("net.frame_decode_ns_64k"),
                ),
                part("object.write_us_64k", v("object.write_us_64k")),
                part("object.read_hit_us_64k", v("object.read_hit_us_64k")),
            ];
            let sum = own.iter().map(|(_, us)| us).sum();
            own.push(part(
                "waiting for the other client's op (the sum above)",
                sum,
            ));
            own
        }
        "durable_write" => vec![
            times(
                2.0,
                "client.sign_ns_64k_write",
                us("client.sign_ns_64k_write"),
            ),
            times(2.0, "net.inproc_rtt_us", v("net.inproc_rtt_us")),
            part(
                "object.write_durable_us_64k",
                v("object.write_durable_us_64k"),
            ),
            part(
                "object.write_durable_us_4k",
                v("object.write_durable_us_4k"),
            ),
        ],
        // Each matrix point builds one zipf table per client over
        // 64 objects per drive; a table's cost grows with its length,
        // so count them in tables of 8192 (the 128-drive point's size).
        "sim_scale" => {
            let tables: f64 = nasd_bench::scale::DRIVE_MATRIX
                .iter()
                .flat_map(|d| {
                    nasd_bench::scale::CLIENT_MATRIX
                        .iter()
                        .map(move |c| (d * 64 * c) as f64 / 8_192.0)
                })
                .sum();
            vec![times(
                tables.round(),
                "workload.zipf_build_us_8192",
                v("workload.zipf_build_us_8192"),
            )]
        }
        _ => Vec::new(),
    }
}

/// The traced run: a quarter of `seconds` untraced (the base for the
/// tracing overhead), a quarter traced, then the layer rig.
pub fn traced(name: &str, cfg: &Config, seconds: f64, alloc: AllocProbe) -> Option<Outcome> {
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let mut workload = workloads::build(name, cfg)?;
    let plain = workload.measure(quarter, false);
    let before = workload.counters();
    let t0 = Instant::now();
    let traced = workload.measure(quarter, true);
    let ops: u64 = traced.iter().map(|p| p.attempted).sum();
    let window = LayerWindow {
        counters: workload.counters().since(&before),
        ops,
        user_bytes: traced.iter().map(|p| p.read_bytes + p.write_bytes).sum(),
        wall_ns: t0.elapsed().as_nanos() as u64,
    };
    let hidden = workload.replay_on_drive(ops.min(100_000)).unwrap_or(window);
    let checks = workload.finish();

    let trace_file = cfg.out_dir.join(format!("trace-{name}.jsonl"));
    probe::write_trace(&trace_file, &traced).expect("write the trace file");

    let plain_sorted = pooled(&plain);
    let mut values = workload_layers(&plain_sorted, &traced, &window, &hidden);
    values.extend(rig::run(seconds / 10.0, cfg, alloc));

    let op_p50 = quantile_us(&plain_sorted, 0.5);
    let parts = recipe(name, &|metric| lookup(&values, metric));
    let attributed: f64 = parts.iter().map(|(_, us)| us).sum();
    eprintln!("{name}: one op, median {op_p50:.2} us, by layer self time");
    for (label, us) in &parts {
        eprintln!("  {us:>12.2} us  {label}");
    }
    eprintln!("  {:>12.2} us  unattributed", op_p50 - attributed);
    values.push(("client.attributed_frac", attributed / op_p50));

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, lookup(&values, m.name)))
        .collect();
    Some(Outcome::new(&[&plain, &traced], checks, metrics))
}
