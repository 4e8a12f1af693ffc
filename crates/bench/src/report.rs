//! The experiment registry and its machine-readable output.
//!
//! A [`BenchReport`] is the only thing an experiment produces. This
//! module owns one report builder per experiment (so the JSON shape
//! lives in exactly one place), [`REGISTRY`] — the only list of
//! experiments, which `nasd-bench <name>`, `nasd-bench all` and
//! `nasd-bench list` all read — and [`Gate`], the one pass/fail rule CI
//! applies to a report's `derived` values.

use nasd::cost::asic::{trident_total_gates, AsicBudget, TRIDENT_UNITS};
use nasd::obs::{BenchReport, Json, Registry};

use crate::{
    ablations, active, andrew, backup, fig4, fig6, fig7, fig9, perf, rebuild, recovery, scale,
    table1,
};

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Attach `name = numerator / denominator` as a derived column.
///
/// Every derived ratio goes through here so the zero-denominator guard
/// lives in one place: a ratio with nothing to divide by is *omitted*
/// rather than emitted as the inf/NaN the JSON schema cannot carry.
#[must_use]
pub fn with_derived_ratio(
    r: BenchReport,
    name: &str,
    numerator: f64,
    denominator: f64,
) -> BenchReport {
    if denominator == 0.0 {
        return r;
    }
    r.with_derived(name, numerator / denominator)
}

/// Attach a derived column read off the last row of a sweep — the
/// common "the endpoint is the summary" shape (longest log, most
/// clients). Empty sweeps get no column.
#[must_use]
pub fn with_derived_from_last<T>(
    r: BenchReport,
    name: &str,
    rows: &[T],
    f: impl Fn(&T) -> f64,
) -> BenchReport {
    match rows.last() {
        Some(row) => r.with_derived(name, f(row)),
        None => r,
    }
}

/// Figure 6 rows as a report.
#[must_use]
pub fn fig6_report(rows: &[fig6::Fig6Row]) -> BenchReport {
    let mut r = BenchReport::new("fig6")
        .with_config("unit", Json::str("MB/s"))
        .with_config("drive", Json::str("2 x Seagate Medallist striped at 32 KB"));
    for row in rows {
        r.push_row(vec![
            ("size", Json::num_u64(row.size)),
            ("ffs_hit", num(row.ffs_hit)),
            ("nasd_hit", num(row.nasd_hit)),
            ("raw_read", num(row.raw_read)),
            ("nasd_miss", num(row.nasd_miss)),
            ("ffs_miss", num(row.ffs_miss)),
            ("ffs_write", num(row.ffs_write)),
            ("nasd_write", num(row.nasd_write)),
            ("raw_write", num(row.raw_write)),
        ]);
    }
    r
}

/// Figure 7 rows as a report.
#[must_use]
pub fn fig7_report(rows: &[fig7::Fig7Row]) -> BenchReport {
    let mut r = BenchReport::new("fig7")
        .with_config("ndrives", Json::num_u64(fig7::NDRIVES as u64))
        .with_config("request", Json::num_u64(fig7::REQUEST))
        .with_config("piece", Json::num_u64(fig7::PIECE));
    for row in rows {
        r.push_row(vec![
            ("clients", Json::num_u64(row.clients as u64)),
            ("aggregate_mb_s", num(row.aggregate_mb_s)),
            ("client_idle_pct", num(row.client_idle_pct)),
            ("drive_idle_pct", num(row.drive_idle_pct)),
        ]);
    }
    with_derived_from_last(r, "max_aggregate_mb_s", rows, |row| row.aggregate_mb_s)
}

/// Figure 9 rows as a report.
#[must_use]
pub fn fig9_report(rows: &[fig9::Fig9Row]) -> BenchReport {
    let mut r = BenchReport::new("fig9");
    for row in rows {
        r.push_row(vec![
            ("ndisks", Json::num_u64(row.ndisks as u64)),
            ("nasd_mb_s", num(row.nasd_mb_s)),
            ("nfs_mb_s", num(row.nfs_mb_s)),
            ("nfs_parallel_mb_s", num(row.nfs_parallel_mb_s)),
        ]);
    }
    r
}

/// Figure 3's drive-ASIC gate budget as a report: one row per Trident
/// function unit, the shrink arithmetic as derived values.
#[must_use]
pub fn fig3_report() -> BenchReport {
    let mut r = BenchReport::new("fig3");
    for unit in &TRIDENT_UNITS {
        r.push_row(vec![
            ("unit", Json::str(unit.name)),
            ("gates", Json::num_u64(u64::from(unit.gates))),
        ]);
    }
    let b = AsicBudget::default();
    r.with_derived("trident_total_gates", f64::from(trident_total_gates()))
        .with_derived("freed_area_mm2", b.freed_area_mm2)
        .with_derived("strongarm_area_mm2", b.strongarm_area_mm2)
        .with_derived("leftover_gates", f64::from(b.leftover_gates))
        .with_derived("crypto_gates", f64::from(b.crypto_gates))
        .with_derived("remaining_gates", f64::from(b.remaining_gates()))
}

/// Figure 4 rows as a report.
#[must_use]
pub fn fig4_report(rows: &[fig4::Fig4Row]) -> BenchReport {
    let mut r = BenchReport::new("fig4");
    for row in rows {
        r.push_row(vec![
            ("config", Json::str(row.config)),
            ("ndisks", Json::num_u64(row.ndisks as u64)),
            ("bandwidth_mb_s", num(row.bandwidth_mb_s)),
            ("server_cost", num(row.server_cost)),
            ("overhead_percent", num(row.overhead_percent)),
            ("nasd_overhead_percent", num(row.nasd_overhead_percent)),
        ]);
    }
    r
}

/// Table 1 cells as a report, with the measurement drives' own counters
/// embedded as a metrics snapshot.
#[must_use]
pub fn table1_report() -> BenchReport {
    let registry = Registry::new();
    let rows = table1::run_observed(&registry);
    let mut r = BenchReport::new("table1")
        .with_config("cpu_mhz", num(200.0))
        .with_config("cpi", num(2.2));
    for row in &rows {
        r.push_row(vec![
            ("op", Json::str(row.op)),
            ("cache", Json::str(row.cache)),
            ("size", Json::num_u64(row.size)),
            ("instructions", num(row.instructions)),
            ("pct_comm", num(row.pct_comm)),
            ("time_ms", num(row.time_ms)),
            ("paper_instructions", num(row.paper_instructions)),
            ("paper_pct", num(row.paper_pct)),
            ("paper_time_ms", num(row.paper_time_ms)),
        ]);
    }
    r.with_metrics(registry.snapshot().to_json())
}

/// Andrew rows as a report.
#[must_use]
pub fn andrew_report(rows: &[andrew::AndrewRow]) -> BenchReport {
    let mut r = BenchReport::new("andrew");
    for row in rows {
        r.push_row(vec![
            ("ndrives", Json::num_u64(row.ndrives as u64)),
            ("nasd_ms", num(row.nasd_ms)),
            ("nfs_ms", num(row.nfs_ms)),
            ("nasd_data_bytes", Json::num_u64(row.nasd.data_bytes)),
            ("server_data_bytes", Json::num_u64(row.server.data_bytes)),
        ]);
    }
    r
}

/// Active Disks rows as a report.
#[must_use]
pub fn active_report(rows: &[active::ActiveRow]) -> BenchReport {
    let mut r = BenchReport::new("active_disks");
    for row in rows {
        r.push_row(vec![
            ("config", Json::str(row.config)),
            ("scan_mb_s", num(row.scan_mb_s)),
            ("network_mbits", num(row.network_mbits)),
            ("machines", Json::num_u64(row.machines as u64)),
        ]);
    }
    let (scanned, shipped) = active::demonstrate(2 << 20);
    r.with_derived("demo_bytes_scanned", scanned as f64)
        .with_derived("demo_bytes_shipped", shipped as f64)
}

/// The four ablation sweeps flattened into one report (a `sweep` column
/// tags which study each row belongs to).
#[must_use]
pub fn ablations_report() -> BenchReport {
    let mut r = BenchReport::new("ablations");
    for row in ablations::rpc_sweep() {
        r.push_row(vec![
            ("sweep", Json::str("rpc")),
            ("stack", Json::str(row.stack)),
            ("per_byte", num(row.per_byte)),
            ("client_ceiling_mb_s", num(row.client_ceiling_mb_s)),
            ("limiter", Json::str(row.limiter)),
        ]);
    }
    for row in ablations::stripe_sweep() {
        r.push_row(vec![
            ("sweep", Json::str("stripe")),
            ("unit", Json::num_u64(row.unit)),
            ("per_pair_mb_s", num(row.per_pair_mb_s)),
        ]);
    }
    for row in ablations::security_sweep() {
        r.push_row(vec![
            ("sweep", Json::str("security")),
            ("config", Json::str(row.config)),
            ("added_ms", num(row.added_ms)),
            ("effective_mb_s", num(row.effective_mb_s)),
        ]);
    }
    for row in ablations::cpu_sweep() {
        r.push_row(vec![
            ("sweep", Json::str("cpu")),
            ("mhz", num(row.mhz)),
            ("service_ms", num(row.service_ms)),
            ("drive_mb_s", num(row.drive_mb_s)),
        ]);
    }
    r
}

/// Rebuild-throttle rows as a report.
#[must_use]
pub fn rebuild_report(rows: &[rebuild::RebuildRow]) -> BenchReport {
    let mut r = BenchReport::new("rebuild")
        .with_config("width", Json::num_u64(rebuild::WIDTH as u64))
        .with_config("data_bytes", Json::num_u64(rebuild::DATA))
        .with_config("redundancy", Json::str("parity"));
    for row in rows {
        r.push_row(vec![
            ("setting", Json::str(row.setting)),
            ("rate_bytes_s", Json::num_u64(row.rate)),
            ("foreground_mb_s", num(row.foreground_mb_s)),
            ("rebuild_secs", num(row.rebuild_secs)),
            ("rebuilt_bytes", Json::num_u64(row.rebuilt_bytes)),
        ]);
    }
    // Headline ratio: what fraction of degraded-baseline bandwidth the
    // foreground keeps while an unthrottled rebuild competes with it.
    let baseline = rows.iter().find(|row| row.setting == "no rebuild");
    let unthrottled = rows.iter().find(|row| row.setting == "unthrottled");
    if let (Some(b), Some(u)) = (baseline, unthrottled) {
        r = with_derived_ratio(
            r,
            "unthrottled_foreground_fraction",
            u.foreground_mb_s,
            b.foreground_mb_s,
        );
    }
    r
}

/// Wall-clock/allocation perf rows as a report.
///
/// Unlike the figure reports, the numbers here are host measurements and
/// change run to run; the *shape* (workloads, copy counts) is what
/// downstream readers should compare. `probe_installed` records whether
/// the producing binary had a counting allocator, so a zero in the alloc
/// columns is distinguishable from "not measured".
#[must_use]
pub fn perf_report(rows: &[perf::PerfRow], probe_installed: bool) -> BenchReport {
    let mut r = BenchReport::new("perf")
        .with_config(
            "unit",
            Json::str("wall-clock ns / heap allocs / bytes memcpied"),
        )
        .with_config(
            "alloc_probe",
            Json::str(if probe_installed {
                "installed"
            } else {
                "absent"
            }),
        );
    for row in rows {
        r.push_row(vec![
            ("workload", Json::str(row.workload)),
            ("size", Json::num_u64(row.size)),
            ("ops", Json::num_u64(row.ops)),
            ("ns_per_op", num(row.ns_per_op)),
            ("mb_s", num(row.mb_s)),
            ("allocs_per_op", num(row.allocs_per_op)),
            ("alloc_bytes_per_op", num(row.alloc_bytes_per_op)),
            ("bytes_copied_per_op", num(row.bytes_copied_per_op)),
            ("event_allocs_per_op", num(row.event_allocs_per_op)),
        ]);
    }
    if let Some(cached) = rows.iter().find(|r| r.workload == "cached_read") {
        r = r
            .with_derived("cached_read_allocs_per_op", cached.allocs_per_op)
            .with_derived(
                "cached_read_bytes_copied_per_op",
                cached.bytes_copied_per_op,
            );
    }
    if let Some(seq) = rows.iter().find(|r| r.workload == "seq_write") {
        r = r.with_derived("seq_write_bytes_copied_per_op", seq.bytes_copied_per_op);
    }
    if let Some(durable) = rows.iter().find(|r| r.workload == "durable_write") {
        r = r
            .with_derived(
                "durable_write_alloc_bytes_per_op",
                durable.alloc_bytes_per_op,
            )
            .with_derived(
                "durable_write_bytes_copied_per_op",
                durable.bytes_copied_per_op,
            );
    }
    if let Some(inproc) = rows.iter().find(|r| r.workload == "inproc_read") {
        r = r
            .with_derived("inproc_read_allocs_per_op", inproc.allocs_per_op)
            .with_derived("inproc_read_us", inproc.ns_per_op / 1_000.0);
    }
    if let Some(sock) = rows.iter().find(|r| r.workload == "socket_read") {
        r = r
            .with_derived("socket_read_allocs_per_op", sock.allocs_per_op)
            .with_derived("socket_read_alloc_bytes_per_op", sock.alloc_bytes_per_op)
            .with_derived("socket_read_bytes_copied_per_op", sock.bytes_copied_per_op)
            .with_derived("socket_read_ns_per_op", sock.ns_per_op);
    }
    if let Some(sock) = rows.iter().find(|r| r.workload == "socket_write") {
        r = r
            .with_derived("socket_write_allocs_per_op", sock.allocs_per_op)
            .with_derived("socket_write_alloc_bytes_per_op", sock.alloc_bytes_per_op)
            .with_derived("socket_write_bytes_copied_per_op", sock.bytes_copied_per_op);
    }
    if let Some(point) = rows.iter().find(|r| r.workload == "scale_point") {
        r = r
            .with_derived("scale_point_allocs_per_op", point.allocs_per_op)
            .with_derived("scale_point_alloc_bytes_per_op", point.alloc_bytes_per_op);
    }
    if let Some(open) = rows.iter().find(|r| r.workload == "nfs_open") {
        r = r
            .with_derived("nfs_open_us", open.ns_per_op / 1_000.0)
            .with_derived("nfs_open_allocs_per_op", open.allocs_per_op);
    }
    for row in rows {
        for (name, per_op) in &row.counters {
            r = r.with_derived(format!("{}_{name}", row.workload), *per_op);
        }
    }
    // The kernel's steady-state event-infrastructure allocations while
    // dispatching against 10^5 parked events.
    if let Some(dispatch) = rows.iter().find(|r| r.workload == "dispatch_100k") {
        r = r.with_derived("dispatch_event_allocs_per_op", dispatch.event_allocs_per_op);
    }
    r
}

/// Scale-matrix rows as a report.
///
/// The bandwidth, op-rate and bottleneck columns are simulated and
/// deterministic; `events_per_wall_sec` is a host measurement (the
/// kernel's dispatch rate) and varies run to run like the perf rows.
#[must_use]
pub fn scale_report(rows: &[scale::ScaleRow]) -> BenchReport {
    let mut r = BenchReport::new("scale")
        .with_config("transfer", Json::num_u64(scale::TRANSFER))
        .with_config("zipf_theta", num(0.99))
        .with_config("mix", Json::str("read 60 / write 15 / getattr 25"));
    for row in rows {
        r.push_row(vec![
            ("drives", Json::num_u64(row.drives as u64)),
            ("clients", Json::num_u64(row.clients as u64)),
            ("fm_shards", Json::num_u64(row.shards as u64)),
            ("aggregate_mb_s", num(row.aggregate_mb_s)),
            ("ops_per_sec", num(row.ops_per_sec)),
            ("events_per_wall_sec", num(row.events_per_wall_sec)),
            ("cap_hit_rate", num(row.cap_hit_rate)),
            ("bottleneck", Json::str(row.bottleneck)),
            ("bottleneck_util_pct", num(row.bottleneck_util_pct)),
        ]);
    }
    with_derived_from_last(r, "max_aggregate_mb_s", rows, |row| row.aggregate_mb_s)
}

/// Recovery (WAL replay time vs. log length) rows as a report.
///
/// Like [`perf_report`], the millisecond columns are host measurements
/// that vary run to run; the stable shape is the record counts, the log
/// bytes they occupy, and the recovered-object correctness anchor.
#[must_use]
pub fn recovery_report(rows: &[recovery::RecoveryRow]) -> BenchReport {
    let mut r = BenchReport::new("recovery").with_config(
        "unit",
        Json::str("wall-clock ms per open / us per replayed record"),
    );
    for row in rows {
        r.push_row(vec![
            ("records", Json::num_u64(row.records)),
            ("wal_bytes", Json::num_u64(row.wal_bytes)),
            ("open_ms", num(row.open_ms)),
            ("us_per_record", num(row.us_per_record)),
            ("recovered_objects", Json::num_u64(row.recovered_objects)),
        ]);
    }
    with_derived_from_last(r, "max_log_open_ms", rows, |row| row.open_ms)
}

/// Backup/dedup lifecycle rows as a report.
#[must_use]
pub fn backup_report(rows: &[backup::BackupRow]) -> BenchReport {
    let mut r = BenchReport::new("backup")
        .with_config("data_bytes", Json::num_u64(backup::DATA))
        .with_config("drives", Json::num_u64(backup::NDRIVES as u64))
        .with_config(
            "chunker",
            Json::str("content-defined 4K/16K/64K; 64K image grid"),
        );
    for row in rows {
        r.push_row(vec![
            ("phase", Json::str(row.phase)),
            ("logical_bytes", Json::num_u64(row.logical_bytes)),
            ("stored_bytes", Json::num_u64(row.stored_bytes)),
            ("chunks", Json::num_u64(row.chunks)),
            ("chunks_stored", Json::num_u64(row.chunks_stored)),
            ("secs", num(row.secs)),
            ("mb_s", num(row.mb_s)),
            ("dedup_ratio", num(row.dedup_ratio)),
        ]);
    }
    // The two numbers CI trips on: how well the incremental deduped, and
    // what fraction of physical bytes the prune+GC pass reclaimed.
    if let Some(incr) = rows.iter().find(|row| row.phase == "incremental") {
        r = with_derived_ratio(
            r,
            "incremental_dedup_ratio",
            incr.logical_bytes as f64,
            incr.stored_bytes as f64,
        );
    }
    if let Some(gc) = rows.iter().find(|row| row.phase == "prune+gc") {
        r = with_derived_ratio(
            r,
            "gc_reclaim_fraction",
            gc.logical_bytes.saturating_sub(gc.stored_bytes) as f64,
            gc.logical_bytes as f64,
        );
    }
    r
}

/// What the command line hands an experiment: the counting allocator
/// the binary installed (read by `perf`) and the `scale` matrix axes.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The embedding binary's allocator probe, when it installed one.
    pub probe: Option<perf::AllocProbe>,
    /// `scale`'s drive counts (`--drives`; the full matrix by default).
    pub drives: Vec<usize>,
    /// `scale`'s client counts (`--clients`; the full matrix by default).
    pub clients: Vec<usize>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            probe: None,
            drives: scale::DRIVE_MATRIX.to_vec(),
            clients: scale::CLIENT_MATRIX.to_vec(),
        }
    }
}

/// One registry entry: an experiment `nasd-bench` can run by name.
pub struct Experiment {
    /// Command-line name; equals the `bench` field of the report.
    pub name: &'static str,
    /// What the experiment reproduces, printed above the table.
    pub title: &'static str,
    /// The paper's claim to read the table against, printed below it
    /// (empty when there is none).
    pub notes: &'static str,
    /// Run the experiment.
    pub run: fn(&RunArgs) -> BenchReport,
}

/// Every experiment, in suite order. This is the only list: `all`
/// iterates it, `list` prints it, a name on the command line indexes it.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig3",
        title: "Figure 3: drive ASIC gate budget (Quantum Trident function units)",
        notes: "paper: ~110,000 gates today; the 0.35 micron shrink frees ~40 mm2, a 200 MHz\n\
                StrongARM takes 27 mm2 of it, and crypto support fits in the gates left over.",
        run: |_| fig3_report(),
    },
    Experiment {
        name: "fig4",
        title: "Figure 4: server cost overhead at maximum bandwidth vs NASD's ~10% uplift",
        notes: "paper: low-cost server 380% at 1 disk -> 80% at 6; high-end 1300% at 1 -> 115% at 14.",
        run: |_| fig4_report(&fig4::run()),
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: sequential apparent bandwidth (MB/s) vs request size",
        notes: "paper: FFS hit ~48, NASD hit ~40, raw read ~5, NASD miss ~5, FFS miss ~2.5 MB/s;\n\
                raw write (~7) appears faster than raw read; FFS acks writes <= 64 KB at once.",
        run: |_| fig6_report(&fig6::run()),
    },
    Experiment {
        name: "fig7",
        title: "Figure 7: cached-read scaling, 13 NASD drives, OC-3 links, 2 MB reads over 4 drives",
        notes: "paper: aggregate grows roughly linearly toward ~55 MB/s at 10 clients; clients\n\
                saturate (the DCE RPC receive path) while drive CPUs stay idle.",
        run: |_| fig7_report(&fig7::run()),
    },
    Experiment {
        name: "fig9",
        title: "Figure 9: parallel data mining over 300 MB; NASD n clients x n drives vs one NFS server",
        notes: "paper: NASD scales linearly at 6.2 MB/s per client-drive pair to 45 MB/s;\n\
                NFS bottlenecks at ~20.2 MB/s, NFS-parallel at ~22.5 MB/s.",
        run: |_| fig9_report(&fig9::run()),
    },
    Experiment {
        name: "table1",
        title: "Table 1: measured instructions and estimated time per drive request (200 MHz, CPI 2.2)",
        notes: "paper_* columns are the paper's cells; its Barracuda comparison is 0.3 / 2.2 ms.",
        run: |_| table1_report(),
    },
    Experiment {
        name: "andrew",
        title: "Andrew-style benchmark (5.1): NASD-NFS vs NFS, live op counts through per-op cost models",
        notes: "paper: benchmark times within 5% of each other at 1 and 8 drives.",
        run: |_| andrew_report(&andrew::run()),
    },
    Experiment {
        name: "active_disks",
        title: "Active Disks (6): frequent-sets counting at the drives",
        notes: "paper: 45 MB/s with 10 Mb/s ethernet and 1/3 of the hardware.",
        run: |_| active_report(&active::run()),
    },
    Experiment {
        name: "ablations",
        title: "Ablations: RPC stack cost (4.3), Cheops stripe unit (5.2), drive crypto (4.1), controller MHz (4.4)",
        notes: "the paper chose a 512 KB stripe unit; the prototype's media rate is 6.4 MB/s.",
        run: |_| ablations_report(),
    },
    Experiment {
        name: "rebuild",
        title: "Rebuild throttle sweep: degraded reads while nasd-mgmt rebuilds a failed column onto a spare",
        notes: "tighter throttles lengthen the repair window (second-failure exposure) in\n\
                exchange for foreground bandwidth during the rebuild.",
        run: |_| rebuild_report(&rebuild::run()),
    },
    Experiment {
        name: "perf",
        title: "Data-path / simulator perf: wall clock, heap allocations, payload bytes memcpied per op",
        notes: "",
        run: |args| perf_report(&perf::run(args.probe), args.probe.is_some()),
    },
    Experiment {
        name: "recovery",
        title: "Recovery: mount time vs WAL length (64 B durable writes, 8 objects, no checkpoint)",
        notes: "replay cost is linear in log length; the checkpoint cadence picks the point on\n\
                this curve a crash is allowed to leave behind.",
        run: |_| recovery_report(&recovery::run()),
    },
    Experiment {
        name: "backup",
        title: "Backup lifecycle: full, incremental (a handful of byte edits), verified restore, prune+GC",
        notes: "unchanged chunks cost an index lookup, not a write; the prune+gc row shows\n\
                physical bytes before/after the sweep reclaimed the pruned snapshot.",
        run: |_| backup_report(&backup::run()),
    },
    Experiment {
        name: "scale",
        title: "Scale-out saturation: Fig 7 extended to 13-128 drives x 100-1000 closed-loop clients",
        notes: "paper's Fig 7 tops out at 13 drives x 10 clients (~55 MB/s); the matrix shows\n\
                where each fleet size saturates and on what.",
        run: |args| scale_report(&scale::run_matrix(&args.drives, &args.clients)),
    },
];

/// One CI bound on a report: `--max key=bound` / `--min key=bound` over
/// the report's `derived` values (plus whatever the caller adds, e.g.
/// the CLI-measured `wall_secs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    key: String,
    bound: f64,
    is_max: bool,
}

impl Gate {
    /// Parse the `key=bound` operand of `flag` (`--max` or `--min`).
    ///
    /// # Errors
    ///
    /// A message naming the operand when it is not `key=<number>`.
    pub fn parse(flag: &str, spec: &str) -> Result<Gate, String> {
        let parsed = spec
            .split_once('=')
            .and_then(|(key, bound)| Some((key, bound.parse::<f64>().ok()?)));
        match parsed {
            Some((key, bound)) if !key.is_empty() && !bound.is_nan() => Ok(Gate {
                key: key.to_owned(),
                bound,
                is_max: flag == "--max",
            }),
            _ => Err(format!("{flag} {spec}: expected <key>=<number>")),
        }
    }

    /// Judge `values`: `Ok` with the verdict when the bound holds, `Err`
    /// naming key, value and bound when it is missed — or when no value
    /// is called `key`, so a renamed metric cannot pass by vanishing.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn check(&self, values: &[(String, f64)]) -> Result<String, String> {
        let Gate { key, bound, is_max } = self;
        let flag = if *is_max { "--max" } else { "--min" };
        let Some((_, value)) = values.iter().find(|(k, _)| k == key) else {
            let known: Vec<&str> = values.iter().map(|(k, _)| k.as_str()).collect();
            return Err(format!("{flag} {key}: no such value (has: {known:?})"));
        };
        let holds = if *is_max {
            value <= bound
        } else {
            value >= bound
        };
        if holds {
            Ok(format!("{key} = {value} within {flag} {bound}"))
        } else {
            Err(format!("{key} = {value} misses {flag} {bound}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_report_round_trips() {
        let report = fig4_report(&fig4::run());
        let back = BenchReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back.bench, "fig4");
        assert_eq!(back.rows.len(), report.rows.len());
    }

    #[test]
    fn registry_names_are_unique() {
        let names: std::collections::BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn cheap_entries_render_every_row_and_key() {
        for name in ["fig3", "fig4", "fig6", "fig7", "fig9", "ablations"] {
            let entry = REGISTRY.iter().find(|e| e.name == name).expect(name);
            let report = (entry.run)(&RunArgs::default());
            assert_eq!(report.bench, name);
            assert!(!report.rows.is_empty(), "{name}: no rows");
            let back = BenchReport::from_json_str(&report.to_json_string()).expect(name);
            assert_eq!(back, report, "{name}: not schema-stable");

            let text = crate::table::render_report(&report);
            let lines: Vec<&str> = text.lines().collect();
            let rules: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with("---"))
                .collect();
            let headers: Vec<&str> = rules
                .iter()
                .flat_map(|&i| lines[i - 1].split_whitespace())
                .collect();
            for (key, _) in report.rows.iter().flatten() {
                assert!(headers.contains(&key.as_str()), "{name}: no {key} column");
            }
            // Name, config, a blank + header + rule per table and a line
            // per row, then a blank and the derived values.
            let derived = report.derived.len() + usize::from(!report.derived.is_empty());
            let expected = 1 + report.config.len() + 3 * rules.len() + report.rows.len() + derived;
            assert_eq!(lines.len(), expected, "{name}:\n{text}");
        }
    }

    #[test]
    fn gate_bounds_are_inclusive_and_bite() {
        let at = |v: f64| vec![("other".to_owned(), 0.0), ("k".to_owned(), v)];
        let max = Gate::parse("--max", "k=8").unwrap();
        assert!(max.check(&at(8.0)).is_ok());
        assert!(max.check(&at(7.5)).is_ok());
        let miss = max.check(&at(8.01)).unwrap_err();
        assert!(
            miss.contains('k') && miss.contains("8.01") && miss.contains("--max 8"),
            "{miss}"
        );

        let min = Gate::parse("--min", "k=1e1").unwrap();
        assert!(min.check(&at(10.0)).is_ok());
        assert!(min.check(&at(32.2)).is_ok());
        let miss = min.check(&at(9.99)).unwrap_err();
        assert!(miss.contains("9.99") && miss.contains("--min 10"), "{miss}");
    }

    #[test]
    fn gate_rejects_unknown_keys_and_malformed_operands() {
        let values = vec![("k".to_owned(), 1.0)];
        let unknown = Gate::parse("--max", "renamed=5").unwrap();
        let err = unknown.check(&values).unwrap_err();
        assert!(
            err.contains("renamed") && err.contains("no such value"),
            "{err}"
        );
        for spec in ["k", "k=", "=5", "k=five", "k=NaN", ""] {
            assert!(Gate::parse("--min", spec).is_err(), "{spec:?} parsed");
        }
    }

    #[test]
    fn derived_ratio_guards_zero_denominator() {
        let r = BenchReport::new("x");
        let r = with_derived_ratio(r, "ok", 3.0, 2.0);
        let r = with_derived_ratio(r, "skipped", 1.0, 0.0);
        assert_eq!(r.derived, vec![("ok".to_owned(), 1.5)]);
    }

    #[test]
    fn derived_from_last_skips_empty_sweeps() {
        let r = with_derived_from_last(BenchReport::new("x"), "last", &[1.0f64, 4.0], |v| *v);
        assert_eq!(r.derived, vec![("last".to_owned(), 4.0)]);
        let empty: [f64; 0] = [];
        let r = with_derived_from_last(BenchReport::new("x"), "last", &empty, |v| *v);
        assert!(r.derived.is_empty());
    }

    #[test]
    fn backup_report_derives_gated_ratios() {
        let row = |phase, logical, stored| backup::BackupRow {
            phase,
            logical_bytes: logical,
            stored_bytes: stored,
            chunks: 10,
            chunks_stored: 1,
            secs: 0.5,
            mb_s: 1.0,
            dedup_ratio: 0.0,
        };
        let rows = vec![row("incremental", 100, 5), row("prune+gc", 10, 4)];
        let r = backup_report(&rows);
        assert_eq!(r.rows.len(), 2);
        let derived: std::collections::BTreeMap<_, _> = r.derived.iter().cloned().collect();
        assert_eq!(derived.get("incremental_dedup_ratio"), Some(&20.0));
        assert_eq!(derived.get("gc_reclaim_fraction"), Some(&0.6));
    }

    #[test]
    fn ablations_rows_carry_sweep_tags() {
        let report = ablations_report();
        assert!(report.rows.len() >= 4);
        for row in &report.rows {
            let tag = row.iter().find(|(k, _)| k == "sweep");
            assert!(tag.is_some(), "row missing sweep tag");
        }
    }
}
