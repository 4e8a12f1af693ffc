//! Wall-clock / allocation perf harness for the zero-copy data path.
//!
//! ```text
//! perf [--json <path>] [--max-allocs-per-cached-read <n>]
//!      [--max-allocs-per-socket-read <n>]
//!      [--max-alloc-bytes-per-durable-write <n>]
//!      [--max-event-allocs-per-dispatch <n>] [--min-dispatch-speedup <x>]
//! ```
//!
//! Prints one row per workload (cached reads, sequential writes, a
//! request-size sweep, socket round-trips, simulator stepping) with
//! wall-clock ns/op, throughput, heap allocations, and payload bytes
//! memcpied per operation. The `--max-allocs-per-*` flags turn the
//! harness into a CI tripwire: exit non-zero when a cached 64 KiB read
//! (in-proc or over the real UDS transport) allocates more than the
//! committed budget, or when a durable 64 KiB write allocates more bytes
//! than its budget (a payload-sized buffer crept back into the log path).

use nasd_bench::{perf, report};
use std::process::ExitCode;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::probe;

fn flag_arg(flag: &str) -> Option<f64> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Reads one per-op column of a row.
type Metric = fn(&perf::PerfRow) -> f64;

/// Fail the run if `workload`'s `what` per op (read by `metric`) exceeds
/// `budget`.
fn tripwire(
    rows: &[perf::PerfRow],
    workload: &str,
    what: &str,
    metric: Metric,
    budget: f64,
) -> Result<(), ()> {
    let row = rows
        .iter()
        .find(|r| r.workload == workload)
        .unwrap_or_else(|| panic!("{workload} row missing"));
    let got = metric(row);
    if got > budget {
        eprintln!(
            "perf: {workload} {what} {got:.2}/op, budget is {budget} — \
             the zero-copy data path regressed"
        );
        return Err(());
    }
    eprintln!("perf: {workload} {what}/op {got:.2} within budget {budget}");
    Ok(())
}

fn main() -> ExitCode {
    let rows = perf::run(Some(probe));

    println!("Data-path / simulator perf (wall-clock, counting allocator)");
    println!(
        "{:<12} {:>8} {:>8} {:>12} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "workload",
        "size",
        "ops",
        "ns/op",
        "MB/s",
        "allocs/op",
        "allocB/op",
        "copied/op",
        "evalloc/op"
    );
    for r in &rows {
        println!(
            "{:<12} {:>8} {:>8} {:>12.0} {:>9.1} {:>10.2} {:>12.0} {:>12.0} {:>10.3}",
            r.workload,
            r.size,
            r.ops,
            r.ns_per_op,
            r.mb_s,
            r.allocs_per_op,
            r.alloc_bytes_per_op,
            r.bytes_copied_per_op,
            r.event_allocs_per_op
        );
    }

    report::emit(&report::perf_report(&rows, true));

    let mut ok = true;
    let allocs: Metric = |r| r.allocs_per_op;
    let alloc_bytes: Metric = |r| r.alloc_bytes_per_op;
    for (flag, workload, what, metric) in [
        (
            "--max-allocs-per-cached-read",
            "cached_read",
            "allocs",
            allocs,
        ),
        (
            "--max-allocs-per-socket-read",
            "socket_read",
            "allocs",
            allocs,
        ),
        (
            "--max-alloc-bytes-per-durable-write",
            "durable_write",
            "allocated bytes",
            alloc_bytes,
        ),
    ] {
        if let Some(budget) = flag_arg(flag) {
            ok &= tripwire(&rows, workload, what, metric, budget).is_ok();
        }
    }
    if let Some(budget) = flag_arg("--max-event-allocs-per-dispatch") {
        // Steady-state calendar-queue dispatch must grow no event
        // infrastructure (slab or heap) — CI pins this at 0.
        let cal = rows
            .iter()
            .find(|r| r.workload == "dispatch_cal_100k")
            .expect("dispatch_cal_100k row missing");
        if cal.event_allocs_per_op > budget {
            eprintln!(
                "perf: dispatch_cal_100k event allocs {:.3}/op, budget is {budget} — \
                 steady-state dispatch is no longer allocation-free",
                cal.event_allocs_per_op
            );
            ok = false;
        } else {
            eprintln!(
                "perf: dispatch event allocs/op {:.3} within budget {budget}",
                cal.event_allocs_per_op
            );
        }
    }
    if let Some(min) = flag_arg("--min-dispatch-speedup") {
        let cal = rows
            .iter()
            .find(|r| r.workload == "dispatch_cal_100k")
            .expect("dispatch_cal_100k row missing");
        let heap = rows
            .iter()
            .find(|r| r.workload == "dispatch_heap_100k")
            .expect("dispatch_heap_100k row missing");
        let speedup = heap.ns_per_op / cal.ns_per_op;
        if speedup < min {
            eprintln!(
                "perf: calendar-queue dispatch is only {speedup:.1}x the BinaryHeap \
                 baseline at 10^5 pending, {min}x required"
            );
            ok = false;
        } else {
            eprintln!("perf: dispatch speedup {speedup:.1}x (>= {min}x required)");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
