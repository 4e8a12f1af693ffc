//! The repository benchmark: five pinned closed-loop workloads, three
//! end-to-end metrics each, and a per-layer table from a traced run and
//! a layer rig. See `benchmark/README.md`.
//!
//! ```text
//! nasd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result object
//! nasd-benchmark [all] [--seed <n>] [--seconds <s>] [--quick]
//!     every workload untraced, then traced; a table of every metric
//!     and out/results.json
//! nasd-benchmark agree [--seed <n>] [--seconds <s>] [--quick]
//!     the untraced set twice; fails unless set B is within each
//!     metric's bound of set A
//! nasd-benchmark catalogue
//!     the workload and metric names, units, directions and bounds
//! ```
//!
//! The counting allocator lives here, not in a library: installing a
//! `#[global_allocator]` needs `unsafe impl GlobalAlloc`, and the
//! library crates carry `#![forbid(unsafe_code)]` (same arrangement as
//! `crates/bench/src/bin/perf.rs`).

mod device;
mod metrics;
mod pattern;
mod pin;
mod probe;
mod report;
mod rig;
mod run;
mod stats;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter bumps do not allocate,
// and relaxed ordering is enough for tallies that publish no other data
// and are read after the fact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to
        // get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_probe() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Run length of `--quick`: a smoke run, not a measurement.
const QUICK_SECONDS: f64 = 0.2;
/// Run length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "all".into(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        corrupt: false,
    };
    let mut quick = false;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "all" | "agree" | "catalogue" => args.mode = a,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: must be within (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                };
            }
            "--quick" => quick = true,
            // Self-test hook: store wrong bytes so the output checks fire.
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(args)
}

fn main() -> ExitCode {
    // CPUs before pinning: afterwards the answer is 1.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Before anything spawns a thread: children inherit the mask.
    let pinned = pin::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!(
            "warning: could not pin to one CPU; these numbers are not comparable with pinned ones"
        );
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nasd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // run.sh names the directory; by default it is the one the driver's
    // working directory (the checkout root) holds.
    let out_dir =
        PathBuf::from(std::env::var_os("NASD_BENCH_OUT").unwrap_or_else(|| "benchmark/out".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("nasd-benchmark: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let cfg = workloads::Config {
        seed: args.seed,
        corrupt: args.corrupt,
        out_dir,
    };

    let ok = match (&args.workload, args.mode.as_str()) {
        (Some(name), _) => {
            let outcome = if args.trace {
                run::traced(name, &cfg, args.seconds, alloc_probe)
            } else {
                run::untraced(name, &cfg, args.seconds)
            };
            let Some(outcome) = outcome else {
                eprintln!(
                    "nasd-benchmark: unknown workload {name}; known: {}",
                    workloads::NAMES.join(", ")
                );
                return ExitCode::from(2);
            };
            println!("{}", report::result_line(&outcome));
            outcome.correct
        }
        (None, "agree") => report::agree(&cfg, args.seconds),
        (None, "catalogue") => {
            println!("{}", report::catalogue());
            true
        }
        (None, _) => report::all(&cfg, args.seconds, (pinned, nproc), alloc_probe),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
