//! Experiment harnesses regenerating every table and figure in the
//! paper's evaluation (§3–§6).
//!
//! Each module owns one experiment and exposes a `run()` returning
//! structured rows; [`report`] turns them into a
//! [`nasd::obs::BenchReport`](nasd::obs) and registers the experiment by
//! name, and the one binary, `nasd-bench`, runs registry entries and
//! prints, writes and gates their reports. The module tests assert the
//! *shape* results the paper claims (who wins, by roughly what factor,
//! where the knees fall).
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig4`] | server cost overhead vs. number of disks |
//! | [`fig6`] | NASD vs FFS vs raw sequential bandwidth vs request size |
//! | [`fig7`] | cached-read scaling, 13 drives × 1–10 clients |
//! | [`table1`] | per-request instruction costs and 200 MHz timings |
//! | [`fig9`] | parallel data mining: NASD PFS vs NFS vs NFS-parallel |
//! | [`andrew`] | Andrew-benchmark parity of NASD-NFS vs NFS |
//! | [`active`] | Active Disks frequent-sets vs the client-based run |
//! | [`ablations`] | design-choice sweeps: RPC cost, stripe unit, crypto, CPU |
//! | [`rebuild`] | degraded bandwidth vs. nasd-mgmt reconstruction throttle |
//! | [`perf`] | wall-clock/allocation costs of the zero-copy data path |
//! | [`recovery`] | crash-recovery (WAL replay) time vs. log length |
//! | [`backup`] | dedup backup lifecycle: full, incremental, restore, GC |
//! | [`scale`] | Fig 7 extended 10–100×: 13–128 drives × 100–1000 clients |
//!
//! `fig7`, `fig9` and `scale` are one simulated installation measured
//! three ways; the private `testbed` module owns its hardware, its
//! closed-loop engine and its data path once.
//!
//! ```text
//! cargo run --release -p nasd-bench -- list
//! cargo run --release -p nasd-bench -- fig7 --json fig7.json --min max_aggregate_mb_s=50
//! cargo run --release -p nasd-bench -- all BENCH_baseline.json
//! cargo run --release -p nasd-bench -- check fig7.json BENCH_baseline.json
//! ```
//!
//! The text a run prints is [`table::render_report`] of the same report
//! `--json` writes, so the two cannot disagree.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "benchmarks time the functional stack by the wall clock; no simulated result reads it"
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod active;
pub mod andrew;
pub mod backup;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod perf;
pub mod rebuild;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod table;
pub mod table1;
mod testbed;
