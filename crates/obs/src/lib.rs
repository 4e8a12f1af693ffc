//! Sim-clock-native observability for the NASD reproduction.
//!
//! The paper's entire argument is quantitative — Figures 4/6/7/9 and
//! Table 1 compare throughput, per-request CPU cost, and scaling knees —
//! so the reproduction needs a measurement layer of its own. This crate
//! is that layer, and it sits *below* the simulation kernel so every
//! other crate can use it:
//!
//! * [`SimTime`] — the simulated clock type. It lives here (and is
//!   re-exported by `nasd-sim`) because every metric and trace event is
//!   keyed on simulated time, never the wall clock: observability must
//!   not break the determinism invariant (rule D1) that makes
//!   chaos runs replayable.
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, log-bucketed
//!   [`Histogram`]s and per-resource [`Utilization`] interval sets.
//!   Handles are `Arc`s over atomics: resolve once, record per request.
//! * [`TraceSink`] — a bounded ring buffer of structured [`TraceEvent`]s
//!   (request id, drive id, op, phase) with a JSONL dump for debugging
//!   chaos-test failures.
//! * [`BenchReport`] — the versioned machine-readable schema every
//!   `nasd-bench` experiment emits under `--json`, built on a dependency-free
//!   [`Json`] value type (the workspace's serde is an offline no-op shim).
//! * [`BoundedMap`] — the one bounded map every soft cache is built
//!   on, counting hits, misses and evictions.
//! * [`Throughput`] — the original `nasd-sim` bandwidth meter, folded
//!   in here and re-exported from `nasd-sim` for compatibility.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod bounded;
pub mod datapath;
pub mod json;
mod metrics;
mod report;
mod stats;
mod time;
mod trace;

pub use bounded::BoundedMap;
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, Utilization,
    UtilizationSnapshot,
};
pub use report::{BenchReport, SchemaError, BENCH_REPORT_SCHEMA, BENCH_SUITE_SCHEMA};
pub use stats::Throughput;
pub use time::SimTime;
pub use trace::{TraceEvent, TraceSink};
