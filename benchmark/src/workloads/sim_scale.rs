//! `sim_scale`: the simulated clock's end-to-end. One logical op is one
//! pass of `nasd_bench::scale::run()` — the 13/32/64/128-drive x
//! 100/400/1000-client matrix — on this thread. The output check is the
//! determinism the figures rest on: every pass yields twelve rows whose
//! SimTime-derived fields are bit-identical to the first pass's.

use super::{Checks, Config, LayerCounters, Workload};
use crate::probe::Probe;
use nasd_bench::scale::{self, ScaleRow};
use std::time::{Duration, Instant};

const ROWS: usize = scale::DRIVE_MATRIX.len() * scale::CLIENT_MATRIX.len();
/// A run is at least this many passes, however short `--seconds` is:
/// the check compares passes with each other.
const MIN_PASSES: u64 = 2;

/// The fields of a row that come from the simulated clock alone.
fn sim_fields(r: &ScaleRow) -> (usize, usize, usize, u64, u64, u64, &'static str, u64) {
    (
        r.drives,
        r.clients,
        r.shards,
        r.aggregate_mb_s.to_bits(),
        r.ops_per_sec.to_bits(),
        r.cap_hit_rate.to_bits(),
        r.bottleneck,
        r.bottleneck_util_pct.to_bits(),
    )
}

pub struct SimScale {
    /// The warm-up pass's rows: what every later pass must reproduce.
    reference: Vec<ScaleRow>,
}

impl SimScale {
    /// Set-up is one untimed pass: it faults the heap in and yields the
    /// reference rows. The matrix takes no seed — its streams are
    /// seeded inside `scale` — so every run simulates the same traffic.
    pub fn new(cfg: &Config) -> Self {
        let mut reference = scale::run();
        if cfg.corrupt {
            reference[0].aggregate_mb_s += 1.0;
        }
        SimScale { reference }
    }
}

impl Workload for SimScale {
    fn measure(&mut self, dur: Duration, tracing: bool) -> Vec<Probe> {
        let start = Instant::now();
        let mut probe = Probe::new(start, tracing);
        while probe.attempted < MIN_PASSES || start.elapsed() < dur {
            probe.begin_op();
            let rows = probe.call("bench.scale_matrix", scale::run);
            let same = rows.len() == ROWS
                && rows
                    .iter()
                    .zip(&self.reference)
                    .all(|(a, b)| sim_fields(a) == sim_fields(b));
            probe.end_op(same);
        }
        vec![probe]
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters::default()
    }

    fn finish(self: Box<Self>) -> Checks {
        Checks::default()
    }
}
