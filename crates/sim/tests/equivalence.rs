//! Model check: the kernel must execute seeded schedule/cancel scripts
//! exactly as a reference model does.
//!
//! A script is generated from a seeded PRNG: a mix of schedules (with
//! delays spanning nanoseconds to tens of seconds), cancels of random
//! earlier events, steps, and `run_until` windows. Each executed event
//! appends `(script index, fire time)` to a trace. The reference model
//! keeps its pending events in a plain list and runs the `(time, seq)`
//! minimum each step; the kernel's trace must match it exactly.

use nasd_obs::SimTime;
use nasd_sim::{EventId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// One step of a schedule/cancel script, interpreted identically by
/// the kernel and the model.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule event number `idx` at `delay` past the current clock;
    /// the event itself schedules `chain` follow-ups at `chain_delay`
    /// intervals (cascades exercise scheduling from inside dispatch).
    Schedule {
        idx: u32,
        delay: SimTime,
        chain: u8,
        chain_delay: SimTime,
    },
    /// Cancel the `nth` event scheduled so far (if still known).
    Cancel { nth: usize },
    /// Run up to `n` single steps.
    Step { n: u8 },
    /// Run until `window` past the current clock.
    RunUntil { window: SimTime },
}

/// Delays over six orders of magnitude, from sub-microsecond cascades to
/// events parked tens of seconds out. Zero hits the "cascade at now"
/// path.
fn random_delay(rng: &mut StdRng) -> SimTime {
    match rng.gen_range(0..6u32) {
        0 => SimTime::from_nanos(rng.gen_range(0..1_000)),
        1 => SimTime::from_micros(rng.gen_range(1..100)),
        2 => SimTime::from_millis(rng.gen_range(1..10)),
        3 => SimTime::from_millis(rng.gen_range(10..100)),
        4 => SimTime::from_millis(rng.gen_range(100..2_000)),
        _ => SimTime::from_secs(rng.gen_range(2..30)),
    }
}

fn random_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scheduled = 0usize;
    let mut script = Vec::with_capacity(len);
    let mut next_idx = 0u32;
    for _ in 0..len {
        let op = match rng.gen_range(0..10u32) {
            0..=4 => {
                let idx = next_idx;
                next_idx += 1;
                scheduled += 1;
                Op::Schedule {
                    idx,
                    delay: random_delay(&mut rng),
                    chain: rng.gen_range(0..3),
                    chain_delay: random_delay(&mut rng),
                }
            }
            5..=6 if scheduled > 0 => Op::Cancel {
                nth: rng.gen_range(0..scheduled),
            },
            7..=8 => Op::Step {
                n: rng.gen_range(1..5),
            },
            _ => Op::RunUntil {
                window: random_delay(&mut rng),
            },
        };
        script.push(op);
    }
    script
}

/// Execution trace: `(event index, fire time in nanos)` per dispatch.
/// Chained events record `idx | (depth << 24)` so cascades are
/// distinguishable from their parents.
type Trace = Rc<RefCell<Vec<(u32, u64)>>>;

fn run_on_kernel(script: &[Op]) -> Vec<(u32, u64)> {
    let trace: Trace = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new();
    let mut ids: Vec<EventId> = Vec::new();

    fn chained(
        trace: Trace,
        idx: u32,
        depth: u8,
        chain: u8,
        delay: SimTime,
    ) -> impl FnOnce(&mut Simulator) + 'static {
        move |sim: &mut Simulator| {
            trace
                .borrow_mut()
                .push((idx | (u32::from(depth) << 24), sim.now().as_nanos()));
            if depth < chain {
                sim.schedule_in(delay, chained(trace, idx, depth + 1, chain, delay));
            }
        }
    }

    for op in script {
        match *op {
            Op::Schedule {
                idx,
                delay,
                chain,
                chain_delay,
            } => {
                let id = sim.schedule_in(delay, chained(trace.clone(), idx, 0, chain, chain_delay));
                ids.push(id);
            }
            Op::Cancel { nth } => {
                if let Some(&id) = ids.get(nth) {
                    sim.cancel(id);
                }
            }
            Op::Step { n } => {
                for _ in 0..n {
                    if !sim.step() {
                        break;
                    }
                }
            }
            Op::RunUntil { window } => {
                let deadline = sim.now() + window;
                sim.run_until(deadline);
            }
        }
    }
    sim.run();
    let out = trace.borrow().clone();
    out
}

/// The reference model: pending `(at, seq, tag)` entries in a plain
/// list, the minimum found by a scan on every step. `tag` is the trace
/// tag `idx | depth << 24`; `chains[idx]` is script event `idx`'s
/// `(chain, chain_delay)`.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    pending: Vec<(u64, u64, u32)>,
    chains: Vec<(u8, u64)>,
    trace: Vec<(u32, u64)>,
}

impl Model {
    fn schedule(&mut self, at: u64, tag: u32) -> u64 {
        self.seq += 1;
        self.pending.push((at, self.seq, tag));
        self.seq
    }

    fn earliest(&self) -> Option<(u64, u64, u32)> {
        self.pending.iter().min().copied()
    }

    fn step(&mut self) -> bool {
        let Some(e @ (at, _, tag)) = self.earliest() else {
            return false;
        };
        self.pending.retain(|p| *p != e);
        self.now = at;
        self.trace.push((tag, at));
        let (idx, depth) = (tag & 0xff_ffff, tag >> 24);
        let (chain, delay) = self.chains[idx as usize];
        if depth < u32::from(chain) {
            self.schedule(at + delay, idx | ((depth + 1) << 24));
        }
        true
    }
}

fn run_on_model(script: &[Op]) -> Vec<(u32, u64)> {
    let mut m = Model::default();
    let mut ids = Vec::new();
    for op in script {
        match *op {
            Op::Schedule {
                idx,
                delay,
                chain,
                chain_delay,
            } => {
                m.chains.push((chain, chain_delay.as_nanos()));
                ids.push(m.schedule(m.now + delay.as_nanos(), idx));
            }
            Op::Cancel { nth } => {
                if let Some(&seq) = ids.get(nth) {
                    m.pending.retain(|p| p.1 != seq);
                }
            }
            Op::Step { n } => {
                for _ in 0..n {
                    if !m.step() {
                        break;
                    }
                }
            }
            Op::RunUntil { window } => {
                let deadline = m.now + window.as_nanos();
                while m.earliest().is_some_and(|(at, _, _)| at <= deadline) {
                    m.step();
                }
                m.now = m.now.max(deadline);
            }
        }
    }
    while m.step() {}
    m.trace
}

#[test]
fn kernel_matches_reference_model_across_seeds() {
    for (seed, len) in [
        (0x5eed_0001u64, 2_000),
        (0x5eed_0002, 2_000),
        (0x5eed_0003, 2_000),
        (0xfeed_beef, 1_500),
    ] {
        let script = random_script(seed, len);
        let kernel = run_on_kernel(&script);
        let model = run_on_model(&script);
        assert_eq!(
            kernel.len(),
            model.len(),
            "seed {seed:#x}: kernel and model ran different event counts"
        );
        for (i, (k, m)) in kernel.iter().zip(model.iter()).enumerate() {
            assert_eq!(
                k, m,
                "seed {seed:#x}: traces diverge at dispatch {i}: kernel {k:?} vs model {m:?}"
            );
        }
    }
}

#[test]
fn identical_seeds_produce_identical_traces() {
    // Determinism of the kernel itself: same script, same trace.
    let script = random_script(42, 1_000);
    assert_eq!(run_on_kernel(&script), run_on_kernel(&script));
}
