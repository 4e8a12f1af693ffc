//! The one simulated testbed behind Figure 7, Figure 9 and the scale
//! matrix.
//!
//! The paper's scaling evidence is one installation measured three
//! ways, so the reproduction describes it once:
//!
//! * the **prototype hardware** — drive, client and server CPUs and the
//!   OC-3 links between them;
//! * one **closed-loop engine** ([`closed_loop`]): a fixed population
//!   of actors, each re-issuing as soon as its previous operation
//!   completes, measured over a fixed window of simulated time;
//! * one **data path** ([`DataPath`]): serving CPU → serving link →
//!   client link → client CPU, each a contended FIFO stage, plus the
//!   mean-utilization fold the bottleneck reports use.
//!
//! An experiment is a world type that owns a [`DataPath`] plus whatever
//! else it models (disks, FM shards, capability caches) and a step
//! function saying what one operation reserves.

use nasd::sim::{BandwidthShare, CpuModel, FifoResource, SimTime, Throughput};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// OC-3 ATM payload rate, bytes per second (every testbed link).
pub(crate) const OC3_BYTES_PER_SEC: f64 = 155.0e6 / 8.0;

/// The prototype NASD drive: a DEC Alpha 3000/400 (133 MHz).
pub(crate) fn drive_cpu() -> CpuModel {
    CpuModel::new(133.0, 2.2)
}

/// A client: DEC AlphaStation 255 (233 MHz).
pub(crate) fn client_cpu() -> CpuModel {
    CpuModel::new(233.0, 2.2)
}

/// The comparison NFS server and §5.2's file-manager host: DEC
/// AlphaStation 500/500 (500 MHz).
pub(crate) fn server_cpu() -> CpuModel {
    CpuModel::new(500.0, 2.2)
}

/// §4.4's projected drive-resident processor: "a 200 MHz processor,
/// assuming a CPI of 2.2".
pub(crate) fn projected_drive_cpu() -> CpuModel {
    CpuModel::new(200.0, 2.2)
}

/// What a closed-loop run measured.
pub(crate) struct Run<W> {
    /// The experiment's world, for utilization and counter reports.
    pub(crate) world: W,
    /// Bytes and operations completed inside the window.
    pub(crate) delivered: Throughput,
    /// Events run: every actor's first issue plus each completion
    /// inside the window.
    pub(crate) events_run: u64,
}

/// Run `actors` closed-loop actors against `world` for `window` of
/// simulated time.
///
/// `step(world, now, actor, seq)` reserves the resources of the
/// actor's `seq`-th operation issued at `now` and returns its
/// `(completion time, bytes delivered)`. An operation that completes
/// inside the window is counted and its actor issues the next one.
///
/// The loop owns one heap of pending completions, one per actor, keyed
/// `(time, schedule seq)` as the event kernel keys its events: ties run
/// in schedule order. A completion's successor overwrites it in place
/// at the head, so an event costs one sift and no allocation.
pub(crate) fn closed_loop<W, F>(mut world: W, actors: usize, window: SimTime, mut step: F) -> Run<W>
where
    F: FnMut(&mut W, SimTime, usize, u64) -> (SimTime, u64),
{
    // (completion, schedule seq, actor, op seq, bytes)
    let mut pending = BinaryHeap::with_capacity(actors);
    let mut next_seq = 0u64;
    for actor in 0..actors {
        let (at, bytes) = step(&mut world, SimTime::ZERO, actor, 0);
        pending.push(Reverse((at, next_seq, actor, 0u64, bytes)));
        next_seq += 1;
    }
    let mut delivered = Throughput::new();
    let mut completions = 0u64;
    while let Some(mut head) = pending.peek_mut() {
        let Reverse((now, _, actor, seq, bytes)) = *head;
        if now > window {
            break;
        }
        delivered.record(now, bytes);
        completions += 1;
        let (at, bytes) = step(&mut world, now, actor, seq + 1);
        assert!(at >= now, "an operation completed before it was issued");
        *head = Reverse((at, next_seq, actor, seq + 1, bytes));
        next_seq += 1;
    }
    Run {
        world,
        delivered,
        events_run: actors as u64 + completions,
    }
}

/// The contended stages between a serving machine and a client:
/// serving CPU → serving link → client link → client CPU. NASD drives
/// own a CPU and a link each; a store-and-forward server is one CPU
/// behind its links. Links are full-duplex OC-3; a write charges the
/// same serialization in the opposite direction.
pub(crate) struct DataPath {
    pub(crate) serving_cpu: Vec<FifoResource>,
    pub(crate) serving_link: Vec<BandwidthShare>,
    pub(crate) client_link: Vec<BandwidthShare>,
    pub(crate) client_cpu: Vec<FifoResource>,
}

impl DataPath {
    /// Idle stages for `cpus` serving CPUs, `links` serving links and
    /// `clients` clients.
    pub(crate) fn new(cpus: usize, links: usize, clients: usize) -> Self {
        let fifos = |class: &str, n: usize| -> Vec<FifoResource> {
            (0..n)
                .map(|i| FifoResource::new(format!("{class}-{i}")))
                .collect()
        };
        let oc3 = |class: &str, n: usize| -> Vec<BandwidthShare> {
            (0..n)
                .map(|i| BandwidthShare::new(format!("{class}-{i}"), OC3_BYTES_PER_SEC))
                .collect()
        };
        DataPath {
            serving_cpu: fifos("serving-cpu", cpus),
            serving_link: oc3("serving-link", links),
            client_link: oc3("client-link", clients),
            client_cpu: fifos("client-cpu", clients),
        }
    }

    /// Move `wire` bytes from serving machine `(cpu, link)` to `client`
    /// starting no earlier than `start`, charging `serve` and `receive`
    /// at the two CPUs. Returns when the client CPU is done.
    pub(crate) fn transfer(
        &mut self,
        start: SimTime,
        (cpu, link): (usize, usize),
        client: usize,
        serve: SimTime,
        wire: u64,
        receive: SimTime,
    ) -> SimTime {
        let (_, t1) = self.serving_cpu[cpu].reserve(start, serve);
        let (_, t2) = self.serving_link[link].transfer(t1, wire);
        let (_, t3) = self.client_link[client].transfer(t2, wire);
        let (_, t4) = self.client_cpu[client].reserve(t3, receive);
        t4
    }
}

/// Mean utilization over `elapsed` of one resource class (0 if empty).
pub(crate) fn mean_utilization<'a>(
    class: impl IntoIterator<Item = &'a FifoResource>,
    elapsed: SimTime,
) -> f64 {
    let (sum, n) = class.into_iter().fold((0.0, 0usize), |(s, n), r| {
        (s + r.utilization(elapsed), n + 1)
    });
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// [`mean_utilization`] of a class of links.
pub(crate) fn mean_link_utilization(links: &[BandwidthShare], elapsed: SimTime) -> f64 {
    mean_utilization(links.iter().map(BandwidthShare::fifo), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd::sim::Simulator;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The closed loop as the event kernel runs it: one boxed closure
    /// per completion, ties broken by the kernel's schedule order.
    fn kernel_loop<W: 'static>(
        world: W,
        actors: usize,
        window: SimTime,
        step: impl FnMut(&mut W, SimTime, usize, u64) -> (SimTime, u64) + 'static,
    ) -> Run<W> {
        type Step<W> = dyn FnMut(&mut W, SimTime, usize, u64) -> (SimTime, u64);
        struct Loop<W> {
            world: W,
            step: Box<Step<W>>,
            delivered: Throughput,
        }
        fn issue<W: 'static>(
            sim: &mut Simulator,
            lp: &Rc<RefCell<Loop<W>>>,
            actor: usize,
            seq: u64,
        ) {
            let (completion, bytes) = {
                let l = &mut *lp.borrow_mut();
                (l.step)(&mut l.world, sim.now(), actor, seq)
            };
            let lp = Rc::clone(lp);
            sim.schedule_at(completion, move |sim| {
                lp.borrow_mut().delivered.record(sim.now(), bytes);
                issue(sim, &lp, actor, seq + 1);
            });
        }

        let lp = Rc::new(RefCell::new(Loop {
            world,
            step: Box::new(step),
            delivered: Throughput::new(),
        }));
        let mut sim = Simulator::new();
        for actor in 0..actors {
            let lp = Rc::clone(&lp);
            sim.schedule_at(SimTime::ZERO, move |sim| issue(sim, &lp, actor, 0));
        }
        sim.run_until(window);
        let events_run = sim.events_run();
        drop(sim);
        let lp = Rc::try_unwrap(lp)
            .ok()
            .expect("the simulator held the rest")
            .into_inner();
        Run {
            world: lp.world,
            delivered: lp.delivered,
            events_run,
        }
    }

    /// A toy world that logs every step call. Operations last 0-3 ms
    /// in whole milliseconds, so completions tie constantly and some
    /// complete the instant they are issued.
    fn toy_step(
        log: &mut Vec<(SimTime, usize, u64)>,
        now: SimTime,
        actor: usize,
        seq: u64,
    ) -> (SimTime, u64) {
        log.push((now, actor, seq));
        let ms = (actor as u64 * 7 + seq * 3 + seq / 5) % 4;
        (now + SimTime::from_millis(ms), 1000 * actor as u64 + seq)
    }

    #[test]
    fn closed_loop_runs_in_the_kernels_order() {
        for (actors, window_ms) in [(1, 20), (5, 0), (9, 60), (32, 40)] {
            let window = SimTime::from_millis(window_ms);
            let ours = closed_loop(Vec::new(), actors, window, toy_step);
            let kernel = kernel_loop(Vec::new(), actors, window, toy_step);
            let ties = ours.world.windows(2).filter(|w| w[0].0 == w[1].0).count();
            assert!(ties >= ours.world.len() / 3, "the toy world must tie often");
            assert_eq!(
                ours.world, kernel.world,
                "{actors} actors: step calls differ"
            );
            assert_eq!(ours.delivered.bytes(), kernel.delivered.bytes());
            assert_eq!(ours.delivered.operations(), kernel.delivered.operations());
            assert_eq!(ours.delivered.last_event(), kernel.delivered.last_event());
            assert_eq!(ours.events_run, kernel.events_run);
        }
    }
}
