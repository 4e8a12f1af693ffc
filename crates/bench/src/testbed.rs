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
/// in schedule order. A heap entry is 16 bytes, the time and one word
/// packing the schedule seq over the actor ([`Keys`]); each actor's op
/// seq and bytes in flight sit in a table indexed by actor. A
/// completion's successor overwrites it in place at the head, so an
/// event costs one sift and no allocation.
pub(crate) fn closed_loop<W, F>(mut world: W, actors: usize, window: SimTime, mut step: F) -> Run<W>
where
    F: FnMut(&mut W, SimTime, usize, u64) -> (SimTime, u64),
{
    let keys = Keys::for_population(actors);
    // Per actor: (op seq, bytes) of its operation in flight.
    let mut inflight = Vec::with_capacity(actors);
    let mut pending = BinaryHeap::with_capacity(actors);
    for actor in 0..actors {
        let (at, bytes) = step(&mut world, SimTime::ZERO, actor, 0);
        inflight.push((0u64, bytes));
        pending.push(Reverse((at, keys.key(actor as u64, actor))));
    }
    let mut next_seq = actors as u64;
    let mut delivered = Throughput::new();
    let mut completions = 0u64;
    while let Some(mut head) = pending.peek_mut() {
        let Reverse((now, key)) = *head;
        if now > window {
            break;
        }
        let actor = keys.actor(key);
        let (seq, bytes) = inflight[actor];
        delivered.record(now, bytes);
        completions += 1;
        let (at, bytes) = step(&mut world, now, actor, seq + 1);
        assert!(at >= now, "an operation completed before it was issued");
        inflight[actor] = (seq + 1, bytes);
        *head = Reverse((at, keys.key(next_seq, actor)));
        next_seq += 1;
    }
    Run {
        world,
        delivered,
        events_run: actors as u64 + completions,
    }
}

/// How [`closed_loop`] packs a pending completion's schedule seq above
/// its actor's index in one word. Seqs are unique, so keys order as
/// their seqs do.
#[derive(Clone, Copy)]
struct Keys {
    /// Bits holding the largest actor index.
    shift: u32,
}

impl Keys {
    /// The packing for `actors` actors; panics past 2^32 of them.
    fn for_population(actors: usize) -> Self {
        let shift = usize::BITS - (actors.max(2) - 1).leading_zeros();
        assert!(
            shift <= 32,
            "closed_loop packs an actor index into at most 32 bits: {actors} actors do not fit"
        );
        Keys { shift }
    }

    /// The key of `actor`'s completion scheduled `seq`-th; panics once
    /// `seq` no longer fits above the actor bits.
    fn key(self, seq: u64, actor: usize) -> u64 {
        assert!(
            seq >> (64 - self.shift) == 0,
            "closed_loop packs a schedule seq into {} bits: event {seq} does not fit",
            64 - self.shift
        );
        seq << self.shift | actor as u64
    }

    /// The actor a key names.
    fn actor(self, key: u64) -> usize {
        (key & ((1 << self.shift) - 1)) as usize
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
        DataPath {
            serving_cpu: vec![FifoResource::new("serving-cpu"); cpus],
            serving_link: vec![oc3("serving-link"); links],
            client_link: vec![oc3("client-link"); clients],
            client_cpu: vec![FifoResource::new("client-cpu"); clients],
        }
    }

    /// Move a message occupying each link for `wire` (a [`wire_time`])
    /// from serving machine `(cpu, link)` to `client` starting no
    /// earlier than `start`, charging `serve` and `receive` at the two
    /// CPUs. Returns when the client CPU is done.
    pub(crate) fn transfer(
        &mut self,
        start: SimTime,
        (cpu, link): (usize, usize),
        client: usize,
        serve: SimTime,
        wire: SimTime,
        receive: SimTime,
    ) -> SimTime {
        let (_, t1) = self.serving_cpu[cpu].reserve(start, serve);
        let (_, t2) = self.serving_link[link].reserve(t1, wire);
        let (_, t3) = self.client_link[client].reserve(t2, wire);
        let (_, t4) = self.client_cpu[client].reserve(t3, receive);
        t4
    }
}

/// An idle OC-3 link of class `class`.
fn oc3(class: &'static str) -> BandwidthShare {
    BandwidthShare::new(class, OC3_BYTES_PER_SEC)
}

/// How long `bytes` occupy a testbed link. Every link is OC-3, so a
/// world converts each of its message sizes once and hands
/// [`DataPath::transfer`] the time.
pub(crate) fn wire_time(bytes: u64) -> SimTime {
    oc3("oc3").wire_time(bytes)
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

    #[test]
    fn closed_loop_keeps_the_kernels_order_with_the_actor_field_full() {
        // 64 and 256 actors fill the key's 6 and 8 actor bits; 65 takes
        // a seventh bit for one actor.
        for actors in [2, 64, 65, 256] {
            let window = SimTime::from_millis(30);
            let ours = closed_loop(Vec::new(), actors, window, toy_step);
            let kernel = kernel_loop(Vec::new(), actors, window, toy_step);
            let ties = ours.world.windows(2).filter(|w| w[0].0 == w[1].0).count();
            assert!(ties >= ours.world.len() / 2, "the toy world must tie often");
            assert_eq!(
                ours.world, kernel.world,
                "{actors} actors: step calls differ"
            );
            assert_eq!(ours.delivered.bytes(), kernel.delivered.bytes());
            assert_eq!(ours.events_run, kernel.events_run);
        }
    }

    #[test]
    fn keys_order_by_schedule_seq_up_to_the_packings_limits() {
        // 1,000 actors take 10 bits, leaving the seq 54.
        let keys = Keys::for_population(1_000);
        let last = (1 << 54) - 1;
        for seq in [0, 1, last - 1] {
            assert!(keys.key(seq, 999) < keys.key(seq + 1, 0));
            assert_eq!(keys.actor(keys.key(seq, 999)), 999);
        }
        assert_eq!(keys.actor(keys.key(last, 999)), 999);
        assert_eq!(Keys::for_population(1 << 32).shift, 32);
    }

    #[test]
    #[should_panic(expected = "schedule seq into 54 bits: event 18014398509481984 does not fit")]
    fn a_schedule_seq_past_the_packing_is_refused() {
        let _ = Keys::for_population(1_000).key(1 << 54, 0);
    }

    #[test]
    #[should_panic(expected = "4294967297 actors do not fit")]
    fn a_population_past_the_packing_is_refused() {
        let _ = Keys::for_population((1 << 32) + 1);
    }
}
