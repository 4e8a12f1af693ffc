//! The event loop: one binary heap of `(time, seq)` keys over a slab of
//! generation-tagged event slots.
//!
//! The heap orders small `Copy` entries, never closures; `seq` is a
//! global schedule counter, so ties run in schedule order and identical
//! runs replay byte for byte. Cancelling drops the closure, bumps the
//! slot's generation and frees the slot at once; the stale heap entry is
//! skipped when it surfaces, so [`Simulator::step`] is one pop plus a
//! generation check. Schedule and pop are O(log n) in the pending set,
//! which in every simulation here is at most one completion per
//! closed-loop actor (DESIGN §15 has the measurements).
//!
//! Infrastructure growth (new slab slots, heap doubling) is counted in
//! [`nasd_obs::datapath::event_allocs`] so the perf harness can prove the
//! steady state stays allocation-free; the only per-event allocation left
//! is the closure box itself.

use nasd_obs::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Generation-tagged: once the event has run or been cancelled its slot
/// is reused under a bumped generation, so a stale id can never cancel
/// an unrelated later event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// One slab slot: the closure of the event currently occupying it (if
/// any) and the generation that heap entries and ids must match.
struct Slot {
    gen: u32,
    run: Option<EventFn>,
}

/// What the heap orders: 24 bytes, `Copy`, no drop glue. The derived
/// order is `(at, seq)` (`seq` is unique, so `slot` and `gen` never
/// decide), wrapped in `Reverse` so the max-heap pops the earliest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// A deterministic discrete-event simulator.
///
/// Events are closures run at a scheduled time; each may inspect the clock
/// and schedule further events. Ties execute in schedule order, making runs
/// reproducible.
///
/// # Example
///
/// ```
/// use nasd_sim::{SimTime, Simulator};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulator::new();
/// let log = Rc::new(RefCell::new(Vec::new()));
/// for ms in [30u64, 10, 20] {
///     let log = log.clone();
///     sim.schedule_at(SimTime::from_millis(ms), move |_| log.borrow_mut().push(ms));
/// }
/// sim.run();
/// assert_eq!(*log.borrow(), vec![10, 20, 30]);
/// ```
pub struct Simulator {
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    events_run: u64,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("events_run", &self.events_run)
            .finish()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Create a simulator at time zero with no pending events.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create a simulator pre-sized for `events` concurrently pending
    /// events, so neither the slab nor the heap grows until that bound
    /// is crossed.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        Simulator {
            now: SimTime::ZERO,
            heap: BinaryHeap::with_capacity(events),
            slots: Vec::with_capacity(events),
            free: Vec::with_capacity(events),
            next_seq: 0,
            events_run: 0,
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_run(&self) -> u64 {
        self.events_run
    }

    /// Number of events still pending (including cancelled ones not yet
    /// reaped).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                // Slab growth: a genuinely new slot.
                nasd_obs::datapath::record_event_allocs(1);
                self.slots.push(Slot { gen: 0, run: None });
                u32::try_from(self.slots.len() - 1).expect("more than u32::MAX live events")
            }
        };
        let gen = {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.run.is_none(), "free-list slot still occupied");
            s.run = Some(Box::new(event));
            s.gen
        };
        if self.heap.len() == self.heap.capacity() {
            nasd_obs::datapath::record_event_allocs(1);
        }
        self.heap.push(Reverse(Entry {
            at,
            seq: self.next_seq,
            slot,
            gen,
        }));
        self.next_seq += 1;
        EventId { slot, gen }
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_in<F>(&mut self, delay: SimTime, event: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a pending event. Cancelling an already-run or already-
    /// cancelled event is a no-op.
    ///
    /// The closure is dropped and the slot recycled at once; the heap
    /// entry is skipped when it surfaces.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(s) = self.slots.get_mut(id.slot as usize) {
            if s.gen == id.gen && s.run.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
                self.free.push(id.slot);
            }
        }
    }

    /// Run a single event if any is pending. Returns `false` when the
    /// event queue is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use nasd_sim::{SimTime, Simulator};
    ///
    /// let mut sim = Simulator::new();
    /// sim.schedule_at(SimTime::from_millis(3), |_| {});
    /// assert!(sim.step(), "one pending event runs");
    /// assert_eq!(sim.now(), SimTime::from_millis(3));
    /// assert!(!sim.step(), "queue is now empty");
    /// ```
    pub fn step(&mut self) -> bool {
        while let Some(Reverse(top)) = self.heap.pop() {
            // One slot borrow decides liveness and takes the closure:
            // cancel and dispatch both bump the generation, so a stale
            // entry (its event cancelled) never matches.
            let s = &mut self.slots[top.slot as usize];
            if s.gen != top.gen {
                continue;
            }
            let run = s.run.take().expect("a matching generation holds a closure");
            s.gen = s.gen.wrapping_add(1);
            self.free.push(top.slot);
            debug_assert!(top.at >= self.now, "event queue went backwards");
            self.now = top.at;
            self.events_run += 1;
            run(self);
            return true;
        }
        false
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or the clock passes `deadline`,
    /// whichever comes first. Events scheduled exactly at the deadline
    /// run. A deadline at or before the current time runs nothing and
    /// leaves the clock where it is (time never goes backwards).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(&Reverse(top)) = self.heap.peek() {
            // Reap a stale head before comparing: a cancelled event
            // inside the window must not let the event *after* the
            // deadline run.
            if self.slots[top.slot as usize].gen != top.gen {
                self.heap.pop();
            } else if top.at > deadline {
                break;
            } else {
                self.step();
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for t in [5u64, 1, 3, 2, 4] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_millis(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.events_run(), 5);
    }

    #[test]
    fn ties_run_in_schedule_order() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_millis(7), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_in(SimTime::from_millis(1), move |sim| {
            h.borrow_mut().push(sim.now().as_millis());
            let h2 = h.clone();
            sim.schedule_in(SimTime::from_millis(2), move |sim| {
                h2.borrow_mut().push(sim.now().as_millis());
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), vec![1, 3]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        let id = sim.schedule_in(SimTime::from_millis(1), move |_| *h.borrow_mut() += 1);
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
        // Cancelling again (already reaped or unknown) is a no-op.
        sim.cancel(id);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        for t in [1u64, 2, 3, 10] {
            let h = hits.clone();
            sim.schedule_at(SimTime::from_millis(t), move |_| h.borrow_mut().push(t));
        }
        sim.run_until(SimTime::from_millis(3));
        assert_eq!(*hits.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), vec![1, 2, 3, 10]);
    }

    #[test]
    fn run_until_with_empty_queue_advances_clock() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_millis(5), |sim| {
            sim.schedule_at(SimTime::from_millis(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn run_until_does_not_overshoot_past_cancelled_head() {
        // A cancelled event inside the window must not drag an event
        // from beyond the deadline into the run.
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let id = sim.schedule_at(SimTime::from_millis(1), move |_| h.borrow_mut().push(1u64));
        let h = hits.clone();
        sim.schedule_at(SimTime::from_millis(100), move |_| h.borrow_mut().push(100));
        sim.cancel(id);
        sim.run_until(SimTime::from_millis(50));
        assert!(hits.borrow().is_empty(), "nothing in the window should run");
        assert_eq!(
            sim.now(),
            SimTime::from_millis(50),
            "clock overshot deadline"
        );
        sim.run();
        assert_eq!(*hits.borrow(), vec![100]);
    }

    #[test]
    fn run_until_with_past_deadline_keeps_clock_monotonic() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        sim.run_until(SimTime::from_millis(3));
        assert_eq!(sim.now(), SimTime::from_millis(5), "clock went backwards");
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn run_until_runs_cascades_scheduled_at_the_deadline() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_at(SimTime::from_millis(10), move |sim| {
            h.borrow_mut().push("first");
            let h2 = h.clone();
            // Scheduled *at* the deadline from within a deadline event.
            sim.schedule_at(SimTime::from_millis(10), move |_| {
                h2.borrow_mut().push("second");
            });
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(*hits.borrow(), vec!["first", "second"]);
    }

    #[test]
    fn event_can_cancel_a_later_event() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let victim = sim.schedule_at(SimTime::from_millis(2), move |_| *h.borrow_mut() += 1);
        sim.schedule_at(SimTime::from_millis(1), move |sim| sim.cancel(victim));
        sim.run();
        assert_eq!(*hits.borrow(), 0, "cancelled-from-an-event still ran");
        assert_eq!(sim.events_run(), 1, "only the cancelling event ran");
    }

    #[test]
    fn event_can_cancel_a_tied_later_event() {
        // Cancellation works even when victim and canceller share a
        // timestamp: ties run in schedule order, the canceller first.
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0u32));
        let t = SimTime::from_millis(3);
        let slot: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        sim.schedule_at(t, move |sim| {
            let victim = s.borrow().expect("victim id recorded");
            sim.cancel(victim);
        });
        let h = hits.clone();
        let victim = sim.schedule_at(t, move |_| *h.borrow_mut() += 1);
        *slot.borrow_mut() = Some(victim);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn cancelled_events_are_reaped_from_pending_count() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_millis(1), |_| {});
        sim.schedule_at(SimTime::from_millis(2), |_| {});
        sim.cancel(a);
        assert_eq!(sim.pending(), 2, "cancelled but not yet reaped");
        assert!(sim.step(), "one live event remains");
        assert_eq!(sim.now(), SimTime::from_millis(2));
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.events_run(), 1);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = Simulator::new();
        assert!(!sim.step());
        sim.schedule_in(SimTime::ZERO, |_| {});
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn stale_id_cannot_cancel_a_reused_slot() {
        // After an event runs, its slot is recycled under a new
        // generation; the old id must not cancel the new occupant.
        let mut sim = Simulator::new();
        let first = sim.schedule_at(SimTime::from_millis(1), |_| {});
        assert!(sim.step());
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let second = sim.schedule_at(SimTime::from_millis(2), move |_| *h.borrow_mut() += 1);
        // The recycled slot means first and second share a slot index.
        sim.cancel(first);
        sim.run();
        assert_eq!(*hits.borrow(), 1, "stale cancel hit the wrong event");
        // Sanity: the ids really did reuse the slab slot.
        assert_ne!(first, second);
    }

    #[test]
    fn steady_state_reuses_slots_without_slab_growth() {
        let mut sim = Simulator::new();
        // Warm up past one wheel-horizon crossing (~67 ms at default
        // geometry): grows one slot, the current heap, and the overflow
        // heap to their steady-state sizes.
        for _ in 0..128 {
            sim.schedule_in(SimTime::from_millis(1), |_| {});
            assert!(sim.step());
        }
        nasd_obs::datapath::reset();
        for _ in 0..1_000 {
            sim.schedule_in(SimTime::from_millis(1), |_| {});
            assert!(sim.step());
        }
        assert_eq!(
            nasd_obs::datapath::event_allocs(),
            0,
            "steady-state schedule/step grew the slab or a heap"
        );
    }

    #[test]
    fn steady_state_stays_alloc_free_with_parked_overflow_events() {
        // 10k events parked seconds in the future (overflow heap) must
        // not make near-term dispatch allocate: the hot path never
        // touches the overflow heap.
        let mut sim = Simulator::new();
        for i in 0..10_000u64 {
            sim.schedule_at(SimTime::from_secs(100 + i), |_| {});
        }
        sim.schedule_in(SimTime::from_micros(10), |_| {});
        assert!(sim.step());
        nasd_obs::datapath::reset();
        for _ in 0..1_000 {
            sim.schedule_in(SimTime::from_micros(10), |_| {});
            assert!(sim.step());
        }
        assert_eq!(
            nasd_obs::datapath::event_allocs(),
            0,
            "near-term dispatch allocated despite untouched parked events"
        );
        assert_eq!(sim.pending(), 10_000);
    }

    #[test]
    fn with_capacity_preallocates() {
        nasd_obs::datapath::reset();
        let mut sim = Simulator::with_capacity(64);
        for _ in 0..64 {
            sim.schedule_in(SimTime::from_millis(1), |_| {});
        }
        assert_eq!(
            nasd_obs::datapath::event_allocs(),
            64,
            "each fresh slot is counted, but pre-sized structures never grow"
        );
        sim.run();
        assert_eq!(sim.events_run(), 64);
    }

    #[test]
    fn overflow_events_rebucket_and_run_in_order() {
        // Events far past the wheel horizon (67 ms default) mixed with
        // near-term ones: execution order must still be (time, seq).
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for t in [5_000u64, 1, 900, 12_000, 40, 7_000, 65, 2_500] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_millis(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        let mut want = vec![5_000u64, 1, 900, 12_000, 40, 7_000, 65, 2_500];
        want.sort_unstable();
        assert_eq!(*log.borrow(), want);
        assert_eq!(sim.now(), SimTime::from_millis(12_000));
    }

    #[test]
    fn cancelled_overflow_event_is_skipped_after_rebucket() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let victim = sim.schedule_at(SimTime::from_secs(10), move |_| *h.borrow_mut() += 1);
        let h = hits.clone();
        sim.schedule_at(SimTime::from_secs(20), move |_| *h.borrow_mut() += 10);
        sim.cancel(victim);
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        assert_eq!(sim.events_run(), 1);
    }

    #[test]
    fn schedule_after_idle_run_until_lands_behind_cursor() {
        // run_until advances the clock without consuming the parked
        // future event; a subsequent near-term schedule sits "behind"
        // the cursor and must still run first.
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule_at(SimTime::from_secs(5), move |_| l.borrow_mut().push("late"));
        sim.run_until(SimTime::from_millis(100));
        let l = log.clone();
        sim.schedule_at(SimTime::from_millis(200), move |_| {
            l.borrow_mut().push("early");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["early", "late"]);
    }
}
