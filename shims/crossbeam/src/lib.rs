//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `channel` module subset the workspace uses: mpmc
//! `bounded`/`unbounded` channels with cloneable senders *and* receivers,
//! disconnect detection, `try_recv`, and `recv_timeout`. Built on
//! `Mutex` + `Condvar`; correctness over throughput, except that a
//! `send` or `recv` wakes the other side only when a thread of it is
//! parked: `Condvar::notify_one` is a `FUTEX_WAKE` syscall whether or
//! not anyone waits.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "stands in for real-thread channels: deadline waits and their tests run on real time"
)]
#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Senders waiting on `not_full`, counted under the lock from
        /// before they wait until they hold it again.
        parked_senders: usize,
        /// Receivers waiting on `not_empty`, counted likewise.
        parked_receivers: usize,
    }

    impl<T> State<T> {
        /// Take the front message, and whether a parked sender needs
        /// waking for the room it leaves.
        fn pop(&mut self) -> Option<(T, bool)> {
            let item = self.items.pop_front()?;
            Some((item, self.parked_senders > 0))
        }
    }

    /// Sending half of a channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel. Cloneable (mpmc).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    /// Carries the unsent message, like the real crate.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                parked_senders: 0,
                parked_receivers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Channel with unbounded buffering; `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Channel holding at most `cap` queued messages; `send` blocks when full.
    ///
    /// `cap == 0` is treated as capacity 1 (the real crate rendezvous case
    /// is not needed by this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Block until the message is queued, or return it if every
        /// receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match state.cap {
                    Some(cap) if state.items.len() >= cap => {
                        state.parked_senders += 1;
                        state = self
                            .shared
                            .not_full
                            .wait(state)
                            .unwrap_or_else(|e| e.into_inner());
                        state.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            state.items.push_back(value);
            let wake = state.parked_receivers > 0;
            drop(state);
            if wake {
                self.shared.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.senders += 1;
            drop(state);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            let disconnected = state.senders == 0;
            drop(state);
            if disconnected {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives, or fail once the channel is
        /// empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some((item, wake)) = state.pop() {
                    drop(state);
                    self.wake_sender(wake);
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = self
                    .shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.parked_receivers -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((item, wake)) = state.pop() {
                drop(state);
                self.wake_sender(wake);
                return Ok(item);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking receive with a deadline relative to now.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some((item, wake)) = state.pop() {
                    drop(state);
                    self.wake_sender(wake);
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.parked_receivers += 1;
                let (guard, _timeout_result) = self
                    .shared
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
                state.parked_receivers -= 1;
            }
        }

        /// Wake one parked sender after a receive made room, if
        /// [`State::pop`] found one parked.
        fn wake_sender(&self, wake: bool) {
            if wake {
                self.shared.not_full.notify_one();
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .items
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers += 1;
            drop(state);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            if state.receivers > 0 {
                return;
            }
            // Nobody can receive what is queued: discard it, as the real
            // crate does, so a reply sender riding in a queued message
            // disconnects its waiter. Dropped after the lock is released —
            // a message's own `Drop` may touch another channel.
            let orphaned = std::mem::take(&mut state.items);
            drop(state);
            drop(orphaned);
            self.shared.not_full.notify_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;
        use std::time::Duration;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_after_all_receivers_drop() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn queued_messages_are_dropped_with_the_last_receiver() {
            let (tx, rx) = unbounded();
            let (reply_tx, reply_rx) = unbounded::<u32>();
            tx.send(reply_tx).unwrap();
            drop(rx);
            // `tx` still holds the channel open; the queued reply sender
            // must be gone all the same.
            assert_eq!(
                reply_rx.recv_timeout(Duration::from_millis(500)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn bounded_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || tx.send(2).unwrap());
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn recv_timeout_times_out_then_succeeds() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn mpmc_every_message_delivered_once() {
            let (tx, rx) = unbounded();
            let mut consumers = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                consumers.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                }));
            }
            drop(rx);
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        /// Run `f` on its own thread and return its result, failing the
        /// test if it is not done within `secs`: a lost wake-up parks a
        /// thread forever, and must fail the test, not hang it.
        fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let runner = thread::spawn(move || done_tx.send(f()));
            let result = done_rx
                .recv_timeout(Duration::from_secs(secs))
                .expect("a parked thread was never woken");
            runner.join().unwrap().unwrap();
            result
        }

        /// Spin until at least `n` receivers of `rx`'s channel are parked.
        fn await_parked_receivers<T>(rx: &Receiver<T>, n: usize) {
            while rx.shared.queue.lock().unwrap().parked_receivers < n {
                thread::yield_now();
            }
        }

        #[test]
        fn bounded_ping_pong_parks_and_wakes_both_sides() {
            // Each thread sends on one `bounded(1)` channel and receives
            // on the other, so each side parks as a receiver waiting for
            // the reply and as a sender one message ahead of the peer.
            const N: u32 = 100_000;
            within(120, || {
                let (a_tx, a_rx) = bounded(1);
                let (b_tx, b_rx) = bounded(1);
                let peer = thread::spawn(move || {
                    for i in 0..N {
                        b_tx.send(i).unwrap();
                        assert_eq!(a_rx.recv(), Ok(i));
                    }
                });
                for i in 0..N {
                    a_tx.send(i).unwrap();
                    assert_eq!(b_rx.recv(), Ok(i));
                }
                peer.join().unwrap();
            });
        }

        #[test]
        fn parked_receivers_fed_by_senders_get_every_message() {
            const PER_SENDER: u32 = 5_000;
            let all = within(120, || {
                let (tx, rx) = bounded(1);
                let receivers: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        thread::spawn(move || {
                            let mut got = Vec::new();
                            while let Ok(v) = rx.recv() {
                                got.push(v);
                            }
                            got
                        })
                    })
                    .collect();
                // Every receiver parks on the empty channel first.
                await_parked_receivers(&rx, 4);
                drop(rx);
                let senders: Vec<_> = (0..4u32)
                    .map(|s| {
                        let tx = tx.clone();
                        thread::spawn(move || {
                            for i in 0..PER_SENDER {
                                tx.send(s * PER_SENDER + i).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                for s in senders {
                    s.join().unwrap();
                }
                let mut all: Vec<u32> = receivers
                    .into_iter()
                    .flat_map(|r| r.join().unwrap())
                    .collect();
                all.sort_unstable();
                all
            });
            assert_eq!(all, (0..4 * PER_SENDER).collect::<Vec<_>>());
        }

        #[test]
        fn a_send_racing_an_expiring_recv_timeout_is_delivered() {
            // Each message is sent while the receiver is parked in a
            // short `recv_timeout`, after a delay that lands on either
            // side of its expiry. A wait that runs out must leave the
            // parked count right, so the message is received either by
            // the wait it raced or by the next one.
            const N: u32 = 500;
            let timeouts = within(120, || {
                let (tx, rx) = unbounded();
                let (go_tx, go_rx) = bounded::<()>(1);
                let watched = rx.clone();
                let sender = thread::spawn(move || {
                    for i in 0..N {
                        go_rx.recv().unwrap();
                        await_parked_receivers(&watched, 1);
                        thread::sleep(Duration::from_micros(u64::from(i % 7) * 50));
                        tx.send(i).unwrap();
                    }
                });
                let mut timeouts = 0u32;
                for i in 0..N {
                    go_tx.send(()).unwrap();
                    loop {
                        match rx.recv_timeout(Duration::from_micros(150)) {
                            Ok(v) => {
                                assert_eq!(v, i);
                                break;
                            }
                            Err(RecvTimeoutError::Timeout) => timeouts += 1,
                            Err(RecvTimeoutError::Disconnected) => panic!("sender gone"),
                        }
                    }
                }
                sender.join().unwrap();
                let state = rx.shared.queue.lock().unwrap();
                assert!(state.items.is_empty());
                assert_eq!((state.parked_senders, state.parked_receivers), (0, 0));
                timeouts
            });
            // Some waits must have run out for the race to have happened.
            assert!(timeouts > 0, "no recv_timeout expired");
        }
    }
}
