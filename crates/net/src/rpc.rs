//! The in-process request/reply transport: a call runs the service on
//! the caller's thread.
//!
//! The functional stack (file managers, Cheops, PFS, examples) runs real
//! services — drives and managers — reached by a cloneable [`Rpc`]
//! handle. The paper used DCE RPC over UDP/IP for the same role; here a
//! call runs the service on the calling thread — a whole `Request` in, a
//! whole `Reply` out, no thread switch — concurrently with other calls,
//! as the socket server runs them: exclusion is the service's own.
//!
//! The timeout contract is the socket transport's: a reply that comes
//! back after its attempt's deadline — waiting inside the service counts
//! — is discarded and reads [`RpcError::TimedOut`], though the service's
//! effect stands.
//!
//! [`Rpc`] carries no fault logic: seeded message loss, duplication and
//! delay are applied by the decorator behind
//! [`Channel::with_faults`](crate::Channel::with_faults), identically
//! over this transport and over sockets. A lost message surfaces there
//! as [`RpcError::TimedOut`] — the client cannot distinguish a dropped
//! request from a dropped reply, exactly as on a real network.

use crate::options::CallOptions;
use crate::transport::{Pending, Transport};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transport-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The service has shut down (or crashed).
    Disconnected,
    /// No reply arrived in time — the request or its reply may have been
    /// lost, or the service is too slow. The caller cannot tell which.
    TimedOut,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Disconnected => f.write_str("service disconnected"),
            RpcError::TimedOut => f.write_str("service call timed out"),
        }
    }
}

impl std::error::Error for RpcError {}

/// What an [`Rpc`] reaches: the service while it serves, the panic it
/// died of, or nothing once shut down. Calls share the read side of the
/// lock around it; stopping takes the write side, so it waits out every
/// call in flight.
enum State<Req, Resp> {
    Serving(Box<dyn Fn(Req) -> Resp + Send + Sync>),
    /// `Send` but not `Sync`, so behind a lock of its own.
    Crashed(Mutex<Box<dyn Any + Send>>),
    Stopped,
}

/// Client handle to an in-process service. Cloneable; a call from any
/// thread runs the service on that thread, concurrently with calls from
/// other threads.
pub struct Rpc<Req, Resp> {
    state: Arc<RwLock<State<Req, Resp>>>,
}

impl<Req, Resp> Clone for Rpc<Req, Resp> {
    fn clone(&self) -> Self {
        Rpc {
            state: Arc::clone(&self.state),
        }
    }
}

impl<Req, Resp> fmt::Debug for Rpc<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Rpc { .. }")
    }
}

impl<Req, Resp> Rpc<Req, Resp> {
    /// Run `req` on this thread; returns the reply and how long the call
    /// took. A panicking call stops the service: it and every later call
    /// read [`RpcError::Disconnected`].
    fn serve_here(&self, req: Req) -> Result<(Resp, Duration), RpcError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "times a real-thread call against its caller's timeout; the reading only turns a late reply into TimedOut, as a socket read timeout does"
        )]
        let start = Instant::now();
        let state = self.state.read();
        let State::Serving(service) = &*state else {
            return Err(RpcError::Disconnected);
        };
        match panic::catch_unwind(AssertUnwindSafe(|| service(req))) {
            Ok(resp) => Ok((resp, start.elapsed())),
            Err(payload) => {
                drop(state);
                let mut state = self.state.write();
                // The first panic is the one `shutdown` re-raises.
                if let State::Serving(_) = *state {
                    *state = State::Crashed(Mutex::new(payload));
                }
                Err(RpcError::Disconnected)
            }
        }
    }
}

/// A reply as a caller bounded by `timeout` sees it: one that took
/// longer is late, and a late reply is discarded.
fn in_time<Resp>(
    (resp, took): (Resp, Duration),
    timeout: Option<Duration>,
) -> Result<Resp, RpcError> {
    match timeout {
        Some(t) if took > t => Err(RpcError::TimedOut),
        _ => Ok(resp),
    }
}

impl<Req: Send + Clone + 'static, Resp: Send + 'static> Rpc<Req, Resp> {
    /// The unified call path: attempts, backoff, per-attempt timeout and
    /// metrics all come from `opts`. Timeouts are retried (when the
    /// policy grants more attempts); [`RpcError::Disconnected`] is
    /// permanent on a fixed service and returned immediately.
    ///
    /// Retrying is only safe for requests that are idempotent or
    /// independently signed (drive traffic: each attempt carries a fresh
    /// nonce).
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] when every attempt timed out;
    /// [`RpcError::Disconnected`] as soon as the service is gone.
    pub fn call_with(&self, req: Req, opts: &CallOptions) -> Result<Resp, RpcError> {
        crate::transport::retry_loop(req, opts, false, |r, t| self.attempt(r, t))
    }
}

impl<Req: Send + Clone + 'static, Resp: Send + 'static> Transport<Req, Resp> for Rpc<Req, Resp> {
    fn attempt(&self, req: Req, timeout: Option<Duration>) -> Result<Resp, RpcError> {
        in_time(self.serve_here(req)?, timeout)
    }

    /// Runs `req` now; the [`Pending`] holds the reply, and a wait
    /// bounded by less than the call took reads it as late.
    fn call_async(&self, req: Req) -> Result<Pending<Resp>, RpcError> {
        let mut done = Some(self.serve_here(req)?);
        Ok(Pending::new(move |timeout| {
            in_time(done.take().ok_or(RpcError::Disconnected)?, timeout)
        }))
    }

    fn name(&self) -> &'static str {
        "in-proc"
    }
}

/// Owner handle for a service: stops it on [`ServiceHandle::shutdown`].
pub struct ServiceHandle {
    stop: Box<dyn FnOnce() + Send + Sync>,
}

impl ServiceHandle {
    /// Stop the service, waiting for the calls in flight to finish. Clients
    /// holding [`Rpc`] clones need not drop first: their later calls
    /// return [`RpcError::Disconnected`]. Dropping the handle without
    /// calling this leaves the service serving its clients.
    ///
    /// # Panics
    ///
    /// Re-raises the service closure's panic, if a call had one — a
    /// crashed service must not look like a clean shutdown.
    pub fn shutdown(self) {
        (self.stop)();
    }
}

impl fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ServiceHandle { .. }")
    }
}

/// Make `service` callable through an [`Rpc`]: each call invokes the
/// closure on the caller's thread — calls from several threads at once
/// run at once — and returns its value to the caller. No thread is
/// spawned. The closure type is the one [`serve`](crate::serve) takes.
///
/// # Example
///
/// ```
/// let (rpc, _handle) = nasd_net::spawn_service(|x: u64| x * 2);
/// let opts = nasd_net::CallOptions::blocking();
/// assert_eq!(rpc.call_with(21, &opts).unwrap(), 42);
/// ```
pub fn spawn_service<Req, Resp, F>(service: F) -> (Rpc<Req, Resp>, ServiceHandle)
where
    Req: Send + 'static,
    Resp: Send + 'static,
    F: Fn(Req) -> Resp + Send + Sync + 'static,
{
    let state = Arc::new(RwLock::new(State::Serving(Box::new(service))));
    let owned = Arc::clone(&state);
    let stop = move || {
        // Taking the write side waits out the calls in flight; the
        // service is dropped after the lock is released.
        let last = std::mem::replace(&mut *owned.write(), State::Stopped);
        if let State::Crashed(payload) = last {
            panic::resume_unwind(payload.into_inner());
        }
    };
    (
        Rpc { state },
        ServiceHandle {
            stop: Box::new(stop),
        },
    )
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "times real-thread calls against their timeouts"
)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
    use crate::transport::Channel;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn call_roundtrip() {
        let (rpc, _h) = spawn_service(|s: String| s.len());
        assert_eq!(
            rpc.call_with("hello".to_string(), &CallOptions::blocking())
                .unwrap(),
            5
        );
    }

    #[test]
    fn clones_share_the_service() {
        let (rpc, _h) = spawn_service({
            let count = AtomicU64::new(0);
            move |(): ()| count.fetch_add(1, Ordering::SeqCst) + 1
        });
        let rpc2 = rpc.clone();
        assert_eq!(rpc.call_with((), &CallOptions::blocking()).unwrap(), 1);
        assert_eq!(rpc2.call_with((), &CallOptions::blocking()).unwrap(), 2);
    }

    #[test]
    fn async_calls_pipeline() {
        let (rpc, _h) = spawn_service(|x: u64| x + 1);
        let pending: Vec<_> = (0..10).map(|i| rpc.call_async(i).unwrap()).collect();
        let results: Vec<u64> = pending.into_iter().map(|r| r.recv().unwrap()).collect();
        assert_eq!(results, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers() {
        let (rpc, _h) = spawn_service(|x: u64| x * x);
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let rpc = rpc.clone();
            joins.push(std::thread::spawn(move || {
                rpc.call_with(i, &CallOptions::blocking()).unwrap()
            }));
        }
        let mut results: Vec<u64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn two_callers_run_inside_one_service_at_once() {
        // Each call waits inside the service for the other: a service
        // that admitted one call at a time would never return.
        let (rpc, _h) = spawn_service({
            let both_inside = Barrier::new(2);
            move |(): ()| {
                both_inside.wait();
            }
        });
        let other = {
            let rpc = rpc.clone();
            std::thread::spawn(move || rpc.call_with((), &CallOptions::blocking()))
        };
        assert_eq!(rpc.call_with((), &CallOptions::blocking()), Ok(()));
        assert_eq!(other.join().unwrap(), Ok(()));
    }

    #[test]
    fn a_caller_waiting_on_a_panicked_exclusive_service_reads_disconnected() {
        // An exclusive service: every call holds its (poisoning) lock. The
        // failing call panics only once the other call is inside the
        // service, on its way to that lock.
        let (entered_tx, entered_rx) = crossbeam::channel::unbounded::<()>();
        let (inside_tx, inside_rx) = crossbeam::channel::unbounded::<()>();
        let (rpc, handle) = spawn_service({
            let exclusive = std::sync::Mutex::new(0u64);
            move |fail: bool| {
                if !fail {
                    inside_tx.send(()).unwrap();
                }
                let mut calls = exclusive.lock().unwrap();
                *calls += 1;
                if fail {
                    entered_tx.send(()).unwrap();
                    inside_rx.recv().unwrap();
                    panic!("half-updated");
                }
                *calls
            }
        });
        let call = |fail| {
            let rpc = rpc.clone();
            std::thread::spawn(move || rpc.call_with(fail, &CallOptions::blocking()))
        };
        let failing = call(true);
        entered_rx.recv().unwrap();
        let waiting = call(false);
        assert_eq!(failing.join().unwrap(), Err(RpcError::Disconnected));
        assert_eq!(waiting.join().unwrap(), Err(RpcError::Disconnected));
        assert_eq!(
            rpc.call_with(false, &CallOptions::blocking()),
            Err(RpcError::Disconnected)
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.shutdown()));
        assert!(err.is_err(), "shutdown should re-raise the service panic");
    }

    #[test]
    fn disconnected_after_shutdown_with_live_clients() {
        let (rpc, handle) = spawn_service(|(): ()| ());
        let rpc2 = rpc.clone();
        assert!(rpc.call_with((), &CallOptions::blocking()).is_ok());
        // Clients still hold handles; shutdown must not block on them.
        handle.shutdown();
        assert_eq!(
            rpc.call_with((), &CallOptions::blocking()),
            Err(RpcError::Disconnected)
        );
        assert_eq!(
            rpc2.call_with((), &CallOptions::blocking()),
            Err(RpcError::Disconnected)
        );
    }

    #[test]
    fn shutdown_waits_for_the_call_in_flight() {
        let (entered_tx, entered_rx) = crossbeam::channel::unbounded::<()>();
        let finished = Arc::new(AtomicBool::new(false));
        let (rpc, handle) = spawn_service({
            let finished = Arc::clone(&finished);
            move |(): ()| {
                entered_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                finished.store(true, Ordering::SeqCst);
            }
        });
        let caller = {
            let rpc = rpc.clone();
            std::thread::spawn(move || rpc.call_with((), &CallOptions::blocking()))
        };
        entered_rx.recv().unwrap();
        handle.shutdown();
        assert!(
            finished.load(Ordering::SeqCst),
            "shutdown returned while a call was still running"
        );
        // The call in flight completes; the next one finds no service.
        assert_eq!(caller.join().unwrap(), Ok(()));
        assert_eq!(
            rpc.call_with((), &CallOptions::blocking()),
            Err(RpcError::Disconnected)
        );
    }

    #[test]
    fn dropping_the_handle_detaches() {
        let (rpc, handle) = spawn_service(|(): ()| ());
        drop(handle); // detached; still serving
        assert!(rpc.call_with((), &CallOptions::blocking()).is_ok());
    }

    #[test]
    fn call_timeout_expires_on_slow_service() {
        let (rpc, _h) = spawn_service(|(): ()| {
            std::thread::sleep(Duration::from_millis(200));
        });
        assert_eq!(
            rpc.call_with((), &CallOptions::once(Duration::from_millis(5))),
            Err(RpcError::TimedOut)
        );
    }

    #[test]
    fn late_result_is_discarded_as_timeout() {
        // The service sleeps the requested milliseconds, then counts.
        let (rpc, _h) = spawn_service({
            let count = AtomicU64::new(0);
            move |pause: u64| {
                std::thread::sleep(Duration::from_millis(pause));
                count.fetch_add(1, Ordering::SeqCst) + 1
            }
        });
        let bound = Duration::from_millis(5);
        assert_eq!(
            rpc.call_with(50, &CallOptions::once(bound)),
            Err(RpcError::TimedOut)
        );
        assert_eq!(
            rpc.call_async(50).unwrap().recv_timeout(bound),
            Err(RpcError::TimedOut)
        );
        // Both late calls ran: their effect is visible to the next call.
        assert_eq!(rpc.call_with(0, &CallOptions::blocking()), Ok(3));
    }

    #[test]
    fn shutdown_propagates_a_service_panic() {
        let (rpc, h) = spawn_service(|x: u64| {
            assert!(x != 13, "unlucky");
            x
        });
        assert_eq!(rpc.call_with(7, &CallOptions::blocking()).unwrap(), 7);
        assert_eq!(
            rpc.call_with(13, &CallOptions::blocking()),
            Err(RpcError::Disconnected)
        );
        // The crashed service must not look like a clean shutdown.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.shutdown()));
        assert!(err.is_err(), "shutdown should re-raise the service panic");
    }

    #[test]
    fn call_with_records_stats() {
        use nasd_obs::Registry;
        let registry = Registry::new();
        let plan = FaultPlan::new(42);
        let config = FaultConfig {
            drop: 0.5,
            ..FaultConfig::none()
        };
        let (rpc, _h) = spawn_service(|x: u64| x + 1);
        let faulty = Channel::in_proc(rpc).with_faults(plan.channel(1, config));
        let opts = CallOptions::retry(RetryPolicy {
            max_attempts: 32,
            timeout: Duration::from_millis(100),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        })
        .with_registry(&registry, "test/rpc");
        for i in 0..20 {
            assert_eq!(faulty.call_with(i, &opts).unwrap(), i + 1);
        }
        assert_eq!(registry.counter("test/rpc/calls").value(), 20);
        let attempts = registry.counter("test/rpc/attempts").value();
        let timeouts = registry.counter("test/rpc/timeouts").value();
        assert!(attempts > 20, "50% loss must force retries: {attempts}");
        assert_eq!(attempts, 20 + timeouts);
        assert_eq!(registry.counter("test/rpc/exhausted").value(), 0);
        assert_eq!(registry.counter("test/rpc/disconnects").value(), 0);
    }

    #[test]
    fn call_with_counts_disconnects() {
        use nasd_obs::Registry;
        let registry = Registry::new();
        let (rpc, handle) = spawn_service(|x: u64| x);
        handle.shutdown();
        let opts = CallOptions::blocking().with_registry(&registry, "gone");
        assert_eq!(rpc.call_with(1, &opts), Err(RpcError::Disconnected));
        assert_eq!(registry.counter("gone/disconnects").value(), 1);
    }

    #[test]
    fn retry_does_not_mask_disconnection() {
        let (rpc, handle) = spawn_service(|x: u64| x);
        handle.shutdown();
        assert_eq!(
            rpc.call_with(1, &CallOptions::retry(RetryPolicy::standard())),
            Err(RpcError::Disconnected)
        );
    }

    #[test]
    fn rpc_error_display() {
        assert_eq!(RpcError::Disconnected.to_string(), "service disconnected");
        assert_eq!(RpcError::TimedOut.to_string(), "service call timed out");
    }
}
