//! A threaded in-process request/reply transport.
//!
//! The functional stack (file managers, Cheops, PFS, examples) runs real
//! services — drives and managers — each on its own thread, reached by a
//! cloneable [`Rpc`] handle. The paper used DCE RPC over UDP/IP for the
//! same role; an in-process channel transport exercises the identical
//! message flow (every byte still crosses a serialized channel as a
//! `Request`/`Reply` value) without the 1998 protocol stack.
//!
//! [`Rpc`] carries no fault logic: seeded message loss, duplication and
//! delay are applied by the decorator behind
//! [`Channel::with_faults`](crate::Channel::with_faults), identically
//! over this transport and over sockets. A lost message surfaces there
//! as [`RpcError::TimedOut`] — the client cannot distinguish a dropped
//! request from a dropped reply, exactly as on a real network.

use crate::options::CallOptions;
use crate::transport::Transport;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Transport-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The service thread has shut down.
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

enum Envelope<Req, Resp> {
    Call(Req, Sender<Resp>),
    Stop,
}

/// Client handle to a threaded service. Cloneable; calls from any thread.
pub struct Rpc<Req, Resp> {
    tx: Sender<Envelope<Req, Resp>>,
}

impl<Req, Resp> Clone for Rpc<Req, Resp> {
    fn clone(&self) -> Self {
        Rpc {
            tx: self.tx.clone(),
        }
    }
}

impl<Req, Resp> fmt::Debug for Rpc<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Rpc { .. }")
    }
}

impl<Req: Send + Clone + 'static, Resp: Send + 'static> Rpc<Req, Resp> {
    /// The unified call path: attempts, backoff, per-attempt timeout and
    /// metrics all come from `opts`. Timeouts are retried (when the
    /// policy grants more attempts); [`RpcError::Disconnected`] is
    /// permanent on a fixed channel and returned immediately.
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

    /// Fire a request without waiting; returns a receiver for the reply
    /// (lets a client pipeline requests to many services — how the PFS
    /// client reads all stripe units of a request in parallel).
    ///
    /// # Errors
    ///
    /// [`RpcError::Disconnected`] if the service has stopped.
    pub fn call_async(&self, req: Req) -> Result<Receiver<Resp>, RpcError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(Envelope::Call(req, reply_tx))
            .map_err(|_| RpcError::Disconnected)?;
        Ok(reply_rx)
    }
}

/// Owner handle for a spawned service: stops the service loop and joins
/// the thread on [`ServiceHandle::shutdown`].
pub struct ServiceHandle {
    stop: Option<Box<dyn FnOnce() + Send + Sync>>,
    thread: Option<JoinHandle<()>>,
    replies_dropped: Arc<nasd_obs::Counter>,
}

impl ServiceHandle {
    /// Stop the service loop and join its thread. Clients holding [`Rpc`]
    /// clones are not required to drop first: the loop exits on the stop
    /// message, and later calls return [`RpcError::Disconnected`].
    /// Dropping the handle without calling this detaches the thread (it
    /// exits when the last [`Rpc`] clone drops).
    ///
    /// # Panics
    ///
    /// Re-raises the service closure's panic, if it had one — a crashed
    /// service must not look like a clean shutdown.
    pub fn shutdown(mut self) {
        if let Some(stop) = self.stop.take() {
            stop();
        }
        if let Some(t) = self.thread.take() {
            if let Err(payload) = t.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Replies the service computed but could not deliver because the
    /// caller had already given up (timed out or dropped its receiver).
    /// A steadily climbing value means callers' timeouts are shorter
    /// than the service's latency.
    #[must_use]
    pub fn replies_dropped(&self) -> u64 {
        self.replies_dropped.value()
    }
}

impl fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ServiceHandle { .. }")
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        // Detach: the thread exits when all Rpc senders drop.
        self.stop = None;
        self.thread = None;
    }
}

/// Spawn `service` on its own thread; each incoming request invokes the
/// closure and sends its return value back to the caller.
///
/// # Example
///
/// ```
/// let (rpc, _handle) = nasd_net::spawn_service(|x: u64| x * 2);
/// let opts = nasd_net::CallOptions::blocking();
/// assert_eq!(rpc.call_with(21, &opts).unwrap(), 42);
/// ```
pub fn spawn_service<Req, Resp, F>(mut service: F) -> (Rpc<Req, Resp>, ServiceHandle)
where
    Req: Send + 'static,
    Resp: Send + 'static,
    F: FnMut(Req) -> Resp + Send + 'static,
{
    let (tx, rx) = unbounded::<Envelope<Req, Resp>>();
    let replies_dropped = Arc::new(nasd_obs::Counter::new());
    let dropped = Arc::clone(&replies_dropped);
    let thread = std::thread::spawn(move || {
        while let Ok(env) = rx.recv() {
            match env {
                Envelope::Call(req, reply_tx) => {
                    let resp = service(req);
                    // The caller may have given up; count the orphaned
                    // reply instead of silently discarding it.
                    if reply_tx.send(resp).is_err() {
                        dropped.inc();
                    }
                }
                Envelope::Stop => break,
            }
        }
    });
    let stop_tx = tx.clone();
    (
        Rpc { tx },
        ServiceHandle {
            stop: Some(Box::new(move || {
                // nasd-lint: allow(swallowed-error, "failure means the loop already exited; shutdown's join still observes the thread's fate")
                let _ = stop_tx.send(Envelope::Stop);
            })),
            thread: Some(thread),
            replies_dropped,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
    use crate::transport::Channel;
    use std::time::Duration;

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
            let mut count = 0u64;
            move |(): ()| {
                count += 1;
                count
            }
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
    fn call_queued_behind_a_shutdown_is_disconnected() {
        let (gate_tx, gate_rx) = unbounded::<()>();
        let (rpc, mut handle) = spawn_service(move |x: u64| {
            gate_rx.recv().expect("gate open");
            x
        });
        // Queue, in order: a call the handler holds at the gate, the stop
        // message, and a second call the loop will never reach.
        let first = Transport::call_async(&rpc, 1).unwrap();
        (handle.stop.take().expect("not yet stopped"))();
        let second = Transport::call_async(&rpc, 2).unwrap();
        gate_tx.send(()).unwrap();
        assert_eq!(first.recv(), Ok(1));
        // The reply sender queued in the dead channel must die with it
        // (`rpc` still holds the channel open), or every untimed wait on
        // `second` hangs; the bound only keeps a regression from hanging
        // the suite.
        assert_eq!(
            second.wait(Some(Duration::from_secs(2))),
            Err(RpcError::Disconnected)
        );
        handle.shutdown();
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
    fn late_replies_to_departed_callers_are_counted() {
        let (rpc, h) = spawn_service(|(): ()| {
            std::thread::sleep(Duration::from_millis(50));
        });
        // The caller gives up long before the service answers; the
        // orphaned reply must be counted, not silently discarded.
        assert_eq!(
            rpc.call_with((), &CallOptions::once(Duration::from_millis(5))),
            Err(RpcError::TimedOut)
        );
        for _ in 0..200 {
            if h.replies_dropped() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h.replies_dropped(), 1);
        // A caller that waits is never counted.
        assert!(rpc.call_with((), &CallOptions::blocking()).is_ok());
        assert_eq!(h.replies_dropped(), 1);
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
