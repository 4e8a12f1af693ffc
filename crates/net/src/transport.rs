//! The unified, transport-agnostic call surface.
//!
//! A [`Channel`] fronts any [`Transport`] — the in-process service
//! handle ([`Rpc`]) or the pooled socket client
//! ([`SocketClient`](crate::SocketClient)) — behind the single call
//! surface the rest of the stack uses: `call_with(&CallOptions)` plus
//! `call_async` for pipelining. File managers, Cheops and PFS hold
//! [`Channel`]s, not raw transports, so moving a drive from an
//! in-process service to a real socket changes construction
//! (see [`Connector`](crate::Connector)) and nothing else.
//!
//! Fault injection composes at this layer too: [`Channel::with_faults`]
//! wraps *any* transport in a connection-level fault decorator driven by
//! the same seeded [`FaultPlan`](crate::FaultPlan) the chaos suite has
//! always used, so drop/dup/delay schedules replay identically over
//! channels and over sockets.

use crate::fault::{ChannelFaults, FaultAction};
use crate::options::CallOptions;
use crate::rpc::{Rpc, RpcError};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A deferred read of one reply, called with each wait's timeout.
type Read<Resp> = Box<dyn FnMut(Option<Duration>) -> Result<Resp, RpcError> + Send>;

/// A reply that has been requested but not yet received — the handle a
/// pipelining client holds while it issues more requests.
///
/// A deferred read either transport builds: in-process it holds the
/// reply of a call that already ran; over a socket the first wait reads
/// the request's own connection. The reply may never arrive under fault
/// injection (or over a dying socket); use [`Pending::recv_timeout`]
/// then.
pub struct Pending<Resp> {
    read: Mutex<Read<Resp>>,
}

impl<Resp> fmt::Debug for Pending<Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Pending { .. }")
    }
}

impl<Resp> Pending<Resp> {
    /// Defer `read` until the caller waits.
    pub(crate) fn new(
        read: impl FnMut(Option<Duration>) -> Result<Resp, RpcError> + Send + 'static,
    ) -> Self {
        Pending {
            read: Mutex::new(Box::new(read)),
        }
    }

    /// A reply the network lost — it reads [`RpcError::TimedOut`], as a
    /// lost message does in [`Transport::attempt`].
    pub(crate) fn lost() -> Self {
        Pending::new(|_| Err(RpcError::TimedOut))
    }

    /// Wait for the reply — bounded by `timeout` when given, until the
    /// transport disconnects otherwise.
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] when `timeout` expires first or the
    /// message was lost; [`RpcError::Disconnected`] when the reply can
    /// no longer arrive.
    pub fn wait(&self, timeout: Option<Duration>) -> Result<Resp, RpcError> {
        let mut read = self.read.lock();
        read(timeout)
    }

    /// Wait for the reply forever (see [`Pending::wait`]).
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] when the message was lost;
    /// [`RpcError::Disconnected`] when the reply can no longer arrive.
    pub fn recv(&self) -> Result<Resp, RpcError> {
        self.wait(None)
    }

    /// Wait for the reply, bounded by `timeout` (see [`Pending::wait`]).
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] or [`RpcError::Disconnected`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Resp, RpcError> {
        self.wait(Some(timeout))
    }
}

/// One concrete way to move a request to a service and its reply back.
///
/// Implementations: [`Rpc`] (in-process, on the caller's thread),
/// [`SocketClient`](crate::SocketClient) (framed TCP/UDS with
/// pipelining), and the internal fault decorator behind
/// [`Channel::with_faults`]. Every error a transport reports is one of
/// the two [`RpcError`] classes — the retry loop in
/// [`Channel::call_with`] keys on exactly that taxonomy.
pub trait Transport<Req, Resp>: Send + Sync {
    /// One transport attempt: send `req`, wait for the reply — bounded
    /// by `timeout` when given, forever otherwise.
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] when no reply arrived in time (the request
    /// or its reply may have been lost); [`RpcError::Disconnected`] when
    /// the service (or the connection to it) is gone.
    fn attempt(&self, req: Req, timeout: Option<Duration>) -> Result<Resp, RpcError>;

    /// Fire a request without waiting; the reply arrives on the returned
    /// [`Pending`]. This is the pipelining primitive: issue many, then
    /// collect.
    ///
    /// # Errors
    ///
    /// [`RpcError::Disconnected`] when the request cannot be sent at all.
    fn call_async(&self, req: Req) -> Result<Pending<Resp>, RpcError>;

    /// Whether a later attempt may reach a *new* connection to the same
    /// service. `false` for a fixed in-process service (a disconnect is
    /// permanent — the service is gone); `true` for a socket
    /// client that re-dials, which makes [`RpcError::Disconnected`]
    /// retryable in [`Channel::call_with`].
    fn reconnects(&self) -> bool {
        false
    }

    /// Short diagnostic label (`"in-proc"`, `"socket"`, `"faulty"`).
    fn name(&self) -> &'static str {
        "transport"
    }
}

/// The shared retry loop behind every `call_with`: attempts, backoff,
/// per-attempt timeout and metrics all come from `opts`. Timeouts are
/// retried when the policy grants more attempts; [`RpcError::Disconnected`]
/// is retried only when `reconnects` says a fresh attempt can reach a new
/// connection, and is returned immediately otherwise.
pub(crate) fn retry_loop<Req: Clone, Resp>(
    req: Req,
    opts: &CallOptions,
    reconnects: bool,
    mut attempt: impl FnMut(Req, Option<Duration>) -> Result<Resp, RpcError>,
) -> Result<Resp, RpcError> {
    if let Some(stats) = &opts.stats {
        stats.calls.inc();
    }
    let attempts = opts.policy.max_attempts.max(1);
    let mut last = RpcError::TimedOut;
    for attempt_no in 0..attempts {
        crate::pacing::pace(opts.policy.backoff(attempt_no));
        if let Some(stats) = &opts.stats {
            stats.attempts.inc();
        }
        match attempt(req.clone(), opts.attempt_timeout()) {
            Ok(resp) => return Ok(resp),
            Err(RpcError::TimedOut) => {
                if let Some(stats) = &opts.stats {
                    stats.timeouts.inc();
                }
                last = RpcError::TimedOut;
            }
            Err(RpcError::Disconnected) => {
                if let Some(stats) = &opts.stats {
                    stats.disconnects.inc();
                }
                if !reconnects {
                    return Err(RpcError::Disconnected);
                }
                last = RpcError::Disconnected;
            }
        }
    }
    if let Some(stats) = &opts.stats {
        stats.exhausted.inc();
    }
    Err(last)
}

/// A cloneable handle to a service over *some* transport — the type every
/// client in the stack holds. Obtain one from a
/// [`Connector`](crate::Connector) (or [`Channel::in_proc`] directly) and
/// call through [`Channel::call_with`] / [`Channel::call_async`].
pub struct Channel<Req, Resp> {
    inner: Arc<dyn Transport<Req, Resp>>,
}

impl<Req, Resp> Clone for Channel<Req, Resp> {
    fn clone(&self) -> Self {
        Channel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<Req, Resp> fmt::Debug for Channel<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("transport", &self.inner.name())
            .finish()
    }
}

impl<Req: Send + Clone + 'static, Resp: Send + 'static> Channel<Req, Resp> {
    /// Wrap an already-built transport.
    #[must_use]
    pub fn new(transport: Arc<dyn Transport<Req, Resp>>) -> Self {
        Channel { inner: transport }
    }

    /// A channel over an in-process [`Rpc`] handle: each call runs the
    /// service on the caller's thread.
    #[must_use]
    pub fn in_proc(rpc: Rpc<Req, Resp>) -> Self {
        Channel {
            inner: Arc::new(rpc),
        }
    }

    /// A handle whose traffic is subject to seeded connection-level
    /// fault injection. Works over any transport: the decorator drops,
    /// duplicates and delays whole requests/replies per the plan's
    /// deterministic schedule — the stack's only fault injector.
    #[must_use]
    pub fn with_faults(&self, faults: Arc<ChannelFaults>) -> Self {
        Channel {
            inner: Arc::new(FaultTransport {
                inner: Arc::clone(&self.inner),
                faults,
            }),
        }
    }

    /// The unified call path: attempts, backoff, per-attempt timeout and
    /// metrics all come from `opts`. Timeouts are retried (when the
    /// policy grants more attempts); disconnections are retried only on
    /// transports that re-dial (see [`Transport::reconnects`]).
    ///
    /// Retrying is only safe for requests that are idempotent or
    /// independently signed (drive traffic: each attempt carries a fresh
    /// nonce).
    ///
    /// # Errors
    ///
    /// [`RpcError::TimedOut`] when every attempt timed out;
    /// [`RpcError::Disconnected`] when the service is gone (immediately
    /// on fixed transports, after exhausting attempts on re-dialing
    /// ones).
    pub fn call_with(&self, req: Req, opts: &CallOptions) -> Result<Resp, RpcError> {
        retry_loop(req, opts, self.inner.reconnects(), |r, t| {
            self.inner.attempt(r, t)
        })
    }

    /// Fire a request without waiting (request pipelining); the reply
    /// arrives on the returned [`Pending`].
    ///
    /// # Errors
    ///
    /// [`RpcError::Disconnected`] when the request cannot be sent.
    pub fn call_async(&self, req: Req) -> Result<Pending<Resp>, RpcError> {
        self.inner.call_async(req)
    }

    /// The underlying transport's diagnostic label.
    #[must_use]
    pub fn transport_name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Connection-level fault decorator: applies one seeded [`FaultAction`]
/// per request, then delegates to the wrapped transport, so the same
/// plan produces the same realized schedule over any transport.
struct FaultTransport<Req, Resp> {
    inner: Arc<dyn Transport<Req, Resp>>,
    faults: Arc<ChannelFaults>,
}

impl<Req: Send + Clone + 'static, Resp: Send + 'static> Transport<Req, Resp>
    for FaultTransport<Req, Resp>
{
    fn attempt(&self, req: Req, timeout: Option<Duration>) -> Result<Resp, RpcError> {
        match self.faults.next_action() {
            FaultAction::Deliver => self.inner.attempt(req, timeout),
            FaultAction::DelayMicros(us) => {
                crate::pacing::pace(Duration::from_micros(us));
                self.inner.attempt(req, timeout)
            }
            FaultAction::DropRequest => Err(RpcError::TimedOut),
            FaultAction::DropReply => {
                // nasd-lint: allow(swallowed-error, "fault injection: the reply is discarded by design; waiting only sequences the service")
                let _ = self.inner.attempt(req, timeout);
                Err(RpcError::TimedOut)
            }
            FaultAction::Duplicate => {
                // Two deliveries of the same message; the caller listens
                // to the first, and the copy goes out only once that
                // reply is read, so it can never overtake the original
                // (over a socket each copy rides its own connection).
                // For signed drive traffic the copy trips the replay
                // window.
                let reply = self.inner.call_async(req.clone())?.wait(timeout);
                // nasd-lint: allow(swallowed-error, "fault injection: the duplicate copy is best-effort; the caller has the first delivery's reply")
                let _ = self.inner.call_async(req);
                reply
            }
        }
    }

    fn call_async(&self, req: Req) -> Result<Pending<Resp>, RpcError> {
        match self.faults.next_action() {
            FaultAction::Deliver => self.inner.call_async(req),
            FaultAction::DelayMicros(us) => {
                crate::pacing::pace(Duration::from_micros(us));
                self.inner.call_async(req)
            }
            FaultAction::Duplicate => {
                // As in `attempt`: the copy follows the original's reply.
                let first = self.inner.call_async(req.clone())?;
                let inner = Arc::clone(&self.inner);
                let mut copy = Some(req);
                Ok(Pending::new(move |timeout| {
                    let reply = first.wait(timeout);
                    if let Some(req) = copy.take() {
                        // nasd-lint: allow(swallowed-error, "fault injection: the duplicate copy is best-effort; the caller has the first delivery's reply")
                        let _ = inner.call_async(req);
                    }
                    reply
                }))
            }
            // Never sent: the pending reply can never arrive.
            FaultAction::DropRequest => Ok(Pending::lost()),
            FaultAction::DropReply => {
                // Delivered and processed, but the reply is lost: the
                // caller's pending handle is not the one the service
                // answers on.
                // nasd-lint: allow(swallowed-error, "fault injection: the reply is discarded by design")
                let _ = self.inner.call_async(req)?;
                Ok(Pending::lost())
            }
        }
    }

    fn reconnects(&self) -> bool {
        self.inner.reconnects()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
    use crate::rpc::spawn_service;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn channel_over_in_proc_roundtrips() {
        let (rpc, _h) = spawn_service(|x: u64| x * 3);
        let ch = Channel::in_proc(rpc);
        assert_eq!(ch.call_with(7, &CallOptions::blocking()).unwrap(), 21);
        assert_eq!(ch.transport_name(), "in-proc");
        let ch2 = ch.clone();
        assert_eq!(ch2.call_with(9, &CallOptions::blocking()).unwrap(), 27);
    }

    #[test]
    fn channel_async_pipelines() {
        let (rpc, _h) = spawn_service(|x: u64| x + 1);
        let ch = Channel::in_proc(rpc);
        let pending: Vec<_> = (0..10).map(|i| ch.call_async(i).unwrap()).collect();
        let results: Vec<u64> = pending.iter().map(|p| p.recv().unwrap()).collect();
        assert_eq!(results, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn in_proc_disconnect_is_permanent() {
        let (rpc, h) = spawn_service(|x: u64| x);
        let ch = Channel::in_proc(rpc);
        h.shutdown();
        // Even a retrying policy fails fast: the service is gone and no
        // reconnect can bring it back.
        assert_eq!(
            ch.call_with(1, &CallOptions::retry(RetryPolicy::standard())),
            Err(RpcError::Disconnected)
        );
    }

    #[test]
    fn channel_faults_drop_requests_deterministically() {
        let plan = FaultPlan::new(42);
        let config = FaultConfig {
            drop: 0.5,
            ..FaultConfig::none()
        };
        let (rpc, _h) = spawn_service(|x: u64| x + 1);
        let ch = Channel::in_proc(rpc).with_faults(plan.channel(1, config));
        assert_eq!(ch.transport_name(), "faulty");
        let policy = RetryPolicy {
            max_attempts: 32,
            timeout: Duration::from_millis(100),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut timeouts = 0;
        for i in 0..50 {
            match ch.call_with(i, &CallOptions::once(Duration::from_millis(100))) {
                Ok(v) => assert_eq!(v, i + 1),
                Err(RpcError::TimedOut) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            // The retry wrapper always gets through at 50% loss.
            assert_eq!(ch.call_with(i, &CallOptions::retry(policy)).unwrap(), i + 1);
        }
        assert!(timeouts > 0, "the seed should drop some of 50 calls");
        assert!(!plan.trace().is_empty());
    }

    #[test]
    fn duplicated_channel_calls_still_answer() {
        let plan = FaultPlan::new(7);
        let config = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none()
        };
        let (rpc, _h) = spawn_service({
            let hits = AtomicU64::new(0);
            move |(): ()| hits.fetch_add(1, Ordering::SeqCst) + 1
        });
        let plain = Channel::in_proc(rpc);
        let faulty = plain.with_faults(plan.channel(1, config));
        // Every call is duplicated: the service sees two deliveries but
        // the caller gets exactly one answer.
        assert_eq!(faulty.call_with((), &CallOptions::blocking()).unwrap(), 1);
        // Drain: by the next exchange the duplicate has also run.
        let second = plain.call_with((), &CallOptions::blocking()).unwrap();
        assert!(second >= 3, "duplicate delivery should have run: {second}");
    }

    #[test]
    fn dropped_reply_sequences_then_times_out() {
        let plan = FaultPlan::new(1);
        let config = FaultConfig {
            drop_reply: 1.0,
            ..FaultConfig::none()
        };
        let (rpc, _h) = spawn_service({
            let hits = AtomicU64::new(0);
            move |(): ()| hits.fetch_add(1, Ordering::SeqCst) + 1
        });
        let plain = Channel::in_proc(rpc);
        let faulty = plain.with_faults(plan.channel(1, config));
        assert_eq!(
            faulty.call_with((), &CallOptions::once(Duration::from_millis(200))),
            Err(RpcError::TimedOut)
        );
        // The service did process the dropped-reply request.
        assert_eq!(plain.call_with((), &CallOptions::blocking()).unwrap(), 2);
    }

    #[test]
    fn lost_messages_read_as_timeouts_on_both_call_shapes() {
        // A dropped request and a dropped reply look alike to the
        // caller, and both are timeouts — never the disconnect that is
        // terminal in-process.
        let lost_request = FaultConfig {
            drop: 1.0,
            ..FaultConfig::none()
        };
        let lost_reply = FaultConfig {
            drop_reply: 1.0,
            ..FaultConfig::none()
        };
        for config in [lost_request, lost_reply] {
            let (rpc, _h) = spawn_service(|x: u64| x);
            let ch = Channel::in_proc(rpc).with_faults(FaultPlan::new(3).channel(1, config));
            let wait = Duration::from_millis(20);
            assert_eq!(
                ch.call_with(1, &CallOptions::once(wait)),
                Err(RpcError::TimedOut)
            );
            assert_eq!(
                ch.call_async(2).unwrap().recv_timeout(wait),
                Err(RpcError::TimedOut)
            );
        }
    }
}
