//! Unified call options for [`Rpc`](crate::Rpc) clients.
//!
//! The NFS, AFS and Cheops clients each grew an identical hand-rolled
//! retry loop around `call_timeout`; [`CallOptions`] replaces all of them
//! with one policy object that [`Rpc::call_with`](crate::Rpc::call_with)
//! interprets: how many attempts, how long to wait per attempt, and an
//! optional [`CallStats`] bundle so every retry and timeout shows up in a
//! metrics [`Registry`](nasd_obs::Registry).

use std::sync::Arc;
use std::time::Duration;

use nasd_obs::{Counter, Registry};

use crate::fault::RetryPolicy;

/// Counter bundle for one client's RPC traffic, resolved once from a
/// registry and shared by every call.
#[derive(Debug, Clone)]
pub struct CallStats {
    /// Logical calls issued (one per `call_with`).
    pub calls: Arc<Counter>,
    /// Transport attempts, including the first try of each call.
    pub attempts: Arc<Counter>,
    /// Attempts that timed out (message lost or service slow).
    pub timeouts: Arc<Counter>,
    /// Calls that failed because the service disconnected.
    pub disconnects: Arc<Counter>,
    /// Calls that exhausted every attempt without an answer.
    pub exhausted: Arc<Counter>,
}

impl CallStats {
    /// Resolve the bundle under `prefix` (e.g. `"nfs/fm"`) in `registry`,
    /// creating `prefix/calls`, `prefix/attempts`, `prefix/timeouts`,
    /// `prefix/disconnects` and `prefix/exhausted`.
    #[must_use]
    pub fn in_registry(registry: &Registry, prefix: &str) -> CallStats {
        CallStats {
            calls: registry.counter(&format!("{prefix}/calls")),
            attempts: registry.counter(&format!("{prefix}/attempts")),
            timeouts: registry.counter(&format!("{prefix}/timeouts")),
            disconnects: registry.counter(&format!("{prefix}/disconnects")),
            exhausted: registry.counter(&format!("{prefix}/exhausted")),
        }
    }
}

/// How an RPC call should be executed: attempts, pacing, per-attempt
/// timeout, and optional metrics.
///
/// The three legacy entry points map onto options like this:
///
/// | legacy                  | options                                         |
/// |-------------------------|-------------------------------------------------|
/// | `call(req)`             | [`CallOptions::blocking()`]                     |
/// | `call_timeout(req, t)`  | [`CallOptions::once(t)`](CallOptions::once)     |
/// | `call_retry(req, p)`    | [`CallOptions::retry(p)`](CallOptions::retry)   |
#[derive(Debug, Clone)]
pub struct CallOptions {
    /// Attempt count, per-attempt timeout and backoff schedule.
    pub policy: RetryPolicy,
    /// Optional counters recording this call's traffic.
    pub stats: Option<CallStats>,
}

impl CallOptions {
    /// One attempt, wait forever — the semantics of plain `call`.
    #[must_use]
    pub fn blocking() -> CallOptions {
        CallOptions {
            policy: RetryPolicy::once(Duration::MAX),
            stats: None,
        }
    }

    /// One attempt bounded by `timeout` — the semantics of `call_timeout`.
    #[must_use]
    pub fn once(timeout: Duration) -> CallOptions {
        CallOptions {
            policy: RetryPolicy::once(timeout),
            stats: None,
        }
    }

    /// Retry per `policy` with its per-attempt timeout — the semantics of
    /// `call_retry`.
    #[must_use]
    pub fn retry(policy: RetryPolicy) -> CallOptions {
        CallOptions {
            policy,
            stats: None,
        }
    }

    /// Per-attempt reply timeout: the policy's, or `None` when that is
    /// [`Duration::MAX`], which blocks until the reply arrives or the
    /// service disconnects (only sensible with a single attempt).
    #[must_use]
    pub fn attempt_timeout(&self) -> Option<Duration> {
        (self.policy.timeout != Duration::MAX).then_some(self.policy.timeout)
    }

    /// Attach a [`CallStats`] bundle (fluent).
    #[must_use]
    pub fn with_stats(mut self, stats: CallStats) -> CallOptions {
        self.stats = Some(stats);
        self
    }

    /// Resolve and attach stats under `prefix` in `registry` (fluent).
    #[must_use]
    pub fn with_registry(self, registry: &Registry, prefix: &str) -> CallOptions {
        self.with_stats(CallStats::in_registry(registry, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_map_legacy_semantics() {
        let blocking = CallOptions::blocking();
        assert_eq!(blocking.policy.max_attempts, 1);
        assert_eq!(blocking.attempt_timeout(), None);

        let once = CallOptions::once(Duration::from_millis(5));
        assert_eq!(once.policy.max_attempts, 1);
        assert_eq!(once.attempt_timeout(), Some(Duration::from_millis(5)));

        let policy = RetryPolicy::standard();
        let retry = CallOptions::retry(policy);
        assert_eq!(retry.policy, policy);
        assert_eq!(retry.attempt_timeout(), Some(policy.timeout));
    }

    #[test]
    fn stats_resolve_under_prefix() {
        let registry = Registry::new();
        let opts = CallOptions::blocking().with_registry(&registry, "nfs/fm");
        let stats = opts.stats.unwrap();
        stats.calls.inc();
        assert_eq!(registry.counter("nfs/fm/calls").value(), 1);
        // Same prefix shares the same counters.
        let again = CallStats::in_registry(&registry, "nfs/fm");
        assert!(Arc::ptr_eq(&stats.calls, &again.calls));
    }
}
