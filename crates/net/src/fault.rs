//! Deterministic, seeded fault injection for the RPC transport.
//!
//! NASD's availability argument (§3–§4 of the paper) is that drives keep
//! serving capability-bearing clients while file managers are slow,
//! partitioned, or down. Exercising that requires losing messages and
//! crashing services *reproducibly*: a chaos run that cannot be replayed
//! is a flake generator, not a test.
//!
//! The design makes every fault decision a **pure function** of
//! `(plan seed, target id, per-target sequence number)` — no shared RNG
//! stream — so the injected-fault schedule for a given seed is identical
//! across runs regardless of thread interleaving. [`FaultPlan::trace`]
//! returns the realized schedule; chaos tests assert it is bit-for-bit
//! equal between two runs of the same seed.
//!
//! Faults are applied on the client side of the channel, which is where
//! a real network loses datagrams: a dropped request never reaches the
//! service, a dropped reply *was* processed by the service, a duplicated
//! request arrives twice (and, for signed drive requests, trips the
//! replay window on the second delivery).

use nasd_obs::{SimTime, TraceEvent, TraceSink};
use nasd_sim::splitmix64;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-message fault probabilities for one class of channel.
///
/// All probabilities are independent cut-points on a single uniform
/// draw, so `drop + duplicate + delay + drop_reply` must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability the request message is lost before the service sees it.
    pub drop: f64,
    /// Probability the request is delivered twice.
    pub duplicate: f64,
    /// Probability the request is delayed by up to [`FaultConfig::max_delay`].
    pub delay: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
    /// Probability the reply is lost *after* the service processed the
    /// request — the nastiest case for exactly-once reasoning.
    pub drop_reply: f64,
}

impl FaultConfig {
    /// No faults at all.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            drop_reply: 0.0,
        }
    }

    /// Delay-only plan, safe for non-idempotent services (no message is
    /// ever lost or duplicated, so no retry will re-execute an op).
    #[must_use]
    pub fn delay_only(delay: f64, max_delay: Duration) -> Self {
        FaultConfig {
            delay,
            max_delay,
            ..FaultConfig::none()
        }
    }

    /// A lossy-network plan for idempotent, independently-signed traffic
    /// (the drive data path): drops, duplicates, delays, and lost replies.
    #[must_use]
    pub fn lossy(intensity: f64) -> Self {
        FaultConfig {
            drop: 0.05 * intensity,
            duplicate: 0.04 * intensity,
            delay: 0.10 * intensity,
            max_delay: Duration::from_micros(500),
            drop_reply: 0.03 * intensity,
        }
    }

    fn validate(&self) {
        let total = self.drop + self.duplicate + self.delay + self.drop_reply;
        assert!(
            (0.0..=1.0).contains(&total),
            "fault probabilities must sum to at most 1, got {total}"
        );
    }
}

/// What the plan decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Lose the request; the service never sees it.
    DropRequest,
    /// Deliver the request twice.
    Duplicate,
    /// Hold the request for the given number of microseconds, then deliver.
    DelayMicros(u64),
    /// Deliver and process, but lose the reply.
    DropReply,
}

/// One realized fault, recorded in the plan's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The channel the fault hit (see [`FaultPlan::channel`]).
    pub target: u64,
    /// The per-target message sequence number the fault hit.
    pub seq: u64,
    /// What happened to the message.
    pub action: FaultAction,
}

/// A seeded, deterministic schedule of faults shared by every channel in
/// a test run.
///
/// Cheap to share (`Arc`); channels derived via [`FaultPlan::channel`]
/// consult it on every call. Disable/enable at runtime with
/// [`FaultPlan::set_enabled`] (used to run a workload's setup phase
/// cleanly and then turn the weather on).
pub struct FaultPlan {
    seed: u64,
    enabled: AtomicBool,
    trace: Mutex<Vec<FaultEvent>>,
    sink: Mutex<Option<Arc<TraceSink>>>,
}

impl FaultPlan {
    /// A plan injecting per the decisions derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultPlan {
            seed,
            enabled: AtomicBool::new(true),
            trace: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
        })
    }

    /// Mirror every realized fault into `sink` as a structured
    /// [`TraceEvent`] (`op = "rpc"`, `phase = "fault"`, the channel id in
    /// `drive`, the per-channel sequence number in `request`). The plan
    /// itself is clockless, so events carry `SimTime::ZERO`.
    pub fn set_sink(&self, sink: Arc<TraceSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// The seed this plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Turn injection on or off globally (trace keeps accumulating only
    /// while enabled).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether injection is currently active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Derive the injector for one named channel. `target` must be
    /// unique per channel (drive id, manager id...); the per-message
    /// sequence number lives in the returned injector, so clones of the
    /// same injector share one deterministic stream.
    #[must_use]
    pub fn channel(self: &Arc<Self>, target: u64, config: FaultConfig) -> Arc<ChannelFaults> {
        config.validate();
        Arc::new(ChannelFaults {
            plan: Arc::clone(self),
            target,
            config,
            seq: AtomicU64::new(0),
        })
    }

    /// A deterministic uniform draw in `[0, 1)` for out-of-band decisions
    /// (e.g. "crash the drive after the Nth write"), keyed by a caller
    /// label so different uses don't correlate.
    #[must_use]
    pub fn roll(&self, label: u64, step: u64) -> f64 {
        unit_f64(splitmix64(
            self.seed ^ splitmix64(label) ^ step.wrapping_mul(0xa076_1d64_78bd_642f),
        ))
    }

    /// The realized fault schedule so far, in decision order per target.
    ///
    /// Entries are recorded only for non-`Deliver` outcomes. For a
    /// fixed seed and workload the returned vector is bit-for-bit
    /// reproducible when the workload issues requests from one thread
    /// per channel (the chaos suite's configuration).
    #[must_use]
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.trace.lock().clone()
    }

    fn record(&self, event: FaultEvent) {
        self.trace.lock().push(event);
        if let Some(sink) = self.sink.lock().as_ref() {
            sink.record(
                TraceEvent::new(SimTime::ZERO, "rpc", "fault")
                    .with_drive(event.target)
                    .with_request(event.seq)
                    .with_detail(format!("{:?}", event.action)),
            );
        }
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("enabled", &self.enabled())
            .field("trace_len", &self.trace.lock().len())
            .finish()
    }
}

/// Per-channel fault injector derived from a [`FaultPlan`].
pub struct ChannelFaults {
    plan: Arc<FaultPlan>,
    target: u64,
    config: FaultConfig,
    seq: AtomicU64,
}

impl ChannelFaults {
    /// Decide the fate of the next message on this channel. Advances the
    /// per-channel sequence number; the decision itself depends only on
    /// `(seed, target, seq)`.
    pub fn next_action(&self) -> FaultAction {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        if !self.plan.enabled() {
            return FaultAction::Deliver;
        }
        let base = splitmix64(
            self.plan.seed ^ splitmix64(self.target) ^ seq.wrapping_mul(0xa076_1d64_78bd_642f),
        );
        let roll = unit_f64(base);
        let c = &self.config;
        let action = if roll < c.drop {
            FaultAction::DropRequest
        } else if roll < c.drop + c.duplicate {
            FaultAction::Duplicate
        } else if roll < c.drop + c.duplicate + c.delay {
            let micros = c.max_delay.as_micros() as u64;
            if micros == 0 {
                FaultAction::Deliver
            } else {
                FaultAction::DelayMicros(splitmix64(base) % micros + 1)
            }
        } else if roll < c.drop + c.duplicate + c.delay + c.drop_reply {
            FaultAction::DropReply
        } else {
            FaultAction::Deliver
        };
        if action != FaultAction::Deliver {
            self.plan.record(FaultEvent {
                target: self.target,
                seq,
                action,
            });
        }
        action
    }

    /// The channel id this injector was derived for.
    #[must_use]
    pub fn target(&self) -> u64 {
        self.target
    }
}

impl std::fmt::Debug for ChannelFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelFaults")
            .field("target", &self.target)
            .field("config", &self.config)
            .finish()
    }
}

/// Capped exponential backoff for client-side retries.
///
/// Retrying a NASD request is safe on the drive path because every
/// attempt is independently signed with a fresh nonce: a duplicate of an
/// *old* attempt is rejected by the drive's replay window, while the
/// fresh attempt is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Zero is treated as one.
    pub max_attempts: u32,
    /// Per-attempt reply timeout.
    pub timeout: Duration,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling for the backoff growth.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// Defaults tuned for in-process chaos testing: short timeouts, a
    /// handful of attempts.
    #[must_use]
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 8,
            timeout: Duration::from_millis(200),
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(10),
        }
    }

    /// Defaults for manager/control channels: a long per-call timeout
    /// (one manager op may itself retry several drive calls) and few
    /// attempts. Control requests are not all idempotent, so chaos
    /// plans keep manager channels delay-only: a timeout then means
    /// "manager gone", not "message lost".
    #[must_use]
    pub fn control() -> Self {
        RetryPolicy {
            max_attempts: 3,
            timeout: Duration::from_secs(5),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }

    /// A single attempt with the given timeout — retries disabled.
    #[must_use]
    pub fn once(timeout: Duration) -> Self {
        RetryPolicy {
            max_attempts: 1,
            timeout,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The pause before attempt `attempt` (0-based; attempt 0 has none).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_target_seq() {
        let config = FaultConfig::lossy(1.0);
        let run = |seed| {
            let plan = FaultPlan::new(seed);
            let a = plan.channel(1, config);
            let b = plan.channel(2, config);
            for _ in 0..200 {
                a.next_action();
                b.next_action();
            }
            plan.trace()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn interleaving_does_not_change_the_trace() {
        let config = FaultConfig::lossy(1.0);
        let sequential = {
            let plan = FaultPlan::new(3);
            let a = plan.channel(1, config);
            let b = plan.channel(2, config);
            for _ in 0..100 {
                a.next_action();
            }
            for _ in 0..100 {
                b.next_action();
            }
            let mut t = plan.trace();
            t.sort_by_key(|e| (e.target, e.seq));
            t
        };
        let interleaved = {
            let plan = FaultPlan::new(3);
            let a = plan.channel(1, config);
            let b = plan.channel(2, config);
            for _ in 0..100 {
                b.next_action();
                a.next_action();
            }
            let mut t = plan.trace();
            t.sort_by_key(|e| (e.target, e.seq));
            t
        };
        assert_eq!(sequential, interleaved);
    }

    #[test]
    fn disabled_plan_delivers_everything() {
        let plan = FaultPlan::new(1);
        plan.set_enabled(false);
        let ch = plan.channel(1, FaultConfig::lossy(1.0));
        for _ in 0..100 {
            assert_eq!(ch.next_action(), FaultAction::Deliver);
        }
        assert!(plan.trace().is_empty());
    }

    #[test]
    fn lossy_plan_actually_injects() {
        let plan = FaultPlan::new(11);
        let ch = plan.channel(9, FaultConfig::lossy(1.0));
        for _ in 0..500 {
            ch.next_action();
        }
        let trace = plan.trace();
        assert!(!trace.is_empty());
        let drops = trace
            .iter()
            .filter(|e| e.action == FaultAction::DropRequest)
            .count();
        // ~5% of 500; generous bounds against unlucky seeds.
        assert!(drops > 2 && drops < 100, "drops = {drops}");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            timeout: Duration::from_millis(1),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(4), Duration::from_millis(8));
        assert_eq!(p.backoff(9), Duration::from_millis(8), "capped");
    }

    #[test]
    fn realized_faults_mirror_into_trace_sink() {
        let plan = FaultPlan::new(11);
        let sink = TraceSink::new(1024);
        plan.set_sink(Arc::clone(&sink));
        let ch = plan.channel(9, FaultConfig::lossy(1.0));
        for _ in 0..200 {
            ch.next_action();
        }
        let trace = plan.trace();
        let events = sink.events();
        assert_eq!(events.len(), trace.len());
        for (fault, event) in trace.iter().zip(&events) {
            assert_eq!(event.drive, fault.target);
            assert_eq!(event.request, fault.seq);
            assert_eq!((event.op, event.phase), ("rpc", "fault"));
            assert_eq!(event.detail, format!("{:?}", fault.action));
        }
    }

    #[test]
    #[should_panic(expected = "fault probabilities")]
    fn config_totals_validated() {
        let plan = FaultPlan::new(0);
        let _ = plan.channel(
            0,
            FaultConfig {
                drop: 0.9,
                duplicate: 0.9,
                ..FaultConfig::none()
            },
        );
    }
}
