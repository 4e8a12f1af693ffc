//! A bounded ring buffer of structured trace events.
//!
//! Tracing complements the aggregate [`Registry`](crate::Registry): when a
//! chaos run fails, the last few thousand events — which request, which
//! drive, which phase, how long — are usually enough to localize the
//! divergence without re-running. The ring is bounded so always-on
//! tracing cannot grow without limit; overflow evicts the oldest event
//! and counts it in [`TraceSink::dropped`].
//!
//! Its crate denies panics and bare indexing to clippy (rule P1).

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json::Json;
use crate::time::SimTime;

/// One structured event on the request path.
///
/// `op` and `phase` are `&'static str` by design: event labels are code,
/// not data, and this keeps recording allocation-free unless `detail` is
/// used.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub at: SimTime,
    /// Duration of the phase, if it has one.
    pub dur: SimTime,
    /// Request identifier (0 when not tied to a request).
    pub request: u64,
    /// Drive identifier (0 when not tied to a drive).
    pub drive: u64,
    /// Operation label, e.g. `"read"`, `"rpc_call"`.
    pub op: &'static str,
    /// Phase label, e.g. `"queue"`, `"seek"`, `"transfer"`, `"fault"`.
    pub phase: &'static str,
    /// Free-form context (fault action, byte count, error).
    pub detail: String,
}

impl TraceEvent {
    /// An event with the given labels at time `at`; set the remaining
    /// fields with struct update syntax or the `with_*` helpers.
    #[must_use]
    pub fn new(at: SimTime, op: &'static str, phase: &'static str) -> Self {
        TraceEvent {
            at,
            op,
            phase,
            ..TraceEvent::default()
        }
    }

    /// Attach a request id.
    #[must_use]
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }

    /// Attach a drive id.
    #[must_use]
    pub fn with_drive(mut self, drive: u64) -> Self {
        self.drive = drive;
        self
    }

    /// Attach a duration.
    #[must_use]
    pub fn with_dur(mut self, dur: SimTime) -> Self {
        self.dur = dur;
        self
    }

    /// Attach free-form detail.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// As a JSON object (times in nanoseconds; empty fields omitted).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("at_ns".to_owned(), Json::num_u64(self.at.as_nanos())),
            ("op".to_owned(), Json::str(self.op)),
            ("phase".to_owned(), Json::str(self.phase)),
        ];
        if self.dur != SimTime::ZERO {
            obj.push(("dur_ns".to_owned(), Json::num_u64(self.dur.as_nanos())));
        }
        if self.request != 0 {
            obj.push(("request".to_owned(), Json::num_u64(self.request)));
        }
        if self.drive != 0 {
            obj.push(("drive".to_owned(), Json::num_u64(self.drive)));
        }
        if !self.detail.is_empty() {
            obj.push(("detail".to_owned(), Json::str(self.detail.clone())));
        }
        Json::Obj(obj)
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded, thread-safe sink of [`TraceEvent`]s.
pub struct TraceSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock();
        f.debug_struct("TraceSink")
            .field("capacity", &self.capacity)
            .field("len", &ring.events.len())
            .field("dropped", &ring.dropped)
            .finish()
    }
}

impl TraceSink {
    /// A sink holding at most `capacity` events (at least 1), behind an
    /// `Arc` (sinks are shared by construction).
    #[must_use]
    pub fn new(capacity: usize) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                dropped: 0,
            }),
        })
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// True when no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted by overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// The retained events as JSON Lines (one object per line).
    #[must_use]
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::new();
        for event in self.ring.lock().events.iter() {
            out.push_str(&event.to_json().to_json_string());
            out.push('\n');
        }
        out
    }

    /// Write the retained events to `path` as JSON Lines.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn dump_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl_string().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_stays_bounded_and_counts_drops() {
        let sink = TraceSink::new(3);
        for i in 0..5u64 {
            sink.record(TraceEvent::new(SimTime::from_micros(i), "read", "queue").with_request(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let requests: Vec<u64> = sink.events().iter().map(|e| e.request).collect();
        assert_eq!(requests, vec![2, 3, 4]);
        assert_eq!(sink.capacity(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let sink = TraceSink::new(0);
        sink.record(TraceEvent::new(SimTime::ZERO, "a", "b"));
        sink.record(TraceEvent::new(SimTime::ZERO, "c", "d"));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let sink = TraceSink::new(16);
        sink.record(
            TraceEvent::new(SimTime::from_millis(5), "write", "transfer")
                .with_request(7)
                .with_drive(2)
                .with_dur(SimTime::from_micros(30))
                .with_detail("8192 bytes"),
        );
        sink.record(TraceEvent::new(SimTime::from_millis(6), "write", "done"));
        let jsonl = sink.to_jsonl_string();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("at_ns").and_then(Json::as_u64), Some(5_000_000));
        assert_eq!(first.get("request").and_then(Json::as_u64), Some(7));
        assert_eq!(first.get("drive").and_then(Json::as_u64), Some(2));
        assert_eq!(
            first.get("detail").and_then(Json::as_str),
            Some("8192 bytes")
        );
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("request"), None);
        assert_eq!(second.get("dur_ns"), None);
    }

    #[test]
    fn dump_writes_file() {
        let sink = TraceSink::new(4);
        sink.record(TraceEvent::new(SimTime::ZERO, "read", "fault").with_detail("drop"));
        let path = std::env::temp_dir().join("nasd_obs_trace_test.jsonl");
        sink.dump_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"fault\""));
        let _ = std::fs::remove_file(&path);
    }
}
