//! The harness side of a closed-loop client: times every public call it
//! makes into the system, and — in a traced run — records a span per
//! call, all from outside the program.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it within
/// the same [`Probe`] (`NO_PARENT` for a request's root span); spans of
/// one request share `req`.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Name of a request's root span: it runs from the moment the harness
/// picks the request to the moment it has verified the result, so its
/// self time is the harness's own overhead.
pub const ROOT_SPAN: &str = "harness.op";

/// Measurements of one client thread over one measured window.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    tracing: bool,
    /// Every span recorded (traced runs only), in start order per request.
    pub spans: Vec<Span>,
    /// Time inside the system per logical op (the sum of its timed
    /// calls), nanoseconds, in issue order.
    pub samples: Vec<u32>,
    /// Logical ops issued.
    pub attempted: u64,
    /// Ops that returned an error or whose output failed verification.
    pub failed: u64,
    /// Payload bytes read / written by successful ops.
    pub read_bytes: u64,
    pub write_bytes: u64,
    op_ns: u64,
    root: u32,
}

impl Probe {
    /// A probe whose span clock starts at `epoch` (shared by every
    /// thread of a run, so their spans line up).
    pub fn new(epoch: Instant, tracing: bool) -> Self {
        Probe {
            epoch,
            tracing,
            spans: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            read_bytes: 0,
            write_bytes: 0,
            op_ns: 0,
            root: NO_PARENT,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Start logical op number `attempted`.
    pub fn begin_op(&mut self) {
        self.op_ns = 0;
        if self.tracing {
            self.root = self.spans.len() as u32;
            let now = self.since_epoch(Instant::now());
            self.spans.push(Span {
                name: ROOT_SPAN,
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                req: self.attempted as u32,
            });
        }
    }

    /// Time one public call into the system.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.op_ns += t1.duration_since(t0).as_nanos() as u64;
        if self.tracing {
            self.spans.push(Span {
                name,
                start_ns: self.since_epoch(t0),
                end_ns: self.since_epoch(t1),
                parent: self.root,
                req: self.attempted as u32,
            });
        }
        out
    }

    /// Time one fallible call; an error is reported on standard error
    /// (the first few of a run) and becomes `None`.
    pub fn try_call<T, E: std::fmt::Debug>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(name, f) {
            Ok(value) => Some(value),
            Err(e) => {
                if self.failed < 3 {
                    eprintln!("op {}: {name} failed: {e:?}", self.attempted);
                }
                None
            }
        }
    }

    /// Finish the current op; `ok` is false when a call failed or the
    /// output did not verify.
    pub fn end_op(&mut self, ok: bool) {
        if self.tracing {
            let now = self.since_epoch(Instant::now());
            self.spans[self.root as usize].end_ns = now;
        }
        self.samples
            .push(self.op_ns.min(u64::from(u32::MAX)) as u32);
        if !ok {
            if self.failed < 3 {
                eprintln!(
                    "op {}: a call failed or its output did not verify",
                    self.attempted
                );
            }
            self.failed += 1;
        }
        self.attempted += 1;
    }

    /// Durations (ns, ascending) of every span called `name`.
    pub fn durations_of(probes: &[Probe], name: &str) -> Vec<u32> {
        let mut v: Vec<u32> = probes
            .iter()
            .flat_map(|p| p.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).min(u64::from(u32::MAX)) as u32)
            .collect();
        v.sort_unstable();
        v
    }
}

/// At most this many requests per client thread are written to the
/// trace file; the metrics use every span.
const TRACE_FILE_REQUESTS: u32 = 20_000;

/// Write the spans of `probes` (one per client thread) as JSON lines:
/// `{"thread":0,"req":17,"span":42,"parent":40,"name":"client.read","start_ns":…,"end_ns":…}`.
/// `span` and `parent` are indices within the thread; a root span has
/// `"parent":null`.
pub fn write_trace(path: &Path, probes: &[Probe]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, p) in probes.iter().enumerate() {
        for (i, s) in p.spans.iter().enumerate() {
            if s.req >= TRACE_FILE_REQUESTS {
                break;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\":{thread},\"req\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_request_root_and_samples_sum_calls() {
        let mut p = Probe::new(Instant::now(), true);
        for _ in 0..3 {
            p.begin_op();
            p.call("a", || std::hint::black_box(1));
            p.call("b", || std::hint::black_box(2));
            p.end_op(true);
        }
        assert_eq!(p.attempted, 3);
        assert_eq!(p.samples.len(), 3);
        assert_eq!(p.spans.len(), 9);
        let root = &p.spans[3];
        assert_eq!(
            (root.name, root.parent, root.req),
            (ROOT_SPAN, NO_PARENT, 1)
        );
        for child in &p.spans[4..6] {
            assert_eq!((child.parent, child.req), (3, 1));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        assert_eq!(Probe::durations_of(&[p], "a").len(), 3);
    }

    #[test]
    fn untraced_probe_records_samples_only() {
        let mut p = Probe::new(Instant::now(), false);
        p.begin_op();
        p.call("a", || ());
        p.end_op(false);
        assert!(p.spans.is_empty());
        assert_eq!((p.attempted, p.failed, p.samples.len()), (1, 1, 1));
    }
}
