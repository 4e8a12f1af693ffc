//! `socket_stream`: the real transport. One drive behind
//! `serve_drive_socket` on a Unix-domain socket, a pool of two
//! connections, two client threads each streaming through its own
//! object — so two requests are in flight and the tag demultiplexer,
//! reader/writer threads and receive buffers all work.

use super::{
    create_partition, drive_config, mem_disk, object_with_cap, observed_drive, Checks, Config,
    DriveProbes, LayerCounters, Workload,
};
use crate::metrics::{AllocProbe, Values};
use crate::pattern;
use crate::probe::Probe;
use bytes::Bytes;
use nasd::fm::{serve_drive_socket, DriveEndpoint};
use nasd::net::{BindAddr, Connector, WireServer};
use nasd::proto::Capability;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const TRANSFER: u64 = 64 << 10;
/// Each client wraps around this much of its object.
const SPAN: u64 = 8 << 20;
/// Store-and-fetch pairs per client before the first measured one.
const WARMUP_PAIRS: u64 = 4_000;

/// Distinguishes the sockets of successive set-ups in one process.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh socket path under the output directory: inside the checkout
/// (`BindAddr::uds_temp` would use the system temp directory), and — as
/// the directory is given relative to the working directory — short
/// enough for a socket address.
pub fn socket_path(cfg: &Config) -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    cfg.out_dir
        .join(format!("nasd-{}-{seq}.sock", std::process::id()))
}

struct Client {
    /// The client's own endpoint over the shared connection pool: its
    /// own signer, so its own nonce sequence. Were the two threads to
    /// share one, a thread preempted between signing and sending could
    /// fall more than the drive's 64-nonce replay window behind the
    /// other and have a good request refused.
    ep: DriveEndpoint,
    cap: Capability,
    key: u64,
    /// Pairs issued so far; the offset is `issued * TRANSFER % SPAN`.
    issued: u64,
    corrupt: bool,
}

impl Client {
    /// One logical op: store 64 KiB at the next offset, fetch it back.
    fn one_op(&mut self, probe: &mut Probe) {
        let ep = &self.ep;
        let offset = self.issued * TRANSFER % SPAN;
        let mut payload = pattern::make(self.key, offset, TRANSFER as usize);
        if self.corrupt && self.issued.is_multiple_of(16) {
            payload[0] ^= 1;
        }
        self.issued += 1;
        let payload = Bytes::from(payload);
        probe.begin_op();
        let ok = (|| {
            let n = probe.try_call("client.write", || ep.write(&self.cap, offset, payload))?;
            probe.write_bytes += TRANSFER;
            let data = probe.try_call("client.read", || ep.read(&self.cap, offset, TRANSFER))?;
            probe.read_bytes += TRANSFER;
            Some(n == TRANSFER && pattern::verify(self.key, offset, TRANSFER, data.iter_slices()))
        })()
        .unwrap_or(false);
        probe.end_op(ok);
    }
}

pub struct SocketStream {
    server: WireServer,
    /// The endpoint set-up used; the clients' endpoints share its
    /// connection pool.
    ep: DriveEndpoint,
    clients: Vec<Client>,
    drive_probes: DriveProbes,
    warmup: Checks,
}

impl SocketStream {
    pub fn new(cfg: &Config) -> Self {
        // 32 MiB of cache: both spans stay cached, the transport is the work.
        let config = drive_config(4_096);
        let device = mem_disk(&config);
        let (drive, drive_probes) = observed_drive(config, device);
        let (id, hierarchy) = (drive.id(), drive.hierarchy().clone());
        let (server, ep) = serve_drive_socket(
            drive,
            Arc::new(AtomicU64::new(1)),
            &BindAddr::Uds(socket_path(cfg)),
            CLIENTS,
            &Connector::new().pool(CLIENTS),
        )
        .expect("serve drive over a Unix socket");
        create_partition(&ep);
        let clients = (0..CLIENTS as u64)
            .map(|i| Client {
                ep: DriveEndpoint::over(id, ep.channel(), hierarchy.clone()),
                cap: object_with_cap(&ep, SPAN).1,
                key: pattern::key(cfg.seed, i),
                issued: 0,
                corrupt: cfg.corrupt,
            })
            .collect();
        let mut w = SocketStream {
            server,
            ep,
            clients,
            drive_probes,
            warmup: Checks::default(),
        };
        let probes = w.run(false, |issued, _| issued < WARMUP_PAIRS);
        w.warmup = Checks {
            attempted: probes.iter().map(|p| p.attempted).sum(),
            failed: probes.iter().map(|p| p.failed).sum(),
        };
        w
    }

    /// Both clients in their loops, started together, each until
    /// `go_on(pairs issued by it in this call, time since the start)`
    /// turns false.
    fn run(&mut self, tracing: bool, go_on: impl Fn(u64, Duration) -> bool + Sync) -> Vec<Probe> {
        let barrier = Barrier::new(CLIENTS);
        let epoch = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (barrier, go_on) = (&barrier, &go_on);
                    s.spawn(move || {
                        let mut probe = Probe::new(epoch, tracing);
                        barrier.wait();
                        let start = Instant::now();
                        while go_on(probe.attempted, start.elapsed()) {
                            client.one_op(&mut probe);
                        }
                        probe
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }
}

impl Workload for SocketStream {
    fn measure(&mut self, dur: Duration, tracing: bool) -> Vec<Probe> {
        self.run(tracing, |_, elapsed| elapsed < dur)
    }

    fn counters(&self) -> LayerCounters {
        self.drive_probes.counters()
    }

    fn finish(self: Box<Self>) -> Checks {
        let SocketStream {
            server,
            ep,
            clients,
            warmup,
            ..
        } = *self;
        // Every holder of the connection pool goes before the server.
        drop((ep, clients));
        server.shutdown();
        warmup
    }
}

/// Heap traffic of the socket path, per 64 KiB call: `iters` writes,
/// then `iters` reads, from this thread alone over one warmed-up
/// fixture. The allocator counts every thread — client, reader/writer
/// and worker — which is the point: receive buffers are the transport's.
pub fn alloc_profile(iters: u64, cfg: &Config, alloc: AllocProbe, out: &mut Values) {
    let w = SocketStream::new(cfg);
    let client = &w.clients[0];
    let payload = Bytes::from(pattern::make(client.key, 0, TRANSFER as usize));
    let per_call = |f: &dyn Fn(u64)| {
        let (a0, b0) = alloc();
        for i in 0..iters {
            f(i * TRANSFER % SPAN);
        }
        let (a1, b1) = alloc();
        (
            (a1 - a0) as f64 / iters as f64,
            (b1 - b0) as f64 / iters as f64,
        )
    };
    let (allocs, bytes) = per_call(&|off| {
        // Offset 0's content at every offset: this profile checks no output.
        w.ep.write(&client.cap, off, payload.clone())
            .expect("profile write");
    });
    out.push(("net.allocs_per_write", allocs));
    out.push(("net.alloc_bytes_per_write", bytes));
    let copies = w.server.stats().send_copies.value();
    let (allocs, bytes) = per_call(&|off| {
        w.ep.read(&client.cap, off, TRANSFER).expect("profile read");
    });
    out.push(("net.allocs_per_read", allocs));
    out.push(("net.alloc_bytes_per_read", bytes));
    out.push((
        "net.send_copies_per_read",
        (w.server.stats().send_copies.value() - copies) as f64 / iters as f64,
    ));
    Box::new(w).finish();
}
