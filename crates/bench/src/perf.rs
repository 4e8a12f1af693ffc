//! Wall-clock / allocation perf harness for the zero-copy data path.
//!
//! Unlike every other module in this crate, which reproduces a *simulated*
//! figure from the paper, this harness measures the reproduction itself:
//! real nanoseconds, real heap allocations, and real payload memcpies per
//! operation. The paper's architectural argument is that NASD removes
//! store-and-forward copies from the data path (§1–2); these counters are
//! how the codebase proves it did the same and stays that way.
//!
//! Three instruments:
//!
//! * wall-clock time per operation (`std::time::Instant` — this crate is
//!   not simulation-visible, so nasd-lint D1 does not apply);
//! * a counting global allocator, installed only by the `nasd-bench`
//!   *binary* (a `#[global_allocator]` needs `unsafe`, which library
//!   crates forbid) and handed in as an [`AllocProbe`];
//! * the per-thread copy ledger in [`nasd::obs::datapath`]: every payload
//!   memcpy on the data path flows through the `bytes` shim and is
//!   recorded there, as is simulator event-infrastructure growth.
//!
//! Run `cargo run --release -p nasd-bench -- perf` for the table, add
//! `--json perf.json` for the machine-readable report, and
//! `--max cached_read_allocs_per_op=<n>` (or any other derived key of
//! the report) to turn it into a CI gate.

use bytes::Bytes;
use nasd::crypto;
use nasd::disk::{BlockDevice, DiskError, MemDisk};
use nasd::fm::{serve_drive_socket, spawn_drive, DriveEndpoint, DriveFleet, FmConnect, NasdNfs};
use nasd::net::{
    syscall_counts, BindAddr, CallOptions, CallStats, Channel, Connector, Pending, RetryPolicy,
    RpcError, SyscallCounts, Transport, WireServer,
};
use nasd::object::{ClientHandle, DriveConfig, NasdDrive};
use nasd::obs::{datapath, Registry};
use nasd::proto::{ByteRange, PartitionId, Reply, Request, RequestBody, Rights, Version};
use nasd::sim::{SimTime, Simulator};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads the harness allocator's `(allocations, bytes_allocated)`
/// totals. `None` when the embedding binary installed no counting
/// allocator (alloc columns then report zero).
pub type AllocProbe = fn() -> (u64, u64);

/// One measured workload.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Workload name (`cached_read`, `seq_write`, `durable_write`, `sweep_read`,
    /// `inproc_read`, `socket_read`, `socket_write`, `nfs_open`, `sim_step`,
    /// `scale_point`, `dispatch_100k`).
    pub workload: &'static str,
    /// Payload bytes per operation (0 for `sim_step`).
    pub size: u64,
    /// Operations measured.
    pub ops: u64,
    /// Wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// Wall-clock payload throughput in MB/s (0 for `sim_step`).
    pub mb_s: f64,
    /// Heap allocations per operation (0 without an [`AllocProbe`]).
    pub allocs_per_op: f64,
    /// Heap bytes allocated per operation (0 without an [`AllocProbe`]).
    pub alloc_bytes_per_op: f64,
    /// Payload bytes memcpied per operation (the `datapath/bytes_copied`
    /// counter).
    pub bytes_copied_per_op: f64,
    /// Simulator event-infrastructure allocations per operation (the
    /// `sim/event_allocs` counter; only the simulator rows exercise it).
    pub event_allocs_per_op: f64,
    /// Exact per-operation counts only this workload measures, each
    /// reported as the derived value `<workload>_<name>` (`nfs_open`:
    /// `fm_calls`, `drive_requests`, `compressions`; `inproc_read`:
    /// `compressions`; `socket_read` and `socket_write`: `reads`,
    /// `writevs`, `setsockopts`; `durable_write`: `dev_writes`,
    /// `dev_bytes_per_user_byte`).
    pub counters: Vec<(&'static str, f64)>,
}

struct Measured {
    ops: u64,
    nanos: u64,
    allocs: u64,
    alloc_bytes: u64,
    bytes_copied: u64,
    event_allocs: u64,
    /// SHA-256 compressions on this thread, the drive's included when
    /// it runs in process.
    compressions: u64,
    /// Socket syscalls made in the window, by every thread of the
    /// process: client and server alike.
    syscalls: SyscallCounts,
}

impl Measured {
    /// SHA-256 compressions per operation, as a row counter.
    fn compressions(&self) -> (&'static str, f64) {
        ("compressions", self.compressions as f64 / self.ops as f64)
    }

    /// Socket `read`, `writev` and `setsockopt` calls per operation, as
    /// row counters.
    fn syscalls(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops as f64;
        let s = self.syscalls;
        vec![
            ("reads", s.reads as f64 / ops),
            ("writevs", s.writevs as f64 / ops),
            ("setsockopts", s.setsockopts as f64 / ops),
        ]
    }
}

fn measure(probe: Option<AllocProbe>, ops: u64, mut op: impl FnMut()) -> Measured {
    datapath::reset();
    let (a0, b0) = probe.map_or((0, 0), |p| p());
    let c0 = crypto::stats::compressions();
    let s0 = syscall_counts();
    let t0 = Instant::now();
    for _ in 0..ops {
        op();
    }
    let nanos = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = probe.map_or((0, 0), |p| p());
    let s1 = syscall_counts();
    Measured {
        ops,
        nanos,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        bytes_copied: datapath::bytes_copied(),
        event_allocs: datapath::event_allocs(),
        compressions: crypto::stats::compressions() - c0,
        syscalls: SyscallCounts {
            reads: s1.reads - s0.reads,
            writevs: s1.writevs - s0.writevs,
            setsockopts: s1.setsockopts - s0.setsockopts,
        },
    }
}

fn row(workload: &'static str, size: u64, m: &Measured) -> PerfRow {
    let ops = m.ops as f64;
    let secs = m.nanos as f64 / 1e9;
    PerfRow {
        workload,
        size,
        ops: m.ops,
        ns_per_op: m.nanos as f64 / ops,
        mb_s: if size == 0 || secs == 0.0 {
            0.0
        } else {
            (size as f64 * ops) / 1e6 / secs
        },
        allocs_per_op: m.allocs as f64 / ops,
        alloc_bytes_per_op: m.alloc_bytes as f64 / ops,
        bytes_copied_per_op: m.bytes_copied as f64 / ops,
        event_allocs_per_op: m.event_allocs as f64 / ops,
        counters: Vec::new(),
    }
}

/// A drive big enough that every sweep size stays fully cached: 64 MB
/// device, 8 MB cache.
fn perf_config() -> DriveConfig {
    DriveConfig {
        block_size: 8_192,
        capacity_blocks: 8_192,
        cache_blocks: 1_024,
        security_enabled: true,
        durable_writes: false,
    }
}

fn perf_drive() -> NasdDrive<MemDisk> {
    NasdDrive::builder(1).config(perf_config()).build()
}

/// A drive of `config` holding one empty object, and a full-rights
/// client for it.
fn drive_with_object(config: DriveConfig) -> (NasdDrive<MemDisk>, ClientHandle) {
    let device = MemDisk::new(config.block_size, config.capacity_blocks);
    drive_on(config, device)
}

/// [`drive_with_object`] over `device`.
fn drive_on<D: BlockDevice>(config: DriveConfig, device: D) -> (NasdDrive<D>, ClientHandle) {
    let mut drive = NasdDrive::builder(1).config(config).build_on(device);
    let p = PartitionId(1);
    drive.admin_create_partition(p, 1 << 26).expect("partition");
    let obj = drive.admin_create_object(p, 0).expect("object");
    let cap = drive.issue_capability(p, obj, Rights::READ | Rights::WRITE, 1 << 40);
    let client = drive.client(cap);
    (drive, client)
}

fn cached_read(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (mut drive, client) = drive_with_object(perf_config());
    let payload = vec![0xA5u8; size as usize];
    client.write(&mut drive, 0, &payload).expect("seed write");
    // Warm the cache so the measured loop never touches the device.
    for _ in 0..4 {
        let got = client.read(&mut drive, 0, size).expect("warm read");
        assert_eq!(got.len() as u64, size);
    }
    measure(probe, ops, || {
        let got = client.read(&mut drive, 0, size).expect("cached read");
        debug_assert_eq!(got.len() as u64, size);
    })
}

fn seq_write(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (mut drive, client) = drive_with_object(perf_config());
    let payload = vec![0x5Au8; size as usize];
    let mut offset = 0u64;
    measure(probe, ops, || {
        client.write(&mut drive, offset, &payload).expect("write");
        offset += size;
    })
}

/// A [`MemDisk`] that counts the device I/O asked of it.
struct CountingDisk {
    disk: MemDisk,
    writes: u64,
    /// Bytes read and written.
    bytes: Cell<u64>,
}

impl BlockDevice for CountingDisk {
    fn block_size(&self) -> usize {
        self.disk.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.disk.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.bytes.set(self.bytes.get() + buf.len() as u64);
        self.disk.read_block(block, buf)
    }

    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.writes += 1;
        self.bytes.set(self.bytes.get() + data.len() as u64);
        self.disk.write_block(block, data)
    }
}

/// Overwrites of a laid-down 4 MiB span on a durable drive: every op's
/// blocks and log record reach the device before it returns. Whole
/// blocks go around the cache, so the span is not cached: an op copies
/// its payload once, into the request, and the device write is the
/// block's one copy. The row's counters are the device's: writes per
/// op, and bytes read and written per payload byte.
fn durable_write(probe: Option<AllocProbe>, size: u64, ops: u64) -> PerfRow {
    const SPAN: u64 = 4 << 20;
    let config = perf_config().durable();
    let device = CountingDisk {
        disk: MemDisk::new(config.block_size, config.capacity_blocks),
        writes: 0,
        bytes: Cell::new(0),
    };
    let (mut drive, client) = drive_on(config, device);
    let payload = vec![0x5Au8; size as usize];
    for offset in (0..SPAN).step_by(size as usize) {
        client
            .write(&mut drive, offset, &payload)
            .expect("lay down");
    }
    let io = |drive: &NasdDrive<CountingDisk>| {
        let disk = drive.store().cache().device();
        (disk.writes, disk.bytes.get())
    };
    let (writes0, bytes0) = io(&drive);
    let mut offset = 0u64;
    let m = measure(probe, ops, || {
        client
            .write(&mut drive, offset, &payload)
            .expect("durable write");
        offset = (offset + size) % SPAN;
    });
    let (writes1, bytes1) = io(&drive);
    PerfRow {
        counters: vec![
            ("dev_writes", (writes1 - writes0) as f64 / ops as f64),
            (
                "dev_bytes_per_user_byte",
                (bytes1 - bytes0) as f64 / (ops * size) as f64,
            ),
        ],
        ..row("durable_write", size, &m)
    }
}

/// Provision the drive behind `ep`: a partition and a full-rights
/// capability over one object holding `size` seeded bytes.
fn provision(ep: &DriveEndpoint, size: u64) -> nasd::proto::Capability {
    let p = PartitionId(1);
    ep.admin(RequestBody::CreatePartition {
        partition: p,
        quota: 1 << 26,
    })
    .expect("partition");
    let obj = ep.create_object(p, 0, None, 1 << 40).expect("object");
    let cap = ep.mint(
        p,
        obj,
        Version(0),
        Rights::READ | Rights::WRITE,
        ByteRange::FULL,
        1 << 40,
    );
    let payload = vec![0xA5u8; size as usize];
    ep.write(&cap, 0, Bytes::from(payload)).expect("seed write");
    cap
}

/// Warm cached reads through an in-process drive (`spawn_drive` +
/// `DriveEndpoint::read`): `hot_read`'s data hop without the file
/// manager — sign, the in-process call, MAC verify, cache hit.
fn inproc_read(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (ep, handle) = spawn_drive(perf_drive(), Arc::new(AtomicU64::new(1)));
    let cap = provision(&ep, size);
    for _ in 0..4 {
        let got = ep.read(&cap, 0, size).expect("warm in-process read");
        assert_eq!(got.len() as u64, size);
    }
    let m = measure(probe, ops, || {
        let got = ep.read(&cap, 0, size).expect("in-process read");
        debug_assert_eq!(got.len() as u64, size);
    });
    handle.shutdown();
    m
}

/// A provisioned drive (see [`provision`]) served over a real UDS
/// socket: server, endpoint and capability.
fn socket_fixture(size: u64) -> (WireServer, DriveEndpoint, nasd::proto::Capability) {
    let clock = Arc::new(AtomicU64::new(1));
    let (server, ep) = serve_drive_socket(
        perf_drive(),
        clock,
        &BindAddr::uds_temp("perf"),
        2,
        &Connector::new(),
    )
    .expect("serve drive over UDS");
    let cap = provision(&ep, size);
    (server, ep, cap)
}

/// Warm cached reads over the real socket transport. Also the zero-copy
/// gate for the send side: across the measured window the server's
/// `send_copies` ledger must not move — cached payload bytes ride from
/// the drive cache to `writev` as shared segments.
fn socket_read(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (server, ep, cap) = socket_fixture(size);
    for _ in 0..4 {
        let got = ep.read(&cap, 0, size).expect("warm socket read");
        assert_eq!(got.len() as u64, size);
    }
    let sends_before = server.stats().send_copies.value();
    let m = measure(probe, ops, || {
        let got = ep.read(&cap, 0, size).expect("socket read");
        debug_assert_eq!(got.len() as u64, size);
    });
    let send_copies = server.stats().send_copies.value() - sends_before;
    assert_eq!(
        send_copies, 0,
        "warm cached socket reads memcpied {send_copies} payload bytes on the send side"
    );
    server.shutdown();
    m
}

/// Sequential writes over the real socket transport. The payload is
/// built once; each op sends an O(1) clone of it, so the row's copies
/// and allocations are the system's, not the harness's.
fn socket_write(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (server, ep, cap) = socket_fixture(size);
    let payload = Bytes::from(vec![0x5Au8; size as usize]);
    let mut offset = 0u64;
    let m = measure(probe, ops, || {
        ep.write(&cap, offset, payload.clone())
            .expect("socket write");
        offset = (offset + size) % (1 << 25);
    });
    server.shutdown();
    m
}

/// A drive channel that counts the requests sent through it.
struct Counted {
    inner: Channel<Request, Reply>,
    requests: Arc<AtomicU64>,
}

impl Transport<Request, Reply> for Counted {
    fn attempt(&self, req: Request, timeout: Option<Duration>) -> Result<Reply, RpcError> {
        self.call_async(req)?.wait(timeout)
    }

    fn call_async(&self, req: Request) -> Result<Pending<Reply>, RpcError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.inner.call_async(req)
    }
}

/// Files in `nfs_open`'s one directory — as many as a `meta_mix`
/// directory holds.
const NFS_OPEN_FILES: usize = 64;

/// Two-level read-only opens (`/d/fNN`) through an NFS client without
/// a capability cache, over four in-process drives: the control path a
/// `meta_mix` op pays, with the manager calls and the drive requests
/// per open as the row's counters.
fn nfs_open(probe: Option<AllocProbe>, ops: u64) -> PerfRow {
    let fleet = Arc::new(
        DriveFleet::spawn_memory(4, DriveConfig::small(), PartitionId(1), 16 << 20)
            .expect("drive fleet"),
    );
    let (fm, handle) = NasdNfs::new(Arc::clone(&fleet))
        .expect("file manager")
        .spawn();
    let mut client = Connector::new()
        .nfs(fm, Arc::clone(&fleet))
        .expect("nfs client");
    client.mkdir("/d", 0o755, 0).expect("mkdir");
    let paths: Vec<String> = (0..NFS_OPEN_FILES).map(|f| format!("/d/f{f:02}")).collect();
    for path in &paths {
        client.create(path, 0o644, 0).expect("create");
    }
    let requests = Arc::new(AtomicU64::new(0));
    for ep in fleet.endpoints() {
        let counted = Counted {
            inner: ep.channel(),
            requests: Arc::clone(&requests),
        };
        ep.reconnect(Channel::new(Arc::new(counted)));
    }
    let stats = CallStats::in_registry(&Registry::new(), "fm");
    client.set_call_options(CallOptions::retry(RetryPolicy::control()).with_stats(stats.clone()));

    let mut next = 0;
    let mut open = || {
        next = (next + 1) % NFS_OPEN_FILES;
        client.open(&paths[next], false).expect("open");
    };
    for _ in 0..NFS_OPEN_FILES {
        open();
    }
    let calls_before = stats.calls.value();
    let requests_before = requests.load(Ordering::Relaxed);
    let m = measure(probe, ops, open);
    let per_op = |n: u64| n as f64 / ops as f64;
    let fm_calls = per_op(stats.calls.value() - calls_before);
    let drive_requests = per_op(requests.load(Ordering::Relaxed) - requests_before);
    drop(client);
    handle.shutdown();
    if let Ok(fleet) = Arc::try_unwrap(fleet) {
        fleet.shutdown();
    }
    PerfRow {
        counters: vec![
            ("fm_calls", fm_calls),
            ("drive_requests", drive_requests),
            m.compressions(),
        ],
        ..row("nfs_open", 0, &m)
    }
}

/// Steady-state simulator stepping with 10⁵ cancelled timeouts kept in
/// the queue: each operation schedules a 1 ms timeout and a completion
/// 10 ns out, and runs the completion, which cancels the timeout. No
/// simulation in the repository cancels an event; this row prices the
/// kernel's cancel path and its stale entries.
///
/// The warmup must cross the full timeout window at least once: with a
/// 1 ms timeout and a 10 ns completion pace the kernel carries ~100 k
/// cancelled-timeout entries at steady state, and the heap only reaches
/// its final size after that population has built up. A short warmup
/// would bill the one-time growth to the measured window.
fn sim_step(probe: Option<AllocProbe>, ops: u64) -> Measured {
    let mut sim = Simulator::new();
    let mut tick = 0u64;
    for _ in 0..110_000 {
        sim_step_op(&mut sim, &mut tick);
    }
    measure(probe, ops, || sim_step_op(&mut sim, &mut tick))
}

fn sim_step_op(sim: &mut Simulator, tick: &mut u64) {
    *tick += 1;
    let n = *tick;
    let timeout = sim.schedule_in(SimTime::from_micros(1_000), move |_s| {
        let _ = n;
    });
    sim.schedule_in(SimTime::from_nanos(10), move |s| s.cancel(timeout));
    assert!(sim.step(), "completion event must run");
}

/// One 128-drive x 1000-client point of the scale matrix, set-up
/// included: its heap bytes are an exact count of the model's
/// per-point work (popularity table, capability sets, completion heap).
fn scale_point(probe: Option<AllocProbe>) -> Measured {
    measure(probe, 1, || {
        std::hint::black_box(crate::scale::simulate(128, 1_000));
    })
}

/// Events parked far in the future under `dispatch_parked`.
const PARKED: u64 = 100_000;

/// Schedule/dispatch cost against a parked pending-event population:
/// the loop the benchmark rig times as `sim.dispatch_ns_100k`.
///
/// [`PARKED`] long-lived events sit far in the future while the measured
/// loop schedules and steps one near-term event per op, so each op's
/// push and pop sift through the whole parked heap.
fn dispatch_parked(probe: Option<AllocProbe>, ops: u64) -> Measured {
    let mut sim = Simulator::with_capacity(PARKED as usize + 64);
    for i in 0..PARKED {
        sim.schedule_at(park_time(i), |_s| {});
    }
    let op = |sim: &mut Simulator| {
        sim.schedule_in(SimTime::from_nanos(100), |_s| {});
        assert!(sim.step(), "near-term event must run");
    };
    for _ in 0..2_000 {
        op(&mut sim);
    }
    measure(probe, ops, || op(&mut sim))
}

/// Deadline of the `i`th parked event: spread over \[100 s, 100 s +
/// `PARKED` µs) — far enough out that no measured op ever dispatches one.
///
/// The deadlines are visited in a scrambled order (a fixed odd stride
/// walks the residues mod `PARKED`): feeding the heap a pre-sorted
/// stream would hand its sift paths perfectly predictable branches.
fn park_time(i: u64) -> SimTime {
    // 7919 is prime and coprime with `PARKED`, so `i * 7919 % PARKED` is
    // a permutation of 0..PARKED.
    SimTime::from_secs(100) + SimTime::from_micros(i * 7919 % PARKED)
}

/// Run every perf workload and return the measured rows.
///
/// `probe` reads the embedding binary's counting allocator; pass `None`
/// when none is installed (the allocation columns then report zero).
#[must_use]
pub fn run(probe: Option<AllocProbe>) -> Vec<PerfRow> {
    let mut rows = vec![
        row("cached_read", 65_536, &cached_read(probe, 65_536, 2_000)),
        row("seq_write", 65_536, &seq_write(probe, 65_536, 400)),
        durable_write(probe, 65_536, 2_000),
    ];
    for size in [8_192u64, 32_768, 131_072, 262_144] {
        let ops = (1 << 27) / size; // ~128 MB of payload per point
        rows.push(row("sweep_read", size, &cached_read(probe, size, ops)));
    }
    let inproc = inproc_read(probe, 65_536, 2_000);
    rows.push(PerfRow {
        counters: vec![inproc.compressions()],
        ..row("inproc_read", 65_536, &inproc)
    });
    for (workload, m) in [
        ("socket_read", socket_read(probe, 65_536, 1_000)),
        ("socket_write", socket_write(probe, 65_536, 200)),
    ] {
        rows.push(PerfRow {
            counters: m.syscalls(),
            ..row(workload, 65_536, &m)
        });
    }
    rows.push(nfs_open(probe, 2_000));
    rows.push(row("sim_step", 0, &sim_step(probe, 100_000)));
    rows.push(row("scale_point", 0, &scale_point(probe)));
    rows.push(row("dispatch_100k", 0, &dispatch_parked(probe, 100_000)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_read_measures_and_copies_are_bounded() {
        // Small op count: this is a correctness smoke test, not a
        // benchmark. The copy ledger must see *something* per read today
        // and must never exceed a handful of payload multiples.
        let m = cached_read(None, 65_536, 8);
        assert_eq!(m.ops, 8);
        assert!(m.nanos > 0);
        let per_op = m.bytes_copied as f64 / 8.0;
        assert!(
            per_op < 65_536.0 * 4.0,
            "cached 64 KiB read copies {per_op} bytes/op — data path regressed"
        );
    }

    #[test]
    fn inproc_read_runs() {
        let m = inproc_read(None, 65_536, 8);
        assert_eq!(m.ops, 8);
        assert_eq!(m.bytes_copied, 0, "in-process cached reads copy no payload");
        // Client and drive each MAC once from a kept key schedule.
        assert_eq!(m.compressions(), ("compressions", 4.0));
    }

    #[test]
    fn socket_read_is_send_copy_free_and_write_roundtrips() {
        // The zero-send-copy assertion lives inside socket_read; a small
        // op count keeps this a smoke test.
        let m = socket_read(None, 65_536, 8);
        assert_eq!(m.ops, 8);
        assert!(m.nanos > 0);
        let w = socket_write(None, 8_192, 4);
        assert_eq!(w.ops, 4);
    }

    #[test]
    fn nfs_open_is_one_manager_call_and_one_drive_request() {
        let row = nfs_open(None, 32);
        assert_eq!(row.ops, 32);
        // A repeated mint and a repeated verify do no MAC work: the
        // drive request's signature and its check are all there is.
        assert_eq!(
            row.counters,
            vec![
                ("fm_calls", 1.0),
                ("drive_requests", 1.0),
                ("compressions", 4.0)
            ]
        );
    }

    #[test]
    fn sim_step_steady_state_runs() {
        let m = sim_step(None, 64);
        assert_eq!(m.ops, 64);
    }

    #[test]
    fn dispatch_100k_steady_state_allocates_no_event_infrastructure() {
        let m = dispatch_parked(None, 1_000);
        assert_eq!(m.ops, 1_000);
        assert_eq!(
            m.event_allocs, 0,
            "dispatch against 10^5 parked events grew the slab or the heap"
        );
    }

    #[test]
    fn run_produces_all_workloads() {
        // Tiny versions of each workload keep the test fast.
        let rows = [
            row("cached_read", 4_096, &cached_read(None, 4_096, 4)),
            row("seq_write", 4_096, &seq_write(None, 4_096, 4)),
            durable_write(None, 4_096, 4),
            row("sim_step", 0, &sim_step(None, 16)),
        ];
        assert!(rows.iter().all(|r| r.ops > 0));
        assert_eq!(rows[3].mb_s, 0.0);
    }

    #[test]
    fn a_durable_write_touches_each_block_once() {
        // A 64 KiB overwrite on 8 KiB blocks: its eight fresh blocks and
        // the log's tail block (two when its record crosses into the
        // next block), no payload in the log and no device read.
        let r = durable_write(None, 65_536, 64);
        let [("dev_writes", writes), ("dev_bytes_per_user_byte", bytes)] = r.counters[..] else {
            panic!("counters {:?}", r.counters);
        };
        assert!((9.0..9.1).contains(&writes), "{writes} writes per op");
        assert_eq!(bytes, writes * 8_192.0 / 65_536.0);
    }
}
