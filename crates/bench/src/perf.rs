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
use nasd::disk::MemDisk;
use nasd::fm::{serve_drive_socket, spawn_drive, DriveEndpoint, DriveFleet, FmConnect, NasdNfs};
use nasd::net::{
    BindAddr, CallOptions, CallStats, Channel, Connector, Pending, RetryPolicy, RpcError,
    Transport, WireServer,
};
use nasd::object::{ClientHandle, DriveConfig, NasdDrive};
use nasd::obs::{datapath, Registry};
use nasd::proto::{ByteRange, PartitionId, Reply, Request, RequestBody, Rights, Version};
use nasd::sim::baseline::HeapSimulator;
use nasd::sim::{SimTime, Simulator};
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
    /// `scale_point`, and the `dispatch_{cal,heap}_{1k,100k}` old-vs-new
    /// kernel rows).
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
    /// `sim/event_allocs` counter; only `sim_step` exercises it).
    pub event_allocs_per_op: f64,
    /// Exact per-operation counts only this workload measures, each
    /// reported as the derived value `<workload>_<name>` (`nfs_open`:
    /// `fm_calls`, `drive_requests`).
    pub counters: Vec<(&'static str, f64)>,
}

struct Measured {
    ops: u64,
    nanos: u64,
    allocs: u64,
    alloc_bytes: u64,
    bytes_copied: u64,
    event_allocs: u64,
}

fn measure(probe: Option<AllocProbe>, ops: u64, mut op: impl FnMut()) -> Measured {
    datapath::reset();
    let (a0, b0) = probe.map_or((0, 0), |p| p());
    let t0 = Instant::now();
    for _ in 0..ops {
        op();
    }
    let nanos = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = probe.map_or((0, 0), |p| p());
    Measured {
        ops,
        nanos,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        bytes_copied: datapath::bytes_copied(),
        event_allocs: datapath::event_allocs(),
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
    let mut drive = NasdDrive::builder(1).config(config).build();
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

/// Overwrites of a laid-down, fully cached 4 MiB span on a durable
/// drive: every op is logged and group-committed to the `MemDisk`
/// before it returns, and the 1 MiB log fills into a checkpoint every
/// ~15 ops at 64 KiB. Overwriting keeps `seq_write`'s block allocation
/// out of the row, so it prices the log path alone.
fn durable_write(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    const SPAN: u64 = 4 << 20;
    let (mut drive, client) = drive_with_object(perf_config().durable());
    let payload = vec![0x5Au8; size as usize];
    for offset in (0..SPAN).step_by(size as usize) {
        client
            .write(&mut drive, offset, &payload)
            .expect("lay down");
    }
    let mut offset = 0u64;
    measure(probe, ops, || {
        client
            .write(&mut drive, offset, &payload)
            .expect("durable write");
        offset = (offset + size) % SPAN;
    })
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

/// Sequential writes over the real socket transport.
fn socket_write(probe: Option<AllocProbe>, size: u64, ops: u64) -> Measured {
    let (server, ep, cap) = socket_fixture(size);
    let payload = vec![0x5Au8; size as usize];
    let mut offset = 0u64;
    let m = measure(probe, ops, || {
        ep.write(&cap, offset, Bytes::from(payload.clone()))
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
        counters: vec![("fm_calls", fm_calls), ("drive_requests", drive_requests)],
        ..row("nfs_open", 0, &m)
    }
}

/// Steady-state simulator stepping: each operation runs one completion
/// event that cancels its paired timeout — the I/O-with-timeout pattern
/// every simulated drive request follows.
///
/// The warmup must cross the full timeout window at least once: with a
/// 1 ms timeout and a 10 ns completion pace the kernel carries ~100 k
/// cancelled-timeout zombies at steady state, and the slab only reaches
/// its final size after that population has built up. A short warmup
/// would bill the one-time slab growth to the measured window.
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
/// per-point work (popularity tables, capability caches, event slab).
fn scale_point(probe: Option<AllocProbe>) -> Measured {
    measure(probe, 1, || {
        std::hint::black_box(crate::scale::simulate(128, 1_000));
    })
}

/// Schedule/dispatch throughput against a parked pending-event
/// population — the tentpole measurement of the calendar-queue kernel.
///
/// `pending` long-lived events (outstanding I/O deadlines, lease
/// expiries) sit far in the future while the measured loop schedules
/// and steps one near-term event per op. The old `BinaryHeap` kernel
/// pays O(log pending) twice per op — the near-term push sifts to the
/// top of the whole population and the pop sifts back down through it —
/// while the calendar queue keeps parked events out of the hot path
/// entirely and dispatches in amortized O(1).
fn dispatch_parked(probe: Option<AllocProbe>, pending: u64, ops: u64) -> Measured {
    let mut sim = Simulator::with_capacity(pending as usize + 64);
    for i in 0..pending {
        sim.schedule_at(park_time(i, pending), |_s| {});
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

/// The identical workload on the preserved pre-calendar-queue kernel
/// (`nasd::sim::baseline`) — the old-vs-new comparison rows.
fn dispatch_parked_heap(probe: Option<AllocProbe>, pending: u64, ops: u64) -> Measured {
    let mut sim = HeapSimulator::with_capacity(pending as usize + 64);
    for i in 0..pending {
        sim.schedule_at(park_time(i, pending), |_s| {});
    }
    let op = |sim: &mut HeapSimulator| {
        sim.schedule_in(SimTime::from_nanos(100), |_s| {});
        assert!(sim.step(), "near-term event must run");
    };
    for _ in 0..2_000 {
        op(&mut sim);
    }
    measure(probe, ops, || op(&mut sim))
}

/// Best-of-`n` wrapper: re-run a whole measurement and keep the
/// fastest batch. Micro-benchmark noise (scheduler preemption, a
/// neighbouring tenant's cache pressure) only ever adds time, so the
/// minimum is the robust estimator — it keeps the CI speedup gate
/// from tripping on a noisy run rather than a real regression.
fn best_of(n: u32, mut measurement: impl FnMut() -> Measured) -> Measured {
    let mut best = measurement();
    for _ in 1..n {
        let m = measurement();
        if m.nanos < best.nanos {
            best = m;
        }
    }
    best
}

/// Deadline of the `i`th parked event: spread over \[100 s, 100 s +
/// pending µs) — far enough out that no measured op ever dispatches one.
///
/// The deadlines are visited in a scrambled order (a fixed odd stride
/// walks the residues mod `pending`): real outstanding-deadline
/// populations are not insertion-sorted, and feeding the heap a
/// pre-sorted stream would hand its sift paths perfectly predictable
/// branches the production kernel never sees.
fn park_time(i: u64, pending: u64) -> SimTime {
    // 7919 is prime and coprime with every population size used here,
    // so `i * 7919 % pending` is a permutation of 0..pending.
    SimTime::from_secs(100) + SimTime::from_micros(i * 7919 % pending)
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
        row(
            "durable_write",
            65_536,
            &durable_write(probe, 65_536, 2_000),
        ),
    ];
    for size in [8_192u64, 32_768, 131_072, 262_144] {
        let ops = (1 << 27) / size; // ~128 MB of payload per point
        rows.push(row("sweep_read", size, &cached_read(probe, size, ops)));
    }
    rows.push(row(
        "inproc_read",
        65_536,
        &inproc_read(probe, 65_536, 2_000),
    ));
    rows.push(row(
        "socket_read",
        65_536,
        &socket_read(probe, 65_536, 1_000),
    ));
    rows.push(row(
        "socket_write",
        65_536,
        &socket_write(probe, 65_536, 200),
    ));
    rows.push(nfs_open(probe, 2_000));
    rows.push(row("sim_step", 0, &sim_step(probe, 100_000)));
    rows.push(row("scale_point", 0, &scale_point(probe)));
    // Old-vs-new kernel dispatch at 10^3 and 10^5 pending events,
    // best-of-3 per row so the speedup ratio is noise-robust.
    rows.push(row(
        "dispatch_cal_1k",
        0,
        &best_of(3, || dispatch_parked(probe, 1_000, 100_000)),
    ));
    rows.push(row(
        "dispatch_heap_1k",
        0,
        &best_of(3, || dispatch_parked_heap(probe, 1_000, 100_000)),
    ));
    rows.push(row(
        "dispatch_cal_100k",
        0,
        &best_of(3, || dispatch_parked(probe, 100_000, 100_000)),
    ));
    rows.push(row(
        "dispatch_heap_100k",
        0,
        &best_of(3, || dispatch_parked_heap(probe, 100_000, 100_000)),
    ));
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
        assert_eq!(
            row.counters,
            vec![("fm_calls", 1.0), ("drive_requests", 1.0)]
        );
    }

    #[test]
    fn sim_step_steady_state_runs() {
        let m = sim_step(None, 64);
        assert_eq!(m.ops, 64);
    }

    #[test]
    fn dispatch_parked_runs_on_both_kernels() {
        // Small population keeps this a smoke test; the ns/op
        // comparison lives in the release-mode CI gate.
        let cal = dispatch_parked(None, 512, 256);
        let heap = dispatch_parked_heap(None, 512, 256);
        assert_eq!(cal.ops, 256);
        assert_eq!(heap.ops, 256);
        // Steady-state calendar dispatch grows no event infrastructure.
        assert_eq!(
            cal.event_allocs, 0,
            "calendar dispatch allocated in steady state"
        );
    }

    #[test]
    fn calendar_dispatch_beats_heap_at_scale() {
        let cal = dispatch_parked(None, 50_000, 20_000);
        let heap = dispatch_parked_heap(None, 50_000, 20_000);
        assert!(
            (cal.nanos as f64) < heap.nanos as f64,
            "calendar {} ns vs heap {} ns over 20k ops at 50k pending",
            cal.nanos,
            heap.nanos
        );
    }

    #[test]
    fn run_produces_all_workloads() {
        // Tiny versions of each workload keep the test fast.
        let rows = [
            row("cached_read", 4_096, &cached_read(None, 4_096, 4)),
            row("seq_write", 4_096, &seq_write(None, 4_096, 4)),
            row("durable_write", 4_096, &durable_write(None, 4_096, 4)),
            row("sim_step", 0, &sim_step(None, 16)),
        ];
        assert!(rows.iter().all(|r| r.ops > 0));
        assert_eq!(rows[3].mb_s, 0.0);
    }
}
