//! Seeded chaos suite: deterministic fault injection across the whole
//! RPC/drive stack.
//!
//! Every scenario derives its misbehaviour from a [`FaultPlan`] seed:
//! message drops, duplications, delays and lost replies on the drive
//! channels, Busy bounces and slow I/O inside the drives, and hard
//! crash/restart of a drive's service thread mid-workload. The
//! invariants checked are the ones that matter for a storage system:
//!
//! * no acknowledged write is ever lost,
//! * no panic escapes a worker,
//! * errors surface cleanly once retries exhaust, and
//! * the injected-fault trace is bit-for-bit reproducible per seed.

use nasd::cheops::CheopsConnect;
use nasd::cheops::{CheopsManager, Redundancy, RepairPhase};
use nasd::fm::FmConnect;
use nasd::fm::{AfsClient, DriveFleet, FmError, NasdAfs, NasdNfs};
use nasd::mgmt::NasdMgmt;
use nasd::mining::parallel::parallel_frequent_items;
use nasd::mining::{apriori, TransactionGenerator, TransactionReader};
use nasd::net::Connector;
use nasd::net::{FaultConfig, FaultEvent, FaultPlan, RetryPolicy};
use nasd::object::{DriveConfig, DriveFaultConfig};
use nasd::pfs::PfsCluster;
use nasd::proto::{ByteRange, PartitionId, Rights, Version};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Three distinct seeds; every scenario below runs (or can run) under
/// each of them, and the determinism test proves each yields a stable
/// fault schedule.
const SEEDS: [u64; 3] = [0x00C0_FFEE, 7, 0xFEED_FACE];

const P1: PartitionId = PartitionId(1);

/// A retry policy tuned for chaos runs: patient enough to ride out
/// bursts of injected losses, with short per-call timeouts so lost
/// messages don't stall the suite.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        timeout: Duration::from_millis(30),
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(3),
    }
}

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One deterministic single-client workload against a faulty fleet:
/// returns the realized fault trace and a digest of everything read
/// back. Run twice with the same seed, both must match exactly.
fn seeded_endpoint_run(seed: u64) -> (Vec<FaultEvent>, u64) {
    let fleet = DriveFleet::spawn_faulty(
        2,
        DriveConfig::small(),
        P1,
        64 << 20,
        Some((seed, DriveFaultConfig::moderate())),
    )
    .unwrap();
    for ep in fleet.endpoints() {
        ep.set_retry(chaos_retry());
    }
    let plan = FaultPlan::new(seed);
    plan.set_enabled(false);
    fleet.set_faults(&plan, FaultConfig::lossy(0.6));
    plan.set_enabled(true);

    let ep = Arc::clone(fleet.endpoint(0));
    let oid = ep.create_object(P1, 0, None, 1 << 40).unwrap();
    let cap = ep.mint(P1, oid, Version(0), Rights::ALL, ByteRange::FULL, 1 << 40);

    let mut offsets = Vec::new();
    let mut at = 0u64;
    for i in 0..32u64 {
        let len = (i * 97) % 1_500 + 1;
        let fill = (i ^ seed) as u8;
        let data = bytes::Bytes::from(vec![fill; len as usize]);
        let wrote = ep.write(&cap, at, data).unwrap();
        assert_eq!(wrote, len, "short write at record {i}");
        offsets.push((at, len, fill));
        at += len;
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &(off, len, fill) in &offsets {
        let back = ep.read(&cap, off, len).unwrap();
        assert_eq!(back.len() as u64, len);
        assert!(
            back.to_vec().iter().all(|&b| b == fill),
            "corrupt record at {off}"
        );
        digest = fnv(&back.flatten(), digest);
    }
    plan.set_enabled(false);
    let trace = plan.trace();
    fleet.shutdown();
    (trace, digest)
}

/// Same seed ⇒ identical fault schedule and identical data; different
/// seeds ⇒ different schedules. This is the reproducibility contract
/// every other scenario leans on when debugging a failure.
#[test]
fn fault_schedule_is_reproducible_per_seed() {
    let mut traces = Vec::new();
    for &seed in &SEEDS {
        let (t1, d1) = seeded_endpoint_run(seed);
        let (t2, d2) = seeded_endpoint_run(seed);
        assert!(!t1.is_empty(), "seed {seed:#x} injected no faults");
        assert_eq!(t1, t2, "seed {seed:#x}: fault trace not reproducible");
        assert_eq!(d1, d2, "seed {seed:#x}: data digest not reproducible");
        traces.push(t1);
    }
    assert_ne!(traces[0], traces[1], "distinct seeds gave identical traces");
    assert_ne!(traces[1], traces[2], "distinct seeds gave identical traces");
}

/// Every fault the plan realizes is mirrored into an attached
/// [`nasd::obs::TraceSink`] as a structured event, so a chaos run can be
/// inspected with the same tooling as ordinary request traces.
#[test]
fn injected_faults_appear_as_trace_events() {
    use nasd::obs::TraceSink;

    let seed = SEEDS[0];
    let fleet = DriveFleet::spawn_faulty(
        2,
        DriveConfig::small(),
        P1,
        64 << 20,
        Some((seed, DriveFaultConfig::moderate())),
    )
    .unwrap();
    for ep in fleet.endpoints() {
        ep.set_retry(chaos_retry());
    }
    let plan = FaultPlan::new(seed);
    plan.set_enabled(false);
    let sink = TraceSink::new(4_096);
    plan.set_sink(Arc::clone(&sink));
    fleet.set_faults(&plan, FaultConfig::lossy(0.6));
    plan.set_enabled(true);

    let ep = Arc::clone(fleet.endpoint(0));
    let oid = ep.create_object(P1, 0, None, 1 << 40).unwrap();
    let cap = ep.mint(P1, oid, Version(0), Rights::ALL, ByteRange::FULL, 1 << 40);
    for i in 0..16u64 {
        let data = bytes::Bytes::from(vec![i as u8; 512]);
        ep.write(&cap, i * 512, data).unwrap();
    }
    plan.set_enabled(false);
    let faults = plan.trace();
    fleet.shutdown();

    assert!(!faults.is_empty(), "seed {seed:#x} injected no faults");
    let events = sink.events();
    assert_eq!(
        faults.len(),
        events.len(),
        "every realized fault must produce exactly one trace event"
    );
    for (fault, event) in faults.iter().zip(events.iter()) {
        assert_eq!(event.op, "rpc");
        assert_eq!(event.phase, "fault");
        assert_eq!(
            event.drive, fault.target,
            "trace event targets the faulted channel"
        );
        assert_eq!(
            event.request, fault.seq,
            "trace event carries the message sequence"
        );
        assert_eq!(event.detail, format!("{:?}", fault.action));
    }
}

/// Concurrent NFS workload with lossy drive channels, Busy/slow drive
/// faults, and a delayed (but loss-free: the manager protocol is not
/// idempotent) manager channel. All acked writes must read back.
#[test]
fn nfs_workload_survives_seeded_chaos() {
    for &seed in &SEEDS {
        let fleet = Arc::new(
            DriveFleet::spawn_faulty(
                3,
                DriveConfig::small(),
                P1,
                64 << 20,
                Some((seed, DriveFaultConfig::moderate())),
            )
            .unwrap(),
        );
        for ep in fleet.endpoints() {
            ep.set_retry(chaos_retry());
        }
        let plan = FaultPlan::new(seed);
        plan.set_enabled(false);
        fleet.set_faults(&plan, FaultConfig::lossy(0.4));
        let (fm, _h) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
        let connector = Connector::new().faults(plan.channel(
            1_000,
            FaultConfig::delay_only(0.3, Duration::from_micros(400)),
        ));
        plan.set_enabled(true);

        let mut joins = Vec::new();
        for t in 0..3u64 {
            let fm = fm.clone();
            let connector = connector.clone();
            let fleet = Arc::clone(&fleet);
            joins.push(std::thread::spawn(move || {
                let client = connector.nfs(fm, fleet).unwrap();
                let dir = format!("/w{t}");
                client.mkdir(&dir, 0o755, t as u32).unwrap();
                for i in 0..4u64 {
                    let path = format!("{dir}/f{i}");
                    let mut f = client.create(&path, 0o644, t as u32).unwrap();
                    let payload = vec![(t * 16 + i + 1) as u8; 2_048];
                    assert_eq!(client.write(&mut f, 0, &payload).unwrap(), 2_048);
                    // Read back inside the storm: acked ⇒ readable.
                    let back = client.read(&mut f, 0, 2_048).unwrap();
                    assert_eq!(back, payload, "worker {t} file {i}");
                }
            }));
        }
        for j in joins {
            j.join().expect("worker panicked under chaos");
        }
        plan.set_enabled(false);
        assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");

        // Calm weather: a fresh client over the same manager must see
        // every file every worker acked, intact.
        let client = Connector::new().nfs(fm, Arc::clone(&fleet)).unwrap();
        assert_eq!(client.readdir("/").unwrap().len(), 3);
        for t in 0..3u64 {
            for i in 0..4u64 {
                let mut f = client.open(&format!("/w{t}/f{i}"), false).unwrap();
                let back = client.read(&mut f, 0, 2_048).unwrap();
                assert!(
                    back.to_vec().iter().all(|&b| b == (t * 16 + i + 1) as u8),
                    "acked write lost: worker {t} file {i} under seed {seed:#x}"
                );
            }
        }
    }
}

/// AFS whole-file caching plus callback invalidation under heavy drive
/// channel faults: every generation must propagate exactly one break
/// per cached reader, and reads must never observe torn data.
#[test]
fn afs_callbacks_survive_seeded_chaos() {
    for &seed in &SEEDS {
        let fleet = Arc::new(
            DriveFleet::spawn_faulty(
                2,
                DriveConfig::small(),
                P1,
                64 << 20,
                Some((seed, DriveFaultConfig::moderate())),
            )
            .unwrap(),
        );
        for ep in fleet.endpoints() {
            ep.set_retry(chaos_retry());
        }
        let plan = FaultPlan::new(seed);
        plan.set_enabled(false);
        fleet.set_faults(&plan, FaultConfig::lossy(1.0));
        let (afs, _h) = NasdAfs::new(Arc::clone(&fleet), 8 << 20).unwrap().spawn();
        let connector = Connector::new().faults(plan.channel(
            2_000,
            FaultConfig::delay_only(0.25, Duration::from_micros(400)),
        ));
        let writer = connector.afs(1, afs.clone(), Arc::clone(&fleet)).unwrap();
        let readers: Vec<AfsClient> = (2..5)
            .map(|i| connector.afs(i, afs.clone(), Arc::clone(&fleet)).unwrap())
            .collect();
        plan.set_enabled(true);

        let fh = writer.create(writer.root(), "hot").unwrap();
        for generation in 0..3u32 {
            let body = format!("generation-{generation}");
            writer.write_file(fh, body.as_bytes()).unwrap();
            for r in &readers {
                if generation > 0 {
                    let events = r.poll_callbacks();
                    assert_eq!(
                        events.len(),
                        1,
                        "seed {seed:#x} gen {generation}: expected one break"
                    );
                }
                assert_eq!(
                    &r.read_file(fh).unwrap()[..],
                    body.as_bytes(),
                    "seed {seed:#x} gen {generation}: stale or torn read"
                );
            }
        }
        plan.set_enabled(false);
        assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");
    }
}

/// The headline crash scenario: a writer hammers drive 0 while the
/// harness power-cuts it mid-workload and restarts it from its persist
/// layer, all under a lossy, seeded network. Every write the client saw
/// acknowledged must be present afterwards — `durable_writes` makes the
/// ack a durability promise, and the restart must honor it.
#[test]
fn acked_writes_survive_drive_crash_and_restart() {
    for &seed in &SEEDS {
        let fleet = Arc::new(
            DriveFleet::spawn_faulty(
                2,
                DriveConfig::small().durable(),
                P1,
                64 << 20,
                Some((seed, DriveFaultConfig::moderate())),
            )
            .unwrap(),
        );
        // Patient enough to span the outage window.
        let patient = RetryPolicy {
            max_attempts: 64,
            timeout: Duration::from_millis(25),
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        };
        for ep in fleet.endpoints() {
            ep.set_retry(patient);
        }
        let plan = FaultPlan::new(seed);
        plan.set_enabled(false);
        fleet.set_faults(&plan, FaultConfig::lossy(0.3));

        let ep = Arc::clone(fleet.endpoint(0));
        let oid = ep.create_object(P1, 0, None, 1 << 40).unwrap();
        let cap = ep.mint(P1, oid, Version(0), Rights::ALL, ByteRange::FULL, 1 << 40);
        plan.set_enabled(true);

        const RECORDS: u64 = 96;
        const RECORD_LEN: u64 = 512;
        let reached_crash_point = Arc::new(AtomicBool::new(false));
        let writer = {
            let ep = Arc::clone(&ep);
            let cap = cap.clone();
            let reached = Arc::clone(&reached_crash_point);
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..RECORDS {
                    let fill = (i + 1) as u8;
                    let data = bytes::Bytes::from(vec![fill; RECORD_LEN as usize]);
                    let n = ep
                        .write(&cap, i * RECORD_LEN, data)
                        .unwrap_or_else(|e| panic!("write {i} failed under chaos: {e}"));
                    assert_eq!(n, RECORD_LEN);
                    acked.push((i * RECORD_LEN, fill));
                    if i == RECORDS / 4 {
                        reached.store(true, Ordering::SeqCst);
                    }
                }
                acked
            })
        };

        // Power-cut drive 0 once the writer is mid-workload, hold it
        // down briefly, then restart it from the persisted media.
        while !reached_crash_point.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        fleet.crash(0);
        assert!(!fleet.is_up(0), "crash did not take the drive down");
        std::thread::sleep(Duration::from_millis(20));
        fleet
            .restart(0)
            .expect("restart from persisted media failed");
        assert!(fleet.is_up(0));

        let acked = writer.join().expect("writer panicked under chaos");
        assert_eq!(
            acked.len() as u64,
            RECORDS,
            "seed {seed:#x}: writes went unacked"
        );
        plan.set_enabled(false);

        // Every acked record must be readable, intact, after the storm.
        for &(off, fill) in &acked {
            let back = ep.read(&cap, off, RECORD_LEN).unwrap();
            assert!(
                back.len() as u64 == RECORD_LEN && back.to_vec().iter().all(|&b| b == fill),
                "seed {seed:#x}: acked write at offset {off} lost across crash"
            );
        }
        assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");
    }
}

/// Mirrored Cheops file: reads keep succeeding (via the mirror) while a
/// column's primary drive is down, and after the restart the file keeps
/// accepting writes. Exercises the client-side degraded paths under a
/// seeded lossy network.
#[test]
fn cheops_mirrored_file_survives_column_crash() {
    let seed = SEEDS[0];
    let fleet = Arc::new(
        DriveFleet::spawn_faulty(3, DriveConfig::small().durable(), P1, 64 << 20, None).unwrap(),
    );
    // Snappy: a crashed drive should fail over to the mirror quickly.
    let quick = RetryPolicy {
        max_attempts: 4,
        timeout: Duration::from_millis(15),
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
    };
    for ep in fleet.endpoints() {
        ep.set_retry(quick);
    }
    let (mgr, _mh) = CheopsManager::new(Arc::clone(&fleet)).spawn();
    let client = Connector::new().cheops(1, mgr, Arc::clone(&fleet));
    let id = client.create(2, 64 * 1024, Redundancy::Mirrored).unwrap();
    let file = client.open(id, Rights::ALL).unwrap();
    let data: Vec<u8> = (0..400_000usize).map(|i| (i * 31 % 251) as u8).collect();
    client.write(&file, 0, &data).unwrap();

    let plan = FaultPlan::new(seed);
    plan.set_enabled(false);
    fleet.set_faults(&plan, FaultConfig::lossy(0.3));
    plan.set_enabled(true);

    // Column 0's primary lives on drive index 0; its mirror on index 1.
    fleet.crash(0);
    let back = client.read(&file, 0, data.len() as u64).unwrap();
    assert_eq!(back, &data[..], "degraded read diverged from acked data");

    fleet.restart(0).expect("restart failed");
    let tail = vec![0xABu8; 10_000];
    client.write(&file, data.len() as u64, &tail).unwrap();
    plan.set_enabled(false);

    let back = client
        .read(&file, data.len() as u64, tail.len() as u64)
        .unwrap();
    assert_eq!(back, tail, "post-restart write lost");
    assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");
}

/// One full crash → detect → rebuild → resume lifecycle for a parity
/// stripe, as a function of the seed and the crashed drive's index (a
/// data column's drive, or the parity drive). With `chaos` set, the run
/// injects seeded channel faults, crashes drive `crashed` mid-workload
/// (degraded readers hammering throughout), waits for nasd-mgmt to
/// reconstruct it onto the hot spare, then restarts traffic against the
/// rebuilt layout. Without it, the identical logical workload runs on a
/// healthy fleet. Either way the parity component must end up the XOR of
/// the columns and a further data-column loss must still read
/// byte-identical. Both return the file's final bytes.
fn rebuild_scenario(seed: u64, chaos: bool, crashed: usize) -> Vec<u8> {
    const TOTAL: u64 = 192 * 1024;
    let fleet = Arc::new(
        DriveFleet::spawn_faulty(
            5,
            DriveConfig::small(),
            P1,
            64 << 20,
            chaos.then_some((seed, DriveFaultConfig::moderate())),
        )
        .unwrap(),
    );
    for ep in fleet.endpoints() {
        ep.set_retry(chaos_retry());
    }
    let plan = FaultPlan::new(seed);
    plan.set_enabled(false);
    if chaos {
        fleet.set_faults(&plan, FaultConfig::lossy(0.3));
    }
    let storage = Arc::new(CheopsManager::new(Arc::clone(&fleet)));
    let (mgr, _mh) = storage.serve();
    let client = Connector::new().cheops(1, mgr.clone(), Arc::clone(&fleet));
    // 3 data columns (drive idx 0..=2) + parity (idx 3); idx 4 is spare.
    let id = client.create(3, 32 * 1024, Redundancy::Parity).unwrap();
    let file = client.open(id, Rights::ALL).unwrap();
    plan.set_enabled(true);

    let phase1: Vec<u8> = (0..TOTAL)
        .map(|i| (i.wrapping_mul(31).wrapping_add(seed) % 251) as u8)
        .collect();
    client.write(&file, 0, &phase1).unwrap();

    if chaos {
        // Readers keep hammering across the crash: degraded reads must
        // stay byte-exact while the column is reconstructed behind them.
        let stop = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        let reader = {
            let client = Connector::new().cheops(2, mgr.clone(), Arc::clone(&fleet));
            let (stop, reads) = (Arc::clone(&stop), Arc::clone(&reads));
            let phase1 = phase1.clone();
            std::thread::spawn(move || {
                let file = client.open(id, Rights::READ).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let i = reads.load(Ordering::SeqCst);
                    let off = (i * 13_313) % (TOTAL - 8_192);
                    let back = client.read(&file, off, 8_192).unwrap();
                    assert_eq!(
                        back,
                        &phase1[off as usize..off as usize + 8_192],
                        "degraded read diverged at offset {off}"
                    );
                    reads.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // Detection and rebuild take a few milliseconds (storage management
        // calls the manager in-process) — less than a loaded box may take
        // to schedule the reader — so the test waits (bounded, and never
        // on a reader that died) for the reads it is about.
        let await_reads = |at_least: u64| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while reads.load(Ordering::SeqCst) < at_least
                && !reader.is_finished()
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Crash only once the reader is in flight.
        await_reads(1);
        let failed = fleet.endpoint(crashed).id();
        let spare = fleet.endpoint(4).id();
        let at_crash = reads.load(Ordering::SeqCst);
        fleet.crash(crashed);
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&storage), vec![spare], 0);
        // Detection needs two silent sweeps; rebuilds
        // interrupted by injected faults resume on the next cycle.
        let mut rebuilt = false;
        for _ in 0..12 {
            let report = mgmt.check_once();
            assert!(
                !report.rebuilt.iter().any(|(d, _)| *d != failed),
                "seed {seed:#x}: a live drive was falsely rebuilt: {report:?}"
            );
            if storage
                .repairs()
                .iter()
                .any(|r| r.drive == failed && r.phase == RepairPhase::Rebuilt)
            {
                rebuilt = true;
                break;
            }
        }
        assert!(rebuilt, "seed {seed:#x}: rebuild did not complete");
        // The reader holds its pre-crash open, so from here on whatever it
        // reads of the dead drive's share is a reconstruction; of two more
        // completed reads at least one began after the crash.
        await_reads(at_crash + 2);
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader panicked across the rebuild");
        let total = reads.load(Ordering::SeqCst);
        assert!(
            at_crash > 0 && total >= at_crash + 2,
            "seed {seed:#x}: reader made no progress past the crash \
             ({at_crash} reads before it, {total} in all)"
        );
    }

    // Traffic restarts: a fresh open picks up the (possibly swapped)
    // layout, and the parity write path must be consistent again.
    let file = client.open(id, Rights::ALL).unwrap();
    for i in 0..6u64 {
        let off = seed.wrapping_mul(2_654_435_761).wrapping_add(i * 7_919) % (TOTAL - 4_096);
        let len = 1_024 + (i * 613) % 3_072;
        let fill = ((seed ^ (i * 11)) % 255) as u8 + 1;
        client.write(&file, off, &vec![fill; len as usize]).unwrap();
    }
    let back = client.read(&file, 0, TOTAL).unwrap();
    if chaos {
        plan.set_enabled(false);
        assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");
    }

    // Parity, wherever it lives now, is the XOR of the columns...
    let raw = |c: nasd::cheops::Component| {
        let ep = fleet.by_id(c.drive).unwrap();
        let (rights, until) = (Rights::READ, fleet.now() + 10);
        let cap = ep.mint(
            c.partition,
            c.object,
            Version(0),
            rights,
            ByteRange::FULL,
            until,
        );
        let mut bytes = ep.read(&cap, 0, TOTAL).unwrap().to_vec();
        bytes.resize(TOTAL as usize, 0);
        bytes
    };
    let mut xor = vec![0u8; TOTAL as usize];
    for col in &file.layout.columns {
        for (x, b) in xor.iter_mut().zip(raw(col.primary)) {
            *x ^= b;
        }
    }
    assert!(
        raw(file.layout.parity.unwrap()) == xor,
        "seed {seed:#x}, drive {crashed}: parity is not the XOR of the columns"
    );
    // ...so losing a data column now still reads byte-identical.
    fleet.crash(0);
    let degraded = client.read(&file, 0, TOTAL).unwrap();
    assert!(
        degraded == back,
        "seed {seed:#x}, drive {crashed}: degraded read after the rebuild diverged"
    );
    back.to_vec()
}

/// The nasd-mgmt headline scenario, per seed and per crash position (a
/// data column's drive, index 1; the parity drive, index 3): crash the
/// drive under seeded chaos with readers in flight, let nasd-mgmt detect
/// it and reconstruct onto the hot spare, restart write traffic, and
/// require the file's final bytes to be identical to the same logical
/// workload on a fleet that never failed.
#[test]
fn rebuilt_stripe_reads_byte_identical_to_fault_free_run() {
    for &seed in &SEEDS {
        for crashed in [1, 3] {
            let clean = rebuild_scenario(seed, false, crashed);
            let stormy = rebuild_scenario(seed, true, crashed);
            assert_eq!(
                clean.len(),
                stormy.len(),
                "seed {seed:#x}, drive {crashed}: rebuilt file changed size"
            );
            assert!(
                clean == stormy,
                "seed {seed:#x}, drive {crashed}: rebuilt file diverged from the fault-free run"
            );
        }
    }
}

/// The full PFS + data-mining pipeline under a lossy fleet: the
/// parallel frequent-items scan must agree exactly with a clean
/// in-memory Apriori pass over the same transactions.
#[test]
fn pfs_mining_pipeline_agrees_under_chaos() {
    let seed = SEEDS[1];
    let request = 64 * 1024u64;
    let cluster =
        Arc::new(PfsCluster::spawn_with_config(3, request, DriveConfig::small()).unwrap());
    let data = TransactionGenerator::new(5).generate_bytes(1 << 20, request as usize);
    let loader = cluster.client(0);
    let f = loader.create("/txns", 3).unwrap();
    loader.write_at(&f, 0, &data).unwrap();

    for ep in cluster.fleet().endpoints() {
        ep.set_retry(chaos_retry());
    }
    let plan = FaultPlan::new(seed);
    plan.set_enabled(false);
    cluster.fleet().set_faults(&plan, FaultConfig::lossy(0.4));
    plan.set_enabled(true);

    let got = parallel_frequent_items(&cluster, "/txns", 3, 256 * 1024, request).unwrap();
    plan.set_enabled(false);

    let txns: Vec<_> = TransactionReader::new(&data, request as usize).collect();
    let (want, n) = apriori::count_1_itemsets(&txns);
    assert_eq!(
        got.transactions, n,
        "transaction count diverged under chaos"
    );
    assert_eq!(got.counts, want, "item counts diverged under chaos");
    assert_eq!(got.bytes_read, data.len() as u64);
    assert!(!plan.trace().is_empty(), "seed {seed:#x} injected nothing");
}

/// After the manager is shut down, NFS clients get a clean error — no
/// hang, no panic.
#[test]
fn nfs_client_fails_cleanly_after_manager_shutdown() {
    let fleet = Arc::new(DriveFleet::spawn_memory(2, DriveConfig::small(), P1, 64 << 20).unwrap());
    let (fm, handle) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
    let client = Connector::new().nfs(fm, Arc::clone(&fleet)).unwrap();
    client.mkdir("/d", 0o755, 0).unwrap();
    handle.shutdown();
    let err = client.readdir("/").expect_err("manager is gone");
    assert!(
        matches!(err, FmError::Transport | FmError::Unavailable { .. }),
        "expected a disconnection-style error, got {err}"
    );
}

/// Same contract for AFS: once the manager is gone, operations that
/// need it fail fast with a clean error.
#[test]
fn afs_client_fails_cleanly_after_manager_shutdown() {
    let fleet = Arc::new(DriveFleet::spawn_memory(2, DriveConfig::small(), P1, 64 << 20).unwrap());
    let (afs, handle) = NasdAfs::new(Arc::clone(&fleet), 8 << 20).unwrap().spawn();
    let client = Connector::new().afs(1, afs, Arc::clone(&fleet)).unwrap();
    let fh = client.create(client.root(), "a").unwrap();
    client.write_file(fh, b"payload").unwrap();
    handle.shutdown();
    let err = client
        .create(client.root(), "b")
        .expect_err("manager is gone");
    assert!(
        matches!(err, FmError::Transport | FmError::Unavailable { .. }),
        "expected a disconnection-style error, got {err}"
    );
}

/// Cheops: manager loss breaks control operations cleanly, and with
/// every drive down the data path errors out in bounded time instead of
/// hanging.
#[test]
fn cheops_client_fails_cleanly_when_services_die() {
    let fleet = Arc::new(DriveFleet::spawn_memory(2, DriveConfig::small(), P1, 64 << 20).unwrap());
    for ep in fleet.endpoints() {
        ep.set_retry(RetryPolicy {
            max_attempts: 3,
            timeout: Duration::from_millis(10),
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
        });
    }
    let (mgr, handle) = CheopsManager::new(Arc::clone(&fleet)).spawn();
    let client = Connector::new().cheops(1, mgr, Arc::clone(&fleet));
    let id = client.create(1, 64 * 1024, Redundancy::None).unwrap();
    let file = client.open(id, Rights::ALL).unwrap();
    client.write(&file, 0, &[7u8; 4_096]).unwrap();

    handle.shutdown();
    let err = client
        .create(1, 64 * 1024, Redundancy::None)
        .expect_err("manager is gone");
    assert!(
        matches!(err, FmError::Transport | FmError::Unavailable { .. }),
        "expected a disconnection-style error, got {err}"
    );

    // The data path survives manager loss (asynchronous oversight) ...
    assert_eq!(client.read(&file, 0, 4_096).unwrap().len(), 4_096);

    // ... but with every drive down it must fail cleanly, not hang.
    fleet.crash(0);
    fleet.crash(1);
    let err = client.read(&file, 0, 4_096).expect_err("drives are gone");
    assert!(
        matches!(
            err,
            FmError::Transport | FmError::Unavailable { .. } | FmError::Drive(_)
        ),
        "expected a clean drive-unavailable error, got {err}"
    );
}

// ===================================================================
// Crash-point recovery sweep
// ===================================================================
//
// The exhaustive durability harness for the drive's on-disk layout and
// write-ahead log: run a seeded mixed workload against a durable drive,
// learn how many device writes the whole run performs, then re-run it
// killing the power at *every* possible write — once dropping the
// crash-point write whole, once landing it torn (a seeded partial
// sector). After each crash the media is remounted and the recovered
// drive must contain exactly the acknowledged state (or acknowledged
// state plus the one in-flight operation, which may have committed
// without its ack escaping), with full structural invariants and a
// byte-identical second remount.

mod crash_sweep {
    use super::{fnv, P1, SEEDS};
    use bytes::Bytes;
    use nasd::disk::{CrashDisk, MemDisk, SharedDisk};
    use nasd::object::{DriveConfig, NasdDrive, StoreError, FIRST_DYNAMIC_OBJECT};
    use nasd::proto::{
        NasdStatus, ObjectId, ReplyBody, RequestBody, Rights, SetAttrMask, FS_SPECIFIC_ATTR_LEN,
    };
    use std::collections::BTreeMap;
    use std::io::Write as _;

    const DRIVE_NO: u64 = 9;

    /// Small geometry so one full sweep stays fast: every device write
    /// of the workload gets its own crash run.
    fn sweep_config() -> DriveConfig {
        DriveConfig {
            block_size: 512,
            capacity_blocks: 2_048,
            cache_blocks: 32,
            security_enabled: true,
            durable_writes: true,
        }
    }

    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One step of the seeded workload script. Object references are by
    /// id so the script is a pure function of the seed — independent of
    /// how far a crashed run got.
    #[derive(Clone, Debug)]
    enum SweepOp {
        CreatePartition {
            quota: u64,
        },
        Create {
            preallocate: u64,
        },
        Write {
            o: ObjectId,
            offset: u64,
            len: u64,
            fill: u8,
        },
        Resize {
            o: ObjectId,
            new_size: u64,
        },
        SetAttr {
            o: ObjectId,
            tag: u8,
        },
        Snapshot {
            o: ObjectId,
        },
        Remove {
            o: ObjectId,
        },
        /// An overwrite the drive must refuse with `NoSpace`: it needs
        /// more fresh blocks than the device has free.
        Overfill {
            o: ObjectId,
            offset: u64,
            len: u64,
        },
    }

    /// What the client believes the drive holds: only state whose ack it
    /// has seen. `None` contents model "partition not created yet".
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Shadow {
        partition: bool,
        /// Object contents and the fs_specific tag byte, per object.
        objects: BTreeMap<ObjectId, (Vec<u8>, u8)>,
        next_oid: u64,
    }

    impl Shadow {
        /// Before the first op: no partition, no object.
        fn start() -> Shadow {
            Shadow {
                partition: false,
                objects: BTreeMap::new(),
                next_oid: FIRST_DYNAMIC_OBJECT,
            }
        }

        /// This state with `op` applied; `None` if the object `op`
        /// names does not exist in it.
        fn applied(&self, op: &SweepOp) -> Option<Shadow> {
            let mut next = self.clone();
            match *op {
                SweepOp::CreatePartition { .. } => next.partition = true,
                SweepOp::Create { .. } => {
                    next.objects
                        .insert(ObjectId(next.next_oid), (Vec::new(), 0));
                    next.next_oid += 1;
                }
                SweepOp::Write {
                    o,
                    offset,
                    len,
                    fill,
                } => {
                    let (data, _) = next.objects.get_mut(&o)?;
                    let end = (offset + len) as usize;
                    if data.len() < end {
                        data.resize(end, 0);
                    }
                    data[offset as usize..end].fill(fill);
                }
                SweepOp::Resize { o, new_size } => {
                    next.objects.get_mut(&o)?.0.resize(new_size as usize, 0);
                }
                SweepOp::SetAttr { o, tag } => next.objects.get_mut(&o)?.1 = tag,
                SweepOp::Snapshot { o } => {
                    let src = next.objects.get(&o)?.clone();
                    next.objects.insert(ObjectId(next.next_oid), src);
                    next.next_oid += 1;
                }
                SweepOp::Remove { o } => {
                    next.objects.remove(&o)?;
                }
                SweepOp::Overfill { .. } => {}
            }
            Some(next)
        }
    }

    /// Generate the seeded mixed workload: a fixed prologue that builds
    /// some state, then seeded ops over the live object set.
    fn script(seed: u64) -> Vec<SweepOp> {
        let mut ops = vec![SweepOp::CreatePartition { quota: 1 << 20 }];
        let mut live: Vec<ObjectId> = Vec::new();
        let mut next = FIRST_DYNAMIC_OBJECT;
        let create = |live: &mut Vec<ObjectId>, next: &mut u64, preallocate: u64| {
            live.push(ObjectId(*next));
            *next += 1;
            SweepOp::Create { preallocate }
        };
        ops.push(create(&mut live, &mut next, 0));
        ops.push(SweepOp::Write {
            o: live[0],
            offset: 0,
            len: 700,
            fill: 0xA1,
        });
        ops.push(create(&mut live, &mut next, 2_048));
        for i in 0..14u64 {
            let r = mix(seed, i);
            let op = match r % 8 {
                0 => create(&mut live, &mut next, (r >> 8) % 1_024),
                1 if live.len() > 1 => {
                    // Remove a mid-list object so ids stay non-contiguous.
                    let victim = live.remove((r as usize >> 8) % live.len());
                    SweepOp::Remove { o: victim }
                }
                2 => {
                    let o = live[(r as usize >> 8) % live.len()];
                    SweepOp::Resize {
                        o,
                        new_size: (r >> 16) % 3_000,
                    }
                }
                3 => {
                    let o = live[(r as usize >> 8) % live.len()];
                    SweepOp::SetAttr {
                        o,
                        tag: (r >> 16) as u8 | 1,
                    }
                }
                4 if live.len() < 6 => {
                    let o = live[(r as usize >> 8) % live.len()];
                    live.push(ObjectId(next));
                    next += 1;
                    SweepOp::Snapshot { o }
                }
                _ => {
                    let o = live[(r as usize >> 8) % live.len()];
                    SweepOp::Write {
                        o,
                        offset: (r >> 16) % 2_500,
                        len: (r >> 32) % 1_400 + 1,
                        fill: (r >> 56) as u8 | 1,
                    }
                }
            };
            ops.push(op);
        }
        ops
    }

    /// Execute one op through the drive's full signed request path,
    /// checking the name a created object gets.
    fn perform(
        drive: &mut NasdDrive<CrashDisk<SharedDisk>>,
        op: &SweepOp,
        predicted_oid: u64,
    ) -> Result<(), NasdStatus> {
        if let Some(id) = perform_op(drive, op)? {
            assert_eq!(id.0, predicted_oid, "object names must be deterministic");
        }
        Ok(())
    }

    /// Execute one op; returns the name of the object it created, if any.
    fn perform_op(
        drive: &mut NasdDrive<CrashDisk<SharedDisk>>,
        op: &SweepOp,
    ) -> Result<Option<ObjectId>, NasdStatus> {
        let done = |status: NasdStatus| status.is_ok().then_some(None).ok_or(status);
        match *op {
            SweepOp::CreatePartition { quota } => {
                drive.admin_create_partition(P1, quota).map(|()| None)
            }
            SweepOp::Create { preallocate } => drive.admin_create_object(P1, preallocate).map(Some),
            SweepOp::Write {
                o,
                offset,
                len,
                fill,
            } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                let n = c.write(drive, offset, &vec![fill; len as usize])?;
                assert_eq!(n, len, "short write acked");
                Ok(None)
            }
            SweepOp::Resize { o, new_size } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                let req = c.build(
                    RequestBody::Resize {
                        partition: P1,
                        object: o,
                        new_size,
                    },
                    Bytes::new(),
                );
                done(drive.handle(&req).0.status)
            }
            SweepOp::SetAttr { o, tag } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                let mut fs = Box::new([0u8; FS_SPECIFIC_ATTR_LEN]);
                fs[0] = tag;
                let req = c.build(
                    RequestBody::SetAttr {
                        partition: P1,
                        object: o,
                        mask: SetAttrMask::fs_specific_only(),
                        fs_specific: fs,
                        preallocated: 0,
                        cluster_with: None,
                    },
                    Bytes::new(),
                );
                done(drive.handle(&req).0.status)
            }
            SweepOp::Snapshot { o } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                let req = c.build(
                    RequestBody::Snapshot {
                        partition: P1,
                        object: o,
                    },
                    Bytes::new(),
                );
                let (reply, _) = drive.handle(&req);
                match (reply.status, reply.body) {
                    (NasdStatus::Ok, ReplyBody::Created(id)) => Ok(Some(id)),
                    (s, _) => Err(s),
                }
            }
            SweepOp::Remove { o } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                let req = c.build(
                    RequestBody::Remove {
                        partition: P1,
                        object: o,
                    },
                    Bytes::new(),
                );
                done(drive.handle(&req).0.status)
            }
            SweepOp::Overfill { o, offset, len } => {
                let cap = drive.issue_capability(P1, o, Rights::ALL, 3_600);
                let c = drive.client(cap);
                match c.write(drive, offset, &vec![0xEE; len as usize]) {
                    Err(NasdStatus::NoSpace) => Ok(None),
                    Ok(n) => panic!("an overwrite past the free space acked {n} bytes"),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Run the script until the first failure (the crash). Returns the
    /// acked shadow and, when a crash interrupted an op, the shadow as
    /// it would look had that in-flight op committed.
    fn run_workload(
        drive: &mut NasdDrive<CrashDisk<SharedDisk>>,
        ops: &[SweepOp],
    ) -> (Shadow, Option<Shadow>, usize) {
        let mut acked = Shadow::start();
        for (i, op) in ops.iter().enumerate() {
            let next = acked.applied(op).expect("script bug: no such object");
            match perform(drive, op, acked.next_oid) {
                Ok(()) => acked = next,
                Err(_) => return (acked, Some(next), i),
            }
        }
        (acked, None, ops.len())
    }

    /// Check that a reopened drive holds exactly `want`. Returns a
    /// description of the first divergence, if any.
    fn diff_state(drive: &mut NasdDrive<SharedDisk>, want: &Shadow) -> Option<String> {
        let listed = drive.store().list_objects(P1);
        if !want.partition {
            return match listed {
                Err(StoreError::NoSuchPartition(_)) => None,
                other => Some(format!("partition should not exist, got {other:?}")),
            };
        }
        let listed = match listed {
            Ok(ids) => ids,
            Err(e) => return Some(format!("partition lost: {e}")),
        };
        let expect: Vec<ObjectId> = want.objects.keys().copied().collect();
        if listed != expect {
            return Some(format!("object set {listed:?}, want {expect:?}"));
        }
        for (&o, (data, tag)) in &want.objects {
            let cap = drive.issue_capability(P1, o, Rights::READ | Rights::GETATTR, 3_600);
            let c = drive.client(cap);
            // Over-read by one byte: proves the recovered size too.
            let back = match c.read(drive, 0, data.len() as u64 + 1) {
                Ok(rope) => rope.flatten(),
                Err(e) => return Some(format!("object {o:?} unreadable: {e:?}")),
            };
            if back[..] != data[..] {
                let at = back
                    .iter()
                    .zip(data.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(data.len().min(back.len()));
                return Some(format!(
                    "object {o:?} diverges at byte {at} (len {} vs {})",
                    back.len(),
                    data.len()
                ));
            }
            let attrs = match c.get_attr(drive) {
                Ok(a) => a,
                Err(e) => return Some(format!("object {o:?} attrs unreadable: {e:?}")),
            };
            if attrs.fs_specific[0] != *tag {
                return Some(format!(
                    "object {o:?} fs_specific {} != {tag}",
                    attrs.fs_specific[0]
                ));
            }
        }
        None
    }

    /// Digest a recovered drive's full logical state, for the
    /// double-remount stability check.
    fn state_digest(drive: &mut NasdDrive<SharedDisk>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let Ok(ids) = drive.store().list_objects(P1) else {
            return h;
        };
        for o in ids {
            let cap = drive.issue_capability(P1, o, Rights::READ | Rights::GETATTR, 3_600);
            let c = drive.client(cap);
            h = fnv(&o.0.to_be_bytes(), h);
            let back = c
                .read(drive, 0, 1 << 20)
                .expect("recovered object readable");
            h = fnv(&back.flatten(), h);
            let attrs = c.get_attr(drive).expect("recovered attrs readable");
            h = fnv(&attrs.fs_specific[..], h);
        }
        h
    }

    /// On failure, persist everything needed to replay the crash by hand
    /// and return the path for the panic message. `faults` names the
    /// run's device faults, as in the file name (`n5-torn`: the power
    /// fails after 5 completed writes, the sixth landing torn; `f3-n5`:
    /// the write after 3 completed ones fails once first).
    fn dump_trace(seed: u64, faults: &str, ops: &[SweepOp], detail: &str) -> String {
        let dir = std::path::Path::new("target/recovery-traces");
        std::fs::create_dir_all(dir).expect("create trace dir");
        let path = dir.join(format!("seed-{seed:#x}-{faults}.txt"));
        let mut f = std::fs::File::create(&path).expect("create trace file");
        writeln!(f, "seed: {seed:#x}").unwrap();
        writeln!(f, "device faults: {faults}").unwrap();
        writeln!(f, "failure: {detail}").unwrap();
        writeln!(f, "workload script:").unwrap();
        for (i, op) in ops.iter().enumerate() {
            writeln!(f, "  {i:3}: {op:?}").unwrap();
        }
        path.display().to_string()
    }

    /// One crash run: arm the disk to fail at write `budget`, run the
    /// workload, remount, and verify no acked state was lost.
    fn crash_run(config: &DriveConfig, seed: u64, ops: &[SweepOp], budget: u64, torn: bool) {
        let media = SharedDisk::new(MemDisk::new(config.block_size, config.capacity_blocks));
        let mut disk = CrashDisk::new(media.clone(), seed);
        disk.arm(budget, torn);
        let mut drive = NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .build_on(disk);
        let (acked, inflight, failed_at) = run_workload(&mut drive, ops);
        assert!(
            drive.store().cache().device().tripped(),
            "budget {budget} never tripped — sweep bound is stale"
        );
        drop(drive);
        // The in-flight op may have become durable without its ack
        // escaping the drive — that is the other legal outcome.
        let legal: Vec<Shadow> = std::iter::once(acked).chain(inflight).collect();
        if let Err(detail) = check_recovered(config, media, &legal) {
            let faults = format!("n{budget}{}", if torn { "-torn" } else { "" });
            let path = dump_trace(seed, &faults, ops, &detail);
            panic!(
                "seed {seed:#x} crash at write {budget} (torn={torn}, op {failed_at}): \
                 {detail}\n  trace: {path}"
            );
        }
    }

    /// Remount `media` and check that it holds one of the `legal` states
    /// (the acked one first), and the same one again on a second
    /// remount. Returns the divergence found.
    fn check_recovered(
        config: &DriveConfig,
        media: SharedDisk,
        legal: &[Shadow],
    ) -> Result<(), String> {
        let mut reopened = match NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .open(media.clone())
        {
            Ok(d) => d,
            // Legal only if nothing was ever acknowledged: the crash beat
            // the very first commit (which formats the device).
            Err(StoreError::NotFormatted) if legal.contains(&Shadow::start()) => return Ok(()),
            Err(StoreError::NotFormatted) => {
                return Err(format!("device unformatted but ops were acked: {legal:?}"))
            }
            Err(e) => return Err(format!("remount failed: {e}")),
        };
        let mut diffs = Vec::new();
        for want in legal {
            match diff_state(&mut reopened, want) {
                Some(d) => diffs.push(d),
                None => break,
            }
        }
        match diffs.len() {
            n if n < legal.len() => {}
            1 => return Err(format!("acked state lost: {}", diffs[0])),
            _ => return Err(format!("matches no legal state: {}", diffs.join("; "))),
        }
        let digest = state_digest(&mut reopened);
        drop(reopened);

        // Replay must be idempotent at the system level: remounting the
        // same media again yields the identical logical state.
        let mut second = NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .open(media)
            .map_err(|e| format!("second remount failed: {e}"))?;
        let second_digest = state_digest(&mut second);
        if digest != second_digest {
            return Err(format!(
                "double-remount digest diverged: {digest:#x} != {second_digest:#x}"
            ));
        }
        Ok(())
    }

    /// Fault-free pass: learns the total device write count and proves
    /// the workload script acks end-to-end, and that the final state
    /// matches the shadow exactly.
    fn count_writes(config: &DriveConfig, seed: u64, ops: &[SweepOp]) -> u64 {
        let media = SharedDisk::new(MemDisk::new(config.block_size, config.capacity_blocks));
        let disk = CrashDisk::new(media.clone(), seed);
        let mut drive = NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .build_on(disk);
        let (acked, inflight, _) = run_workload(&mut drive, ops);
        assert!(inflight.is_none(), "fault-free run must ack every op");
        let writes = drive.store().cache().device().writes_completed();
        assert!(writes > 0, "workload performed no durable writes");
        drop(drive);
        let mut reopened = NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .open(media)
            .expect("fault-free remount");
        assert_eq!(
            diff_state(&mut reopened, &acked),
            None,
            "fault-free remount diverged from the shadow"
        );
        writes
    }

    /// The tentpole test: for every seed, power-cut the drive at every
    /// single device write of the workload — dropping the crash-point
    /// write whole — remount, and verify.
    #[test]
    fn crash_point_sweep_loses_no_acked_write() {
        let config = sweep_config();
        for &seed in &SEEDS {
            let ops = script(seed);
            let writes = count_writes(&config, seed, &ops);
            for budget in 0..writes {
                crash_run(&config, seed, &ops, budget, false);
            }
        }
    }

    /// Same sweep with the crash-point write landing *torn*: a seeded
    /// partial sector that recovery must detect by checksum and roll
    /// back cleanly.
    #[test]
    fn crash_point_sweep_survives_torn_final_sector() {
        let config = sweep_config();
        for &seed in &SEEDS {
            let ops = script(seed);
            let writes = count_writes(&config, seed, &ops);
            for budget in 0..writes {
                crash_run(&config, seed, &ops, budget, true);
            }
        }
    }

    /// The long script's drive: 512 blocks of 512 B, so its 4 KiB log
    /// fills within the script and its 484 data blocks can be filled.
    fn long_sweep_config() -> DriveConfig {
        DriveConfig {
            capacity_blocks: 512,
            cache_blocks: 16,
            ..sweep_config()
        }
    }

    /// The long seeded script: a fixed prologue that overwrites a block
    /// a snapshot shares, frees blocks an append then reuses, and fills
    /// the device until an overwrite is refused with `NoSpace`; then
    /// enough seeded small ops to fill the log into a checkpoint.
    fn long_script(seed: u64) -> Vec<SweepOp> {
        let a = ObjectId(FIRST_DYNAMIC_OBJECT);
        let b = ObjectId(FIRST_DYNAMIC_OBJECT + 1);
        let filler = ObjectId(FIRST_DYNAMIC_OBJECT + 3);
        let mut ops = vec![
            SweepOp::CreatePartition { quota: 1 << 20 },
            SweepOp::Create { preallocate: 0 },
            SweepOp::Write {
                o: a,
                offset: 0,
                len: 6_000,
                fill: 0x11,
            },
            SweepOp::Create { preallocate: 0 },
            SweepOp::Write {
                o: b,
                offset: 0,
                len: 3_000,
                fill: 0x22,
            },
            // Object 3 shares all of a's blocks.
            SweepOp::Snapshot { o: a },
            SweepOp::Write {
                o: a,
                offset: 1_000,
                len: 700,
                fill: 0x33,
            },
            // Frees two of b's blocks; a's append takes them again.
            SweepOp::Write {
                o: b,
                offset: 512,
                len: 1_024,
                fill: 0x44,
            },
            SweepOp::Write {
                o: a,
                offset: 6_000,
                len: 1_500,
                fill: 0x55,
            },
            // 25 data blocks are in use (the snapshot's 12, the 7 of
            // a's 15 written since it, b's 6): this leaves 10 of the 484
            // free, too few to rewrite a's 15.
            SweepOp::Create {
                preallocate: 449 * 512,
            },
            SweepOp::Overfill {
                o: a,
                offset: 0,
                len: 7_500,
            },
            SweepOp::Remove { o: filler },
        ];
        let live = [a, b, ObjectId(FIRST_DYNAMIC_OBJECT + 2)];
        for i in 0..60u64 {
            let r = mix(seed, i);
            let o = live[(r as usize >> 8) % live.len()];
            ops.push(match r % 4 {
                0 => SweepOp::SetAttr {
                    o,
                    tag: (r >> 16) as u8 | 1,
                },
                1 => SweepOp::Resize {
                    o,
                    new_size: (r >> 16) % 9_000,
                },
                _ => SweepOp::Write {
                    o,
                    offset: (r >> 16) % 8_000,
                    len: (r >> 32) % 1_500 + 1,
                    fill: (r >> 56) as u8 | 1,
                },
            });
        }
        ops
    }

    /// What the long script's fault-free pass saw happen, counted from
    /// the drive's own state around each op.
    #[derive(Debug, Default)]
    struct Events {
        /// Ops whose record did not fit the log, so the drive
        /// checkpointed (the committed log shrank).
        log_full_checkpoints: u32,
        /// Writes into blocks another object also holds.
        shared_overwrites: u32,
        /// Blocks an op took that an earlier op had dropped.
        reused_blocks: u32,
        /// Overwrites refused with `NoSpace`.
        refused: u32,
    }

    fn long_script_events(seed: u64, ops: &[SweepOp]) -> Events {
        let media = SharedDisk::new(MemDisk::new(512, long_sweep_config().capacity_blocks));
        let mut drive = NasdDrive::builder(DRIVE_NO)
            .config(long_sweep_config())
            .build_on(CrashDisk::new(media, seed));
        let maps = |drive: &NasdDrive<CrashDisk<SharedDisk>>| {
            let store = drive.store();
            let ids = store.list_objects(P1).unwrap_or_default();
            ids.into_iter()
                .map(|o| (o, store.object_blocks(P1, o).unwrap().to_vec()))
                .collect::<BTreeMap<_, _>>()
        };
        let mut events = Events::default();
        let mut released = std::collections::BTreeSet::new();
        let mut next_oid = FIRST_DYNAMIC_OBJECT;
        for op in ops {
            let before = maps(&drive);
            let logged = drive.store().wal_durable_bytes();
            if let SweepOp::Write { o, offset, len, .. } = *op {
                let first = (offset / 512) as usize;
                let last = ((offset + len).div_ceil(512) as usize).min(before[&o].len());
                let others: Vec<u64> = before
                    .iter()
                    .filter(|(id, _)| **id != o)
                    .flat_map(|(_, blocks)| blocks.iter().copied())
                    .collect();
                if before[&o][first.min(last)..last]
                    .iter()
                    .any(|b| others.contains(b))
                {
                    events.shared_overwrites += 1;
                }
            }
            perform(&mut drive, op, next_oid).expect("fault-free run acks every op");
            if matches!(op, SweepOp::Create { .. } | SweepOp::Snapshot { .. }) {
                next_oid += 1;
            }
            if matches!(op, SweepOp::Overfill { .. }) {
                events.refused += 1;
            }
            if drive.store().wal_durable_bytes() < logged {
                events.log_full_checkpoints += 1;
            }
            let held = |m: &BTreeMap<ObjectId, Vec<u64>>| {
                m.values()
                    .flatten()
                    .copied()
                    .collect::<std::collections::BTreeSet<u64>>()
            };
            let (was, now) = (held(&before), held(&maps(&drive)));
            events.reused_blocks += now.intersection(&released).count() as u32;
            released.retain(|b| !now.contains(b));
            released.extend(was.difference(&now));
        }
        events
    }

    /// The long script reaches what the 18-op one cannot: a log-full
    /// checkpoint, an overwrite of a snapshot-shared block, reuse of a
    /// block an earlier op freed, and an overwrite refused for want of
    /// space — then is power-cut at every device write, clean and torn.
    fn long_sweep(torn: bool) {
        let config = long_sweep_config();
        for &seed in &SEEDS {
            let ops = long_script(seed);
            let events = long_script_events(seed, &ops);
            assert!(
                events.log_full_checkpoints > 0,
                "seed {seed:#x}: {events:?}"
            );
            assert!(events.shared_overwrites > 0, "seed {seed:#x}: {events:?}");
            assert!(events.reused_blocks > 0, "seed {seed:#x}: {events:?}");
            assert!(events.refused > 0, "seed {seed:#x}: {events:?}");
            let writes = count_writes(&config, seed, &ops);
            for budget in 0..writes {
                crash_run(&config, seed, &ops, budget, torn);
            }
        }
    }

    #[test]
    fn long_crash_point_sweep_loses_no_acked_write() {
        long_sweep(false);
    }

    #[test]
    fn long_crash_point_sweep_survives_torn_final_sector() {
        long_sweep(true);
    }

    /// Writes past a transient fault at which the power is cut in turn.
    const TRANSIENT_WINDOW: u64 = 12;

    /// Run `ops` on a drive whose device fails one write transiently,
    /// retrying once the op that saw it. An op whose attempt failed may
    /// or may not have taken effect, so from then on the media may hold
    /// either state; an ack that names a created object tells them
    /// apart. Returns every state the media may hold when the power
    /// fails (or the script ends) and the index of the op it cut.
    fn run_with_retry(
        drive: &mut NasdDrive<CrashDisk<SharedDisk>>,
        ops: &[SweepOp],
    ) -> (Vec<Shadow>, usize) {
        // `op` applied to every state, less those whose next object
        // name is not the one the drive gave.
        let advance = |states: &[Shadow], op: &SweepOp, created: Option<ObjectId>| {
            let mut next: Vec<Shadow> = Vec::new();
            for s in states {
                if created.is_some_and(|id| id.0 != s.next_oid) {
                    continue;
                }
                if let Some(n) = s.applied(op).filter(|n| !next.contains(n)) {
                    next.push(n);
                }
            }
            next
        };
        let either = |states: &[Shadow], op: &SweepOp| {
            let mut both = states.to_vec();
            both.extend(
                advance(states, op, None)
                    .into_iter()
                    .filter(|n| !states.contains(n)),
            );
            both
        };
        let mut legal = vec![Shadow::start()];
        let mut retried = false;
        for (i, op) in ops.iter().enumerate() {
            let mut outcome = perform_op(drive, op);
            if outcome.is_err() && !retried && !drive.store().cache().device().tripped() {
                retried = true;
                legal = either(&legal, op);
                outcome = perform_op(drive, op);
            }
            match outcome {
                Ok(created) => legal = advance(&legal, op, created),
                Err(_) if drive.store().cache().device().tripped() => {
                    return (either(&legal, op), i);
                }
                // Refused on the retry (a removed object is gone, a
                // created partition exists): the failed attempt's effect
                // is the one in doubt.
                Err(_) => {}
            }
            assert!(
                !legal.is_empty(),
                "op {i}: no state explains the drive's reply"
            );
        }
        (legal, ops.len())
    }

    /// One transient-fault run: the write attempted after `fault`
    /// completed writes fails once, the op that saw it is retried, and
    /// the power fails after `budget` completed writes (never if `None`).
    fn transient_run(
        config: &DriveConfig,
        seed: u64,
        ops: &[SweepOp],
        fault: u64,
        budget: Option<u64>,
    ) {
        let media = SharedDisk::new(MemDisk::new(config.block_size, config.capacity_blocks));
        let mut disk = CrashDisk::new(media.clone(), seed);
        disk.fail_once(fault);
        if let Some(budget) = budget {
            disk.arm(budget, false);
        }
        let mut drive = NasdDrive::builder(DRIVE_NO)
            .config(config.clone())
            .build_on(disk);
        let (legal, cut_at) = run_with_retry(&mut drive, ops);
        drop(drive);
        if let Err(detail) = check_recovered(config, media, &legal) {
            let faults = match budget {
                Some(budget) => format!("f{fault}-n{budget}"),
                None => format!("f{fault}"),
            };
            let path = dump_trace(seed, &faults, ops, &detail);
            panic!(
                "seed {seed:#x} write {fault} failed once, crash at write {budget:?} \
                 (op {cut_at}): {detail}\n  trace: {path}"
            );
        }
    }

    /// The crash sweeps never commit again after a failed write: their
    /// device fails every write from the crash point on. Here one write
    /// of the long script fails and the drive carries on — for every
    /// write of the fault-free run — and the failed op is retried once;
    /// then the power fails at each of the next `TRANSIENT_WINDOW`
    /// writes, and once not at all. A block a failed op displaced must
    /// not be reused while the durable state still reads it. A debug
    /// build takes every seventh write as the fault, a release build
    /// (the CI step) every one, some 10,000 runs.
    #[test]
    fn transient_fault_sweep_loses_no_acked_write() {
        let config = long_sweep_config();
        let stride = if cfg!(debug_assertions) { 7 } else { 1 };
        for &seed in &SEEDS {
            let ops = long_script(seed);
            let writes = count_writes(&config, seed, &ops);
            for fault in (0..writes).step_by(stride) {
                for budget in fault..fault + TRANSIENT_WINDOW {
                    transient_run(&config, seed, &ops, fault, Some(budget));
                }
                transient_run(&config, seed, &ops, fault, None);
            }
        }
    }
}

// ================================================================ dedup

/// GC storm + concurrent backups + a drive power-cut, per seed. The
/// dedup store's GC-safety argument (pins for in-flight chunks, mark
/// and sweep in one critical section) must hold while a drive dies and
/// comes back under a lossy network: no chunk any published snapshot
/// references is ever collected, and every snapshot restores
/// byte-identically afterwards — including from a cold reopen that
/// rediscovers the store off the durable media.
#[test]
fn dedup_gc_backup_drive_crash_storm() {
    use nasd::dedup::{ArchiveSource, BackupClient, ChunkStore, ChunkerParams, StoreConfig};
    use nasd::obs::Registry;

    fn content(seed: u64, salt: u64, len: usize) -> Vec<u8> {
        let mut state = (seed ^ salt.rotate_left(17)) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    fn config() -> StoreConfig {
        StoreConfig {
            pack_target_bytes: 32 << 10,
            compress: true,
        }
    }

    for &seed in &SEEDS {
        let fleet = Arc::new(
            DriveFleet::spawn_faulty(2, DriveConfig::small().durable(), P1, 64 << 20, None)
                .unwrap(),
        );
        // Patient enough to span the outage window.
        let patient = RetryPolicy {
            max_attempts: 64,
            timeout: Duration::from_millis(25),
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        };
        for ep in fleet.endpoints() {
            ep.set_retry(patient);
        }
        let registry = Registry::new();
        let store = ChunkStore::open(Arc::clone(&fleet), config(), &registry).unwrap();

        // A snapshot that predates the storm: its chunks are what a
        // GC-vs-crash bug would most plausibly eat.
        let base = content(seed, 0, 80_000);
        BackupClient::with_params(&store, ChunkerParams::small())
            .backup("base", &[ArchiveSource::stream("a", base.clone())])
            .unwrap();

        // Storm on: seeded lossy network for the remainder of the run.
        let plan = FaultPlan::new(seed);
        fleet.set_faults(&plan, FaultConfig::lossy(0.2));

        let stop = AtomicBool::new(false);
        let reached_crash_point = AtomicBool::new(false);
        let (gc_runs, contents) = std::thread::scope(|s| {
            let gc = {
                let store = &store;
                let stop = &stop;
                s.spawn(move || {
                    let mut ok = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        // While the victim drive is down a pass may fail
                        // cleanly; it must never take a referenced chunk
                        // down with it.
                        if store.gc().is_ok() {
                            ok += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    ok
                })
            };
            let backup = {
                let store = &store;
                let reached = &reached_crash_point;
                s.spawn(move || {
                    let client = BackupClient::with_params(store, ChunkerParams::small());
                    let mut contents = Vec::new();
                    for i in 0..4u64 {
                        let data = content(seed, 1 + i, 60_000);
                        client
                            .backup(
                                &format!("s{i}"),
                                &[ArchiveSource::stream("a", data.clone())],
                            )
                            .unwrap_or_else(|e| {
                                panic!("seed {seed:#x}: backup s{i} failed under chaos: {e}")
                            });
                        contents.push(data);
                        if i == 0 {
                            reached.store(true, Ordering::SeqCst);
                        }
                    }
                    contents
                })
            };

            // Power-cut a seeded drive mid-backup, hold it down briefly,
            // restart it from the persisted media.
            while !reached_crash_point.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let victim = (seed % fleet.len() as u64) as usize;
            fleet.crash(victim);
            assert!(!fleet.is_up(victim), "crash did not take the drive down");
            std::thread::sleep(Duration::from_millis(20));
            fleet
                .restart(victim)
                .expect("restart from persisted media failed");

            let contents = backup.join().expect("backup thread panicked under chaos");
            stop.store(true, Ordering::Relaxed);
            let gc_runs = gc.join().expect("gc thread panicked under chaos");
            (gc_runs, contents)
        });
        plan.set_enabled(false);
        assert!(gc_runs > 0, "seed {seed:#x}: GC never completed a pass");

        // Every snapshot restores byte-identically through the storm...
        let client = BackupClient::with_params(&store, ChunkerParams::small());
        assert_eq!(
            client.restore("base").unwrap()[0].data,
            base,
            "seed {seed:#x}: pre-storm snapshot corrupted"
        );
        for (i, want) in contents.iter().enumerate() {
            let got = client.restore(&format!("s{i}")).unwrap();
            assert_eq!(
                &got[0].data, want,
                "seed {seed:#x}: snapshot s{i} corrupted"
            );
        }

        // ...and from a cold reopen that rediscovers packs, index and
        // manifests from the durable media alone.
        let reopened = ChunkStore::open(Arc::clone(&fleet), config(), &registry).unwrap();
        let cold = BackupClient::with_params(&reopened, ChunkerParams::small());
        assert_eq!(
            cold.restore("base").unwrap()[0].data,
            base,
            "seed {seed:#x}: cold reopen lost the pre-storm snapshot"
        );
        for (i, want) in contents.iter().enumerate() {
            let got = cold.restore(&format!("s{i}")).unwrap();
            assert_eq!(
                &got[0].data, want,
                "seed {seed:#x}: cold reopen lost snapshot s{i}"
            );
        }
    }
}
