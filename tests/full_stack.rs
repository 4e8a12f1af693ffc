//! Integration tests spanning the whole stack: drives, file managers,
//! Cheops, PFS and the mining workload working together.

use nasd::cheops::CheopsConnect;
use nasd::cheops::{CheopsManager, Redundancy};
use nasd::fm::FmConnect;
use nasd::fm::{AfsClient, DriveFleet, NasdAfs, NasdNfs};
use nasd::mining::parallel::parallel_frequent_items;
use nasd::mining::{apriori, TransactionGenerator, TransactionReader};
use nasd::net::Connector;
use nasd::object::DriveConfig;
use nasd::pfs::PfsCluster;
use nasd::proto::{PartitionId, Rights};
use std::sync::Arc;

fn fleet(n: usize) -> Arc<DriveFleet> {
    Arc::new(DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 64 << 20).unwrap())
}

#[test]
fn nfs_many_concurrent_clients() {
    let fleet = fleet(4);
    let (fm, _h) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();

    let mut joins = Vec::new();
    for t in 0..6u64 {
        let fm = fm.clone();
        let fleet = Arc::clone(&fleet);
        joins.push(std::thread::spawn(move || {
            let client = Connector::new().nfs(fm, fleet).unwrap();
            let dir = format!("/worker{t}");
            client.mkdir(&dir, 0o755, t as u32).unwrap();
            for i in 0..10 {
                let path = format!("{dir}/f{i}");
                let mut f = client.create(&path, 0o644, t as u32).unwrap();
                let payload = vec![(t * 16 + i) as u8; 3_000];
                client.write(&mut f, 0, &payload).unwrap();
            }
            // Verify everything this worker wrote.
            for i in 0..10 {
                let path = format!("{dir}/f{i}");
                let mut f = client.open(&path, false).unwrap();
                let data = client.read(&mut f, 0, 3_000).unwrap();
                assert!(data.to_vec().iter().all(|&b| b == (t * 16 + i) as u8));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // A fresh client over the same manager sees the merged namespace.
    let client = Connector::new().nfs(fm, Arc::clone(&fleet)).unwrap();
    let root_entries = client.readdir("/").unwrap();
    assert_eq!(root_entries.len(), 6);
}

#[test]
fn nfs_namespace_shared_between_connections() {
    let fleet = fleet(2);
    let (fm, _h) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
    let a = Connector::new()
        .nfs(fm.clone(), Arc::clone(&fleet))
        .unwrap();
    let b = Connector::new().nfs(fm, Arc::clone(&fleet)).unwrap();

    a.mkdir("/shared", 0o755, 0).unwrap();
    let mut f = a.create("/shared/x", 0o644, 0).unwrap();
    a.write(&mut f, 0, b"written by a").unwrap();

    let mut g = b.open("/shared/x", false).unwrap();
    assert_eq!(b.read(&mut g, 0, 12).unwrap(), b"written by a");
}

#[test]
fn afs_and_nfs_style_consistency_models_differ() {
    // AFS: callback-based invalidation notifies cached readers; NFS-style
    // clients simply refetch. Exercise the AFS side's guarantee.
    let fleet = fleet(2);
    let (afs, _h) = NasdAfs::new(Arc::clone(&fleet), 8 << 20).unwrap().spawn();
    let writer = Connector::new()
        .afs(1, afs.clone(), Arc::clone(&fleet))
        .unwrap();
    let readers: Vec<AfsClient> = (2..6)
        .map(|i| {
            Connector::new()
                .afs(i, afs.clone(), Arc::clone(&fleet))
                .unwrap()
        })
        .collect();

    let fh = writer.create(writer.root(), "hot").unwrap();
    writer.write_file(fh, b"gen-0").unwrap();
    for r in &readers {
        assert_eq!(&r.read_file(fh).unwrap()[..], b"gen-0");
    }
    writer.write_file(fh, b"gen-1").unwrap();
    for r in &readers {
        let events = r.poll_callbacks();
        assert_eq!(events.len(), 1, "each cached reader gets one break");
        assert_eq!(&r.read_file(fh).unwrap()[..], b"gen-1");
    }
}

#[test]
fn cheops_object_survives_manager_restart_equivalent() {
    // The capability set, once fetched, works without the manager — the
    // core asynchronous-oversight property at the Cheops level.
    let fleet = fleet(3);
    let (mgr, handle) = CheopsManager::new(Arc::clone(&fleet)).spawn();
    let client = Connector::new().cheops(1, mgr, Arc::clone(&fleet));
    let id = client.create(3, 32 * 1024, Redundancy::None).unwrap();
    let file = client.open(id, Rights::ALL).unwrap();
    client.write(&file, 0, &vec![9u8; 500_000]).unwrap();

    // Stop the manager; the open file keeps working.
    drop(handle);
    let back = client.read(&file, 100_000, 1_000).unwrap();
    assert!(back.to_vec().iter().all(|&b| b == 9));
}

#[test]
fn pfs_mining_pipeline_end_to_end() {
    let request = 64 * 1024u64;
    let cluster =
        Arc::new(PfsCluster::spawn_with_config(3, request, DriveConfig::small()).unwrap());
    let data = TransactionGenerator::new(5).generate_bytes(3 << 20, request as usize);
    let loader = cluster.client(0);
    let f = loader.create("/txns", 3).unwrap();
    loader.write_at(&f, 0, &data).unwrap();

    let got = parallel_frequent_items(&cluster, "/txns", 3, 256 * 1024, request).unwrap();

    let txns: Vec<_> = TransactionReader::new(&data, request as usize).collect();
    let (want, n) = apriori::count_1_itemsets(&txns);
    assert_eq!(got.transactions, n);
    assert_eq!(got.counts, want);
    assert_eq!(got.bytes_read, data.len() as u64);
}

#[test]
fn quota_pressure_surfaces_cleanly_through_the_stack() {
    // Fill a small partition through the NFS port until the drive runs
    // out of quota; the error must propagate as a clean FmError.
    let fleet = Arc::new(
        DriveFleet::spawn_memory(1, DriveConfig::small(), PartitionId(1), 600 * 1024).unwrap(),
    );
    let (fm, _h) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
    let client = Connector::new().nfs(fm, Arc::clone(&fleet)).unwrap();

    let mut wrote = 0u64;
    let mut failed = false;
    for i in 0..64 {
        let mut f = match client.create(&format!("/fill{i}"), 0o644, 0) {
            Ok(f) => f,
            Err(_) => {
                failed = true;
                break;
            }
        };
        match client.write(&mut f, 0, &vec![0u8; 64 * 1024]) {
            Ok(n) => wrote += n,
            Err(e) => {
                // Clean error, not a panic or corruption.
                let msg = e.to_string();
                assert!(msg.contains("no space") || msg.contains("quota"), "{msg}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "quota never enforced after writing {wrote} bytes");
    assert!(wrote > 0, "nothing written before quota hit");
}

/// The fault-free Cheops read path, pinned by the exact copy ledger on
/// the client thread: a single-run read passes the drive's rope through
/// untouched, and a read striped over several columns pays the one
/// gather copy and nothing else.
#[test]
fn cheops_fault_free_read_copies_are_pinned() {
    use nasd::obs::datapath;
    let fleet = fleet(4);
    let (mgr, _h) = CheopsManager::new(Arc::clone(&fleet)).spawn();
    let client = Connector::new().cheops(1, mgr, Arc::clone(&fleet));
    let id = client.create(4, 32 * 1024, Redundancy::None).unwrap();
    let file = client.open(id, Rights::ALL).unwrap();
    let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
    client.write(&file, 0, &data).unwrap();

    datapath::reset();
    let one = client.read(&file, 1_000, 8_192).unwrap();
    assert_eq!(
        datapath::bytes_copied(),
        0,
        "single-run read copied payload"
    );
    assert_eq!(one, &data[1_000..9_192]);

    datapath::reset();
    let all = client.read(&file, 0, data.len() as u64).unwrap();
    assert_eq!(
        datapath::bytes_copied(),
        data.len() as u64,
        "a read striped over 4 columns is one gather copy"
    );
    assert_eq!(all, data);
}
