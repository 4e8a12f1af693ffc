//! In-process services own no threads: a drive fleet, an NFS manager, an
//! AFS manager and a Cheops manager, driven end to end, leave
//! the process's thread count where it was. In its own test binary so no
//! concurrent test moves the count.

use nasd_cheops::{CheopsConnect, CheopsManager, Redundancy};
use nasd_fm::{DriveFleet, FmConnect, NasdAfs, NasdNfs};
use nasd_net::Connector;
use nasd_object::DriveConfig;
use nasd_proto::{PartitionId, Rights};
use std::sync::Arc;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap();
    line.trim().parse().unwrap()
}

#[test]
fn services_run_on_their_callers_threads() {
    let before = threads();
    let fleet = Arc::new(
        DriveFleet::spawn_memory(4, DriveConfig::small(), PartitionId(1), 32 << 20).unwrap(),
    );

    let (nfs_rpc, nfs_handle) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
    let mut nfs = Connector::new().nfs(nfs_rpc, Arc::clone(&fleet)).unwrap();
    nfs.enable_cap_cache(None);
    let mut file = nfs.create("/notes", 0o644, 1).unwrap();
    nfs.write(&mut file, 0, b"nfs bytes").unwrap();
    assert_eq!(nfs.read(&mut file, 0, 9).unwrap(), b"nfs bytes");

    let (afs_rpc, afs_handle) = NasdAfs::new(Arc::clone(&fleet), 1 << 20).unwrap().spawn();
    let afs = Connector::new()
        .afs(1, afs_rpc, Arc::clone(&fleet))
        .unwrap();
    let fh = afs.create(afs.root(), "doc").unwrap();
    afs.write_file(fh, b"afs bytes").unwrap();
    assert_eq!(afs.read_file(fh).unwrap().as_ref(), b"afs bytes");

    let (cheops_rpc, cheops_handle) = Arc::new(CheopsManager::new(Arc::clone(&fleet))).serve();
    let cheops = Connector::new().cheops(1, cheops_rpc, Arc::clone(&fleet));
    let id = cheops.create(2, 16 << 10, Redundancy::Parity).unwrap();
    let striped = cheops.open(id, Rights::ALL).unwrap();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    cheops.write(&striped, 0, &payload).unwrap();
    assert_eq!(cheops.read(&striped, 0, 100_000).unwrap(), payload);

    assert_eq!(
        threads(),
        before,
        "building and driving in-process services started threads"
    );
    drop((nfs, afs, cheops));
    nfs_handle.shutdown();
    afs_handle.shutdown();
    cheops_handle.shutdown();
}
