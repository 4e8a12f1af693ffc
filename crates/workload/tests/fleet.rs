//! End-to-end: generated workloads against the real sharded FM stack.

use nasd_fm::{DriveFleet, FmConnect, NasdNfs};
use nasd_net::Connector;
use nasd_object::DriveConfig;
use nasd_proto::PartitionId;
use nasd_workload::{driver, OpMix, RequestStream, WorkloadSpec};
use std::sync::Arc;

fn sharded_client(ndrives: usize, nshards: usize) -> (nasd_fm::NfsClient, Arc<DriveFleet>) {
    let fleet = Arc::new(
        DriveFleet::spawn_memory(ndrives, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap(),
    );
    let fm = NasdNfs::new(Arc::clone(&fleet)).unwrap();
    // Dropping the handles leaves the shards serving; they drop with
    // the client's channels.
    let (rpcs, _handles) = fm.spawn_sharded(nshards);
    let client = Connector::new()
        .nfs_sharded(rpcs, Arc::clone(&fleet))
        .unwrap();
    (client, fleet)
}

#[test]
fn generated_stream_drives_the_sharded_stack() {
    let (client, _fleet) = sharded_client(3, 2);
    let spec = WorkloadSpec {
        objects: 12,
        zipf_theta: 0.99,
        mix: OpMix::paper_default(),
        read_bytes: 2048,
        write_bytes: 2048,
    };
    let paths = driver::provision(&client, "/load", spec.objects, 4096).unwrap();
    assert_eq!(paths.len(), 12);

    let mut stream = RequestStream::new(&spec, 0xCAFE);
    let report = driver::drive(&client, &mut stream, &paths, 250).unwrap();
    assert_eq!(report.ops(), 250);
    assert!(report.reads > 0 && report.writes > 0 && report.getattrs > 0);
    assert_eq!(report.bytes_read, report.reads * 2048);
    assert_eq!(report.bytes_written, report.writes * 2048);

    // Zipf skew means objects repeat constantly; the capability cache
    // must be absorbing the vast majority of the 250 opens.
    let stats = client.cap_cache_stats();
    assert!(
        stats.hits > stats.misses,
        "expected cache-dominated opens, got {stats:?}"
    );
}

#[test]
fn same_seed_produces_identical_tallies() {
    let (client, _fleet) = sharded_client(2, 2);
    let spec = WorkloadSpec {
        objects: 8,
        zipf_theta: 0.8,
        mix: OpMix::paper_default(),
        read_bytes: 512,
        write_bytes: 512,
    };
    let paths = driver::provision(&client, "/rep", spec.objects, 1024).unwrap();

    let mut s1 = RequestStream::new(&spec, 7);
    let r1 = driver::drive(&client, &mut s1, &paths, 120).unwrap();
    let mut s2 = RequestStream::new(&spec, 7);
    let r2 = driver::drive(&client, &mut s2, &paths, 120).unwrap();
    assert_eq!(r1, r2);
}
