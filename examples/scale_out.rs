//! Scale-out tour: a generated workload against a sharded file manager,
//! then the saturation story the `scale` bench tells at full size.
//!
//! The paper's Figure 7 stops at 13 drives and ~10 clients. This
//! example drives the two pieces that push past it: the
//! `nasd-workload` generator (seeded zipf popularity, mixed
//! read/write/getattr traffic) running against hash-sharded file
//! managers with a client-side capability-issue cache.
//!
//! ```sh
//! cargo run --example scale_out
//! ```

use nasd::fm::{DriveFleet, FmConnect, NasdNfs};
use nasd::net::Connector;
use nasd::object::DriveConfig;
use nasd::proto::PartitionId;
use nasd::workload::{driver, OpMix, RequestStream, WorkloadSpec};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== sharded FM + capability-issue cache ==");
    let fleet = Arc::new(DriveFleet::spawn_memory(
        4,
        DriveConfig::small(),
        PartitionId(1),
        32 << 20,
    )?);
    let fm = NasdNfs::new(Arc::clone(&fleet))?;
    // Two shards (two locks) over one manager; clients route each
    // request by handle hash, so hot capability issue fans out.
    let (rpcs, _handles) = fm.spawn_sharded(2);
    let client = Connector::new().nfs_sharded(rpcs, Arc::clone(&fleet))?;
    println!("4 drives, 2 FM shards, one namespace");

    println!("\n== seeded zipf workload through the Connector API ==");
    let spec = WorkloadSpec {
        objects: 16,
        zipf_theta: 0.99,
        mix: OpMix::paper_default(), // read 60 / write 15 / getattr 25
        read_bytes: 4096,
        write_bytes: 4096,
    };
    let paths = driver::provision(&client, "/load", spec.objects, 8192)?;
    println!("provisioned {} objects under /load", paths.len());

    let mut stream = RequestStream::new(&spec, 0x5EED);
    let report = driver::drive(&client, &mut stream, &paths, 400)?;
    println!(
        "drove 400 ops: {} reads / {} writes / {} getattrs, {} B read, {} B written",
        report.reads, report.writes, report.getattrs, report.bytes_read, report.bytes_written
    );
    assert_eq!(report.ops(), 400, "every generated op must complete");

    // Zipf skew repeats hot objects constantly; the leased capability
    // cache absorbs those opens instead of re-asking an FM shard.
    let stats = client.cap_cache_stats();
    println!(
        "capability cache: {} hits / {} misses ({}% hit rate)",
        stats.hits,
        stats.misses,
        100 * stats.hits / (stats.hits + stats.misses).max(1)
    );
    assert!(
        stats.hits > stats.misses,
        "zipf traffic must be cache-dominated, got {stats:?}"
    );

    // Same seed, same traffic: the generator is fully deterministic.
    let mut replay = RequestStream::new(&spec, 0x5EED);
    let again = driver::drive(&client, &mut replay, &paths, 400)?;
    assert_eq!(
        (again.reads, again.writes, again.getattrs),
        (report.reads, report.writes, report.getattrs),
        "seeded replay must generate identical traffic"
    );
    println!("seeded replay reproduced the op mix exactly");

    println!("\n== where fleets saturate (the scale bench at full size) ==");
    println!("cargo run --release -p nasd-bench -- scale runs the");
    println!("13/32/64/128-drive x 100/400/1000-client matrix: 13 drives");
    println!("saturate drive-side at ~220 MB/s from 400 clients; 128");
    println!("drives reach ~1.8 GB/s; the FM shards never saturate first.");

    println!("\nall assertions held");
    Ok(())
}
