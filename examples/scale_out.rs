//! Scale-out tour: a generated workload against a file manager with a
//! client-side capability-issue cache, then the saturation story the
//! `scale` bench tells at full size.
//!
//! The paper's Figure 7 stops at 13 drives and ~10 clients. This
//! example drives the two pieces that push past it: the
//! `nasd-workload` generator (seeded zipf popularity, mixed
//! read/write/getattr traffic) and the leased capability cache that
//! keeps repeated opens off the file manager.
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
    println!("== file manager + capability-issue cache ==");
    let fleet = Arc::new(DriveFleet::spawn_memory(
        4,
        DriveConfig::small(),
        PartitionId(1),
        32 << 20,
    )?);
    // One manager takes every client's calls at once; its core's
    // per-directory locks order them.
    let (rpc, _handle) = NasdNfs::new(Arc::clone(&fleet))?.spawn();
    let mut client = Connector::new().nfs(rpc, Arc::clone(&fleet))?;
    client.enable_cap_cache(None);
    println!("4 drives, one file manager, capability cache on");

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
    // cache absorbs those opens instead of re-asking the file manager.
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
    println!("drives reach ~1.8 GB/s; the model's FM shards never saturate");
    println!("first (a modelled resource: the real manager is not sharded).");

    println!("\nall assertions held");
    Ok(())
}
