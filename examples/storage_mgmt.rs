//! nasd-mgmt in action: a drive dies under a parity stripe, storage
//! management detects it, reconstructs the lost column onto a hot spare
//! (throttled), swaps the Cheops map, and a scrub pass later repairs a
//! latent parity error before it can turn fatal.
//!
//! ```sh
//! cargo run --example storage_mgmt
//! ```

use nasd::cheops::CheopsConnect;
use nasd::cheops::{CheopsManager, Redundancy, RepairPhase};
use nasd::fm::DriveFleet;
use nasd::mgmt::NasdMgmt;
use nasd::net::Connector;
use nasd::object::DriveConfig;
use nasd::proto::{ByteRange, PartitionId, Rights, Version};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five drives: three data columns + parity, and one hot spare that
    // no layout references yet.
    let fleet = Arc::new(DriveFleet::spawn_memory(
        5,
        DriveConfig::small(),
        PartitionId(1),
        64 << 20,
    )?);
    // One storage manager: clients reach it over its wire enum, storage
    // management runs on the same maps, leases and repair records.
    let mgr = Arc::new(CheopsManager::new(Arc::clone(&fleet)));
    let (rpc, _h) = mgr.serve();
    let client = Connector::new().cheops(7, rpc, Arc::clone(&fleet));

    let id = client.create(3, 32 * 1024, Redundancy::Parity)?;
    let file = client.open(id, Rights::ALL)?;
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 239) as u8).collect();
    client.write(&file, 0, &payload)?;
    println!(
        "parity stripe {id}: {} bytes over {} data columns + parity",
        payload.len(),
        file.layout.width()
    );

    // Power-cut the drive under column 1. Reads keep working, degraded:
    // the missing column is XOR-reconstructed from survivors + parity.
    let failed = fleet.endpoint(1).id();
    fleet.crash(1);
    let degraded = client.read(&file, 0, payload.len() as u64)?;
    assert_eq!(degraded, payload);
    println!("{failed} crashed; degraded read still byte-exact");

    // Storage management probes the fleet (any RPC reply means
    // alive; only transport silence counts), claims the spare, rebuilds
    // the lost column at 4 MiB/s, and swaps the map atomically.
    let spare = fleet.endpoint(4).id();
    let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 4 << 20);
    let mut report = mgmt.check_once();
    while report.rebuilt.is_empty() {
        report = mgmt.check_once(); // strikes accumulate to the threshold
    }
    let (drive, outcome) = &report.rebuilt[0];
    println!(
        "mgmt: {drive} detected dead, {} bytes reconstructed onto {} ({} component)",
        outcome.bytes, spare, outcome.components
    );
    let repair = mgr.repairs().into_iter().find(|r| r.drive == failed);
    assert_eq!(repair.map(|r| r.phase), Some(RepairPhase::Rebuilt));

    // A fresh open mints capabilities for the spare; reads are whole
    // again (no reconstruction math) and byte-identical.
    let file = client.open(id, Rights::ALL)?;
    assert!(file.layout.slots_on_drive(failed).is_empty());
    let healthy = client.read(&file, 0, payload.len() as u64)?;
    assert_eq!(healthy, payload);
    println!("re-opened {id}: layout swapped to {spare}, reads whole and byte-exact");

    // Latent-error drill: corrupt the parity component behind Cheops'
    // back, then let the scrubber find and repair it.
    let parity = file.layout.parity.expect("parity layout");
    let ep = fleet.by_id(parity.drive).expect("parity drive");
    let cap = ep.mint(
        parity.partition,
        parity.object,
        Version(0),
        Rights::WRITE,
        ByteRange::FULL,
        fleet.now() + 60,
    );
    ep.write(&cap, 1_000, bytes::Bytes::from(vec![0xAA; 5_000]))?;
    let scrub = mgmt.scrub()?;
    println!(
        "scrub: {} objects, {} chunks mismatched, {} repaired",
        scrub.objects, scrub.mismatches, scrub.repairs
    );
    assert!(scrub.mismatches > 0 && scrub.repairs == scrub.mismatches);
    assert_eq!(mgmt.scrub()?.mismatches, 0, "second pass must be clean");
    println!("second scrub pass clean: parity agrees with the data again");
    Ok(())
}
