//! Chaos demo: seeded fault injection against a small drive fleet.
//!
//! ```sh
//! cargo run --release --example chaos_demo [seed]
//! ```
//!
//! Spawns two NASD drives with durable writes, points a seeded
//! [`FaultPlan`] at their channels (drops, duplications, delays, lost
//! replies) plus in-drive Busy bounces and slow I/O, then runs a write
//! workload while power-cutting drive 0 mid-stream and restarting it
//! from its persisted media. Afterwards it verifies every acknowledged
//! write, prints the realized fault schedule, and re-runs the same seed
//! to show the schedule is bit-for-bit reproducible.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "paces the narrated power cut on real drive threads; the fault schedule stays seeded"
)]

use nasd::fm::DriveFleet;
use nasd::net::{FaultAction, FaultConfig, FaultEvent, FaultPlan, RetryPolicy};
use nasd::object::{DriveConfig, DriveFaultConfig};
use nasd::proto::{ByteRange, PartitionId, Rights, Version};
use std::sync::Arc;
use std::time::Duration;

const P1: PartitionId = PartitionId(1);
const RECORDS: u64 = 48;
const RECORD_LEN: u64 = 512;

/// One seeded run: a writer streams records at drive 0 while the
/// harness crashes and restarts it. Returns the realized fault trace.
fn storm(seed: u64) -> Result<Vec<FaultEvent>, Box<dyn std::error::Error>> {
    let fleet = DriveFleet::spawn_faulty(
        2,
        DriveConfig::small().durable(),
        P1,
        64 << 20,
        Some((seed, DriveFaultConfig::moderate())),
    )?;
    // Patient retries: long enough to ride out the injected losses and
    // the restart window below.
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
    fleet.set_faults(&plan, FaultConfig::lossy(0.4));

    let ep = Arc::clone(fleet.endpoint(0));
    let oid = ep.create_object(P1, 0, None, 1 << 40)?;
    let cap = ep.mint(P1, oid, Version(0), Rights::ALL, ByteRange::FULL, 1 << 40);
    plan.set_enabled(true);

    let mut acked = Vec::new();
    for i in 0..RECORDS {
        let fill = (i + 1) as u8;
        let data = bytes::Bytes::from(vec![fill; RECORD_LEN as usize]);
        let n = ep.write(&cap, i * RECORD_LEN, data)?;
        assert_eq!(n, RECORD_LEN, "short write at record {i}");
        acked.push((i * RECORD_LEN, fill));
        if i == RECORDS / 4 {
            println!("  power-cutting drive 0 at record {i}...");
            fleet.crash(0);
            assert!(!fleet.is_up(0));
            std::thread::sleep(Duration::from_millis(10));
            fleet.restart(0)?;
            println!("  drive 0 restarted from persisted media");
        }
    }

    plan.set_enabled(false);
    for &(off, fill) in &acked {
        let back = ep.read(&cap, off, RECORD_LEN)?;
        assert!(
            back.len() as u64 == RECORD_LEN && back.to_vec().iter().all(|&b| b == fill),
            "acked write at offset {off} lost across the crash"
        );
    }
    println!(
        "  {} acked writes verified intact across the crash",
        acked.len()
    );
    let trace = plan.trace();
    fleet.shutdown();
    Ok(trace)
}

fn summarize(trace: &[FaultEvent]) -> (usize, usize, usize, usize) {
    let mut counts = (0, 0, 0, 0);
    for ev in trace {
        match ev.action {
            FaultAction::DropRequest => counts.0 += 1,
            FaultAction::Duplicate => counts.1 += 1,
            FaultAction::DelayMicros(_) => counts.2 += 1,
            FaultAction::DropReply => counts.3 += 1,
            FaultAction::Deliver => {}
        }
    }
    counts
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u64>())
        .transpose()?
        .unwrap_or(0x00C0_FFEE);
    println!("chaos storm, seed {seed:#x}:");
    let first = storm(seed)?;
    let (drops, dups, delays, lost_replies) = summarize(&first);
    println!(
        "  injected {} faults: {drops} drops, {dups} duplicates, {delays} delays, {lost_replies} lost replies",
        first.len()
    );

    println!("replaying the same seed:");
    let second = storm(seed)?;
    assert_eq!(first, second, "fault schedule was not reproducible");
    println!("  fault schedule identical across runs — deterministic");

    println!("chaos demo complete");
    Ok(())
}
