//! §6: Active Disks running the frequent-sets computation on-drive.
//!
//! "Instead of reading the data across the network into a set of clients
//! to do the itemset counting, the core frequent sets counting code is
//! executed directly inside the individual drives... we achieve 45 MB/s
//! with low-bandwidth 10 Mb/s ethernet networking and only 1/3 of the
//! hardware used in the NASD PFS tests of Figure 9."
//!
//! Two parts: (a) a *functional* proof — the on-drive counter from
//! `nasd-active` runs over real generated transactions on a real drive
//! and matches client-side counts while shipping kilobytes instead of
//! megabytes; (b) the scan-rate model comparing the two configurations'
//! effective bandwidth, network demand and hardware.

use crate::testbed;
use nasd::active::{on_drive::FrequentItemsCounter, ActiveDrive};
use nasd::disk::specs;
use nasd::mining::TransactionGenerator;
use nasd::object::{DriveConfig, NasdDrive};
use nasd::proto::{PartitionId, Rights};

/// Drives in the comparison (the Figure 9 testbed).
pub const NDRIVES: usize = 8;
/// On-drive counting cost: a tight scan loop, ~5 instructions per byte.
pub const COUNT_INSTR_PER_BYTE: f64 = 5.0;

/// Modeled configuration summary.
#[derive(Clone, Debug)]
pub struct ActiveRow {
    /// Configuration name.
    pub config: &'static str,
    /// Effective aggregate scan bandwidth, MB/s.
    pub scan_mb_s: f64,
    /// Network bandwidth demanded, Mb/s.
    pub network_mbits: f64,
    /// Machines involved (drives + clients + server).
    pub machines: usize,
}

/// Per-drive media rate of the prototype NASD (two striped Medallists).
fn pair_media_mb_s() -> f64 {
    2.0 * specs::MEDALLIST.media_mb_s
}

/// The two configurations of §6.
#[must_use]
pub fn run() -> Vec<ActiveRow> {
    let drive_cpu = testbed::drive_cpu();
    // On-drive counting rate: the 133 MHz drive CPU scanning at ~5
    // instructions/byte.
    let count_rate_mb_s = drive_cpu.mhz * 1e6 / drive_cpu.cpi / COUNT_INSTR_PER_BYTE / 1e6;

    // NASD PFS (Figure 9): drives stream data to clients; effective scan
    // rate is the measured 6.2 MB/s per pair; network carries every byte.
    let pfs_per_drive = 6.2_f64.min(pair_media_mb_s());
    let pfs = ActiveRow {
        config: "NASD PFS + clients",
        scan_mb_s: pfs_per_drive * NDRIVES as f64,
        network_mbits: pfs_per_drive * NDRIVES as f64 * 8.0,
        machines: NDRIVES + NDRIVES + 1, // drives + clients + master
    };

    // Active Disks: the scan happens at the drive; the network carries
    // only itemset counts (a few KB per pass — effectively nil).
    let per_drive = pair_media_mb_s().min(count_rate_mb_s);
    let active = ActiveRow {
        config: "Active Disks",
        scan_mb_s: per_drive * NDRIVES as f64,
        network_mbits: 0.1,    // counts only
        machines: NDRIVES + 1, // drives + master
    };
    vec![pfs, active]
}

/// Functional demonstration: run the counter on-drive over generated
/// transactions; returns (bytes scanned, bytes shipped).
#[must_use]
pub fn demonstrate(bytes: usize) -> (u64, u64) {
    let chunk = 512 * 1024usize;
    let data = TransactionGenerator::new(1998).generate_bytes(bytes, chunk);
    let mut drive = NasdDrive::builder(1)
        .config(DriveConfig {
            capacity_blocks: (bytes / 8192 + 1024) as u64,
            ..DriveConfig::prototype()
        })
        .build();
    let p = PartitionId(1);
    drive
        .admin_create_partition(p, bytes as u64 + (8 << 20))
        .unwrap();
    let obj = drive.admin_create_object(p, 0).unwrap();
    let cap = drive.issue_capability(p, obj, Rights::READ | Rights::WRITE, 3_600);
    let client = drive.client(cap.clone());
    client.write(&mut drive, 0, &data).unwrap();

    let mut active = ActiveDrive::new(drive);
    let mut counter = FrequentItemsCounter::new(chunk);
    let report = active.execute(&cap, &mut counter).unwrap();
    (report.bytes_scanned, report.bytes_shipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_disks_match_pfs_bandwidth_with_less_hardware() {
        let rows = run();
        let pfs = &rows[0];
        let active = &rows[1];
        // "we achieve 45 MB/s": both configurations land in the 40s.
        assert!((40.0..55.0).contains(&pfs.scan_mb_s), "{}", pfs.scan_mb_s);
        assert!(
            (40.0..55.0).contains(&active.scan_mb_s),
            "{}",
            active.scan_mb_s
        );
        // "only 1/3 of the hardware" — roughly half the machines here
        // (the paper also dropped the ATM switch).
        assert!(active.machines * 3 <= pfs.machines * 2);
        // "low-bandwidth 10 Mb/s ethernet networking" suffices.
        assert!(active.network_mbits < 10.0);
        assert!(pfs.network_mbits > 100.0, "PFS needs a real network");
    }

    #[test]
    fn functional_on_drive_scan_ships_almost_nothing() {
        let (scanned, shipped) = demonstrate(2 << 20);
        assert_eq!(scanned, 2 << 20);
        assert!(shipped < 64 * 1024, "shipped {shipped} bytes");
    }
}
