//! The rebuild figure: degraded foreground bandwidth vs. the nasd-mgmt
//! reconstruction throttle.
//!
//! §5 of the paper argues that Cheops keeps storage management out of
//! the data path; nasd-mgmt's online reconstruction is the stress case,
//! because a rebuild *is* data-path traffic on the surviving drives. The
//! experiment fails one column of a parity-striped object and measures
//! a foreground client's degraded read bandwidth while the rebuild runs
//! at different token-bucket rates — the knob an operator turns to
//! trade repair time (the window a second failure is fatal in) against
//! delivered bandwidth.
//!
//! Each row is one fresh fleet: write, crash a data drive, run
//! `rebuild_drive` on a thread of its own, and stream degraded reads
//! until the rebuild completes. The `no rebuild` row is the degraded
//! baseline with no reconstruction running.

use nasd::cheops::{CheopsClient, CheopsConnect, CheopsFile, CheopsManager, Redundancy};
use nasd::fm::DriveFleet;
use nasd::mgmt::NasdMgmt;
use nasd::net::Connector;
use nasd::object::DriveConfig;
use nasd::proto::{PartitionId, Rights};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stripe width (data columns) of the measured object.
pub const WIDTH: usize = 4;
/// Logical bytes written before the failure.
pub const DATA: u64 = 4 << 20;
const STRIPE_UNIT: u64 = 64 << 10;
const READ_CHUNK: u64 = 256 << 10;

/// The throttle settings swept, as `(label, rebuild_rate)`; `None` is
/// the no-rebuild baseline and rate `0` means unthrottled.
pub const SETTINGS: &[(&str, Option<u64>)] = &[
    ("no rebuild", None),
    ("unthrottled", Some(0)),
    ("8 MiB/s", Some(8 << 20)),
    ("2 MiB/s", Some(2 << 20)),
    ("1 MiB/s", Some(1 << 20)),
];

/// One throttle setting's measurement.
pub struct RebuildRow {
    /// Human label for the throttle setting.
    pub setting: &'static str,
    /// Rebuild token-bucket rate in bytes/s (0 = unthrottled; the
    /// baseline row also reports 0).
    pub rate: u64,
    /// Foreground degraded-read bandwidth during the rebuild window.
    pub foreground_mb_s: f64,
    /// Wall-clock seconds the reconstruction took (0 for the baseline).
    pub rebuild_secs: f64,
    /// Bytes the rebuild engine reconstructed onto the spare.
    pub rebuilt_bytes: u64,
}

/// Run the sweep: one fresh fleet, failure and rebuild per setting.
#[must_use]
pub fn run() -> Vec<RebuildRow> {
    SETTINGS
        .iter()
        .map(|&(setting, rate)| measure(setting, rate))
        .collect()
}

fn measure(setting: &'static str, rate: Option<u64>) -> RebuildRow {
    // WIDTH data drives + parity + hot spare.
    let fleet = Arc::new(
        DriveFleet::spawn_memory(WIDTH + 2, DriveConfig::small(), PartitionId(1), 24 << 20)
            .unwrap(),
    );
    let mgr = Arc::new(CheopsManager::new(Arc::clone(&fleet)));
    let (rpc, _mgr_handle) = mgr.serve();
    let client = Connector::new().cheops(1, rpc, Arc::clone(&fleet));
    let id = client
        .create(WIDTH, STRIPE_UNIT, Redundancy::Parity)
        .unwrap();
    let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
    let data: Vec<u8> = (0..DATA)
        .map(|i| (i.wrapping_mul(131) % 251) as u8)
        .collect();
    client.write(&file, 0, &data).unwrap();

    // Fail the drive under column 1: every foreground read of that
    // column is now a parity reconstruction, and stays one — the client
    // keeps its pre-failure capabilities for the whole window.
    let failed = fleet.endpoint(1).id();
    let spare = fleet.endpoint(WIDTH + 1).id();
    fleet.crash(1);

    let Some(rate) = rate else {
        let (mb_s, _) = stream_reads(&client, &file, &AtomicBool::new(true));
        return RebuildRow {
            setting,
            rate: 0,
            foreground_mb_s: mb_s,
            rebuild_secs: 0.0,
            rebuilt_bytes: 0,
        };
    };

    let mgmt = NasdMgmt::new(Arc::clone(&fleet), mgr, vec![spare], rate);
    let done = Arc::new(AtomicBool::new(false));
    let rebuilder = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let outcome = mgmt.rebuild_drive(failed);
            let secs = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (secs, outcome.unwrap().bytes)
        })
    };
    let (mb_s, _) = stream_reads(&client, &file, &done);
    let (rebuild_secs, rebuilt_bytes) = rebuilder.join().unwrap();
    RebuildRow {
        setting,
        rate,
        foreground_mb_s: mb_s,
        rebuild_secs,
        rebuilt_bytes,
    }
}

/// Stream sequential degraded reads until `done` flips (and at least
/// one full pass either way); returns (MB/s, bytes read).
fn stream_reads(client: &CheopsClient, file: &CheopsFile, done: &AtomicBool) -> (f64, u64) {
    let t0 = Instant::now();
    let mut bytes = 0u64;
    let mut offset = 0u64;
    loop {
        bytes += client.read(file, offset, READ_CHUNK).unwrap().len() as u64;
        offset = (offset + READ_CHUNK) % DATA;
        if done.load(Ordering::SeqCst) && bytes >= DATA {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (bytes as f64 / 1e6 / secs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_trades_rebuild_time_for_bandwidth() {
        let rows = run();
        assert_eq!(rows.len(), SETTINGS.len());
        for row in &rows {
            assert!(
                row.foreground_mb_s > 0.0,
                "{}: no foreground progress",
                row.setting
            );
        }
        // Every rebuild moved the same column regardless of throttle.
        let rebuilt: Vec<u64> = rows.iter().skip(1).map(|r| r.rebuilt_bytes).collect();
        assert!(
            rebuilt.iter().all(|b| *b == rebuilt[0] && *b > 0),
            "{rebuilt:?}"
        );
        // A tighter token bucket means a longer repair window: the
        // 1 MiB/s rebuild of a ~1 MiB column takes on the order of a
        // second, the unthrottled one must be far faster.
        let unthrottled = rows[1].rebuild_secs;
        let tightest = rows.last().unwrap().rebuild_secs;
        assert!(
            tightest > unthrottled,
            "throttle had no effect: {unthrottled}s vs {tightest}s"
        );
        assert!(
            tightest > 0.5,
            "1 MiB/s rebuild finished too fast: {tightest}s"
        );
    }
}
