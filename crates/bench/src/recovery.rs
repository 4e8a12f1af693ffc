//! The recovery figure: crash-recovery (log replay) time vs. log length.
//!
//! The on-disk layout acks every mutation once its intent record is in
//! the write-ahead log, and defers the expensive index/bitmap checkpoint.
//! The cost of that deferral is paid at `open`: the longer the log tail
//! since the last checkpoint, the more records recovery must verify and
//! replay. This experiment measures that curve — mount time against the
//! number of committed-but-uncheckpointed operations — which is the
//! number an operator uses to pick a checkpoint cadence (how much replay
//! work a crash is allowed to leave behind).
//!
//! Each row is one fresh durable store: format, run `records` small
//! writes (each logged and group-committed, none checkpointed), then
//! repeatedly reopen the media and time the full recovery path —
//! superblock load, bitmap cross-check, and log replay.

use nasd::disk::{MemDisk, SharedDisk};
use nasd::object::ObjectStore;
use nasd::proto::PartitionId;
use std::time::Instant;

const BS: usize = 512;
/// 32 MB device: large enough that the layout grants the WAL its full
/// 1024-block (512 KB) region, so the longest sweep point still fits
/// without forcing an early checkpoint.
const BLOCKS: u64 = 65_536;
const P: PartitionId = PartitionId(1);
/// Payload bytes per logged write.
const WRITE_BYTES: usize = 64;
/// Objects the writes cycle over.
const NOBJECTS: u64 = 8;
/// Timed reopen iterations per sweep point.
const ITERS: u32 = 5;

/// Log lengths swept, in committed operations since the checkpoint.
pub const RECORD_COUNTS: &[u64] = &[0, 64, 256, 1024, 2048];

/// One sweep point's measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Committed operations in the log at mount time.
    pub records: u64,
    /// Bytes of write-ahead log those operations occupy.
    pub wal_bytes: u64,
    /// Wall-clock milliseconds for one `open` (mean of `ITERS` runs).
    pub open_ms: f64,
    /// Replay cost per logged operation, in microseconds.
    pub us_per_record: f64,
    /// Objects visible after recovery (correctness anchor: the replayed
    /// state, not just the mount, is what's being timed).
    pub recovered_objects: u64,
}

/// Build a formatted durable store whose log holds exactly `records`
/// committed write operations, and return the media plus log bytes.
fn media_with_log(records: u64) -> (SharedDisk, u64) {
    let media = SharedDisk::new(MemDisk::new(BS, BLOCKS));
    let mut store = ObjectStore::new(media.clone(), 64);
    store.create_partition(P, 16 << 20).unwrap();
    let mut objects = Vec::new();
    for _ in 0..NOBJECTS {
        objects.push(store.create_object(P, 0, None, 0).unwrap());
    }
    // Everything up to here is checkpointed state: the swept log
    // contains only the `records` writes that follow.
    store.checkpoint().unwrap();
    store.enable_wal(true);
    let payload = [0x5a; WRITE_BYTES];
    for i in 0..records {
        let o = objects[(i % NOBJECTS) as usize];
        let offset = (i / NOBJECTS) * WRITE_BYTES as u64;
        store.write(P, o, offset, &payload, 0).unwrap();
        store.wal_commit().unwrap();
    }
    let wal_bytes = store.wal_durable_bytes();
    (media, wal_bytes)
}

/// Run the sweep.
#[must_use]
pub fn run() -> Vec<RecoveryRow> {
    RECORD_COUNTS
        .iter()
        .map(|&records| {
            let (media, wal_bytes) = media_with_log(records);
            let mut recovered_objects = 0u64;
            let t0 = Instant::now();
            for _ in 0..ITERS {
                let store = ObjectStore::open(media.clone(), 64).unwrap();
                recovered_objects = store.list_objects(P).unwrap().len() as u64;
            }
            let open_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
            RecoveryRow {
                records,
                wal_bytes,
                open_ms,
                us_per_record: if records == 0 {
                    0.0
                } else {
                    open_ms * 1e3 / records as f64
                },
                recovered_objects,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape claims: log bytes grow strictly with record count, the
    /// replayed state is intact at every sweep point, and recovery work
    /// actually scales with the log (the longest log costs more wall
    /// clock than the empty one — a weak bound, robust to noisy hosts).
    #[test]
    fn replay_cost_scales_with_log_length() {
        let rows = run();
        assert_eq!(rows.len(), RECORD_COUNTS.len());
        for pair in rows.windows(2) {
            assert!(pair[1].wal_bytes > pair[0].wal_bytes);
        }
        for row in &rows {
            assert_eq!(row.recovered_objects, NOBJECTS);
            assert!(row.open_ms > 0.0);
        }
        let empty = &rows[0];
        let longest = rows.last().unwrap();
        assert!(
            longest.open_ms > empty.open_ms,
            "replaying {} records ({} log bytes) should cost more than an empty log ({:.3} ms vs {:.3} ms)",
            longest.records,
            longest.wal_bytes,
            longest.open_ms,
            empty.open_ms,
        );
    }

    /// The committed log is consumed, not re-counted: after a reopen the
    /// replayed state must checkpoint and come back with an empty log.
    #[test]
    fn recovered_store_can_checkpoint_and_remount_clean() {
        let (media, wal_bytes) = media_with_log(64);
        assert!(wal_bytes > 0);
        let mut store = ObjectStore::open(media.clone(), 64).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let reopened = ObjectStore::open(media, 64).unwrap();
        assert_eq!(reopened.wal_durable_bytes(), 0);
        assert_eq!(reopened.list_objects(P).unwrap().len() as u64, NOBJECTS);
    }
}
