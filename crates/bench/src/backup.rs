//! The backup/archival workload: content-addressed dedup on NASD objects.
//!
//! The NASD thesis applied to archival storage: the backup client chunks
//! its data and talks straight to the drives through the chunk store —
//! no backup server in the data path. The experiment runs the canonical
//! backup lifecycle against one in-process fleet and reports a row per
//! phase:
//!
//! 1. **initial-full** — fresh synthetic data (a content-defined stream
//!    archive plus a fixed-grid disk image); everything is new, so the
//!    dedup ratio is ~1.
//! 2. **incremental** — the same data with a handful of scattered byte
//!    edits, backed up again. Unchanged chunks dedup against the first
//!    snapshot; the ratio is the headline number (≥10× is the bound
//!    CI watches).
//! 3. **restore** — the incremental snapshot read back and verified
//!    byte-identical through the checksum stream layer.
//! 4. **prune+gc** — the full snapshot pruned and the garbage collector
//!    run; the row records physical bytes before and after, i.e. how
//!    much the sweep actually reclaimed.

use nasd::dedup::{
    ArchiveSource, BackupClient, ChunkStore, ChunkerParams, PruneOptions, StoreConfig,
};
use nasd::fm::DriveFleet;
use nasd::object::DriveConfig;
use nasd::obs::Registry;
use nasd::proto::PartitionId;
use std::sync::Arc;
use std::time::Instant;

/// Logical bytes per backup (stream archive + disk image).
pub const DATA: u64 = (STREAM_LEN + IMAGE_LEN) as u64;
/// Drives in the fleet.
pub const NDRIVES: usize = 4;

const STREAM_LEN: usize = 6 << 20;
const IMAGE_LEN: usize = 2 << 20;
const IMAGE_BLOCK: usize = 64 << 10;
/// Scattered single-byte edits between the full and the incremental.
const EDITS: &[usize] = &[
    4_096,
    1 << 20,
    3 << 20,
    5 << 20,
    (6 << 20) + 100_000,
    (8 << 20) - 4_096,
];

/// One lifecycle phase's measurement.
pub struct BackupRow {
    /// Phase label: `initial-full`, `incremental`, `restore`, `prune+gc`.
    pub phase: &'static str,
    /// Bytes the phase processed: logical bytes backed up or restored;
    /// for `prune+gc`, physical stored bytes *before* the sweep.
    pub logical_bytes: u64,
    /// Bytes physically new: logical bytes whose chunk was stored (backup
    /// phases), 0 for restore, physical bytes *remaining* after `prune+gc`.
    pub stored_bytes: u64,
    /// Chunks the phase touched (backup: chunked; restore: read; gc:
    /// indexed before the sweep).
    pub chunks: u64,
    /// Chunks newly stored (backup), or remaining after the sweep (gc).
    pub chunks_stored: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Throughput over `logical_bytes` (0 for `prune+gc`).
    pub mb_s: f64,
    /// Logical/stored dedup ratio for backup phases, 0 where not
    /// meaningful.
    pub dedup_ratio: f64,
}

/// Deterministic pseudo-random bytes (incompressible, so the initial
/// full measures real storage, not RLE luck).
fn synth(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

fn sources(stream: &[u8], image: &[u8]) -> Vec<ArchiveSource> {
    vec![
        ArchiveSource::stream("root.pxar", stream.to_vec()),
        ArchiveSource::image("disk.img", image.to_vec(), IMAGE_BLOCK),
    ]
}

fn mb_s(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

/// Run the four-phase lifecycle on a fresh fleet.
#[must_use]
pub fn run() -> Vec<BackupRow> {
    let fleet = Arc::new(
        DriveFleet::spawn_memory(NDRIVES, DriveConfig::small(), PartitionId(1), 256 << 20).unwrap(),
    );
    let registry = Registry::new();
    let config = StoreConfig {
        pack_target_bytes: 4 << 20,
        compress: true,
    };
    let store = ChunkStore::open(Arc::clone(&fleet), config, &registry).unwrap();
    let params = ChunkerParams {
        min_size: 4 << 10,
        avg_size: 16 << 10,
        max_size: 64 << 10,
    };
    let client = BackupClient::with_params(&store, params);

    let stream = synth(STREAM_LEN, 0xBAC0);
    let image = synth(IMAGE_LEN, 0xD15C);
    let mut rows = Vec::with_capacity(4);

    // Phase 1: initial full.
    let t = Instant::now();
    let full = client.backup("daily/0", &sources(&stream, &image)).unwrap();
    let secs = t.elapsed().as_secs_f64();
    rows.push(BackupRow {
        phase: "initial-full",
        logical_bytes: full.bytes_total,
        stored_bytes: full.bytes_stored,
        chunks: full.chunks_total as u64,
        chunks_stored: full.chunks_stored as u64,
        secs,
        mb_s: mb_s(full.bytes_total, secs),
        dedup_ratio: full.dedup_ratio(),
    });

    // Phase 2: a day of edits, backed up incrementally. Edits land in
    // both archives (offsets past STREAM_LEN hit the image).
    let mut stream2 = stream.clone();
    let mut image2 = image.clone();
    for &off in EDITS {
        let (buf, at) = if off < STREAM_LEN {
            (&mut stream2, off)
        } else {
            (&mut image2, off - STREAM_LEN)
        };
        if let Some(b) = buf.get_mut(at) {
            *b ^= 0xFF;
        }
    }
    fleet.advance_clock(86_400);
    let t = Instant::now();
    let incr = client
        .backup("daily/1", &sources(&stream2, &image2))
        .unwrap();
    let secs = t.elapsed().as_secs_f64();
    rows.push(BackupRow {
        phase: "incremental",
        logical_bytes: incr.bytes_total,
        stored_bytes: incr.bytes_stored,
        chunks: incr.chunks_total as u64,
        chunks_stored: incr.chunks_stored as u64,
        secs,
        mb_s: mb_s(incr.bytes_total, secs),
        dedup_ratio: incr.dedup_ratio(),
    });

    // Phase 3: restore the incremental, verified byte-identical.
    let t = Instant::now();
    let restored = client.restore("daily/1").unwrap();
    let secs = t.elapsed().as_secs_f64();
    let restored_bytes: u64 = restored.iter().map(|a| a.data.len() as u64).sum();
    assert_eq!(restored[0].data, stream2, "restore not byte-identical");
    assert_eq!(restored[1].data, image2, "restore not byte-identical");
    rows.push(BackupRow {
        phase: "restore",
        logical_bytes: restored_bytes,
        stored_bytes: 0,
        chunks: incr.chunks_total as u64,
        chunks_stored: 0,
        secs,
        mb_s: mb_s(restored_bytes, secs),
        dedup_ratio: 0.0,
    });

    // Phase 4: prune the old full, sweep its now-unreferenced chunks.
    let before = store.stats();
    let t = Instant::now();
    client
        .prune(&PruneOptions {
            keep_last: 1,
            keep_daily: 0,
        })
        .unwrap();
    store.gc().unwrap();
    let secs = t.elapsed().as_secs_f64();
    let after = store.stats();
    rows.push(BackupRow {
        phase: "prune+gc",
        logical_bytes: before.stored_bytes,
        stored_bytes: after.stored_bytes,
        chunks: before.chunks,
        chunks_stored: after.chunks,
        secs,
        mb_s: 0.0,
        dedup_ratio: 0.0,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 4);
        let full = &rows[0];
        assert!(
            full.dedup_ratio < 2.0,
            "fresh data dedup ratio {}",
            full.dedup_ratio
        );
        let incr = &rows[1];
        assert!(
            incr.dedup_ratio >= 10.0,
            "incremental dedup ratio {} under the 10x bound",
            incr.dedup_ratio
        );
        let restore = &rows[2];
        assert_eq!(restore.logical_bytes, DATA);
        let gc = &rows[3];
        assert!(
            gc.stored_bytes < gc.logical_bytes,
            "gc reclaimed nothing: {} -> {}",
            gc.logical_bytes,
            gc.stored_bytes
        );
    }
}
