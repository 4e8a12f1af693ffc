//! Backup/restore demo: the dedup lifecycle on a NASD drive fleet.
//!
//! ```sh
//! cargo run --release --example backup_restore
//! ```
//!
//! Walks the canonical archival story end to end: open a
//! content-addressed [`ChunkStore`] over four drives, take an initial
//! full backup of two archives (a content-defined stream and a
//! fixed-grid disk image), edit a few bytes and back up again — the
//! incremental dedups against the full because the rolling-hash
//! chunker's boundaries re-synchronize around each edit — then restore
//! with full verification, prune the old snapshot, garbage-collect its
//! chunks, and finally reopen the store cold from drive state alone
//! and restore again. No backup server anywhere: the client talks to
//! the drives through capabilities, which is the NASD thesis applied
//! to archival storage (DESIGN.md §14).

use nasd::dedup::{
    ArchiveSource, BackupClient, ChunkStore, ChunkerParams, PruneOptions, StoreConfig,
};
use nasd::fm::DriveFleet;
use nasd::object::DriveConfig;
use nasd::obs::Registry;
use nasd::proto::PartitionId;
use std::sync::Arc;

const STREAM_LEN: usize = 2 << 20;
const IMAGE_LEN: usize = 1 << 20;
const IMAGE_BLOCK: usize = 64 << 10;

/// Deterministic pseudo-random bytes — incompressible, so the numbers
/// below measure dedup, not compression luck.
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Backup to NASD objects ==\n");

    // Four in-process drives; the store spreads pack objects across
    // them by chunk digest.
    let fleet = Arc::new(DriveFleet::spawn_memory(
        4,
        DriveConfig::small(),
        PartitionId(1),
        64 << 20,
    )?);
    let registry = Registry::new();
    let config = StoreConfig {
        pack_target_bytes: 2 << 20,
        compress: true,
    };
    let store = ChunkStore::open(Arc::clone(&fleet), config, &registry)?;
    let client = BackupClient::with_params(
        &store,
        // Small-ish chunks so the demo data yields a real chunk count.
        ChunkerParams {
            min_size: 4 << 10,
            avg_size: 16 << 10,
            max_size: 64 << 10,
        },
    );

    // --- Day 0: the initial full. Everything is new. ---
    let stream = synth(STREAM_LEN, 0xBAC0);
    let image = synth(IMAGE_LEN, 0xD15C);
    let full = client.backup("host7/day0", &sources(&stream, &image))?;
    println!(
        "full backup:        {:>5} chunks, {:>5} stored, {:.2} MB written ({:.1}x dedup)",
        full.chunks_total,
        full.chunks_stored,
        full.bytes_stored as f64 / 1e6,
        full.dedup_ratio()
    );

    // --- Day 1: a handful of scattered edits, backed up again. ---
    // An incremental is literally the same call; unchanged chunks cost
    // an index lookup, not a write.
    let mut stream2 = stream.clone();
    let mut image2 = image.clone();
    for off in [4_096usize, 1 << 20, (2 << 20) - 7] {
        stream2[off] ^= 0xFF;
    }
    image2[IMAGE_LEN / 2] ^= 0xFF;
    fleet.advance_clock(86_400);
    let incr = client.backup("host7/day1", &sources(&stream2, &image2))?;
    println!(
        "incremental:        {:>5} chunks, {:>5} stored, {:.2} MB written ({:.1}x dedup)",
        incr.chunks_total,
        incr.chunks_stored,
        incr.bytes_stored as f64 / 1e6,
        incr.dedup_ratio()
    );
    assert!(incr.dedup_ratio() >= 10.0, "chunking failed to re-sync");

    // --- Restore day 1, fully verified. ---
    // Three independent checks happen under the hood: every frame's
    // payload checksum, every chunk's re-derived content digest, and
    // the whole-archive SHA-256 against the manifest stamp.
    let restored = client.restore("host7/day1")?;
    assert_eq!(restored[0].data, stream2);
    assert_eq!(restored[1].data, image2);
    println!(
        "restore:            {} archives, {:.2} MB, byte-identical",
        restored.len(),
        restored.iter().map(|a| a.data.len()).sum::<usize>() as f64 / 1e6
    );

    // --- Retention: drop day 0, then collect its orphaned chunks. ---
    let decision = client.prune(&PruneOptions {
        keep_last: 1,
        keep_daily: 0,
    })?;
    let before = store.stats().stored_bytes;
    let gc = store.gc()?;
    let after = store.stats().stored_bytes;
    println!(
        "prune+gc:           pruned {:?}; swept {} chunks, {:.2} -> {:.2} MB on media",
        decision.remove,
        gc.swept,
        before as f64 / 1e6,
        after as f64 / 1e6
    );

    // --- The acid test: reopen cold and restore from drive state. ---
    // Packs, the persisted index, and manifests are all ordinary NASD
    // objects; a fresh store discovers everything from the drives.
    drop(store);
    let reopened = ChunkStore::open(Arc::clone(&fleet), config, &Registry::new())?;
    let again = BackupClient::new(&reopened).restore("host7/day1")?;
    assert_eq!(again[0].data, stream2);
    assert_eq!(again[1].data, image2);
    println!("cold reopen:        day1 restores byte-identical from drive state alone");

    println!("\nevery byte verified; the pruned snapshot's space was reclaimed.");
    Ok(())
}
