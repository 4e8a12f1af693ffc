//! End-to-end backup/restore/GC against real in-process drive fleets.

use nasd_dedup::{
    ArchiveSource, BackupClient, ChunkStore, ChunkerParams, DedupError, PruneOptions, StoreConfig,
};
use nasd_fm::{DriveFleet, FileHandle};
use nasd_object::DriveConfig;
use nasd_obs::Registry;
use nasd_proto::PartitionId;
use std::sync::Arc;

const P1: PartitionId = PartitionId(1);

fn small_store_config() -> StoreConfig {
    StoreConfig {
        pack_target_bytes: 64 << 10,
        compress: true,
    }
}

fn spawn(n: usize) -> Arc<DriveFleet> {
    Arc::new(DriveFleet::spawn_memory(n, DriveConfig::small(), P1, 64 << 20).unwrap())
}

fn spawn_durable(n: usize) -> Arc<DriveFleet> {
    Arc::new(DriveFleet::spawn_memory(n, DriveConfig::small().durable(), P1, 64 << 20).unwrap())
}

/// Deterministic pseudo-random bytes.
fn data(len: usize, seed: u64) -> Vec<u8> {
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

#[test]
fn backup_and_byte_identical_restore() {
    let fleet = spawn(3);
    let registry = Registry::new();
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    let client = BackupClient::with_params(&store, ChunkerParams::small());

    let stream = data(300_000, 7);
    let image = data(128 << 10, 9);
    let stats = client
        .backup(
            "host/1",
            &[
                ArchiveSource::stream("root.pxar", stream.clone()),
                ArchiveSource::image("disk.img", image.clone(), 4096),
            ],
        )
        .unwrap();
    assert_eq!(stats.archives, 2);
    assert_eq!(stats.bytes_total, (stream.len() + image.len()) as u64);
    assert!(stats.chunks_stored > 0);

    let restored = client.restore("host/1").unwrap();
    assert_eq!(restored.len(), 2);
    assert_eq!(
        restored[0].data, stream,
        "stream archive not byte-identical"
    );
    assert_eq!(restored[1].data, image, "image archive not byte-identical");

    // Single-archive restore too.
    let one = client.restore_archive("host/1", "disk.img").unwrap();
    assert_eq!(one.data, image);
}

#[test]
fn incremental_rebackup_dedups_massively() {
    let fleet = spawn(2);
    let registry = Registry::new();
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    let client = BackupClient::with_params(&store, ChunkerParams::small());

    let mut content = data(400_000, 21);
    let full = client
        .backup("host/full", &[ArchiveSource::stream("a", content.clone())])
        .unwrap();
    assert!(full.dedup_ratio() < 2.0, "fresh data should not dedup much");

    // Simulate a day of small edits: flip a few bytes in place.
    for i in [1_000usize, 200_000, 399_000] {
        if let Some(b) = content.get_mut(i) {
            *b ^= 0xFF;
        }
    }
    let incr = client
        .backup("host/incr", &[ArchiveSource::stream("a", content.clone())])
        .unwrap();
    assert!(
        incr.dedup_ratio() >= 10.0,
        "incremental ratio {} under 10x",
        incr.dedup_ratio()
    );

    // Insertion near the front must not re-store the whole stream:
    // content-defined boundaries re-synchronize.
    let mut shifted = Vec::with_capacity(content.len() + 13);
    shifted.extend_from_slice(&data(13, 5));
    shifted.extend_from_slice(&content);
    let shift = client
        .backup("host/shift", &[ArchiveSource::stream("a", shifted.clone())])
        .unwrap();
    assert!(
        shift.dedup_ratio() >= 10.0,
        "shifted ratio {} under 10x",
        shift.dedup_ratio()
    );

    for (snap, want) in [
        ("host/full", None),
        ("host/incr", Some(&content)),
        ("host/shift", Some(&shifted)),
    ] {
        let r = client.restore(snap).unwrap();
        if let Some(want) = want {
            assert_eq!(&r[0].data, want, "{snap} restore mismatch");
        }
    }
}

#[test]
fn duplicate_snapshot_name_rejected() {
    let fleet = spawn(1);
    let registry = Registry::new();
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    let client = BackupClient::with_params(&store, ChunkerParams::small());
    client
        .backup("dup", &[ArchiveSource::stream("a", data(10_000, 1))])
        .unwrap();
    let err = client
        .backup("dup", &[ArchiveSource::stream("a", data(10_000, 2))])
        .unwrap_err();
    assert!(matches!(err, DedupError::SnapshotExists(_)));
}

#[test]
fn prune_then_gc_reclaims_unreferenced_chunks() {
    let fleet = spawn(2);
    let registry = Registry::new();
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    let client = BackupClient::with_params(&store, ChunkerParams::small());

    // Three snapshots with disjoint content, a day apart.
    for (i, name) in ["day1", "day2", "day3"].iter().enumerate() {
        client
            .backup(
                name,
                &[ArchiveSource::stream("a", data(150_000, 100 + i as u64))],
            )
            .unwrap();
        fleet.advance_clock(86_400);
    }
    let before = store.stats();
    assert_eq!(before.snapshots, 3);

    // Keep only the newest snapshot.
    let decision = client
        .prune(&PruneOptions {
            keep_last: 1,
            keep_daily: 0,
        })
        .unwrap();
    assert_eq!(decision.keep, vec!["day3"]);
    assert_eq!(decision.remove.len(), 2);

    let report = store.gc().unwrap();
    assert!(report.swept > 0, "gc swept nothing");
    assert!(report.reclaimed_bytes > 0);
    let after = store.stats();
    assert!(after.chunks < before.chunks);

    // The kept snapshot must still restore byte-identically.
    let r = client.restore("day3").unwrap();
    assert_eq!(r[0].data, data(150_000, 102));

    // GC is idempotent: a second pass finds nothing more to sweep.
    let again = store.gc().unwrap();
    assert_eq!(again.swept, 0);
    assert_eq!(again.reclaimed_bytes, 0);
}

#[test]
fn reopen_after_clean_shutdown_restores() {
    let fleet = spawn_durable(2);
    let registry = Registry::new();
    let content = data(200_000, 33);
    {
        let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
        let client = BackupClient::with_params(&store, ChunkerParams::small());
        client
            .backup("s", &[ArchiveSource::stream("a", content.clone())])
            .unwrap();
    }
    // A fresh store instance must discover everything from the drives.
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    assert_eq!(store.snapshots(), vec!["s".to_owned()]);
    let client = BackupClient::with_params(&store, ChunkerParams::small());
    let r = client.restore("s").unwrap();
    assert_eq!(r[0].data, content);
}

#[test]
fn reopen_after_drive_crash_rescans_unflushed_chunks() {
    let fleet = spawn_durable(2);
    let registry = Registry::new();
    let content = data(180_000, 55);
    {
        let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
        let client = BackupClient::with_params(&store, ChunkerParams::small());
        client
            .backup("s1", &[ArchiveSource::stream("a", content.clone())])
            .unwrap();
        // Insert more chunks WITHOUT a flush: these exist only as pack
        // frames past the persisted index's coverage.
        let mut session = store.pin_session();
        for i in 0..20u64 {
            store.insert(&mut session, &data(4_000, 900 + i)).unwrap();
        }
    }
    // Power-cut every drive, then bring the fleet back.
    for i in 0..fleet.len() {
        fleet.crash(i);
    }
    for i in 0..fleet.len() {
        fleet.restart(i).unwrap();
    }
    let store = ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap();
    // The snapshot restores (its chunks were flushed with the index).
    let client = BackupClient::with_params(&store, ChunkerParams::small());
    let r = client.restore("s1").unwrap();
    assert_eq!(r[0].data, content);
    // The unflushed chunks were re-adopted by the pack rescan: inserting
    // the same data again dedups instead of storing.
    let mut session = store.pin_session();
    for i in 0..20u64 {
        let (_, outcome) = store.insert(&mut session, &data(4_000, 900 + i)).unwrap();
        assert_eq!(
            outcome,
            nasd_dedup::InsertOutcome::Deduped,
            "chunk {i} was lost by the crash"
        );
    }
}

#[test]
fn reopen_after_gc_reap_without_flush_purges_stale_entries() {
    let fleet = spawn_durable(1);
    let registry = Registry::new();
    let config = StoreConfig {
        pack_target_bytes: 8 << 10, // tiny packs => several reapable packs
        ..small_store_config()
    };
    let mut digests = Vec::new();
    {
        let store = ChunkStore::open(Arc::clone(&fleet), config, &registry).unwrap();
        let mut session = store.pin_session();
        for i in 0..30u64 {
            let (d, _) = store.insert(&mut session, &data(4_000, 700 + i)).unwrap();
            digests.push(d);
        }
        // The persisted index now lists every pack and chunk.
        store.flush().unwrap();
        drop(session);
        // Nothing references the chunks any more: GC sweeps them all
        // and reaps the closed packs — and the process "stops" before
        // any further flush, so the newest persisted index still names
        // the reaped packs.
        let report = store.gc().unwrap();
        assert!(
            report.packs_removed > 0,
            "test needs at least one reaped pack: {report:?}"
        );
    }
    for i in 0..fleet.len() {
        fleet.crash(i);
    }
    for i in 0..fleet.len() {
        fleet.restart(i).unwrap();
    }
    // Reopen must treat the index's reaped packs as gone (dropping
    // their entries), not abort on NoSuchObject.
    let store = ChunkStore::open(Arc::clone(&fleet), config, &registry).unwrap();
    // Whatever the reopened index still claims to hold must actually be
    // readable — a stale entry naming a reaped pack would dedup new
    // backups against unreadable bytes.
    for (i, d) in digests.iter().enumerate() {
        if store.contains(d) {
            let chunk = store.read_chunk(d).unwrap();
            assert_eq!(chunk, data(4_000, 700 + i as u64), "chunk {i} unreadable");
        }
    }
    // And the store keeps working end to end: everything can be
    // re-inserted and persisted again.
    let mut session = store.pin_session();
    for i in 0..30u64 {
        store.insert(&mut session, &data(4_000, 700 + i)).unwrap();
    }
    store.flush().unwrap();
}

#[test]
fn gc_concurrent_with_backup_loses_nothing() {
    let fleet = spawn(2);
    let registry = Registry::new();
    let store =
        Arc::new(ChunkStore::open(Arc::clone(&fleet), small_store_config(), &registry).unwrap());

    // Seed a snapshot whose chunks must survive every GC.
    let keeper = data(120_000, 77);
    BackupClient::with_params(&store, ChunkerParams::small())
        .backup("keeper", &[ArchiveSource::stream("a", keeper.clone())])
        .unwrap();

    // One thread backs up fresh snapshots while another runs GC in a
    // tight loop. Pins must keep every in-flight chunk alive.
    let gc_store = Arc::clone(&store);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gc_stop = Arc::clone(&stop);
    let gc_thread = std::thread::spawn(move || {
        let mut runs = 0u32;
        while !gc_stop.load(std::sync::atomic::Ordering::Relaxed) {
            gc_store.gc().unwrap();
            runs += 1;
        }
        runs
    });

    let client = BackupClient::with_params(&store, ChunkerParams::small());
    let mut contents = Vec::new();
    for i in 0..6u64 {
        let content = data(90_000, 1_000 + i);
        client
            .backup(
                &format!("live/{i}"),
                &[ArchiveSource::stream("a", content.clone())],
            )
            .unwrap();
        contents.push(content);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let gc_runs = gc_thread.join().unwrap();
    assert!(gc_runs > 0, "GC thread never ran");

    // Every snapshot restores byte-identically after the storm.
    let r = client.restore("keeper").unwrap();
    assert_eq!(r[0].data, keeper);
    for (i, content) in contents.iter().enumerate() {
        let r = client.restore(&format!("live/{i}")).unwrap();
        assert_eq!(&r[0].data, content, "snapshot live/{i} corrupted");
    }
}

#[test]
fn compaction_moves_survivors_and_removes_packs() {
    let fleet = spawn(1);
    let registry = Registry::new();
    let config = StoreConfig {
        pack_target_bytes: 8 << 10, // tiny packs => many closed packs
        ..small_store_config()
    };
    let store = ChunkStore::open(Arc::clone(&fleet), config, &registry).unwrap();
    let client = BackupClient::with_params(&store, ChunkerParams::small());

    client
        .backup("a", &[ArchiveSource::stream("x", data(120_000, 3))])
        .unwrap();
    client
        .backup("b", &[ArchiveSource::stream("x", data(120_000, 4))])
        .unwrap();
    let packs_before = store.stats().packs;
    assert!(packs_before > 2, "need several packs for this test");

    // Remove one snapshot: roughly half of every pack dies.
    client
        .prune(&PruneOptions {
            keep_last: 1,
            keep_daily: 0,
        })
        .unwrap();
    let report = store.gc().unwrap();
    assert!(report.swept > 0);
    assert!(
        report.moved > 0 || report.packs_removed > 0,
        "gc reclaimed no physical space: {report:?}"
    );

    // Survivor restores fine after its chunks moved.
    let r = client.restore("b").unwrap();
    assert_eq!(r[0].data, data(120_000, 4));
}

#[test]
fn chunks_read_back_after_every_store_object_is_revoked() {
    let fleet = spawn(2);
    let store =
        ChunkStore::open(Arc::clone(&fleet), small_store_config(), &Registry::new()).unwrap();
    let mut session = store.pin_session();
    let chunk = data(10_000, 11);
    let (digest, _) = store.insert(&mut session, &chunk).unwrap();
    store.flush().unwrap();

    // Any manager over the fleet may revoke: the store mints at the
    // version the fleet tracks, so its capabilities follow.
    for ep in fleet.endpoints() {
        for object in fleet.list(ep).unwrap() {
            let partition = fleet.partition();
            let drive = ep.id();
            fleet
                .revoke(FileHandle {
                    drive,
                    partition,
                    object,
                })
                .unwrap();
        }
    }
    assert_eq!(store.read_chunk(&digest).unwrap(), chunk);
    let reopened =
        ChunkStore::open(Arc::clone(&fleet), small_store_config(), &Registry::new()).unwrap();
    assert_eq!(reopened.read_chunk(&digest).unwrap(), chunk);
}

#[test]
fn the_default_config_stores_in_the_fleets_partition() {
    let fleet = Arc::new(
        DriveFleet::spawn_memory(2, DriveConfig::small(), PartitionId(2), 64 << 20).unwrap(),
    );
    let store =
        ChunkStore::open(Arc::clone(&fleet), StoreConfig::default(), &Registry::new()).unwrap();
    let mut session = store.pin_session();
    let chunk = data(10_000, 12);
    let (digest, _) = store.insert(&mut session, &chunk).unwrap();
    assert_eq!(store.read_chunk(&digest).unwrap(), chunk);
}
