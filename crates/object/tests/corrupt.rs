//! Property tests for metadata corruption detection.
//!
//! Every on-disk metadata structure carries a [`checksum64`]; these
//! properties prove the promise that matters at `open` time: a bit flip
//! anywhere in the superblock, allocation bitmap, or index checkpoint is
//! *detected* — `open` either recovers through a redundant copy (the
//! secondary superblock) or fails with a clean [`StoreError::Corrupt`],
//! never a panic and never silently serving damaged state.

use nasd_disk::{BlockDevice, MemDisk, SharedDisk};
use nasd_object::{checksum64, Layout, ObjectStore, StoreError};
use nasd_proto::{ObjectId, PartitionId};
use proptest::prelude::*;

const BS: usize = 512;
const BLOCKS: u64 = 2_048;
const P: PartitionId = PartitionId(1);

/// Encoded superblock length (must match `layout::SB_BYTES`): magic +
/// version + block_size + 10 u64 fields + trailing checksum. Flips are
/// confined to these bytes — the rest of the block is padding that no
/// checksum covers and no reader interprets.
const SB_BYTES: usize = 8 + 4 + 4 + 8 * 10 + 8;

/// Format a device with one partition and three objects of known
/// content, checkpointed exactly once (checkpoint epoch 1, so the *odd*
/// bitmap/index copies are live).
fn formatted_media() -> SharedDisk {
    let media = SharedDisk::new(MemDisk::new(BS, BLOCKS));
    let mut store = ObjectStore::new(media.clone(), 32);
    store.create_partition(P, 1 << 20).unwrap();
    for i in 0..3u8 {
        let o = store.create_object(P, 0, None, 0).unwrap();
        let fill = vec![0x40 + i; 700 + 300 * i as usize];
        store.write(P, o, 0, &fill, 0).unwrap();
    }
    store.checkpoint().unwrap();
    media
}

/// Digest of the full logical state, for "fallback preserved everything"
/// assertions.
fn state_digest(store: &mut ObjectStore<SharedDisk>) -> u64 {
    let mut h = 0u64;
    for o in store.list_objects(P).unwrap() {
        let len = store.get_attr(P, o, 0).unwrap().size;
        let data = store.read(P, o, 0, len, 0).unwrap().to_vec();
        h = checksum64(&data) ^ h.rotate_left(9) ^ o.0;
    }
    h
}

fn flip(media: &mut SharedDisk, block: u64, byte: usize, bit: u8) {
    let mut buf = vec![0u8; BS];
    media.read_block(block, &mut buf).unwrap();
    buf[byte] ^= 1 << bit;
    media.write_block(block, &buf).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A bit flip anywhere in the primary superblock is survived: `open`
    /// falls back to the secondary copy and every object reads back
    /// intact.
    #[test]
    fn flipped_primary_superblock_falls_back_to_secondary(
        byte in 0usize..SB_BYTES,
        bit in 0u8..8,
    ) {
        let pristine = formatted_media();
        let want = state_digest(&mut ObjectStore::open(pristine, 32).unwrap());

        let mut media = formatted_media();
        flip(&mut media, 0, byte, bit);
        let mut store = ObjectStore::open(media, 32).unwrap();
        prop_assert_eq!(state_digest(&mut store), want);
    }

    /// The same flip in the *secondary* is equally survivable — the
    /// primary answers and the damage is invisible.
    #[test]
    fn flipped_secondary_superblock_is_invisible(
        byte in 0usize..SB_BYTES,
        bit in 0u8..8,
    ) {
        let pristine = formatted_media();
        let want = state_digest(&mut ObjectStore::open(pristine, 32).unwrap());

        let mut media = formatted_media();
        flip(&mut media, 1, byte, bit);
        let mut store = ObjectStore::open(media, 32).unwrap();
        prop_assert_eq!(state_digest(&mut store), want);
    }

    /// Flipping a bit in the *body* of both superblock copies of a
    /// formatted device is unrecoverable — `open` reports a clean
    /// [`StoreError::Corrupt`] (never a panic, and never `NotFormatted`,
    /// which would invite a data-destroying reformat of a device that
    /// plainly held state). The magic field is excluded here: both
    /// magics present but both checksums broken is provably damage.
    #[test]
    fn flipped_both_superblocks_is_a_clean_corrupt_error(
        byte0 in 8usize..SB_BYTES,
        bit0 in 0u8..8,
        byte1 in 8usize..SB_BYTES,
        bit1 in 0u8..8,
    ) {
        let mut media = formatted_media();
        flip(&mut media, 0, byte0, bit0);
        flip(&mut media, 1, byte1, bit1);
        prop_assert!(matches!(
            ObjectStore::open(media, 32),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// When a flip lands in the 8-byte *magic* of one or both copies,
    /// the damaged copy is indistinguishable from a never-formatted
    /// block — the magic IS the format marker. `open` may then report
    /// `NotFormatted` (both magics gone, or one gone and the survivor's
    /// checksum broken: the same signature a crash during first format
    /// leaves). The contract that still holds, and that this property
    /// pins: a clean typed error, never a panic, never silent success
    /// off damaged copies.
    #[test]
    fn flipped_superblock_magic_is_a_clean_typed_error(
        byte0 in 0usize..8,
        bit0 in 0u8..8,
        byte1 in 0usize..SB_BYTES,
        bit1 in 0u8..8,
    ) {
        let mut media = formatted_media();
        flip(&mut media, 0, byte0, bit0);
        flip(&mut media, 1, byte1, bit1);
        prop_assert!(matches!(
            ObjectStore::open(media, 32),
            Err(StoreError::Corrupt(_) | StoreError::NotFormatted)
        ));
    }

    /// A bit flip anywhere in a live allocation-bitmap block — payload
    /// or trailer — is caught on `open` as a clean `Corrupt` error.
    #[test]
    fn flipped_bitmap_block_is_rejected_on_open(
        byte in 0usize..BS,
        bit in 0u8..8,
        pick in 0u64..1_000,
    ) {
        let mut media = formatted_media();
        // Checkpoint epoch is 1, so the odd (second) copy is live.
        let layout = Layout::compute(BS, BLOCKS);
        let live = layout.bitmap_start + layout.bitmap_blocks;
        flip(&mut media, live + pick % layout.bitmap_blocks, byte, bit);
        prop_assert!(matches!(
            ObjectStore::open(media, 32),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// A bit flip in the live index-checkpoint payload is caught on
    /// `open` as a clean `Corrupt` error. (The flip lands in the first
    /// 64 bytes, safely inside any non-empty checkpoint.)
    #[test]
    fn flipped_index_checkpoint_is_rejected_on_open(
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut media = formatted_media();
        let layout = Layout::compute(BS, BLOCKS);
        let live = layout.index_start + layout.index_blocks;
        flip(&mut media, live, byte, bit);
        prop_assert!(matches!(
            ObjectStore::open(media, 32),
            Err(StoreError::Corrupt(_))
        ));
    }
}

/// The stale bitmap/index copies (epoch 0, the even pair) are dead after
/// the epoch-1 checkpoint: damaging them changes nothing.
#[test]
fn flipping_the_stale_metadata_copies_is_harmless() {
    let pristine = formatted_media();
    let want = state_digest(&mut ObjectStore::open(pristine, 32).unwrap());

    let mut media = formatted_media();
    let layout = Layout::compute(BS, BLOCKS);
    for b in layout.bitmap_start..layout.bitmap_start + layout.bitmap_blocks {
        flip(&mut media, b, 17, 3);
    }
    flip(&mut media, layout.index_start, 5, 6);
    let mut store = ObjectStore::open(media, 32).unwrap();
    assert_eq!(state_digest(&mut store), want);
}

/// Objects created after the checkpoint live only in the WAL; a corrupt
/// live bitmap must still be detected even though replay would have
/// rebuilt past it — detection happens before replay, from the
/// checkpointed state alone.
#[test]
fn bitmap_damage_detected_even_with_wal_tail_pending() {
    let media = formatted_media();
    {
        let mut store = ObjectStore::open(media.clone(), 32).unwrap();
        store.enable_wal(true);
        let o = store.create_object(P, 0, None, 0).unwrap();
        store.write(P, o, 0, &[0x77; 300], 0).unwrap();
        store.wal_commit().unwrap();
        assert!(store.wal_durable_bytes() > 0);
    }
    let mut media = media;
    let layout = Layout::compute(BS, BLOCKS);
    flip(&mut media, layout.bitmap_start + layout.bitmap_blocks, 9, 1);
    assert!(matches!(
        ObjectStore::open(media, 32),
        Err(StoreError::Corrupt(_))
    ));
}

/// The layout-version-3 checksum (FNV-1a then a splitmix64 finalizer),
/// kept here only to forge a faithful v3 superblock.
fn v3_checksum64(bytes: &[u8]) -> u64 {
    let mut h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn device_image(media: &SharedDisk) -> Vec<u8> {
    let mut image = vec![0u8; BS * BLOCKS as usize];
    for (b, block) in image.chunks_exact_mut(BS).enumerate() {
        media.read_block(b as u64, block).unwrap();
    }
    image
}

/// Stamp `version` into both superblock copies of `media`, summed with
/// `sum`, then check the device is refused as `Corrupt` by the store and
/// by a durable drive — never `NotFormatted` (which invites a reformat)
/// — and that not one byte of it is rewritten.
fn refused_untouched(mut media: SharedDisk, version: u32, sum: fn(&[u8]) -> u64) {
    let mut sb = vec![0u8; BS];
    media.read_block(0, &mut sb).unwrap();
    assert_eq!(sb[8..12], nasd_object::layout::LAYOUT_VERSION.to_be_bytes());
    sb[8..12].copy_from_slice(&version.to_be_bytes());
    let crc = sum(&sb[..SB_BYTES - 8]);
    sb[SB_BYTES - 8..SB_BYTES].copy_from_slice(&crc.to_be_bytes());
    media.write_block(0, &sb).unwrap();
    media.write_block(1, &sb).unwrap();
    let before = device_image(&media);

    assert!(matches!(
        ObjectStore::open(media.clone(), 32),
        Err(StoreError::Corrupt(_))
    ));
    let drive = nasd_object::NasdDrive::builder(1)
        .config(nasd_object::DriveConfig::small().durable())
        .open(media.clone());
    assert!(matches!(drive, Err(StoreError::Corrupt(_))));
    assert!(
        device_image(&media) == before,
        "a refused device was written"
    );
}

/// A device formatted under layout version 3 — every checksum on it is
/// the old function's — is refused and left untouched. So is a
/// superblock that claims version 3 under the current checksum: the
/// version alone refuses it.
#[test]
fn layout_version_3_device_is_refused_and_left_untouched() {
    for sum in [v3_checksum64, checksum64] {
        refused_untouched(formatted_media(), 3, sum);
    }
}

/// A layout-v4 device carries the current checksum but logs payloads,
/// which replay could only apply by writing data blocks: it is refused
/// and left untouched, its log included.
#[test]
fn layout_version_4_device_is_refused_and_left_untouched() {
    let media = SharedDisk::new(MemDisk::new(BS, BLOCKS));
    let mut store = ObjectStore::new(media.clone(), 32);
    store.enable_wal(true);
    store.create_partition(P, 1 << 20).unwrap();
    store.wal_commit().unwrap();
    let o = store.create_object(P, 0, None, 0).unwrap();
    store.write(P, o, 0, &[0x5a; 3_000], 0).unwrap();
    store.wal_commit().unwrap();
    assert!(store.wal_durable_bytes() > 0, "the log holds records");
    drop(store);
    refused_untouched(media, 4, checksum64);
}

/// Sanity anchor for the digest helper: distinct formatted devices agree,
/// and the digest actually depends on object bytes.
#[test]
fn state_digest_tracks_content() {
    let a = formatted_media();
    let b = formatted_media();
    let da = state_digest(&mut ObjectStore::open(a, 32).unwrap());
    let db = state_digest(&mut ObjectStore::open(b, 32).unwrap());
    assert_eq!(da, db);

    let c = SharedDisk::new(MemDisk::new(BS, BLOCKS));
    let mut store = ObjectStore::new(c.clone(), 32);
    store.create_partition(P, 1 << 20).unwrap();
    let o = store.create_object(P, 0, None, 0).unwrap();
    assert_eq!(o, ObjectId(nasd_object::FIRST_DYNAMIC_OBJECT));
    store.write(P, o, 0, &[1, 2, 3], 0).unwrap();
    store.checkpoint().unwrap();
    let dc = state_digest(&mut ObjectStore::open(c, 32).unwrap());
    assert_ne!(da, dc);
}
