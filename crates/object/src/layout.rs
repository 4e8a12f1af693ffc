//! On-disk layout: geometry, superblock, and persisted allocation bitmap.
//!
//! The device is divided into fixed metadata regions at the head, all
//! positions derived from `(block_size, total_blocks)` alone so a
//! reopened device computes the same geometry it was formatted with (and
//! the superblock records it, so a mismatch is detected rather than
//! misread):
//!
//! ```text
//! blk 0        superblock, primary copy
//! blk 1        superblock, secondary copy
//! bitmap_start allocation bitmap  × 2 copies (even/odd checkpoint epoch)
//! log_start    write-ahead log (see crate::wal)
//! index_start  object index checkpoint × 2 copies (even/odd epoch)
//! data_start   object data blocks
//! ```
//!
//! Every metadata structure is checksummed with [`checksum64`]; the
//! bitmap and index are double-buffered by checkpoint-epoch parity so a
//! crash mid-checkpoint always leaves the previous epoch's copy intact —
//! the superblock write (last, to both copies) is the atomic commit
//! point that switches epochs.

use crate::store::StoreError;
use nasd_disk::BlockDevice;

/// Magic stamped at the head of both superblock copies ("NASDSBLK").
pub const SB_MAGIC: u64 = 0x4e41_5344_5342_4c4b;

/// On-disk layout version this code reads and writes. Version 3 added
/// the per-partition rotated working keys to the index checkpoint and
/// the `SetKey` record to the log.
pub const LAYOUT_VERSION: u32 = 3;

/// Per-bitmap-block trailer: epoch (8) + block index (8) + crc (8).
const BITMAP_TRAILER: usize = 24;

/// Encoded superblock size: magic + version + block_size + 10 u64 fields
/// + trailing checksum.
const SB_BYTES: usize = 8 + 4 + 4 + 8 * 10 + 8;

/// Checksum used by every on-disk metadata structure: FNV-1a over the
/// bytes, then a splitmix64 finalizer so single-bit flips avalanche
/// across the whole word. Not cryptographic — it detects torn writes and
/// media corruption, not adversaries (capability MACs handle those).
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Computed region geometry for one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Device block size in bytes.
    pub block_size: usize,
    /// Device capacity in blocks.
    pub total_blocks: u64,
    /// First block of the allocation-bitmap area (copy 0).
    pub bitmap_start: u64,
    /// Blocks per bitmap copy (two copies are laid out back to back).
    pub bitmap_blocks: u64,
    /// First block of the write-ahead log.
    pub log_start: u64,
    /// Blocks in the write-ahead log.
    pub log_blocks: u64,
    /// First block of the object-index area (copy 0).
    pub index_start: u64,
    /// Blocks per index copy (two copies are laid out back to back).
    pub index_blocks: u64,
    /// First data block. On a device too small to hold its own metadata
    /// this clamps to `total_blocks`: the store opens with zero data
    /// blocks and every allocation fails cleanly with `NoSpace` instead
    /// of metadata and data overlapping.
    pub data_start: u64,
}

impl Layout {
    /// Derive the geometry for a device of `total_blocks` blocks of
    /// `block_size` bytes.
    #[must_use]
    pub fn compute(block_size: usize, total_blocks: u64) -> Layout {
        let payload = block_size.saturating_sub(BITMAP_TRAILER).max(1) as u64;
        let bits_per_block = payload.saturating_mul(8);
        let bitmap_blocks = total_blocks.div_ceil(bits_per_block).max(1);
        let log_blocks = (total_blocks / 64).clamp(8, 1024);
        let index_blocks = (total_blocks / 64).max(8);
        let bitmap_start = 2u64;
        let log_start = bitmap_start + 2 * bitmap_blocks;
        let index_start = log_start + log_blocks;
        let full_meta = index_start + 2 * index_blocks;
        Layout {
            block_size,
            total_blocks,
            bitmap_start,
            bitmap_blocks,
            log_start,
            log_blocks,
            index_start,
            index_blocks,
            data_start: full_meta.min(total_blocks),
        }
    }

    /// Whether the device is large enough to hold the full metadata area
    /// (if not, the store works as a zero-capacity drive: open/format
    /// succeed, allocations fail with `NoSpace`).
    #[must_use]
    pub fn fits(&self) -> bool {
        let full = self.index_start + 2 * self.index_blocks;
        full <= self.total_blocks && full == self.data_start
    }

    /// Byte capacity of one index copy.
    #[must_use]
    pub(crate) fn index_bytes(&self) -> usize {
        // Saturation is safe here: the result only ever bounds payload
        // lengths from disk, and a saturated bound still rejects them.
        usize::try_from(self.index_blocks)
            .unwrap_or(usize::MAX)
            .saturating_mul(self.block_size)
    }

    /// First block of the bitmap copy for `epoch` (even epochs in copy
    /// 0, odd in copy 1).
    pub(crate) fn bitmap_copy_start(&self, epoch: u64) -> u64 {
        self.bitmap_start + (epoch % 2) * self.bitmap_blocks
    }

    /// First block of the index copy for `epoch`.
    pub(crate) fn index_copy_start(&self, epoch: u64) -> u64 {
        self.index_start + (epoch % 2) * self.index_blocks
    }
}

// ----- superblock -----------------------------------------------------

/// The versioned superblock: geometry plus the pointer to the current
/// metadata checkpoint. Two copies (blocks 0 and 1); readers fall back
/// to the secondary when the primary fails its checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Superblock {
    pub(crate) layout: Layout,
    /// Checkpoint epoch: bumped by one per checkpoint; parity selects
    /// the live bitmap/index copy; WAL records from other epochs are
    /// stale and ignored on replay.
    pub(crate) checkpoint_seq: u64,
    /// Byte length of the index-checkpoint payload.
    pub(crate) checkpoint_len: u64,
    /// [`checksum64`] of the index-checkpoint payload.
    pub(crate) checkpoint_crc: u64,
}

fn read_u64(buf: &[u8], at: usize) -> Result<u64, StoreError> {
    buf.get(at..at + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_be_bytes)
        .ok_or(StoreError::Corrupt("superblock shorter than its fields"))
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32, StoreError> {
    buf.get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_be_bytes)
        .ok_or(StoreError::Corrupt("superblock shorter than its fields"))
}

impl Superblock {
    /// Encode into one device block (zero-padded past [`SB_BYTES`]).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let l = &self.layout;
        let mut buf = Vec::with_capacity(l.block_size.max(SB_BYTES));
        buf.extend_from_slice(&SB_MAGIC.to_be_bytes());
        buf.extend_from_slice(&LAYOUT_VERSION.to_be_bytes());
        // nasd-lint: allow(cast, "encode direction: block sizes are small powers of two, far below u32::MAX")
        buf.extend_from_slice(&(l.block_size as u32).to_be_bytes());
        for field in [
            l.total_blocks,
            l.bitmap_start,
            l.bitmap_blocks,
            l.log_start,
            l.log_blocks,
            l.index_start,
            l.index_blocks,
            self.checkpoint_seq,
            self.checkpoint_len,
            self.checkpoint_crc,
        ] {
            buf.extend_from_slice(&field.to_be_bytes());
        }
        let crc = checksum64(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        buf.resize(l.block_size.max(SB_BYTES), 0);
        buf
    }

    /// Decode one superblock copy. `Ok(None)` means "no magic here"
    /// (never formatted); `Err(Corrupt)` means the magic is present but
    /// the copy fails its checksum or carries an unknown version.
    pub(crate) fn decode(buf: &[u8]) -> Result<Option<Superblock>, StoreError> {
        match read_u64(buf, 0) {
            Ok(m) if m == SB_MAGIC => {}
            _ => return Ok(None),
        }
        let body = buf
            .get(..SB_BYTES - 8)
            .ok_or(StoreError::Corrupt("superblock shorter than its fields"))?;
        let stored = read_u64(buf, SB_BYTES - 8)?;
        if checksum64(body) != stored {
            return Err(StoreError::Corrupt("superblock checksum mismatch"));
        }
        let version = read_u32(buf, 8)?;
        if version != LAYOUT_VERSION {
            return Err(StoreError::Corrupt("unknown layout version"));
        }
        let block_size = usize::try_from(read_u32(buf, 12)?)
            .map_err(|_| StoreError::Corrupt("superblock block size exceeds address space"))?;
        let mut fields = [0u64; 10];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = read_u64(buf, 16 + i * 8)?;
        }
        let [total_blocks, bitmap_start, bitmap_blocks, log_start, log_blocks, index_start, index_blocks, checkpoint_seq, checkpoint_len, checkpoint_crc] =
            fields;
        // Hostile field values must not wrap: a saturated `full` simply
        // clamps data_start to the device end (zero data capacity).
        let full = index_start.saturating_add(index_blocks.saturating_mul(2));
        Ok(Some(Superblock {
            layout: Layout {
                block_size,
                total_blocks,
                bitmap_start,
                bitmap_blocks,
                log_start,
                log_blocks,
                index_start,
                index_blocks,
                data_start: full.min(total_blocks),
            },
            checkpoint_seq,
            checkpoint_len,
            checkpoint_crc,
        }))
    }

    /// Write both superblock copies (primary then secondary).
    pub(crate) fn store<D: BlockDevice>(&self, device: &mut D) -> Result<(), StoreError> {
        let buf = self.encode();
        device.write_block(0, &buf)?;
        device.write_block(1, &buf)?;
        Ok(())
    }

    /// Load the superblock, preferring the primary copy and falling back
    /// to the secondary. The geometry must match what this code computes
    /// for the device.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] when neither copy carries the magic,
    /// or when only one carries a magic and it fails its checksum — that
    /// is a device whose *first* format was cut by a power failure (every
    /// completed checkpoint writes both copies), so no committed state
    /// ever existed. [`StoreError::Corrupt`] when both copies carry the
    /// magic but neither passes its checksum, or the geometry disagrees
    /// with the device.
    pub(crate) fn load<D: BlockDevice>(device: &D) -> Result<Superblock, StoreError> {
        let bs = device.block_size();
        let mut buf = vec![0u8; bs];
        let mut bad_magic = 0u32;
        let mut found: Option<Superblock> = None;
        for blk in [0u64, 1] {
            if device.read_block(blk, &mut buf).is_err() {
                continue;
            }
            match Superblock::decode(&buf) {
                Ok(Some(sb)) => {
                    found = Some(sb);
                    break;
                }
                Ok(None) => {}
                Err(_) => bad_magic += 1,
            }
        }
        let sb = match found {
            Some(sb) => sb,
            None if bad_magic >= 2 => {
                return Err(StoreError::Corrupt("both superblock copies unreadable"))
            }
            // Zero or one (torn, mid-first-format) magic: never committed.
            None => return Err(StoreError::NotFormatted),
        };
        let expect = Layout::compute(bs, device.num_blocks());
        if sb.layout != expect {
            return Err(StoreError::Corrupt("superblock geometry mismatch"));
        }
        Ok(sb)
    }
}

// ----- allocation bitmap ---------------------------------------------

/// Set bit `b` in a bit array.
pub(crate) fn bit_set(bits: &mut [u8], b: u64) {
    // try_from (not a narrowing cast): a block index past the address
    // space must fall outside the bitmap, not alias a smaller bit.
    if let Some(byte) = usize::try_from(b / 8).ok().and_then(|i| bits.get_mut(i)) {
        *byte |= 1u8 << (b % 8);
    }
}

/// Read bit `b` of a bit array.
#[cfg(test)]
#[must_use]
pub(crate) fn bit_get(bits: &[u8], b: u64) -> bool {
    bits.get((b / 8) as usize)
        .is_some_and(|byte| byte & (1u8 << (b % 8)) != 0)
}

/// Write the allocation bitmap for `epoch` into that epoch's copy. Each
/// block carries `(epoch, block index, crc)` in its trailer so a reader
/// can tell this epoch's bits from a stale or torn copy.
pub(crate) fn write_bitmap<D: BlockDevice>(
    device: &mut D,
    layout: &Layout,
    epoch: u64,
    bits: &[u8],
) -> Result<(), StoreError> {
    let bs = layout.block_size;
    let payload = bs.saturating_sub(BITMAP_TRAILER).max(1);
    let base = layout.bitmap_copy_start(epoch);
    let mut block = vec![0u8; bs];
    for i in 0..layout.bitmap_blocks {
        block.iter_mut().for_each(|b| *b = 0);
        let lo = usize::try_from(i)
            .ok()
            .and_then(|i| i.checked_mul(payload))
            .ok_or(StoreError::Internal("bitmap extent exceeds address space"))?;
        if lo < bits.len() {
            let hi = lo.saturating_add(payload).min(bits.len());
            let src = bits
                .get(lo..hi)
                .ok_or(StoreError::Internal("bitmap slice out of range"))?;
            block
                .get_mut(..src.len())
                .ok_or(StoreError::Internal("bitmap block shorter than payload"))?
                .copy_from_slice(src);
        }
        let mut crc_input = Vec::with_capacity(payload.saturating_add(16));
        crc_input.extend_from_slice(block.get(..payload).unwrap_or(&block));
        crc_input.extend_from_slice(&epoch.to_be_bytes());
        crc_input.extend_from_slice(&i.to_be_bytes());
        let crc = checksum64(&crc_input);
        let trailer = block
            .get_mut(payload..)
            .ok_or(StoreError::Internal("bitmap block shorter than trailer"))?;
        let fields: Vec<u8> = epoch
            .to_be_bytes()
            .into_iter()
            .chain(i.to_be_bytes())
            .chain(crc.to_be_bytes())
            .collect();
        trailer
            .get_mut(..fields.len())
            .ok_or(StoreError::Internal("bitmap trailer shorter than fields"))?
            .copy_from_slice(&fields);
        device.write_block(base + i, &block)?;
    }
    Ok(())
}

/// Read and verify the allocation bitmap of `epoch` from that epoch's
/// copy; every block must carry the expected epoch and index and pass
/// its checksum.
pub(crate) fn read_bitmap<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    epoch: u64,
) -> Result<Vec<u8>, StoreError> {
    let bs = layout.block_size;
    let payload = bs.saturating_sub(BITMAP_TRAILER).max(1);
    let base = layout.bitmap_copy_start(epoch);
    let nbytes = usize::try_from(layout.total_blocks.div_ceil(8))
        .map_err(|_| StoreError::Corrupt("bitmap larger than the address space"))?;
    let mut bits = Vec::with_capacity(nbytes);
    let mut block = vec![0u8; bs];
    for i in 0..layout.bitmap_blocks {
        device.read_block(base + i, &mut block)?;
        let got_epoch = read_u64(&block, payload)
            .map_err(|_| StoreError::Corrupt("bitmap block shorter than trailer"))?;
        let got_index = read_u64(&block, payload.saturating_add(8))
            .map_err(|_| StoreError::Corrupt("bitmap block shorter than trailer"))?;
        let got_crc = read_u64(&block, payload.saturating_add(16))
            .map_err(|_| StoreError::Corrupt("bitmap block shorter than trailer"))?;
        let mut crc_input = Vec::with_capacity(payload.saturating_add(16));
        crc_input.extend_from_slice(block.get(..payload).unwrap_or(&block));
        crc_input.extend_from_slice(&epoch.to_be_bytes());
        crc_input.extend_from_slice(&i.to_be_bytes());
        if got_epoch != epoch || got_index != i || checksum64(&crc_input) != got_crc {
            return Err(StoreError::Corrupt("bitmap block checksum mismatch"));
        }
        let take = payload.min(nbytes - bits.len());
        bits.extend_from_slice(block.get(..take).unwrap_or(&[]));
        if bits.len() >= nbytes {
            break;
        }
    }
    bits.resize(nbytes, 0);
    Ok(bits)
}

// ----- raw block regions ---------------------------------------------

/// Write `payload` into consecutive blocks starting at `start`, padding
/// the tail block with zeros.
pub(crate) fn write_region<D: BlockDevice>(
    device: &mut D,
    start: u64,
    capacity_blocks: u64,
    block_size: usize,
    payload: &[u8],
) -> Result<(), StoreError> {
    if payload.len() as u64 > capacity_blocks.saturating_mul(block_size as u64) {
        return Err(StoreError::NoSpace);
    }
    let mut block = vec![0u8; block_size];
    for (i, chunk) in payload.chunks(block_size).enumerate() {
        if chunk.len() == block_size {
            device.write_block(start + i as u64, chunk)?;
        } else {
            block.iter_mut().for_each(|b| *b = 0);
            block
                .get_mut(..chunk.len())
                .ok_or(StoreError::Internal("region chunk longer than block"))?
                .copy_from_slice(chunk);
            device.write_block(start + i as u64, &block)?;
        }
    }
    Ok(())
}

/// Read `len` bytes from consecutive blocks starting at `start`.
pub(crate) fn read_region<D: BlockDevice>(
    device: &D,
    start: u64,
    block_size: usize,
    len: usize,
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(len);
    let mut block = vec![0u8; block_size];
    let nblocks = (len as u64).div_ceil(block_size as u64);
    for i in 0..nblocks {
        device.read_block(start + i, &mut block)?;
        let take = block_size.min(len - out.len());
        out.extend_from_slice(block.get(..take).unwrap_or(&[]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_disk::MemDisk;

    #[test]
    fn checksum_avalanches_on_single_bit() {
        let a = checksum64(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 1;
        let b = checksum64(&flipped);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "poor avalanche: {:x}", a ^ b);
        assert_ne!(checksum64(b""), 0);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        for (bs, total) in [(512usize, 2048u64), (8192, 4096), (512, 1 << 20)] {
            let l = Layout::compute(bs, total);
            assert!(l.fits(), "{bs}x{total} should fit its metadata");
            assert_eq!(l.bitmap_start, 2);
            assert_eq!(l.log_start, l.bitmap_start + 2 * l.bitmap_blocks);
            assert_eq!(l.index_start, l.log_start + l.log_blocks);
            assert_eq!(l.data_start, l.index_start + 2 * l.index_blocks);
            assert!(l.data_start < l.total_blocks, "some data capacity remains");
            // Bitmap covers every device block.
            let bits = (bs - BITMAP_TRAILER) as u64 * 8;
            assert!(l.bitmap_blocks * bits >= total);
        }
    }

    #[test]
    fn tiny_device_clamps_instead_of_overlapping() {
        for total in [0u64, 1, 2, 10, 20] {
            let l = Layout::compute(512, total);
            assert!(l.data_start <= l.total_blocks);
            assert!(!l.fits(), "a {total}-block device cannot hold metadata");
        }
        // First size where a 512-byte-block device gains data capacity.
        let l = Layout::compute(512, 40);
        assert!(l.fits());
        assert!(l.data_start < 40);
    }

    #[test]
    fn superblock_roundtrip_and_fallback() {
        let layout = Layout::compute(512, 2048);
        let sb = Superblock {
            layout,
            checkpoint_seq: 7,
            checkpoint_len: 1234,
            checkpoint_crc: 0xdead_beef,
        };
        let mut d = MemDisk::new(512, 2048);
        sb.store(&mut d).unwrap();
        assert_eq!(Superblock::load(&d).unwrap(), sb);

        // Corrupt the primary: the secondary answers.
        let mut buf = vec![0u8; 512];
        d.read_block(0, &mut buf).unwrap();
        buf[20] ^= 0xff;
        d.write_block(0, &buf).unwrap();
        assert_eq!(Superblock::load(&d).unwrap(), sb);

        // Corrupt both: Corrupt, not NotFormatted.
        d.write_block(1, &buf).unwrap();
        assert!(matches!(Superblock::load(&d), Err(StoreError::Corrupt(_))));

        // Blank device: NotFormatted.
        let blank = MemDisk::new(512, 2048);
        assert!(matches!(
            Superblock::load(&blank),
            Err(StoreError::NotFormatted)
        ));
    }

    #[test]
    fn superblock_geometry_mismatch_is_corrupt() {
        let sb = Superblock {
            layout: Layout::compute(512, 1024),
            checkpoint_seq: 0,
            checkpoint_len: 0,
            checkpoint_crc: 0,
        };
        // Written to a *larger* device than the geometry describes.
        let mut d = MemDisk::new(512, 4096);
        sb.store(&mut d).unwrap();
        assert!(matches!(
            Superblock::load(&d),
            Err(StoreError::Corrupt("superblock geometry mismatch"))
        ));
    }

    #[test]
    fn bitmap_roundtrip_by_epoch_parity() {
        let layout = Layout::compute(512, 2048);
        let mut d = MemDisk::new(512, 2048);
        let nbytes = (layout.total_blocks.div_ceil(8)) as usize;
        let mut even = vec![0u8; nbytes];
        let mut odd = vec![0u8; nbytes];
        bit_set(&mut even, 100);
        bit_set(&mut odd, 200);
        write_bitmap(&mut d, &layout, 4, &even).unwrap();
        write_bitmap(&mut d, &layout, 5, &odd).unwrap();
        let got_even = read_bitmap(&d, &layout, 4).unwrap();
        let got_odd = read_bitmap(&d, &layout, 5).unwrap();
        assert!(bit_get(&got_even, 100) && !bit_get(&got_even, 200));
        assert!(bit_get(&got_odd, 200) && !bit_get(&got_odd, 100));
        // Asking for an epoch whose copy holds another epoch's bits fails.
        assert!(matches!(
            read_bitmap(&d, &layout, 6),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_bitmap_block_is_rejected() {
        let layout = Layout::compute(512, 2048);
        let mut d = MemDisk::new(512, 2048);
        let nbytes = (layout.total_blocks.div_ceil(8)) as usize;
        let bits = vec![0xaa; nbytes];
        write_bitmap(&mut d, &layout, 2, &bits).unwrap();
        let target = layout.bitmap_copy_start(2);
        let mut buf = vec![0u8; 512];
        d.read_block(target, &mut buf).unwrap();
        buf[5] ^= 0x10;
        d.write_block(target, &buf).unwrap();
        assert!(matches!(
            read_bitmap(&d, &layout, 2),
            Err(StoreError::Corrupt("bitmap block checksum mismatch"))
        ));
    }

    #[test]
    fn region_roundtrip_with_padding() {
        let mut d = MemDisk::new(512, 64);
        let payload: Vec<u8> = (0..1300u32).map(|i| (i % 251) as u8).collect();
        write_region(&mut d, 10, 4, 512, &payload).unwrap();
        assert_eq!(read_region(&d, 10, 512, 1300).unwrap(), payload);
        // Oversized payload refused up front.
        assert!(matches!(
            write_region(&mut d, 10, 2, 512, &payload),
            Err(StoreError::NoSpace)
        ));
    }
}
