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
/// the `SetKey` record to the log; version 4 changed [`checksum64`], and
/// with it every checksum on the device. Version 5 logs block maps
/// instead of payloads (a write's record names the blocks it rewrote,
/// and a record that allocates names its blocks) and drops the
/// reference counts from the index checkpoint, which `open` derives from
/// the extent maps. Nothing older can be read: a v4 log's payload-carrying
/// records cannot be replayed without writing data blocks.
pub const LAYOUT_VERSION: u32 = 5;

/// Per-bitmap-block trailer: epoch (8) + block index (8) + crc (8).
const BITMAP_TRAILER: usize = 24;

/// Encoded superblock size: magic + version + block_size + 10 u64 fields
/// + trailing checksum.
const SB_BYTES: usize = 8 + 4 + 4 + 8 * 10 + 8;

const PRIME1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME5: u64 = 0x27d4_eb2f_1656_67c5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

/// Streaming form of [`checksum64`], for structures whose summed fields
/// are not contiguous in memory: any split of the input across
/// [`update`](Checksum64::update) calls yields the one-shot value.
struct Checksum64 {
    lanes: [u64; 4],
    /// Bytes seen that do not yet fill a 32-byte stripe.
    stash: [u8; 32],
    stashed: usize,
    total: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64 {
            lanes: [
                PRIME1.wrapping_add(PRIME2),
                PRIME2,
                0,
                PRIME1.wrapping_neg(),
            ],
            stash: [0; 32],
            stashed: 0,
            total: 0,
        }
    }
}

impl Checksum64 {
    /// Mix one 32-byte stripe: four independent multiply-rotate lanes,
    /// so the four dependency chains overlap in the pipeline.
    fn stripe(lanes: &mut [u64; 4], stripe: &[u8; 32]) {
        let (words, _) = stripe.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = round(*lane, u64::from_le_bytes(*word));
        }
    }

    /// Feed the next bytes of the input.
    fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.stashed > 0 {
            let room = self.stash.get_mut(self.stashed..).unwrap_or_default();
            let (head, rest) = bytes.split_at(room.len().min(bytes.len()));
            for (dst, src) in room.iter_mut().zip(head) {
                *dst = *src;
            }
            self.stashed += head.len();
            bytes = rest;
            if self.stashed < self.stash.len() {
                return;
            }
            Self::stripe(&mut self.lanes, &self.stash);
        }
        let (stripes, tail) = bytes.as_chunks::<32>();
        for stripe in stripes {
            Self::stripe(&mut self.lanes, stripe);
        }
        for (dst, src) in self.stash.iter_mut().zip(tail) {
            *dst = *src;
        }
        self.stashed = tail.len();
    }

    /// The checksum of everything fed so far.
    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= 32 {
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                h = (h ^ round(0, lane))
                    .wrapping_mul(PRIME1)
                    .wrapping_add(PRIME4);
            }
            h
        } else {
            PRIME5
        };
        h = h.wrapping_add(self.total);
        let tail = self.stash.get(..self.stashed).unwrap_or(&self.stash);
        let (words, mut rest) = tail.as_chunks::<8>();
        for word in words {
            h = (h ^ round(0, u64::from_le_bytes(*word)))
                .rotate_left(27)
                .wrapping_mul(PRIME1)
                .wrapping_add(PRIME4);
        }
        if let Some((half, after)) = rest.split_first_chunk::<4>() {
            h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME1))
                .rotate_left(23)
                .wrapping_mul(PRIME2)
                .wrapping_add(PRIME3);
            rest = after;
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(PRIME5))
                .rotate_left(11)
                .wrapping_mul(PRIME1);
        }
        h = (h ^ (h >> 33)).wrapping_mul(PRIME2);
        h = (h ^ (h >> 29)).wrapping_mul(PRIME3);
        h ^ (h >> 32)
    }
}

/// Checksum used by every on-disk metadata structure and log frame:
/// XXH64 with seed 0 (DESIGN.md §12 spells it out byte for byte). Four
/// independent 64-bit lanes over 32-byte stripes, so it runs at memory
/// speed where a byte-serial hash pays one dependent multiply per byte.
/// Not cryptographic — it detects torn writes and media corruption, not
/// adversaries (capability MACs handle those).
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::default();
    sum.update(bytes);
    sum.finish()
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
        // The version names the checksum the copy was summed with, so
        // it is judged first: another version's device is refused as
        // such rather than as a checksum failure.
        if read_u32(buf, 8)? != LAYOUT_VERSION {
            return Err(StoreError::Corrupt("unknown layout version"));
        }
        let body = buf
            .get(..SB_BYTES - 8)
            .ok_or(StoreError::Corrupt("superblock shorter than its fields"))?;
        if checksum64(body) != read_u64(buf, SB_BYTES - 8)? {
            return Err(StoreError::Corrupt("superblock checksum mismatch"));
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

/// Checksum of one bitmap block: its payload bytes, then the epoch and
/// block index that the trailer stores beside the sum.
fn bitmap_crc(payload: &[u8], epoch: u64, index: u64) -> u64 {
    let mut sum = Checksum64::default();
    sum.update(payload);
    sum.update(&epoch.to_be_bytes());
    sum.update(&index.to_be_bytes());
    sum.finish()
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
        let (body, trailer) = block
            .split_at_mut_checked(payload)
            .ok_or(StoreError::Internal("bitmap block shorter than payload"))?;
        let lo = usize::try_from(i)
            .ok()
            .and_then(|i| i.checked_mul(payload))
            .ok_or(StoreError::Internal("bitmap extent exceeds address space"))?;
        let src = bits.get(lo..).unwrap_or(&[]);
        let src = src.get(..payload).unwrap_or(src);
        let (used, unused) = body.split_at_mut(src.len());
        used.copy_from_slice(src);
        unused.fill(0);
        let fields = [epoch, i, bitmap_crc(body, epoch, i)];
        let (slots, _) = trailer.as_chunks_mut::<8>();
        if slots.len() < fields.len() {
            return Err(StoreError::Internal("bitmap trailer shorter than fields"));
        }
        for (slot, field) in slots.iter_mut().zip(fields) {
            *slot = field.to_be_bytes();
        }
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
        let short = |_| StoreError::Corrupt("bitmap block shorter than trailer");
        let got_epoch = read_u64(&block, payload).map_err(short)?;
        let got_index = read_u64(&block, payload.saturating_add(8)).map_err(short)?;
        let got_crc = read_u64(&block, payload.saturating_add(16)).map_err(short)?;
        let body = block.get(..payload).unwrap_or(&block);
        if got_epoch != epoch || got_index != i || bitmap_crc(body, epoch, i) != got_crc {
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
    fn checksum_matches_the_public_xxh64_vectors() {
        // Seed-0 XXH64 known answers: the empty input, inputs shorter
        // than one stripe (byte, 4-byte and 8-byte tail steps), and one
        // that runs the four lanes and then every tail step.
        for (input, want) in [
            (&b""[..], 0xef46_db37_51d8_e999u64),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (b"xxhash", 0x32dd_3895_2c4b_c720),
            (
                b"Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(checksum64(input), want, "{:?}", input);
        }
    }

    #[test]
    fn checksum_of_any_split_equals_the_one_shot() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 200] {
            let want = checksum64(&data[..len]);
            for a in 0..=len {
                for b in [a, (a + 1).min(len), (a + 32).min(len), len] {
                    let mut sum = Checksum64::default();
                    sum.update(&data[..a]);
                    sum.update(&data[a..b]);
                    sum.update(&data[b..len]);
                    assert_eq!(sum.finish(), want, "len {len} split at {a},{b}");
                }
            }
        }
    }

    #[test]
    fn checksum_avalanches_on_single_bit() {
        // Every bit of a 64 KiB payload-sized input is covered by some
        // lane: sampled flips each change at least a byte's worth of sum.
        let mut data: Vec<u8> = (0..65_536u32).map(|i| (i % 251) as u8).collect();
        let base = checksum64(&data);
        for at in (0..data.len()).step_by(997) {
            data[at] ^= 1 << (at % 8);
            let diff = base ^ checksum64(&data);
            assert!(diff.count_ones() > 8, "poor avalanche at {at}: {diff:x}");
            data[at] ^= 1 << (at % 8);
        }
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
