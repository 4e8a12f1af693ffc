//! The checksummed write-ahead log.
//!
//! Every mutating operation appends its *intent* as a [`WalRecord`]
//! before the drive acknowledges it; on reopen, [`ObjectStore::open`]
//! replays the log idempotently on top of the last checkpoint, so a
//! crash at any instant loses nothing that was acked.
//!
//! Record frame, appended as a byte stream over the log area:
//!
//! ```text
//! u32 body_len | u64 epoch | u64 lsn | body (tag u8 + fields) | u64 crc
//! ```
//!
//! `crc` is [`checksum64`] over `epoch..body`. `epoch` is the checkpoint
//! sequence number at append time: a checkpoint logically truncates the
//! log *without touching it* — stale records from earlier epochs simply
//! fail the epoch check on replay. `lsn` starts at 0 after each
//! checkpoint and must increment by one record; any gap, checksum
//! mismatch, short frame or garbled body terminates replay cleanly at
//! the last complete record (torn tails are expected, not errors).
//!
//! Appends accumulate in memory and reach the device on
//! [`Wal::commit`] — group commit: one batch of sequential block writes
//! covers every record logged since the last commit, and a partial tail
//! block is rewritten from an in-memory image rather than
//! read-modified.
//!
//! Copy budget: a logged payload is copied once, from the caller's
//! buffer into the commit buffer as its frame is encoded there, summed
//! once in place, and written once — whole blocks go to the device
//! straight out of the commit buffer.
//!
//! [`ObjectStore::open`]: crate::store::ObjectStore::open

use crate::layout::{checksum64, Layout};
use crate::store::StoreError;
use nasd_crypto::KeyKind;
use nasd_disk::BlockDevice;
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};
use nasd_proto::{ObjectId, PartitionId, SetAttrMask, FS_SPECIFIC_ATTR_LEN};

/// Frame overhead around a record body: len (4) + epoch (8) + lsn (8)
/// + crc (8).
const FRAME_OVERHEAD: usize = 28;

/// One logged mutation. Carries everything needed to re-apply the
/// operation absolutely (assigned ids included), so replaying a record
/// twice is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// `create_partition`.
    CreatePartition {
        /// Partition id.
        p: PartitionId,
        /// Byte quota.
        quota: u64,
    },
    /// `resize_partition`.
    ResizePartition {
        /// Partition id.
        p: PartitionId,
        /// New byte quota.
        quota: u64,
    },
    /// `remove_partition`.
    RemovePartition {
        /// Partition id.
        p: PartitionId,
    },
    /// `create_object`, with the id the drive assigned.
    Create {
        /// Partition id.
        p: PartitionId,
        /// Assigned object id (replay must produce the same name).
        id: ObjectId,
        /// Preallocated bytes.
        preallocate: u64,
        /// Clustering hint.
        cluster_with: Option<ObjectId>,
        /// Operation timestamp.
        now: u64,
    },
    /// `remove_object`.
    Remove {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
    },
    /// `set_attr`.
    SetAttr {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
        /// Field-selection mask.
        mask: SetAttrMask,
        /// Opaque filesystem attribute block.
        fs_specific: &'a [u8; FS_SPECIFIC_ATTR_LEN],
        /// Preallocation target in bytes.
        preallocated: u64,
        /// Clustering hint.
        cluster_with: Option<ObjectId>,
        /// Operation timestamp.
        now: u64,
    },
    /// `write` — the record borrows the payload: logging encodes it
    /// straight into the commit buffer, replay reads it out of the log
    /// image.
    Write {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: &'a [u8],
        /// Operation timestamp.
        now: u64,
    },
    /// `resize`.
    Resize {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
        /// New object size in bytes.
        new_size: u64,
        /// Operation timestamp.
        now: u64,
    },
    /// `snapshot`, with the id the drive assigned to the version.
    Snapshot {
        /// Partition id.
        p: PartitionId,
        /// Source object id.
        o: ObjectId,
        /// Assigned snapshot object id.
        id: ObjectId,
        /// Operation timestamp.
        now: u64,
    },
    /// `set_working_key`: a rotated working key is drive state — an
    /// acknowledged rotation must still revoke after a power cycle.
    SetKey {
        /// Partition id.
        p: PartitionId,
        /// Which working key was replaced.
        kind: KeyKind,
        /// The new key.
        key: [u8; 32],
    },
}

const TAG_CREATE_PARTITION: u8 = 1;
const TAG_RESIZE_PARTITION: u8 = 2;
const TAG_REMOVE_PARTITION: u8 = 3;
const TAG_CREATE: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_SET_ATTR: u8 = 6;
const TAG_WRITE: u8 = 7;
const TAG_RESIZE: u8 = 8;
const TAG_SNAPSHOT: u8 = 9;
const TAG_SET_KEY: u8 = 10;

fn encode_opt_id(w: &mut WireWriter, id: Option<ObjectId>) {
    match id {
        Some(o) => {
            w.u8(1).u64(o.0);
        }
        None => {
            w.u8(0);
        }
    }
}

fn decode_opt_id(r: &mut WireReader<'_>) -> Result<Option<ObjectId>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(ObjectId(r.u64()?))),
        b => Err(DecodeError::BadTag {
            context: "optional object id flag",
            value: u64::from(b),
        }),
    }
}

/// A `(kind byte, 32 raw key bytes)` pair, as the log and the index
/// checkpoint both store a rotated working key.
pub(crate) fn decode_working_key(
    r: &mut WireReader<'_>,
) -> Result<(KeyKind, [u8; 32]), DecodeError> {
    let kb = r.u8()?;
    let kind = KeyKind::from_byte(kb).ok_or(DecodeError::BadTag {
        context: "working key kind",
        value: u64::from(kb),
    })?;
    let raw = r.raw(32)?;
    let key = raw.try_into().map_err(|_| DecodeError::Truncated {
        needed: 32,
        remaining: raw.len(),
    })?;
    Ok((kind, key))
}

impl<'a> WalRecord<'a> {
    /// Byte length of the encoded body, so the log can judge capacity
    /// and stamp the frame head before it encodes a byte.
    fn body_len(&self) -> usize {
        let opt_id_len = |id: &Option<ObjectId>| if id.is_some() { 9 } else { 1 };
        // tag (1) + partition (2), then the variant's fields.
        3 + match self {
            WalRecord::RemovePartition { .. } => 0,
            WalRecord::CreatePartition { .. }
            | WalRecord::ResizePartition { .. }
            | WalRecord::Remove { .. } => 8,
            WalRecord::Resize { .. } | WalRecord::Snapshot { .. } => 24,
            WalRecord::SetKey { .. } => 33,
            WalRecord::Create { cluster_with, .. } => 24 + opt_id_len(cluster_with),
            WalRecord::SetAttr { cluster_with, .. } => {
                25 + FS_SPECIFIC_ATTR_LEN + opt_id_len(cluster_with)
            }
            WalRecord::Write { data, .. } => 28usize.saturating_add(data.len()),
        }
    }

    /// Encode the record body (tag + fields) at the end of `w`.
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::CreatePartition { p, quota } => {
                w.u8(TAG_CREATE_PARTITION).u16(p.0).u64(*quota);
            }
            WalRecord::ResizePartition { p, quota } => {
                w.u8(TAG_RESIZE_PARTITION).u16(p.0).u64(*quota);
            }
            WalRecord::RemovePartition { p } => {
                w.u8(TAG_REMOVE_PARTITION).u16(p.0);
            }
            WalRecord::Create {
                p,
                id,
                preallocate,
                cluster_with,
                now,
            } => {
                w.u8(TAG_CREATE).u16(p.0).u64(id.0).u64(*preallocate);
                encode_opt_id(w, *cluster_with);
                w.u64(*now);
            }
            WalRecord::Remove { p, o } => {
                w.u8(TAG_REMOVE).u16(p.0).u64(o.0);
            }
            WalRecord::SetAttr {
                p,
                o,
                mask,
                fs_specific,
                preallocated,
                cluster_with,
                now,
            } => {
                w.u8(TAG_SET_ATTR).u16(p.0).u64(o.0);
                mask.encode(w);
                w.raw(fs_specific.as_slice());
                w.u64(*preallocated);
                encode_opt_id(w, *cluster_with);
                w.u64(*now);
            }
            WalRecord::Write {
                p,
                o,
                offset,
                data,
                now,
            } => {
                w.u8(TAG_WRITE).u16(p.0).u64(o.0).u64(*offset);
                w.bytes(data);
                w.u64(*now);
            }
            WalRecord::Resize {
                p,
                o,
                new_size,
                now,
            } => {
                w.u8(TAG_RESIZE).u16(p.0).u64(o.0).u64(*new_size).u64(*now);
            }
            WalRecord::Snapshot { p, o, id, now } => {
                w.u8(TAG_SNAPSHOT).u16(p.0).u64(o.0).u64(id.0).u64(*now);
            }
            WalRecord::SetKey { p, kind, key } => {
                w.u8(TAG_SET_KEY).u16(p.0).u8(kind.to_byte()).raw(key);
            }
        }
    }

    /// Decode one record body.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, unknown tag, or trailing bytes —
    /// replay treats any of these as the end of the valid log.
    pub fn decode(body: &'a [u8]) -> Result<WalRecord<'a>, DecodeError> {
        let mut r = WireReader::new(body);
        let tag = r.u8()?;
        let rec = match tag {
            TAG_CREATE_PARTITION => WalRecord::CreatePartition {
                p: PartitionId(r.u16()?),
                quota: r.u64()?,
            },
            TAG_RESIZE_PARTITION => WalRecord::ResizePartition {
                p: PartitionId(r.u16()?),
                quota: r.u64()?,
            },
            TAG_REMOVE_PARTITION => WalRecord::RemovePartition {
                p: PartitionId(r.u16()?),
            },
            TAG_CREATE => WalRecord::Create {
                p: PartitionId(r.u16()?),
                id: ObjectId(r.u64()?),
                preallocate: r.u64()?,
                cluster_with: decode_opt_id(&mut r)?,
                now: r.u64()?,
            },
            TAG_REMOVE => WalRecord::Remove {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
            },
            TAG_SET_ATTR => {
                let p = PartitionId(r.u16()?);
                let o = ObjectId(r.u64()?);
                let mask = SetAttrMask::decode(&mut r)?;
                let raw = r.raw(FS_SPECIFIC_ATTR_LEN)?;
                let fs_specific = raw.try_into().map_err(|_| DecodeError::Truncated {
                    needed: FS_SPECIFIC_ATTR_LEN,
                    remaining: raw.len(),
                })?;
                WalRecord::SetAttr {
                    p,
                    o,
                    mask,
                    fs_specific,
                    preallocated: r.u64()?,
                    cluster_with: decode_opt_id(&mut r)?,
                    now: r.u64()?,
                }
            }
            TAG_WRITE => WalRecord::Write {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
                offset: r.u64()?,
                data: r.bytes()?,
                now: r.u64()?,
            },
            TAG_RESIZE => WalRecord::Resize {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
                new_size: r.u64()?,
                now: r.u64()?,
            },
            TAG_SNAPSHOT => WalRecord::Snapshot {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
                id: ObjectId(r.u64()?),
                now: r.u64()?,
            },
            TAG_SET_KEY => {
                let p = PartitionId(r.u16()?);
                let (kind, key) = decode_working_key(&mut r)?;
                WalRecord::SetKey { p, kind, key }
            }
            t => {
                return Err(DecodeError::BadTag {
                    context: "wal record tag",
                    value: u64::from(t),
                })
            }
        };
        r.finish()?;
        Ok(rec)
    }
}

/// The in-memory side of the write-ahead log.
pub(crate) struct Wal {
    /// When false (during replay, or for a non-durable drive) appends
    /// are dropped: replayed operations must not re-log themselves.
    pub(crate) enabled: bool,
    epoch: u64,
    next_lsn: u64,
    /// Bytes of the log area holding committed records.
    durable_bytes: u64,
    /// In-memory image of the partial tail block (the first
    /// `durable_bytes % block_size` bytes are valid), so a commit
    /// rewrites it without a device read. Doubles as the one staging
    /// buffer for the zero-padded partial blocks a commit writes.
    tail: Vec<u8>,
    /// Frames appended since the last commit (group commit buffer).
    pending: Vec<u8>,
    log_start: u64,
    log_blocks: u64,
    block_size: usize,
}

impl Wal {
    /// A fresh, disabled log positioned at the head of the log area.
    pub(crate) fn new(layout: &Layout) -> Wal {
        Wal {
            enabled: false,
            epoch: 0,
            next_lsn: 0,
            durable_bytes: 0,
            tail: Vec::new(),
            pending: Vec::new(),
            log_start: layout.log_start,
            log_blocks: layout.log_blocks,
            block_size: layout.block_size,
        }
    }

    /// Byte capacity of the log area.
    fn capacity(&self) -> u64 {
        self.log_blocks * self.block_size as u64
    }

    /// Bytes of committed log (for recovery benchmarks and tests).
    pub(crate) fn durable_bytes(&self) -> u64 {
        self.durable_bytes
    }

    /// Logically truncate after a checkpoint: records of older epochs
    /// stay on disk but no longer pass the epoch check.
    pub(crate) fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.next_lsn = 0;
        self.durable_bytes = 0;
        self.tail.clear();
        self.pending.clear();
    }

    /// Append a record to the group-commit buffer. Returns `false` when
    /// the log area cannot hold it — the caller checkpoints instead
    /// (which logically empties the log). The frame is encoded once,
    /// straight into the buffer, and summed where it lies.
    pub(crate) fn append(&mut self, rec: &WalRecord<'_>) -> Result<bool, StoreError> {
        if !self.enabled {
            return Ok(true);
        }
        let body_len = rec.body_len();
        let head = u32::try_from(body_len)
            .map_err(|_| StoreError::Internal("wal record body exceeds the frame length field"))?;
        let frame_len = body_len.saturating_add(FRAME_OVERHEAD);
        let start = self.pending.len();
        let used = self.durable_bytes.saturating_add(start as u64);
        if used.saturating_add(frame_len as u64) > self.capacity() {
            return Ok(false);
        }
        self.pending.reserve(frame_len);
        let mut w = WireWriter::from(std::mem::take(&mut self.pending));
        w.u32(head).u64(self.epoch).u64(self.next_lsn);
        rec.encode(&mut w);
        let crc = checksum64(w.as_slice().get(start.saturating_add(4)..).unwrap_or(&[]));
        w.u64(crc);
        self.pending = w.into_vec();
        if self.pending.len() != start.saturating_add(frame_len) {
            // The head already promises `body_len`: a frame of any other
            // size would poison everything logged after it.
            self.pending.truncate(start);
            return Err(StoreError::Internal("wal body_len out of step with encode"));
        }
        self.next_lsn += 1;
        Ok(true)
    }

    /// Whether uncommitted records are buffered.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Write every pending record to the device — straight to the
    /// media, bypassing the write-behind cache, because the entire point
    /// is that these bytes are durable before the operation is acked.
    ///
    /// The blocks covering `[durable_bytes - tail.len(), ...)` are
    /// written in order: the partial tail block completed from the head
    /// of `pending`, whole blocks straight out of `pending`, and a new
    /// partial tail block — only the two partial ones are staged.
    pub(crate) fn commit<D: BlockDevice>(&mut self, device: &mut D) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bs = self.block_size;
        let mut block = self.log_start + self.durable_bytes / bs as u64;
        let mut rest = self.pending.as_slice();
        if !self.tail.is_empty() {
            let (fill, after) = rest.split_at(rest.len().min(bs - self.tail.len()));
            rest = after;
            block += stage_block(device, block, &mut self.tail, fill, bs)?;
        }
        let (whole, partial) = rest.split_at(rest.len() - rest.len() % bs);
        for chunk in whole.chunks_exact(bs) {
            device.write_block(block, chunk)?;
            block += 1;
        }
        if !partial.is_empty() {
            stage_block(device, block, &mut self.tail, partial, bs)?;
        }
        self.durable_bytes += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Read the whole log area off the device, for [`Wal::recover`].
    pub(crate) fn read_log<D: BlockDevice>(
        device: &D,
        layout: &Layout,
    ) -> Result<Vec<u8>, StoreError> {
        let bs = layout.block_size;
        let area_bytes = usize::try_from(layout.log_blocks)
            .ok()
            .and_then(|blocks| blocks.checked_mul(bs))
            .ok_or(StoreError::Corrupt(
                "wal log area exceeds the address space",
            ))?;
        crate::layout::read_region(device, layout.log_start, bs, area_bytes)
    }

    /// Scan a log-area `image` for its valid prefix: records of the
    /// right epoch, consecutive LSNs from 0, intact checksums. The first
    /// violation — torn frame, stale epoch, bad crc, short area —
    /// terminates the scan cleanly (that is where the crash happened).
    ///
    /// Returns the recovered `Wal` (positioned after the last valid
    /// record, disabled) and the records to re-apply, in order; they
    /// borrow their payloads from `image`.
    pub(crate) fn recover<'a>(
        image: &'a [u8],
        layout: &Layout,
        epoch: u64,
    ) -> (Wal, Vec<WalRecord<'a>>) {
        let bs = layout.block_size;
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut lsn = 0u64;
        while let Some(head) = image.get(pos..pos.saturating_add(4)) {
            let Ok(head4) = <[u8; 4]>::try_from(head) else {
                break;
            };
            // A frame length the area cannot hold is a torn or hostile
            // head: stop the valid prefix here instead of letting a
            // narrowing conversion quietly shrink it into plausibility.
            let Ok(body_len) = usize::try_from(u32::from_be_bytes(head4)) else {
                break;
            };
            let Some(frame_len) = body_len.checked_add(FRAME_OVERHEAD) else {
                break;
            };
            let Some(end) = pos.checked_add(frame_len) else {
                break;
            };
            let Some(rest) = image.get(pos.saturating_add(4)..end) else {
                break;
            };
            // `rest` is exactly `body_len + 24` bytes: 16 of epoch/lsn,
            // the body, then the 8-byte crc trailer.
            let (inner, crc_bytes) = rest.split_at(rest.len().saturating_sub(8));
            let Ok(crc8) = <[u8; 8]>::try_from(crc_bytes) else {
                break;
            };
            let stored = u64::from_be_bytes(crc8);
            if checksum64(inner) != stored {
                break;
            }
            let mut r = WireReader::new(inner);
            let (got_epoch, got_lsn) = match (r.u64(), r.u64()) {
                (Ok(e), Ok(l)) => (e, l),
                _ => break,
            };
            if got_epoch != epoch || got_lsn != lsn {
                break;
            }
            let Ok(rec) = WalRecord::decode(r.rest()) else {
                break;
            };
            records.push(rec);
            lsn += 1;
            pos = end;
        }
        let mut wal = Wal::new(layout);
        wal.epoch = epoch;
        wal.next_lsn = lsn;
        wal.durable_bytes = pos as u64;
        let tail_len = pos % bs;
        // nasd-lint: allow(hot-path-copy, "one-shot recovery: staging the partial tail block image")
        wal.tail = image.get(pos - tail_len..pos).unwrap_or(&[]).to_vec();
        (wal, records)
    }
}

/// Append `bytes` to the partial-block image `tail`, write it to `block`
/// zero-padded to `bs`, and leave `tail` holding what a later commit
/// must rewrite: nothing once the block is full. Returns how many
/// blocks were completed (0 or 1).
fn stage_block<D: BlockDevice>(
    device: &mut D,
    block: u64,
    tail: &mut Vec<u8>,
    bytes: &[u8],
    bs: usize,
) -> Result<u64, StoreError> {
    // nasd-lint: allow(hot-path-copy, "log serializer: staging a partial block into its zero-padded sector image")
    tail.extend_from_slice(bytes);
    let valid = tail.len();
    tail.resize(bs, 0);
    device.write_block(block, tail)?;
    tail.truncate(valid % bs);
    Ok((valid / bs) as u64)
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("enabled", &self.enabled)
            .field("epoch", &self.epoch)
            .field("next_lsn", &self.next_lsn)
            .field("durable_bytes", &self.durable_bytes)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_disk::MemDisk;

    const PAYLOAD: [u8; 300] = {
        let mut bytes = [0u8; 300];
        let mut i = 0;
        while i < bytes.len() {
            bytes[i] = (i % 251) as u8;
            i += 1;
        }
        bytes
    };

    fn sample_records() -> Vec<WalRecord<'static>> {
        let p = PartitionId(1);
        let o = ObjectId(0x100);
        vec![
            WalRecord::CreatePartition { p, quota: 1 << 20 },
            WalRecord::Create {
                p,
                id: o,
                preallocate: 4096,
                cluster_with: None,
                now: 10,
            },
            WalRecord::Write {
                p,
                o,
                offset: 7,
                data: &PAYLOAD,
                now: 11,
            },
            WalRecord::SetAttr {
                p,
                o,
                mask: SetAttrMask {
                    fs_specific: true,
                    preallocated: false,
                    cluster_with: true,
                    bump_version: true,
                },
                fs_specific: &[0xab; FS_SPECIFIC_ATTR_LEN],
                preallocated: 0,
                cluster_with: Some(ObjectId(0x101)),
                now: 12,
            },
            WalRecord::Resize {
                p,
                o,
                new_size: 99,
                now: 13,
            },
            WalRecord::Snapshot {
                p,
                o,
                id: ObjectId(0x102),
                now: 14,
            },
            WalRecord::Remove { p, o },
            WalRecord::ResizePartition { p, quota: 2 << 20 },
            WalRecord::SetKey {
                p,
                kind: KeyKind::Black,
                key: [0x5c; 32],
            },
            WalRecord::RemovePartition { p },
        ]
    }

    /// An enabled log at `epoch` over a 512 x 2048 device.
    fn fresh(epoch: u64) -> (Layout, MemDisk, Wal) {
        let layout = Layout::compute(512, 2048);
        let mut wal = Wal::new(&layout);
        wal.enabled = true;
        wal.reset(epoch);
        (layout, MemDisk::new(512, 2048), wal)
    }

    #[test]
    fn record_bodies_roundtrip() {
        for rec in sample_records() {
            let mut w = WireWriter::new();
            rec.encode(&mut w);
            let body = w.into_vec();
            assert_eq!(body.len(), rec.body_len(), "{rec:?}");
            assert_eq!(WalRecord::decode(&body).unwrap(), rec, "{rec:?}");
            // Truncations error rather than panic.
            for cut in 0..body.len() {
                assert!(WalRecord::decode(&body[..cut]).is_err());
            }
        }
    }

    #[test]
    fn append_commit_recover_roundtrip() {
        let (layout, mut d, mut wal) = fresh(3);
        let recs = sample_records();
        // Two commit groups: durability batches along the way.
        for rec in &recs[..4] {
            assert!(wal.append(rec).unwrap());
        }
        wal.commit(&mut d).unwrap();
        for rec in &recs[4..] {
            assert!(wal.append(rec).unwrap());
        }
        wal.commit(&mut d).unwrap();

        let log = Wal::read_log(&d, &layout).unwrap();
        let (rewal, replayed) = Wal::recover(&log, &layout, 3);
        assert_eq!(replayed, recs);
        assert_eq!(rewal.durable_bytes(), wal.durable_bytes());
        // A different epoch sees an empty log (logical truncation).
        let (_, none) = Wal::recover(&log, &layout, 4);
        assert!(none.is_empty());
    }

    #[test]
    fn commit_groups_of_every_size_land_byte_exact() {
        // Commit after every `group` records, so group boundaries fall
        // at every alignment against the 512-byte blocks: partial block
        // extended in place, completed exactly, crossed, and followed by
        // whole blocks straight out of the buffer.
        let recs = sample_records();
        for group in 1..=recs.len() {
            let (layout, mut d, mut wal) = fresh(9);
            let mut stream = Vec::new();
            let mut appended = Vec::new();
            for chunk in recs.chunks(group).cycle().take(12) {
                for rec in chunk {
                    assert!(wal.append(rec).unwrap());
                }
                appended.extend_from_slice(chunk);
                stream.extend_from_slice(&wal.pending);
                wal.commit(&mut d).unwrap();
            }
            assert_eq!(wal.durable_bytes(), stream.len() as u64);
            let log = Wal::read_log(&d, &layout).unwrap();
            assert_eq!(&log[..stream.len()], &stream[..], "group {group}");
            assert!(log[stream.len()..].iter().all(|&b| b == 0), "zero padding");
            let (rewal, replayed) = Wal::recover(&log, &layout, 9);
            assert_eq!(rewal.durable_bytes(), wal.durable_bytes());
            assert_eq!(rewal.tail, wal.tail);
            assert_eq!(replayed, appended);
        }
    }

    #[test]
    fn recovered_wal_appends_continue_the_stream() {
        let (layout, mut d, mut wal) = fresh(1);
        let recs = sample_records();
        assert!(wal.append(&recs[0]).unwrap());
        wal.commit(&mut d).unwrap();

        let log = Wal::read_log(&d, &layout).unwrap();
        let (mut rewal, _) = Wal::recover(&log, &layout, 1);
        rewal.enabled = true;
        assert!(rewal.append(&recs[1]).unwrap());
        rewal.commit(&mut d).unwrap();

        let log = Wal::read_log(&d, &layout).unwrap();
        let (_, all) = Wal::recover(&log, &layout, 1);
        assert_eq!(all, &recs[..2]);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let (layout, mut d, mut wal) = fresh(2);
        let recs = sample_records();
        for rec in &recs {
            assert!(wal.append(rec).unwrap());
        }
        wal.commit(&mut d).unwrap();

        // Corrupt a byte inside the *last* record's frame.
        let end = wal.durable_bytes() as usize;
        let mut log = Wal::read_log(&d, &layout).unwrap();
        log[end - 10] ^= 0x40;

        let (_, replayed) = Wal::recover(&log, &layout, 2);
        assert_eq!(replayed, &recs[..recs.len() - 1], "valid prefix survives");
    }

    #[test]
    fn damage_anywhere_in_a_64k_write_frame_stops_replay_before_it() {
        // 8 KiB blocks: the default 1024-block log holds the frame.
        let layout = Layout::compute(8_192, 65_536);
        let mut d = MemDisk::new(8_192, 65_536);
        let mut wal = Wal::new(&layout);
        wal.enabled = true;
        wal.reset(6);
        let payload: Vec<u8> = (0..65_536u32).map(|i| (i * 31 % 253) as u8).collect();
        let before = WalRecord::Resize {
            p: PartitionId(1),
            o: ObjectId(0x100),
            new_size: 5,
            now: 1,
        };
        let big = WalRecord::Write {
            p: PartitionId(1),
            o: ObjectId(0x100),
            offset: 4096,
            data: &payload,
            now: 2,
        };
        assert!(wal.append(&before).unwrap());
        let frame_start = wal.pending.len();
        assert!(wal.append(&big).unwrap());
        wal.commit(&mut d).unwrap();
        let frame_end = wal.durable_bytes() as usize;
        let log = Wal::read_log(&d, &layout).unwrap();
        let (_, intact) = Wal::recover(&log, &layout, 6);
        assert_eq!(intact, [before, big]);

        let stops_before_the_frame = |image: &[u8], what: &str, at: usize| {
            let (rewal, replayed) = Wal::recover(image, &layout, 6);
            assert_eq!(replayed, [before], "{what} at {at}");
            assert_eq!(rewal.durable_bytes(), frame_start as u64, "{what} at {at}");
            assert_eq!(rewal.tail, &log[..frame_start], "{what} at {at}");
        };
        // Every byte of the head and trailer, then a stride through the body.
        let positions = (frame_start..frame_start + 40)
            .chain((frame_start + 40..frame_end - 40).step_by(509))
            .chain(frame_end - 40..frame_end);
        for at in positions {
            let mut flipped = log.clone();
            flipped[at] ^= 1 << (at % 8);
            stops_before_the_frame(&flipped, "bit flip", at);
            // A torn write: nothing from `at` on reached the media...
            let mut torn = log.clone();
            torn[at..].fill(0);
            stops_before_the_frame(&torn, "zeroed tail", at);
            // ...or the area itself ends there.
            stops_before_the_frame(&log[..at], "short area", at);
        }
    }

    #[test]
    fn hostile_frame_length_stops_recovery_cleanly() {
        let (layout, mut d, mut wal) = fresh(5);
        let recs = sample_records();
        for rec in &recs[..2] {
            assert!(wal.append(rec).unwrap());
        }
        wal.commit(&mut d).unwrap();

        // Plant a frame head right after the valid prefix claiming a
        // u32::MAX-byte body. A narrowing conversion would shrink that
        // length back into plausibility and steer the replay cursor;
        // recovery must instead stop cleanly at the valid prefix.
        let end = wal.durable_bytes() as usize;
        let mut log = Wal::read_log(&d, &layout).unwrap();
        log[end..end + 4].copy_from_slice(&u32::MAX.to_be_bytes());

        let (rewal, replayed) = Wal::recover(&log, &layout, 5);
        assert_eq!(replayed, recs[..2], "valid prefix survives");
        assert_eq!(rewal.durable_bytes(), wal.durable_bytes());

        // Same planted head at the very start of the log: recovery of an
        // effectively-empty log must also terminate cleanly.
        log[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let (_, none) = Wal::recover(&log, &layout, 5);
        assert!(none.is_empty());
    }

    #[test]
    fn append_refuses_past_capacity() {
        // 8-block log at 512 B/block = 4096 bytes of capacity.
        let layout = Layout::compute(512, 64);
        let mut wal = Wal::new(&layout);
        wal.enabled = true;
        wal.reset(0);
        let rec = WalRecord::Write {
            p: PartitionId(1),
            o: ObjectId(0x100),
            offset: 0,
            data: &[0u8; 1024],
            now: 0,
        };
        let mut appended = 0;
        while wal.append(&rec).unwrap() {
            appended += 1;
            assert!(appended < 100, "append never refused");
        }
        assert_eq!(appended, 3, "4096 bytes hold three 1083-byte frames");
        // A refusal leaves no trace of the refused frame.
        assert_eq!(wal.pending.len(), 3 * (rec.body_len() + FRAME_OVERHEAD));
        assert_eq!(wal.next_lsn, 3);
    }

    #[test]
    fn disabled_wal_drops_appends() {
        let layout = Layout::compute(512, 2048);
        let mut wal = Wal::new(&layout);
        assert!(wal
            .append(&WalRecord::RemovePartition { p: PartitionId(9) })
            .unwrap());
        assert!(!wal.has_pending());
    }
}
