//! The checksummed write-ahead log.
//!
//! Every mutating operation appends its effect on the drive's metadata
//! as a [`WalRecord`] before the drive acknowledges it; on reopen,
//! [`ObjectStore::open`] replays the log on top of the last checkpoint,
//! so a crash at any instant loses nothing that was acked.
//!
//! The log carries block maps, never payloads. A durable drive writes
//! object data redirect-on-write: every block a request writes goes to
//! a freshly allocated block, which reaches the media *before* the
//! record naming it (see [`ObjectStore::wal_commit`]). Replay therefore
//! only sets block maps; it never allocates and never reads a data
//! block.
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
//! [`ObjectStore::open`]: crate::store::ObjectStore::open
//! [`ObjectStore::wal_commit`]: crate::store::ObjectStore::wal_commit

use crate::layout::{checksum64, Layout};
use crate::store::StoreError;
use nasd_crypto::KeyKind;
use nasd_disk::BlockDevice;
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};
use nasd_proto::{ObjectId, PartitionId, SetAttrMask, FS_SPECIFIC_ATTR_LEN};

/// Frame overhead around a record body: len (4) + epoch (8) + lsn (8)
/// + crc (8).
const FRAME_OVERHEAD: usize = 28;

/// The device blocks a record assigns to consecutive logical blocks of
/// an object, in logical order. On the log they are runs of consecutive
/// device blocks — `u32` run count, then `u64 start, u64 len` per run —
/// so a contiguous allocation costs 16 bytes however long it is.
/// Logging borrows the store's block list; replay reads the runs out of
/// the log image.
#[derive(Clone, Copy)]
pub struct BlockRuns<'a>(Runs<'a>);

#[derive(Clone, Copy)]
enum Runs<'a> {
    Blocks(&'a [u64]),
    /// Exactly [`RUN_BYTES`] per run.
    Encoded(&'a [u8]),
}

/// Encoded bytes per run: start (8) + length (8).
const RUN_BYTES: usize = 16;

impl<'a> BlockRuns<'a> {
    /// No blocks.
    pub const NONE: BlockRuns<'static> = BlockRuns(Runs::Blocks(&[]));

    /// The runs of `blocks`.
    #[must_use]
    pub fn new(blocks: &'a [u64]) -> Self {
        BlockRuns(Runs::Blocks(blocks))
    }

    /// `(start, len)` of each run of consecutive device blocks.
    fn runs(&self) -> RunIter<'a> {
        RunIter(self.0)
    }

    /// Every block, in logical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.runs()
            .flat_map(|(start, len)| start..start.saturating_add(len))
    }

    /// How many blocks the runs cover (saturating: a hostile run length
    /// reads as more blocks than any device holds).
    pub(crate) fn len(&self) -> u64 {
        self.runs().fold(0, |n, (_, len)| n.saturating_add(len))
    }

    fn encoded_len(&self) -> usize {
        4usize.saturating_add(self.runs().count().saturating_mul(RUN_BYTES))
    }

    fn encode(&self, w: &mut WireWriter) {
        // nasd-lint: allow(cast, "encode direction: a record's runs are far below u32::MAX")
        w.u32(self.runs().count() as u32);
        for (start, len) in self.runs() {
            w.u64(start).u64(len);
        }
    }

    fn decode(r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        let runs = usize::try_from(r.u32()?).unwrap_or(usize::MAX);
        let bytes = r.raw(runs.saturating_mul(RUN_BYTES))?;
        Ok(BlockRuns(Runs::Encoded(bytes)))
    }
}

/// Iterator over a [`BlockRuns`]' `(start, len)` runs.
struct RunIter<'a>(Runs<'a>);

impl Iterator for RunIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        match &mut self.0 {
            Runs::Blocks(blocks) => {
                let (&start, _) = blocks.split_first()?;
                let len = blocks
                    .iter()
                    .zip(start..)
                    .take_while(|(&b, want)| b == *want)
                    .count();
                *blocks = blocks.get(len..).unwrap_or_default();
                Some((start, len as u64))
            }
            Runs::Encoded(bytes) => {
                let (run, rest) = bytes.split_first_chunk::<RUN_BYTES>()?;
                *bytes = rest;
                let (start, len) = run.split_at(8);
                let word = |b: &[u8]| b.try_into().map_or(0, u64::from_be_bytes);
                Some((word(start), word(len)))
            }
        }
    }
}

impl PartialEq for BlockRuns<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.runs().eq(other.runs())
    }
}

impl Eq for BlockRuns<'_> {}

impl std::fmt::Debug for BlockRuns<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(
                self.runs()
                    .map(|(start, len)| start..start.saturating_add(len)),
            )
            .finish()
    }
}

/// One logged mutation. Carries everything needed to re-apply the
/// operation absolutely (assigned ids and block numbers included), so
/// replay decides nothing the live run did not.
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
        /// The blocks preallocated for the object.
        blocks: BlockRuns<'a>,
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
        /// Blocks a grown preallocation appended to the object.
        blocks: BlockRuns<'a>,
    },
    /// `write`. The payload is not in the record: it is already in
    /// `blocks`, the freshly allocated blocks that now hold logical
    /// blocks `first..` of the object.
    Write {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
        /// Object size after the write.
        size: u64,
        /// First logical block the write rewrote.
        first: u64,
        /// The blocks now holding logical blocks `first..`.
        blocks: BlockRuns<'a>,
        /// Operation timestamp.
        now: u64,
    },
    /// `resize`. Growing rewrites the newly exposed bytes as zeros into
    /// fresh `blocks`, as a write does; shrinking drops the blocks past
    /// the new size and the preallocation, and names none.
    Resize {
        /// Partition id.
        p: PartitionId,
        /// Object id.
        o: ObjectId,
        /// New object size in bytes.
        new_size: u64,
        /// First logical block the resize rewrote.
        first: u64,
        /// The blocks now holding logical blocks `first..`.
        blocks: BlockRuns<'a>,
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
            WalRecord::Snapshot { .. } => 24,
            WalRecord::SetKey { .. } => 33,
            WalRecord::Create {
                cluster_with,
                blocks,
                ..
            } => (24usize + opt_id_len(cluster_with)).saturating_add(blocks.encoded_len()),
            WalRecord::SetAttr {
                cluster_with,
                blocks,
                ..
            } => (25 + FS_SPECIFIC_ATTR_LEN + opt_id_len(cluster_with))
                .saturating_add(blocks.encoded_len()),
            WalRecord::Write { blocks, .. } | WalRecord::Resize { blocks, .. } => {
                32usize.saturating_add(blocks.encoded_len())
            }
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
                blocks,
            } => {
                w.u8(TAG_CREATE).u16(p.0).u64(id.0).u64(*preallocate);
                encode_opt_id(w, *cluster_with);
                w.u64(*now);
                blocks.encode(w);
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
                blocks,
            } => {
                w.u8(TAG_SET_ATTR).u16(p.0).u64(o.0);
                mask.encode(w);
                w.raw(fs_specific.as_slice());
                w.u64(*preallocated);
                encode_opt_id(w, *cluster_with);
                w.u64(*now);
                blocks.encode(w);
            }
            WalRecord::Write {
                p,
                o,
                size,
                first,
                blocks,
                now,
            }
            | WalRecord::Resize {
                p,
                o,
                new_size: size,
                first,
                blocks,
                now,
            } => {
                let tag = if matches!(self, WalRecord::Write { .. }) {
                    TAG_WRITE
                } else {
                    TAG_RESIZE
                };
                w.u8(tag).u16(p.0).u64(o.0).u64(*size).u64(*first);
                blocks.encode(w);
                w.u64(*now);
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
                blocks: BlockRuns::decode(&mut r)?,
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
                    blocks: BlockRuns::decode(&mut r)?,
                }
            }
            TAG_WRITE => WalRecord::Write {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
                size: r.u64()?,
                first: r.u64()?,
                blocks: BlockRuns::decode(&mut r)?,
                now: r.u64()?,
            },
            TAG_RESIZE => WalRecord::Resize {
                p: PartitionId(r.u16()?),
                o: ObjectId(r.u64()?),
                new_size: r.u64()?,
                first: r.u64()?,
                blocks: BlockRuns::decode(&mut r)?,
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
    /// of `pending`, then whole blocks straight out of `pending`, the
    /// last one zero-padded in place. A failed commit leaves the log as
    /// it was, so the next commit rewrites the same blocks.
    pub(crate) fn commit<D: BlockDevice>(&mut self, device: &mut D) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (kept, queued) = (self.tail.len(), self.pending.len());
        let written = self.write_pending(device);
        self.pending.truncate(queued);
        if let Err(e) = written {
            self.tail.truncate(kept);
            return Err(e);
        }
        // The new tail: the stream's bytes in its last, partial block —
        // the old tail and all of `pending` while that block is still
        // the old one, else the end of `pending`.
        let partial = (kept + queued) % self.block_size;
        if partial > queued {
            self.tail.truncate(partial);
        } else {
            let last = self.pending.get(queued - partial..).unwrap_or_default();
            self.tail.clear();
            // nasd-lint: allow(hot-path-copy, "log serializer: keeping the partial tail block's image for the next commit")
            self.tail.extend_from_slice(last);
        }
        self.durable_bytes += queued as u64;
        self.pending.clear();
        Ok(())
    }

    /// The device writes of [`Self::commit`]. Leaves `tail[..kept]` and
    /// `pending[..queued]` as they were, padding included past them.
    fn write_pending<D: BlockDevice>(&mut self, device: &mut D) -> Result<(), StoreError> {
        let bs = self.block_size;
        let mut block = self.log_start + self.durable_bytes / bs as u64;
        let mut from = 0;
        if !self.tail.is_empty() {
            from = self.pending.len().min(bs - self.tail.len());
            let fill = self.pending.get(..from).unwrap_or_default();
            // nasd-lint: allow(hot-path-copy, "log serializer: completing the partial tail block's sector image")
            self.tail.extend_from_slice(fill);
            self.tail.resize(bs, 0);
            device.write_block(block, &self.tail)?;
            block += 1;
        }
        let partial = (self.pending.len() - from) % bs;
        if partial > 0 {
            self.pending.resize(self.pending.len() + bs - partial, 0);
        }
        for chunk in self
            .pending
            .get(from..)
            .unwrap_or_default()
            .chunks_exact(bs)
        {
            device.write_block(block, chunk)?;
            block += 1;
        }
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
    /// borrow their block runs from `image`.
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

    /// Blocks of a fragmented allocation: runs of 3, 1 and 2.
    const BLOCKS: [u64; 6] = [500, 501, 502, 900, 40, 41];

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
                blocks: BlockRuns::new(&BLOCKS[..1]),
            },
            WalRecord::Write {
                p,
                o,
                size: 3 << 20,
                first: 7,
                blocks: BlockRuns::new(&BLOCKS),
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
                blocks: BlockRuns::NONE,
            },
            WalRecord::Resize {
                p,
                o,
                new_size: 99,
                first: 0,
                blocks: BlockRuns::NONE,
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

    /// A [`MemDisk`] whose write number `fail_at` (from 0) fails.
    struct FailAt {
        disk: MemDisk,
        writes: u64,
        fail_at: u64,
    }

    impl BlockDevice for FailAt {
        fn block_size(&self) -> usize {
            self.disk.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), nasd_disk::DiskError> {
            self.disk.read_block(block, buf)
        }
        fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), nasd_disk::DiskError> {
            self.writes += 1;
            if self.writes - 1 == self.fail_at {
                return Err(nasd_disk::DiskError::PowerFailure);
            }
            self.disk.write_block(block, data)
        }
    }

    #[test]
    fn a_failed_commit_is_retried_whole() {
        // A commit that completes the old tail block, writes whole
        // blocks and stages a new tail fails at each of its writes in
        // turn; the next commit must land the same stream, byte-exact.
        let recs = sample_records();
        for fail_at in 0..4 {
            let (layout, _, mut wal) = fresh(4);
            let mut d = FailAt {
                disk: MemDisk::new(512, 2048),
                writes: 0,
                fail_at: u64::MAX,
            };
            assert!(wal.append(&recs[0]).unwrap());
            wal.commit(&mut d).unwrap();
            let mut appended = vec![recs[0]];
            while wal.pending.len() < 3 * 512 {
                for rec in &recs[1..] {
                    assert!(wal.append(rec).unwrap());
                    appended.push(*rec);
                }
            }
            d.fail_at = d.writes + fail_at;
            assert!(wal.commit(&mut d).is_err(), "write {fail_at} fails");
            wal.commit(&mut d).unwrap();
            let log = Wal::read_log(&d.disk, &layout).unwrap();
            let (rewal, replayed) = Wal::recover(&log, &layout, 4);
            assert_eq!(replayed, appended, "failed at write {fail_at}");
            assert_eq!(rewal.durable_bytes(), wal.durable_bytes());
            assert_eq!(rewal.tail, wal.tail);
        }
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

    /// A `Write` record naming `runs` one-block runs (every other
    /// block, so no two are consecutive).
    fn scattered(runs: u64) -> Vec<u64> {
        (0..runs).map(|i| 100 + 2 * i).collect()
    }

    fn write_naming(blocks: &[u64]) -> WalRecord<'_> {
        WalRecord::Write {
            p: PartitionId(1),
            o: ObjectId(0x100),
            size: 1 << 20,
            first: 3,
            blocks: BlockRuns::new(blocks),
            now: 2,
        }
    }

    #[test]
    fn damage_anywhere_in_the_largest_frame_stops_replay_before_it() {
        // An 8-block log of 512 B blocks: 4096 bytes. After one small
        // record, the largest frame the log can still take is a write
        // naming as many scattered blocks as fit; one more run would
        // not. Every byte of that frame is damaged in turn.
        let layout = Layout::compute(512, 64);
        let capacity = (layout.log_blocks * 512) as usize;
        let before = WalRecord::Resize {
            p: PartitionId(1),
            o: ObjectId(0x100),
            new_size: 5,
            first: 0,
            blocks: BlockRuns::NONE,
            now: 1,
        };
        let frame_start = before.body_len() + FRAME_OVERHEAD;
        let fixed = write_naming(&[]).body_len() + FRAME_OVERHEAD;
        let runs = ((capacity - frame_start - fixed) / RUN_BYTES) as u64;
        let log_with = |runs: u64| {
            let mut wal = Wal::new(&layout);
            wal.enabled = true;
            wal.reset(6);
            assert!(wal.append(&before).unwrap());
            let blocks = scattered(runs);
            let fitted = wal.append(&write_naming(&blocks)).unwrap();
            (wal, fitted)
        };
        assert!(!log_with(runs + 1).1, "one more run would not fit");
        let (mut wal, fitted) = log_with(runs);
        assert!(fitted, "the largest frame fits");
        let mut d = MemDisk::new(512, 64);
        wal.commit(&mut d).unwrap();
        let frame_end = wal.durable_bytes() as usize;
        assert!(capacity - frame_end < RUN_BYTES, "the frame fills the log");
        let log = Wal::read_log(&d, &layout).unwrap();
        let blocks = scattered(runs);
        let big = write_naming(&blocks);
        let (_, intact) = Wal::recover(&log, &layout, 6);
        assert_eq!(intact, [before, big]);

        let stops_before_the_frame = |image: &[u8], what: &str, at: usize| {
            let (rewal, replayed) = Wal::recover(image, &layout, 6);
            assert_eq!(replayed, [before], "{what} at {at}");
            assert_eq!(rewal.durable_bytes(), frame_start as u64, "{what} at {at}");
            assert_eq!(rewal.tail, &log[..frame_start], "{what} at {at}");
        };
        for at in frame_start..frame_end {
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
    fn a_write_record_names_blocks_and_carries_no_payload() {
        // A 64 KiB write on 8 KiB blocks, even scattered over eight
        // runs, logs a frame of its block map alone.
        let blocks = scattered(8);
        let rec = write_naming(&blocks);
        let mut w = WireWriter::new();
        rec.encode(&mut w);
        assert_eq!(w.len(), rec.body_len());
        assert_eq!(rec.body_len(), 35 + 4 + 8 * RUN_BYTES);
        let contiguous: Vec<u64> = (500..508).collect();
        let one_run = write_naming(&contiguous);
        assert_eq!(one_run.body_len(), 35 + 4 + RUN_BYTES);
        match WalRecord::decode(&w.into_vec()).unwrap() {
            WalRecord::Write { blocks: got, .. } => {
                assert_eq!(got.iter().collect::<Vec<_>>(), blocks);
                assert_eq!(got.len(), 8);
            }
            other => panic!("decoded {other:?}"),
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
        let blocks = scattered(60);
        let rec = write_naming(&blocks);
        let mut appended = 0;
        while wal.append(&rec).unwrap() {
            appended += 1;
            assert!(appended < 100, "append never refused");
        }
        assert_eq!(rec.body_len() + FRAME_OVERHEAD, 1_027);
        assert_eq!(appended, 3, "4096 bytes hold three 1027-byte frames");
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
