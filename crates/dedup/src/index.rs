//! Archive index formats: ordered digest lists describing one archive.
//!
//! An archive's *content* lives as chunks in the store; its *shape* is
//! an index — the ordered list of chunk digests to concatenate. Two
//! formats, mirroring the two chunkers:
//!
//! - [`FixedIndex`]: equal-size chunks on a grid (block images). Only
//!   the grid size, total length and the digest list are stored.
//! - [`DynamicIndex`]: content-defined chunks; each entry records the
//!   *end offset* of the chunk, so a restore can seek by binary search
//!   and the total length is the last entry's offset.
//!
//! Both carry canonical `nasd-proto` wire codecs (big-endian, tagged,
//! length-checked) and reject structurally impossible indexes at decode
//! time — a corrupt index is an error, never a garbled restore.

#![deny(clippy::cast_possible_truncation)]

use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};

/// SHA-256 content address of one chunk.
pub type ChunkDigest = [u8; 32];

/// Wire tag for [`FixedIndex`] (also the first byte of an encoded
/// [`ArchiveIndex`]).
const TAG_FIXED: u8 = 1;
/// Wire tag for [`DynamicIndex`].
const TAG_DYNAMIC: u8 = 2;

/// Cap on declared chunk counts: a 16 GiB archive of 4 KiB chunks.
/// Rejecting silly counts at decode time keeps a corrupt length field
/// from pre-allocating unbounded memory.
const MAX_CHUNKS: u32 = 1 << 22;

/// Index for a fixed-grid archive (block image).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedIndex {
    /// Grid size; every chunk but the last is exactly this long.
    pub chunk_size: u64,
    /// Total archive length in bytes.
    pub total_len: u64,
    /// Digests in archive order.
    pub digests: Vec<ChunkDigest>,
}

/// Index for a content-defined archive.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DynamicIndex {
    /// `(end_offset, digest)` per chunk, end offsets strictly
    /// increasing; the last end offset is the archive length.
    pub entries: Vec<(u64, ChunkDigest)>,
}

/// Either index format, as stored in a snapshot manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArchiveIndex {
    /// Fixed-grid archive.
    Fixed(FixedIndex),
    /// Content-defined archive.
    Dynamic(DynamicIndex),
}

impl FixedIndex {
    /// Expected number of chunks for `total_len` on this grid.
    fn expected_chunks(chunk_size: u64, total_len: u64) -> u64 {
        if chunk_size == 0 {
            return 0;
        }
        total_len.div_ceil(chunk_size)
    }

    /// Structural validity: chunk count matches the grid.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        (self.total_len == 0 && self.digests.is_empty())
            || Self::expected_chunks(self.chunk_size, self.total_len) == self.digests.len() as u64
    }
}

impl DynamicIndex {
    /// Total archive length: the last chunk's end offset.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.entries.last().map_or(0, |&(end, _)| end)
    }

    /// Structural validity: end offsets strictly increasing from > 0.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let mut prev = 0u64;
        for &(end, _) in &self.entries {
            if end <= prev {
                return false;
            }
            prev = end;
        }
        true
    }
}

impl ArchiveIndex {
    /// Total archive length in bytes.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        match self {
            ArchiveIndex::Fixed(f) => f.total_len,
            ArchiveIndex::Dynamic(d) => d.total_len(),
        }
    }

    /// Number of chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        match self {
            ArchiveIndex::Fixed(f) => f.digests.len(),
            ArchiveIndex::Dynamic(d) => d.entries.len(),
        }
    }

    /// Digests in archive order.
    pub fn digests(&self) -> impl Iterator<Item = &ChunkDigest> + '_ {
        match self {
            ArchiveIndex::Fixed(f) => IndexDigests::Fixed(f.digests.iter()),
            ArchiveIndex::Dynamic(d) => IndexDigests::Dynamic(d.entries.iter()),
        }
    }
}

/// Iterator unifying the two index layouts for [`ArchiveIndex::digests`].
enum IndexDigests<'a> {
    Fixed(std::slice::Iter<'a, ChunkDigest>),
    Dynamic(std::slice::Iter<'a, (u64, ChunkDigest)>),
}

impl<'a> Iterator for IndexDigests<'a> {
    type Item = &'a ChunkDigest;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            IndexDigests::Fixed(it) => it.next(),
            IndexDigests::Dynamic(it) => it.next().map(|(_, d)| d),
        }
    }
}

fn read_count(r: &mut WireReader<'_>) -> Result<usize, DecodeError> {
    let n = r.u32()?;
    if n > MAX_CHUNKS {
        return Err(DecodeError::BadTag {
            context: "chunk count",
            value: u64::from(n),
        });
    }
    usize::try_from(n).map_err(|_| DecodeError::BadTag {
        context: "chunk count",
        value: u64::from(n),
    })
}

fn read_digest(r: &mut WireReader<'_>) -> Result<ChunkDigest, DecodeError> {
    let mut d = [0u8; 32];
    d.copy_from_slice(r.raw(32)?);
    Ok(d)
}

impl WireEncode for FixedIndex {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(TAG_FIXED).u64(self.chunk_size).u64(self.total_len);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "chunk counts are bounded by MAX_CHUNKS (1<<22), far below u32::MAX"
        )]
        w.u32(self.digests.len() as u32);
        for d in &self.digests {
            w.raw(d);
        }
    }
}

impl WireDecode for FixedIndex {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let tag = r.u8()?;
        if tag != TAG_FIXED {
            return Err(DecodeError::BadTag {
                context: "fixed index",
                value: u64::from(tag),
            });
        }
        let chunk_size = r.u64()?;
        let total_len = r.u64()?;
        let n = read_count(r)?;
        let mut digests = Vec::with_capacity(n);
        for _ in 0..n {
            digests.push(read_digest(r)?);
        }
        let idx = FixedIndex {
            chunk_size,
            total_len,
            digests,
        };
        if !idx.is_consistent() {
            return Err(DecodeError::BadTag {
                context: "fixed index shape",
                value: 0,
            });
        }
        Ok(idx)
    }
}

impl WireEncode for DynamicIndex {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(TAG_DYNAMIC);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "chunk counts are bounded by MAX_CHUNKS (1<<22), far below u32::MAX"
        )]
        w.u32(self.entries.len() as u32);
        for (end, d) in &self.entries {
            w.u64(*end).raw(d);
        }
    }
}

impl WireDecode for DynamicIndex {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let tag = r.u8()?;
        if tag != TAG_DYNAMIC {
            return Err(DecodeError::BadTag {
                context: "dynamic index",
                value: u64::from(tag),
            });
        }
        let n = read_count(r)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let end = r.u64()?;
            entries.push((end, read_digest(r)?));
        }
        let idx = DynamicIndex { entries };
        if !idx.is_consistent() {
            return Err(DecodeError::BadTag {
                context: "dynamic index shape",
                value: 0,
            });
        }
        Ok(idx)
    }
}

impl WireEncode for ArchiveIndex {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ArchiveIndex::Fixed(f) => f.encode(w),
            ArchiveIndex::Dynamic(d) => d.encode(w),
        }
    }
}

impl WireDecode for ArchiveIndex {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        // Peek the tag by decoding the matching concrete type; the
        // concrete decoders re-read it.
        let mut probe = WireReader::new(r.rest());
        let tag = probe.u8()?;
        match tag {
            TAG_FIXED => Ok(ArchiveIndex::Fixed(FixedIndex::decode(r)?)),
            TAG_DYNAMIC => Ok(ArchiveIndex::Dynamic(DynamicIndex::decode(r)?)),
            _ => Err(DecodeError::BadTag {
                context: "archive index",
                value: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(b: u8) -> ChunkDigest {
        [b; 32]
    }

    #[test]
    fn fixed_round_trip() {
        let idx = FixedIndex {
            chunk_size: 4096,
            total_len: 4096 * 2 + 100,
            digests: vec![d(1), d(2), d(3)],
        };
        assert!(idx.is_consistent());
        let wire = idx.to_wire();
        assert_eq!(FixedIndex::from_wire(&wire).unwrap(), idx);
        let via_enum = ArchiveIndex::from_wire(&wire).unwrap();
        assert_eq!(via_enum, ArchiveIndex::Fixed(idx));
    }

    #[test]
    fn dynamic_round_trip_and_len() {
        let idx = DynamicIndex {
            entries: vec![(100, d(1)), (250, d(2)), (251, d(3))],
        };
        assert!(idx.is_consistent());
        assert_eq!(idx.total_len(), 251);
        let wire = idx.to_wire();
        assert_eq!(DynamicIndex::from_wire(&wire).unwrap(), idx);
        assert_eq!(ArchiveIndex::from_wire(&wire).unwrap().total_len(), 251);
    }

    #[test]
    fn inconsistent_indexes_rejected() {
        let bad_fixed = FixedIndex {
            chunk_size: 4096,
            total_len: 4096 * 10,
            digests: vec![d(1)],
        };
        assert!(FixedIndex::from_wire(&bad_fixed.to_wire()).is_err());

        let bad_dyn = DynamicIndex {
            entries: vec![(100, d(1)), (50, d(2))],
        };
        assert!(DynamicIndex::from_wire(&bad_dyn.to_wire()).is_err());
    }

    #[test]
    fn truncation_and_bad_tag_rejected() {
        let idx = DynamicIndex {
            entries: vec![(10, d(9))],
        };
        let wire = idx.to_wire();
        for cut in 0..wire.len() {
            assert!(DynamicIndex::from_wire(&wire[..cut]).is_err());
        }
        assert!(ArchiveIndex::from_wire(&[99]).is_err());
        // Absurd declared count is rejected before allocation.
        let mut w = WireWriter::new();
        w.u8(TAG_DYNAMIC).u32(u32::MAX);
        assert!(DynamicIndex::from_wire(&w.into_vec()).is_err());
    }

    #[test]
    fn digest_iteration_matches_order() {
        let fixed = ArchiveIndex::Fixed(FixedIndex {
            chunk_size: 10,
            total_len: 20,
            digests: vec![d(4), d(5)],
        });
        let got: Vec<u8> = fixed.digests().map(|dg| dg[0]).collect();
        assert_eq!(got, vec![4, 5]);
        assert_eq!(fixed.chunk_count(), 2);
    }
}
