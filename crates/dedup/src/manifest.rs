//! Versioned snapshot manifests.
//!
//! A *snapshot* is one backup run: a named, timestamped set of archives
//! (e.g. `root.pxar` + `disk.img` for one host). The manifest is the
//! root of trust for a restore — it carries each archive's index plus a
//! whole-archive SHA-256, so a restore can prove the reassembled bytes
//! are exactly what was backed up even if every per-chunk check were
//! somehow fooled.
//!
//! The wire format is magic + version + body + trailing checksum over
//! everything before it; decoding verifies the checksum first, so a
//! torn manifest write surfaces as `Corrupt`, never as a half-parsed
//! snapshot. The version byte-gates format evolution: readers reject
//! versions they do not understand instead of misparsing them.

#![deny(clippy::cast_possible_truncation)]

use crate::error::DedupError;
use crate::index::ArchiveIndex;
use nasd_crypto::Sha256;
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};

/// Manifest format version understood by this crate.
pub const MANIFEST_VERSION: u32 = 1;

/// Manifest magic: `MANI`.
const MAGIC: u32 = 0x4D41_4E49;

/// Cap on archives per snapshot (sanity bound for decode).
const MAX_ARCHIVES: u32 = 4096;

/// One named archive inside a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchiveEntry {
    /// Archive name within the snapshot, e.g. `root.pxar`.
    pub name: String,
    /// The archive's chunk index.
    pub index: ArchiveIndex,
    /// SHA-256 of the complete reassembled archive.
    pub csum: [u8; 32],
}

/// A named, versioned backup snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Snapshot name, unique within a store (e.g. `host7/2026-08-08`).
    pub name: String,
    /// Logical creation time (the fleet's simulated clock, ns).
    pub created: u64,
    /// Archives in this snapshot.
    pub archives: Vec<ArchiveEntry>,
}

impl SnapshotManifest {
    /// Encode with magic, version and trailing checksum.
    #[must_use]
    pub fn to_wire_checksummed(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(MAGIC).u32(MANIFEST_VERSION);
        w.bytes(self.name.as_bytes()).u64(self.created);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "snapshots hold at most MAX_ARCHIVES (4096) archives, far below u32::MAX"
        )]
        w.u32(self.archives.len() as u32);
        for a in &self.archives {
            w.bytes(a.name.as_bytes());
            a.index.encode(&mut w);
            w.raw(&a.csum);
        }
        let csum = trailer_csum(w.as_slice());
        w.u64(csum);
        w.into_vec()
    }

    /// Decode and verify a checksummed manifest.
    pub fn from_wire_checksummed(buf: &[u8]) -> Result<Self, DedupError> {
        let body_len =
            buf.len()
                .checked_sub(8)
                .ok_or(DedupError::Decode(DecodeError::Truncated {
                    needed: 8,
                    remaining: buf.len(),
                }))?;
        let (body, trailer) = (
            buf.get(..body_len).unwrap_or_default(),
            buf.get(body_len..).unwrap_or_default(),
        );
        let mut tr = WireReader::new(trailer);
        if tr.u64()? != trailer_csum(body) {
            return Err(DedupError::Corrupt("manifest checksum mismatch"));
        }
        let mut r = WireReader::new(body);
        if r.u32()? != MAGIC {
            return Err(DedupError::Corrupt("bad manifest magic"));
        }
        let version = r.u32()?;
        if version != MANIFEST_VERSION {
            return Err(DedupError::Decode(DecodeError::BadTag {
                context: "manifest version",
                value: u64::from(version),
            }));
        }
        let name = read_string(&mut r)?;
        let created = r.u64()?;
        let n = r.u32()?;
        if n > MAX_ARCHIVES {
            return Err(DedupError::Decode(DecodeError::BadTag {
                context: "archive count",
                value: u64::from(n),
            }));
        }
        // Capacity is only a hint; `n` is already bounded by MAX_ARCHIVES.
        let mut archives = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
        for _ in 0..n {
            let aname = read_string(&mut r)?;
            let index = ArchiveIndex::decode(&mut r)?;
            let mut csum = [0u8; 32];
            csum.copy_from_slice(r.raw(32)?);
            archives.push(ArchiveEntry {
                name: aname,
                index,
                csum,
            });
        }
        r.finish().map_err(DedupError::Decode)?;
        Ok(SnapshotManifest {
            name,
            created,
            archives,
        })
    }

    /// Look up an archive by name.
    #[must_use]
    pub fn archive(&self, name: &str) -> Option<&ArchiveEntry> {
        self.archives.iter().find(|a| a.name == name)
    }

    /// Total logical bytes across all archives.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.archives.iter().map(|a| a.index.total_len()).sum()
    }
}

/// Trailing checksum: first 8 bytes of SHA-256 over the body.
fn trailer_csum(body: &[u8]) -> u64 {
    let d = Sha256::digest(body).into_bytes();
    d.iter()
        .take(8)
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

fn read_string(r: &mut WireReader<'_>) -> Result<String, DedupError> {
    let raw = r.bytes()?;
    String::from_utf8(raw.to_vec()).map_err(|_| DedupError::Corrupt("manifest string is not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DynamicIndex, FixedIndex};

    fn sample() -> SnapshotManifest {
        SnapshotManifest {
            name: "host7/2026-08-08".to_owned(),
            created: 123_456_789,
            archives: vec![
                ArchiveEntry {
                    name: "root.pxar".to_owned(),
                    index: ArchiveIndex::Dynamic(DynamicIndex {
                        entries: vec![(100, [1; 32]), (240, [2; 32])],
                    }),
                    csum: [7; 32],
                },
                ArchiveEntry {
                    name: "disk.img".to_owned(),
                    index: ArchiveIndex::Fixed(FixedIndex {
                        chunk_size: 64,
                        total_len: 130,
                        digests: vec![[3; 32], [4; 32], [5; 32]],
                    }),
                    csum: [8; 32],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let wire = m.to_wire_checksummed();
        let back = SnapshotManifest::from_wire_checksummed(&wire).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bytes(), 240 + 130);
        assert!(back.archive("disk.img").is_some());
        assert!(back.archive("nope").is_none());
    }

    #[test]
    fn every_truncation_rejected() {
        let wire = sample().to_wire_checksummed();
        for cut in 0..wire.len() {
            assert!(
                SnapshotManifest::from_wire_checksummed(&wire[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        let wire = sample().to_wire_checksummed();
        for pos in (0..wire.len()).step_by(7) {
            let mut bad = wire.clone();
            bad[pos] ^= 0x01;
            assert!(
                SnapshotManifest::from_wire_checksummed(&bad).is_err(),
                "bit flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn future_version_rejected_not_misparsed() {
        let m = sample();
        let mut wire = m.to_wire_checksummed();
        // Bump the version field (bytes 4..8) and re-stamp the checksum
        // so only the version check can reject it.
        wire[7] = 2;
        let body_len = wire.len() - 8;
        let csum = trailer_csum(&wire[..body_len]);
        wire[body_len..].copy_from_slice(&csum.to_be_bytes());
        let err = SnapshotManifest::from_wire_checksummed(&wire).unwrap_err();
        assert!(err.to_string().contains("manifest version"));
    }
}
