//! Directory object format.
//!
//! "Each file and each directory occupies exactly one NASD object" — a
//! directory object's data is the serialized list of its entries. The NFS
//! file manager parses these server-side; AFS clients "perform lookup
//! operations by parsing directory files locally" (§5.1), so the format
//! is part of the protocol, not private to the manager.

use crate::handle::FileHandle;
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};
use nasd_proto::{DriveId, ObjectId, PartitionId};

/// One directory entry: a name bound to the file handle of its object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirRecord {
    /// Entry name (no `/`).
    pub name: String,
    /// Where the named object lives.
    pub handle: FileHandle,
    /// Whether the entry is itself a directory.
    pub is_dir: bool,
}

impl WireEncode for DirRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.bytes(self.name.as_bytes());
        self.handle.drive.encode(w);
        self.handle.partition.encode(w);
        self.handle.object.encode(w);
        w.u8(u8::from(self.is_dir));
    }
}

impl WireDecode for DirRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let name = String::from_utf8_lossy(r.bytes()?).into_owned();
        let drive = DriveId::decode(r)?;
        let partition = PartitionId::decode(r)?;
        let object = ObjectId::decode(r)?;
        let is_dir = match r.u8()? {
            0 => false,
            1 => true,
            v => {
                return Err(DecodeError::BadTag {
                    context: "dir entry kind",
                    value: u64::from(v),
                })
            }
        };
        Ok(DirRecord {
            name,
            handle: FileHandle {
                drive,
                partition,
                object,
            },
            is_dir,
        })
    }
}

/// Wire bytes of the smallest record (empty name): name length, drive,
/// partition, object, kind.
const MIN_RECORD: usize = 4 + 8 + 2 + 8 + 1;

/// Serialize a directory's entries into object data.
#[must_use]
pub fn encode_dir(entries: &[DirRecord]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(entries.len() as u32);
    for e in entries {
        e.encode(&mut w);
    }
    w.into_vec()
}

/// Parse a directory object's data. The leading record count is
/// authoritative: bytes after the last record are ignored, so a shrink
/// whose `Resize` never landed (the object kept the tail of a longer
/// listing) still reads as the listing that was written.
///
/// # Errors
///
/// [`DecodeError`] on corrupt data, including a listing cut short.
pub fn decode_dir(data: &[u8]) -> Result<Vec<DirRecord>, DecodeError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let mut r = WireReader::new(data);
    let n = r.u32()? as usize;
    // Never pre-size past what the data can hold, whatever the count
    // claims.
    let mut out = Vec::with_capacity(n.min(data.len() / MIN_RECORD));
    for _ in 0..n {
        out.push(DirRecord::decode(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, obj: u64, is_dir: bool) -> DirRecord {
        DirRecord {
            name: name.to_string(),
            handle: FileHandle {
                drive: DriveId(1),
                partition: PartitionId(1),
                object: ObjectId(obj),
            },
            is_dir,
        }
    }

    #[test]
    fn roundtrip() {
        let entries = vec![rec("a", 256, false), rec("subdir", 257, true)];
        let data = encode_dir(&entries);
        assert_eq!(decode_dir(&data).unwrap(), entries);
    }

    #[test]
    fn empty_dir() {
        assert!(decode_dir(&[]).unwrap().is_empty());
        let data = encode_dir(&[]);
        assert!(decode_dir(&data).unwrap().is_empty());
    }

    #[test]
    fn corrupt_rejected() {
        let mut data = encode_dir(&[rec("x", 1, false)]);
        data.truncate(data.len() - 1);
        assert!(decode_dir(&data).is_err());
    }

    #[test]
    fn stale_tail_ignored() {
        let long = encode_dir(&[rec("keep", 1, false), rec("gone", 2, true)]);
        let mut data = encode_dir(&[rec("keep", 1, false)]);
        let written = data.len();
        // The shorter listing over the longer one, never shrunk.
        data.extend_from_slice(&long[written..]);
        assert_eq!(decode_dir(&data).unwrap(), vec![rec("keep", 1, false)]);
        assert_eq!(MIN_RECORD, encode_dir(&[rec("", 0, false)]).len() - 4);
    }

    #[test]
    fn huge_count_does_not_preallocate() {
        let mut data = encode_dir(&[rec("x", 1, false)]);
        data[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_dir(&data).is_err());
    }

    #[test]
    fn unicode_names() {
        let entries = vec![rec("fïlé-名前", 300, false)];
        let data = encode_dir(&entries);
        assert_eq!(decode_dir(&data).unwrap()[0].name, "fïlé-名前");
    }
}
