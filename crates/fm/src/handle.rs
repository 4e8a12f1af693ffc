//! File handles, attributes and file-manager errors.

use nasd_proto::{DriveId, NasdStatus, ObjectAttributes, ObjectId, PartitionId};
use std::fmt;

/// An NFS-style opaque-but-stateless file handle: it encodes where the
/// backing NASD object lives, so the file manager keeps no per-open state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle {
    /// Drive holding the object.
    pub drive: DriveId,
    /// Partition on that drive.
    pub partition: PartitionId,
    /// The backing object.
    pub object: ObjectId,
}

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh({}, {}, {})", self.drive, self.partition, self.object)
    }
}

/// File type as the filesystem sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

/// File attributes as filesystems present them: some fields "correspond
/// directly to NASD-maintained object attributes" (length, modify time),
/// the rest (mode, owner) live in the object's uninterpreted
/// filesystem-specific attribute (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FmAttrs {
    /// Regular file or directory.
    pub file_type: FileType,
    /// File length — the NASD object size.
    pub size: u64,
    /// Last modification — the NASD data-modify time.
    pub mtime: u64,
    /// Unix-ish mode bits — stored in `fs_specific`.
    pub mode: u16,
    /// Owner id — stored in `fs_specific`.
    pub uid: u32,
}

impl FmAttrs {
    /// Attributes of a just-created, still empty file or directory.
    pub(crate) fn fresh(file_type: FileType, mode: u16, uid: u32) -> FmAttrs {
        FmAttrs {
            file_type,
            size: 0,
            mtime: 0,
            mode,
            uid,
        }
    }

    /// Pack the file-manager-policy fields into the head of an
    /// `fs_specific` attribute block.
    #[must_use]
    pub fn pack_policy(&self) -> [u8; 8] {
        let ft = match self.file_type {
            FileType::Regular => 1,
            FileType::Directory => 2,
        };
        let [m0, m1] = self.mode.to_be_bytes();
        let [u0, u1, u2, u3] = self.uid.to_be_bytes();
        [ft, m0, m1, u0, u1, u2, u3, 0]
    }

    /// Recover policy fields from an `fs_specific` block; `None` if the
    /// type byte is unset (object not created by a file manager).
    #[must_use]
    pub fn unpack_policy(fs_specific: &[u8]) -> Option<(FileType, u16, u32)> {
        let ft = match fs_specific.first()? {
            1 => FileType::Regular,
            2 => FileType::Directory,
            _ => return None,
        };
        let mode = u16::from_be_bytes(fs_specific.get(1..3)?.try_into().ok()?);
        let uid = u32::from_be_bytes(fs_specific.get(3..7)?.try_into().ok()?);
        Some((ft, mode, uid))
    }

    /// File attributes out of a drive's object attributes: length and
    /// modify time are NASD-maintained, the policy fields come out of
    /// the `fs_specific` block.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::DriveError`] when no file manager stamped the
    /// object.
    pub fn from_object(obj: &ObjectAttributes) -> Result<FmAttrs, FmError> {
        let (file_type, mode, uid) = Self::unpack_policy(obj.fs_specific.as_slice())
            .ok_or(FmError::Drive(NasdStatus::DriveError))?;
        Ok(FmAttrs {
            file_type,
            size: obj.size,
            mtime: obj.data_modify_time,
            mode,
            uid,
        })
    }
}

/// Errors surfaced by file managers to their clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmError {
    /// Name not found in the directory.
    NotFound(String),
    /// Name already exists.
    Exists(String),
    /// Expected a directory.
    NotADirectory(String),
    /// Directory not empty on remove.
    NotEmpty(String),
    /// Volume/partition quota exhausted.
    QuotaExceeded,
    /// The drive rejected an operation.
    Drive(NasdStatus),
    /// Transport failure.
    Transport,
    /// The drive stayed unreachable (timeouts, disconnections or
    /// transient busy bounces) for every one of `attempts` retries.
    Unavailable {
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// Caller lacks permission (mode bits).
    Permission,
}

impl fmt::Display for FmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmError::NotFound(n) => write!(f, "not found: {n}"),
            FmError::Exists(n) => write!(f, "already exists: {n}"),
            FmError::NotADirectory(n) => write!(f, "not a directory: {n}"),
            FmError::NotEmpty(n) => write!(f, "directory not empty: {n}"),
            FmError::QuotaExceeded => f.write_str("quota exceeded"),
            FmError::Drive(s) => write!(f, "drive error: {s}"),
            FmError::Transport => f.write_str("transport failure"),
            FmError::Unavailable { attempts } => {
                write!(f, "drive unavailable after {attempts} attempts")
            }
            FmError::Permission => f.write_str("permission denied"),
        }
    }
}

impl std::error::Error for FmError {}

impl From<NasdStatus> for FmError {
    fn from(s: NasdStatus) -> Self {
        FmError::Drive(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_pack_roundtrip() {
        let attrs = FmAttrs {
            file_type: FileType::Directory,
            size: 0,
            mtime: 0,
            mode: 0o755,
            uid: 1001,
        };
        let packed = attrs.pack_policy();
        let (ft, mode, uid) = FmAttrs::unpack_policy(&packed).unwrap();
        assert_eq!(ft, FileType::Directory);
        assert_eq!(mode, 0o755);
        assert_eq!(uid, 1001);
    }

    #[test]
    fn unpack_rejects_uninitialized() {
        assert_eq!(FmAttrs::unpack_policy(&[0u8; 8]), None);
        assert_eq!(FmAttrs::unpack_policy(&[]), None);
    }

    #[test]
    fn display_impls() {
        let fh = FileHandle {
            drive: DriveId(1),
            partition: PartitionId(2),
            object: ObjectId(3),
        };
        assert_eq!(fh.to_string(), "fh(drive-1, part-2, obj-3)");
        assert_eq!(FmError::QuotaExceeded.to_string(), "quota exceeded");
    }
}
