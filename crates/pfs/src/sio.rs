//! The SIO-style client interface.
//!
//! The Scalable I/O low-level API \[Corbett96\] is offset-explicit (no
//! shared file pointers) and built for parallel access: every compute
//! node reads and writes its own byte ranges, and collective operations
//! coordinate only through the (cheap) name and storage managers. That
//! is precisely what lets NASD PFS "pass the scalable bandwidth of
//! network-attached storage on to applications".

use bytes::ByteRope;
use nasd_cheops::{CheopsClient, CheopsFile, LogicalObjectId, Redundancy};
use nasd_fm::{FmError, NfsClient};
use nasd_proto::Rights;
use std::fmt;
use std::sync::Arc;

/// PFS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// Path not bound.
    NotFound(String),
    /// Path already bound.
    Exists(String),
    /// Storage or file-manager failure.
    Storage(FmError),
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::NotFound(p) => write!(f, "not found: {p}"),
            PfsError::Exists(p) => write!(f, "already exists: {p}"),
            PfsError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PfsError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FmError> for PfsError {
    fn from(e: FmError) -> Self {
        PfsError::Storage(e)
    }
}

/// An open PFS file: the Cheops file with its capability set.
#[derive(Clone, Debug)]
pub struct PfsFile {
    /// Bound path.
    pub path: String,
    /// Backing logical object.
    pub id: LogicalObjectId,
    inner: CheopsFile,
}

impl PfsFile {
    /// Stripe unit in bytes (applications align their chunks to this —
    /// the mining app uses it as its request size).
    #[must_use]
    pub fn stripe_unit(&self) -> u64 {
        self.inner.layout.stripe_unit
    }

    /// Stripe width (number of drives).
    #[must_use]
    pub fn width(&self) -> usize {
        self.inner.layout.width()
    }
}

/// A PFS client — one per compute node.
///
/// Names are the file manager's: a bound path is a regular file in its
/// directory tree whose data is the 8-byte [`LogicalObjectId`].
pub struct PfsClient {
    names: Arc<NfsClient>,
    storage: CheopsClient,
    stripe_unit: u64,
}

/// A file-manager error about the name `path`, in PFS terms.
fn name_error(e: FmError, path: &str) -> PfsError {
    match e {
        FmError::NotFound(_) => PfsError::NotFound(path.to_string()),
        FmError::Exists(_) => PfsError::Exists(path.to_string()),
        e => PfsError::Storage(e),
    }
}

impl PfsClient {
    /// Assemble a client from its services.
    #[must_use]
    pub fn new(names: Arc<NfsClient>, storage: CheopsClient, stripe_unit: u64) -> Self {
        PfsClient {
            names,
            storage,
            stripe_unit,
        }
    }

    /// Create a file striped over `width` drives and bind it to `path`.
    ///
    /// # Errors
    ///
    /// `Exists`, storage failures.
    pub fn create(&self, path: &str, width: usize) -> Result<PfsFile, PfsError> {
        let id = self
            .storage
            .create(width, self.stripe_unit, Redundancy::None)?;
        if let Err(e) = self.bind(path, id) {
            self.storage.remove(id)?;
            return Err(name_error(e, path));
        }
        self.open(path)
    }

    /// Create the name file and store `id` in it; a name whose id could
    /// not be written is removed again.
    fn bind(&self, path: &str, id: LogicalObjectId) -> Result<(), FmError> {
        let mut name = self.names.create(path, 0o644, 0)?;
        if let Err(e) = self.names.write(&mut name, 0, &id.0.to_be_bytes()) {
            self.names.remove(path)?;
            return Err(e);
        }
        Ok(())
    }

    /// The logical object `path` is bound to.
    fn resolve(&self, path: &str) -> Result<LogicalObjectId, PfsError> {
        let mut name = self
            .names
            .open(path, false)
            .map_err(|e| name_error(e, path))?;
        let data = self.names.read(&mut name, 0, 8)?.flatten();
        // A name whose creator has not stored the id yet is not bound.
        let id =
            <[u8; 8]>::try_from(data.as_ref()).map_err(|_| PfsError::NotFound(path.to_string()))?;
        Ok(LogicalObjectId(u64::from_be_bytes(id)))
    }

    /// Open a file by path, obtaining the layout and capability set.
    ///
    /// # Errors
    ///
    /// `NotFound`, storage failures.
    pub fn open(&self, path: &str) -> Result<PfsFile, PfsError> {
        let id = self.resolve(path)?;
        let inner = self.storage.open(id, Rights::ALL)?;
        Ok(PfsFile {
            path: path.to_string(),
            id,
            inner,
        })
    }

    /// Unbind and destroy a file.
    ///
    /// # Errors
    ///
    /// `NotFound`, storage failures.
    pub fn unlink(&self, path: &str) -> Result<(), PfsError> {
        let id = self.resolve(path)?;
        self.names.remove(path).map_err(|e| name_error(e, path))?;
        self.storage.remove(id)?;
        Ok(())
    }

    /// List the paths bound in directory `dir` (`/` for the root).
    ///
    /// # Errors
    ///
    /// `NotFound`, file-manager failures.
    pub fn list(&self, dir: &str) -> Result<Vec<String>, PfsError> {
        let entries = self.names.readdir(dir).map_err(|e| name_error(e, dir))?;
        let dir = dir.trim_end_matches('/');
        Ok(entries
            .into_iter()
            .map(|e| format!("{dir}/{}", e.name))
            .collect())
    }

    /// Read at an explicit offset (SIO style; no file pointer).
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn read_at(&self, file: &PfsFile, offset: u64, len: u64) -> Result<ByteRope, PfsError> {
        Ok(self.storage.read(&file.inner, offset, len)?)
    }

    /// Write at an explicit offset.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn write_at(&self, file: &PfsFile, offset: u64, data: &[u8]) -> Result<u64, PfsError> {
        Ok(self.storage.write(&file.inner, offset, data)?)
    }

    /// List-directed read (SIO's `listio`): fetch several extents in one
    /// call; each extent's request pipeline runs concurrently.
    ///
    /// # Errors
    ///
    /// Storage failures (first failure wins).
    pub fn read_list(
        &self,
        file: &PfsFile,
        extents: &[(u64, u64)],
    ) -> Result<Vec<ByteRope>, PfsError> {
        extents
            .iter()
            .map(|&(offset, len)| self.read_at(file, offset, len))
            .collect()
    }

    /// Current file size.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn size(&self, file: &PfsFile) -> Result<u64, PfsError> {
        Ok(self.storage.size(&file.inner)?)
    }
}

impl fmt::Debug for PfsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PfsClient { .. }")
    }
}
