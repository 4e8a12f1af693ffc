//! The NASD-NFS port (§5.1).
//!
//! "The combination of a stateless server, weak cache consistency, and
//! few filesystem management mechanisms make porting NFS to a NASD
//! environment straightforward. Data-moving operations (read, write) and
//! attribute reads (getattr) are directed to the NASD drive while all
//! other requests are handled by the file manager. Capabilities are
//! piggybacked on the file manager's response to lookup operations."

use crate::capcache::{CapCacheStats, LeaseCache};
use crate::core::FmCore;
use crate::dirfmt::DirRecord;
use crate::drives::{DriveEndpoint, DriveFleet};
use crate::handle::{FileHandle, FileType, FmAttrs, FmError};
use crate::link::ManagerLink;
use bytes::{ByteRope, Bytes};
use nasd_net::{spawn_service, CallOptions, Channel, Rpc, ServiceHandle};
use nasd_obs::Registry;
use nasd_proto::{ByteRange, Capability, RetryClass, Rights};
use std::sync::Arc;

/// Requests a client sends to the NFS file manager.
#[derive(Clone, Debug)]
pub enum NfsRequest {
    /// Fetch the root directory handle.
    GetRoot,
    /// Look `name` up in `dir`; the reply piggybacks a capability with
    /// read rights (plus write rights when `want_write`; never on a
    /// directory).
    Lookup {
        /// Directory to search.
        dir: FileHandle,
        /// Entry name, or a `/`-separated path relative to `dir`
        /// resolved in this one call; empty for `dir` itself.
        name: String,
        /// Also grant write/resize rights.
        want_write: bool,
    },
    /// Create a regular file.
    Create {
        /// Parent directory.
        dir: FileHandle,
        /// New file name.
        name: String,
        /// Mode bits.
        mode: u16,
        /// Owner.
        uid: u32,
    },
    /// Create a directory.
    Mkdir {
        /// Parent directory.
        dir: FileHandle,
        /// New directory name.
        name: String,
        /// Mode bits.
        mode: u16,
        /// Owner.
        uid: u32,
    },
    /// Remove a file or empty directory.
    Remove {
        /// Parent directory.
        dir: FileHandle,
        /// Entry name.
        name: String,
    },
    /// List a directory (parsing happens at the file manager for NFS).
    Readdir {
        /// Directory to list.
        dir: FileHandle,
    },
    /// Attribute read through the manager (policy fields included).
    GetAttr {
        /// File to stat.
        fh: FileHandle,
    },
    /// Change mode bits — "commands that may impact policy decisions...
    /// must go through the file manager".
    SetMode {
        /// File to change.
        fh: FileHandle,
        /// New mode bits.
        mode: u16,
    },
    /// Move an entry between directories (or rename in place). The
    /// backing object does not move — only the namespace changes, one of
    /// the payoffs of the object indirection.
    Rename {
        /// Source directory.
        from_dir: FileHandle,
        /// Source name.
        from: String,
        /// Destination directory.
        to_dir: FileHandle,
        /// Destination name.
        to: String,
    },
}

/// File manager replies.
#[derive(Clone, Debug)]
pub enum NfsResponse {
    /// Root handle and attributes.
    Root(FileHandle, FmAttrs),
    /// Lookup result with the piggybacked capability.
    Entry(FileHandle, FmAttrs, Box<Capability>),
    /// Create result with a write-capable capability.
    Created(FileHandle, Box<Capability>),
    /// Plain handle (mkdir).
    Handle(FileHandle),
    /// Directory listing.
    Entries(Vec<DirRecord>),
    /// Attributes.
    Attrs(FmAttrs),
    /// Success with no payload.
    Ok,
    /// Failure.
    Err(FmError),
}

/// The NASD-NFS file manager: the NFS personality of the file-manager
/// core (`core.rs`) — this wire enum, and the rule that a capability
/// rides on the `lookup`/`create` reply.
///
/// It holds no lock of its own: concurrent calls run at once, ordered
/// where they must be by the core's per-directory stripe locks.
pub struct NasdNfs {
    core: Arc<FmCore>,
}

impl NasdNfs {
    /// Bootstrap a file manager over `fleet`: creates the root directory
    /// object on drive 0.
    ///
    /// # Errors
    ///
    /// Drive failures during bootstrap.
    pub fn new(fleet: Arc<DriveFleet>) -> Result<Self, FmError> {
        Ok(Self::over(Arc::new(FmCore::new(fleet)?)))
    }

    /// The NFS personality over an existing core.
    pub(crate) fn over(core: Arc<FmCore>) -> Self {
        NasdNfs { core }
    }

    /// The root directory handle.
    #[must_use]
    pub fn root(&self) -> FileHandle {
        self.core.root()
    }

    /// A capability with the rights a lookup or create reply carries.
    fn grant(&self, fh: FileHandle, want_write: bool) -> Result<Box<Capability>, FmError> {
        let mut rights = Rights::READ | Rights::GETATTR;
        if want_write {
            rights |= Rights::WRITE | Rights::RESIZE;
        }
        Ok(Box::new(self.core.grant(fh, rights, ByteRange::FULL)?))
    }

    /// Handle one request (the service body).
    pub fn handle(&self, req: NfsRequest) -> NfsResponse {
        match self.handle_inner(req) {
            Ok(resp) => resp,
            Err(e) => NfsResponse::Err(e),
        }
    }

    fn handle_inner(&self, req: NfsRequest) -> Result<NfsResponse, FmError> {
        let core = &self.core;
        Ok(match req {
            NfsRequest::GetRoot => NfsResponse::Root(core.root(), core.attrs(core.root())?),
            NfsRequest::Lookup {
                dir,
                name,
                want_write,
            } => {
                // `name` may be a path: only its last component pays for
                // attributes and a capability. An empty name is a
                // by-handle refresh: NFS handles are stateless, so
                // re-issuing a capability for a handle the client already
                // holds is legitimate (subject to the same policy checks).
                let fh = core.lookup(dir, &name)?;
                let attrs = core.attrs(fh)?;
                // Directory objects are written by the manager alone.
                let read_only = attrs.mode & 0o200 == 0 || attrs.file_type == FileType::Directory;
                if want_write && read_only {
                    return Err(FmError::Permission);
                }
                NfsResponse::Entry(fh, attrs, self.grant(fh, want_write)?)
            }
            NfsRequest::Create {
                dir,
                name,
                mode,
                uid,
            } => {
                let fh = core.add(dir, name, FileType::Regular, mode, uid)?;
                NfsResponse::Created(fh, self.grant(fh, true)?)
            }
            NfsRequest::Mkdir {
                dir,
                name,
                mode,
                uid,
            } => NfsResponse::Handle(core.add(dir, name, FileType::Directory, mode, uid)?),
            NfsRequest::Remove { dir, name } => {
                core.remove(dir, name)?;
                NfsResponse::Ok
            }
            NfsRequest::Readdir { dir } => {
                NfsResponse::Entries(core.list(dir)?.iter().cloned().collect())
            }
            NfsRequest::GetAttr { fh } => NfsResponse::Attrs(core.attrs(fh)?),
            NfsRequest::Rename {
                from_dir,
                from,
                to_dir,
                to,
            } => {
                core.rename(from_dir, from, to_dir, to)?;
                NfsResponse::Ok
            }
            NfsRequest::SetMode { fh, mode } => {
                core.set_mode(fh, mode)?;
                NfsResponse::Ok
            }
        })
    }

    /// Serve the manager in-process: each call runs on its caller's
    /// thread, concurrently with other callers'.
    #[must_use]
    pub fn spawn(self) -> (Rpc<NfsRequest, NfsResponse>, ServiceHandle) {
        spawn_service(move |req| self.handle(req))
    }

    /// [`Self::spawn`], with the `Rpc` cloned `shards` times (at least
    /// once) and its one handle. Kept only because the repository
    /// benchmark still asks for shards; every clone reaches the one
    /// manager, which takes concurrent calls anyway.
    #[must_use]
    pub fn spawn_sharded(
        self,
        shards: usize,
    ) -> (Vec<Rpc<NfsRequest, NfsResponse>>, Vec<ServiceHandle>) {
        let (rpc, handle) = self.spawn();
        (vec![rpc; shards.max(1)], vec![handle])
    }
}

impl std::fmt::Debug for NasdNfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NasdNfs")
            .field("root", &self.root())
            .finish()
    }
}

/// An open file at the client: handle + cached capability.
#[derive(Clone, Debug)]
pub struct NfsFile {
    /// The file's handle.
    pub fh: FileHandle,
    /// Attributes at open time.
    pub attrs: FmAttrs,
    cap: Capability,
}

/// The client's capability-issue cache: the shared [`LeaseCache`]
/// policy keyed by `(path, want_write)` — the path as [`canonical`]
/// spells it — holding the lookup result (handle, attributes,
/// piggybacked capability) until the capability's own expiry in
/// drive-clock seconds.
type CapCache = LeaseCache<(String, bool), NfsFile>;

/// `path` as the client sends and caches it: absolute, components
/// joined by single slashes; the root is the empty string.
fn canonical(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        out.push('/');
        out.push_str(comp);
    }
    out
}

/// Whether canonical `path` is `top` or lies below it.
fn within(path: &str, top: &str) -> bool {
    path.strip_prefix(top)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Client library for [`NasdNfs`]: control through the manager's one
/// channel, data directly to the drives.
pub struct NfsClient {
    fm: Channel<NfsRequest, NfsResponse>,
    fleet: Arc<DriveFleet>,
    root: FileHandle,
    link: ManagerLink,
    cache: Option<CapCache>,
}

impl NfsClient {
    /// Attach over an already-built channel: fetches the root handle
    /// from the manager. Obtain clients through
    /// [`FmConnect::nfs`](crate::FmConnect::nfs).
    pub(crate) fn attach(
        fm: Channel<NfsRequest, NfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<Self, FmError> {
        let link = ManagerLink::default();
        let root = match link.call(&fm, NfsRequest::GetRoot)? {
            NfsResponse::Root(fh, _) => fh,
            NfsResponse::Err(e) => return Err(e),
            _ => return Err(FmError::Transport),
        };
        Ok(NfsClient {
            fm,
            fleet,
            root,
            link,
            cache: None,
        })
    }

    /// Enable the client-side capability-issue cache (leased,
    /// revocation-safe). With `registry`, the `capcache/hits`,
    /// `capcache/misses`, `capcache/evictions` and `capcache/refreshes`
    /// counters register there; otherwise they are private to
    /// [`Self::cap_cache_stats`].
    pub fn enable_cap_cache(&mut self, registry: Option<&Registry>) {
        self.cache = Some(CapCache::new(registry));
    }

    /// Totals of the capability-issue cache (zeros when disabled).
    #[must_use]
    pub fn cap_cache_stats(&self) -> CapCacheStats {
        self.cache.as_ref().map(CapCache::stats).unwrap_or_default()
    }

    /// The root directory handle.
    #[must_use]
    pub fn root(&self) -> FileHandle {
        self.root
    }

    /// Replace the full control-path call options (policy, per-attempt
    /// timeout and stats) in one shot.
    pub fn set_call_options(&mut self, opts: CallOptions) {
        self.link.set_call_options(opts);
    }

    fn call(&self, req: NfsRequest) -> Result<NfsResponse, FmError> {
        match self.link.call(&self.fm, req)? {
            NfsResponse::Err(e) => Err(e),
            other => Ok(other),
        }
    }

    /// Walk `path` (absolute, `/`-separated) to a directory handle: one
    /// manager call, or none when the capability cache holds the path.
    ///
    /// # Errors
    ///
    /// Lookup failures along the path.
    pub fn walk_dir(&self, path: &str) -> Result<FileHandle, FmError> {
        let canon = canonical(path);
        if canon.is_empty() {
            return Ok(self.root);
        }
        let dir = self.lookup(canon, false)?;
        if dir.attrs.file_type != FileType::Directory {
            let name = path.rsplit('/').find(|c| !c.is_empty()).unwrap_or_default();
            return Err(FmError::NotADirectory(name.to_string()));
        }
        Ok(dir.fh)
    }

    /// Resolve canonical `path` from the root in one manager call,
    /// served from the capability cache when possible.
    fn lookup(&self, path: String, want_write: bool) -> Result<NfsFile, FmError> {
        let Some(cache) = &self.cache else {
            return self.fetch(path, want_write);
        };
        let key = (path, want_write);
        if let Some(file) = cache.get(&key, self.fleet.now()) {
            return Ok(file);
        }
        let file = self.fetch(key.0.clone(), want_write)?;
        self.remember(key, &file);
        Ok(file)
    }

    /// Ask the manager for canonical `path`.
    fn fetch(&self, path: String, want_write: bool) -> Result<NfsFile, FmError> {
        match self.call(NfsRequest::Lookup {
            dir: self.root,
            name: path,
            want_write,
        })? {
            NfsResponse::Entry(fh, attrs, cap) => Ok(NfsFile {
                fh,
                attrs,
                cap: *cap,
            }),
            _ => Err(FmError::Transport),
        }
    }

    /// Cache a lookup result under `(path, want_write)` until its
    /// capability expires.
    fn remember(&self, key: (String, bool), file: &NfsFile) {
        if let Some(cache) = &self.cache {
            cache.put(key, file.clone(), file.cap.public.expires);
        }
    }

    /// Drop every cached lookup of `path` or of anything below it (both
    /// access modes).
    fn forget(&self, path: &str) {
        if let Some(cache) = &self.cache {
            let top = canonical(path);
            cache.retain(|(cached, _), _| !within(cached, &top));
        }
    }

    fn split_parent(path: &str) -> Result<(&str, &str), FmError> {
        let path = path.trim_end_matches('/');
        let idx = path
            .rfind('/')
            .ok_or_else(|| FmError::NotFound(path.to_string()))?;
        let (parent, name) = path.split_at(idx);
        let name = name.get(1..).unwrap_or("");
        if name.is_empty() {
            return Err(FmError::NotFound(path.to_string()));
        }
        Ok((if parent.is_empty() { "/" } else { parent }, name))
    }

    /// Open a file by path with one manager call (none on a capability
    /// cache hit). The returned [`NfsFile`] carries the capability;
    /// subsequent reads/writes go straight to the drive.
    ///
    /// # Errors
    ///
    /// Lookup failures, permission errors.
    pub fn open(&self, path: &str, want_write: bool) -> Result<NfsFile, FmError> {
        Self::split_parent(path)?;
        self.lookup(canonical(path), want_write)
    }

    /// Create a file, returning it opened for writing.
    ///
    /// # Errors
    ///
    /// `Exists`, lookup failures.
    pub fn create(&self, path: &str, mode: u16, uid: u32) -> Result<NfsFile, FmError> {
        let (parent, name) = Self::split_parent(path)?;
        let dir = self.walk_dir(parent)?;
        match self.call(NfsRequest::Create {
            dir,
            name: name.to_string(),
            mode,
            uid,
        })? {
            NfsResponse::Created(fh, cap) => {
                let file = NfsFile {
                    fh,
                    attrs: FmAttrs::fresh(FileType::Regular, mode, uid),
                    cap: *cap,
                };
                // The create capability has write rights.
                self.remember((canonical(path), true), &file);
                Ok(file)
            }
            _ => Err(FmError::Transport),
        }
    }

    /// Create a directory.
    ///
    /// # Errors
    ///
    /// `Exists`, lookup failures.
    pub fn mkdir(&self, path: &str, mode: u16, uid: u32) -> Result<FileHandle, FmError> {
        let (parent, name) = Self::split_parent(path)?;
        let dir = self.walk_dir(parent)?;
        match self.call(NfsRequest::Mkdir {
            dir,
            name: name.to_string(),
            mode,
            uid,
        })? {
            NfsResponse::Handle(fh) => Ok(fh),
            _ => Err(FmError::Transport),
        }
    }

    /// Remove a file or empty directory.
    ///
    /// # Errors
    ///
    /// `NotFound`, `NotEmpty`.
    pub fn remove(&self, path: &str) -> Result<(), FmError> {
        let (parent, name) = Self::split_parent(path)?;
        let dir = self.walk_dir(parent)?;
        match self.call(NfsRequest::Remove {
            dir,
            name: name.to_string(),
        })? {
            NfsResponse::Ok => {
                self.forget(path);
                Ok(())
            }
            _ => Err(FmError::Transport),
        }
    }

    /// Rename/move a file or directory.
    ///
    /// # Errors
    ///
    /// `NotFound` for the source, `Exists` for the destination.
    pub fn rename(&self, from_path: &str, to_path: &str) -> Result<(), FmError> {
        let (from_parent, from) = Self::split_parent(from_path)?;
        let (to_parent, to) = Self::split_parent(to_path)?;
        let from_dir = self.walk_dir(from_parent)?;
        let to_dir = self.walk_dir(to_parent)?;
        match self.call(NfsRequest::Rename {
            from_dir,
            from: from.to_string(),
            to_dir,
            to: to.to_string(),
        })? {
            NfsResponse::Ok => {
                self.forget(from_path);
                self.forget(to_path);
                Ok(())
            }
            _ => Err(FmError::Transport),
        }
    }

    /// List a directory.
    ///
    /// # Errors
    ///
    /// Lookup failures.
    pub fn readdir(&self, path: &str) -> Result<Vec<DirRecord>, FmError> {
        let dir = self.walk_dir(path)?;
        match self.call(NfsRequest::Readdir { dir })? {
            NfsResponse::Entries(v) => Ok(v),
            _ => Err(FmError::Transport),
        }
    }

    /// Run `op` against the file's drive with its capability. When the
    /// drive sends the client "back to the file manager"
    /// ([`RetryClass::Refresh`]: revoked, expired or replayed), fetch a
    /// fresh capability with one lookup and run `op` once more.
    fn with_fresh_cap<T>(
        &self,
        file: &mut NfsFile,
        want_write: bool,
        op: impl Fn(&DriveEndpoint, &Capability) -> Result<T, FmError>,
    ) -> Result<T, FmError> {
        let ep = self.fleet.resolve(file.fh)?;
        match op(ep, &file.cap) {
            Err(FmError::Drive(status)) if status.retry_class() == RetryClass::Refresh => {
                self.refresh(file, want_write)?;
                op(ep, &file.cap)
            }
            other => other,
        }
    }

    /// Read file data — **directly from the drive**, no file manager
    /// involvement (until a capability needs refreshing).
    ///
    /// # Errors
    ///
    /// Drive statuses after refresh.
    pub fn read(&self, file: &mut NfsFile, offset: u64, len: u64) -> Result<ByteRope, FmError> {
        self.with_fresh_cap(file, false, |ep, cap| ep.read(cap, offset, len))
    }

    /// Write file data — directly to the drive.
    ///
    /// # Errors
    ///
    /// Drive statuses after refresh.
    pub fn write(&self, file: &mut NfsFile, offset: u64, data: &[u8]) -> Result<u64, FmError> {
        // nasd-lint: allow(hot-path-copy, "write ingest: the borrowed caller slice becomes the owned request payload")
        let bytes = Bytes::copy_from_slice(data);
        self.with_fresh_cap(file, true, |ep, cap| ep.write(cap, offset, bytes.clone()))
    }

    /// Attribute read — directly from the drive (§5.1 sends `getattr`
    /// to the drive, not the manager).
    ///
    /// # Errors
    ///
    /// Drive statuses after refresh.
    pub fn getattr(&self, file: &mut NfsFile) -> Result<FmAttrs, FmError> {
        let obj_attrs = self.with_fresh_cap(file, false, |ep, cap| ep.get_attr(cap))?;
        FmAttrs::from_object(&obj_attrs)
    }

    /// Re-fetch the capability after revocation or expiry. NFS's
    /// stateless design makes this just another lookup.
    fn refresh(&self, file: &mut NfsFile, want_write: bool) -> Result<(), FmError> {
        if let Some(cache) = &self.cache {
            // The cached capability was rejected by a drive (revocation
            // or expiry): count the refresh and purge every cached
            // entry resolving to this handle so the next open re-issues.
            cache.note_refresh();
            cache.retain(|_, cached| cached.fh != file.fh);
        }
        // NFS handles are stateless, so the manager grants by handle: a
        // lookup with an empty name re-issues for `dir` itself.
        match self.call(NfsRequest::Lookup {
            dir: file.fh,
            name: String::new(),
            want_write,
        })? {
            NfsResponse::Entry(_, attrs, cap) => {
                file.attrs = attrs;
                file.cap = *cap;
                Ok(())
            }
            _ => Err(FmError::Transport),
        }
    }
}

impl std::fmt::Debug for NfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsClient")
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_net::RetryPolicy;
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;

    fn setup(ndrives: usize) -> (NfsClient, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(ndrives, DriveConfig::small(), PartitionId(1), 16 << 20)
                .unwrap(),
        );
        let fm = NasdNfs::new(Arc::clone(&fleet)).unwrap();
        let (rpc, _handle) = fm.spawn();
        let client = NfsClient::attach(Channel::in_proc(rpc), Arc::clone(&fleet)).unwrap();
        (client, fleet)
    }

    #[test]
    fn create_write_read_through_full_stack() {
        let (client, _fleet) = setup(2);
        let mut f = client.create("/hello.txt", 0o644, 1).unwrap();
        client.write(&mut f, 0, b"nasd nfs").unwrap();
        let mut f2 = client.open("/hello.txt", false).unwrap();
        assert_eq!(client.read(&mut f2, 0, 8).unwrap(), b"nasd nfs");
        assert_eq!(f2.attrs.size, 8);
        assert_eq!(f.cap.public.version, f2.cap.public.version);
    }

    #[test]
    fn directories_and_paths() {
        let (client, _fleet) = setup(2);
        client.mkdir("/a", 0o755, 0).unwrap();
        client.mkdir("/a/b", 0o755, 0).unwrap();
        let mut f = client.create("/a/b/deep.txt", 0o644, 1).unwrap();
        client.write(&mut f, 0, b"found me").unwrap();
        let mut g = client.open("/a/b/deep.txt", false).unwrap();
        assert_eq!(client.read(&mut g, 0, 8).unwrap(), b"found me");

        let names: Vec<String> = client
            .readdir("/a/b")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["deep.txt"]);
    }

    #[test]
    fn files_round_robin_across_drives() {
        let (client, _fleet) = setup(3);
        let mut drives = std::collections::HashSet::new();
        for i in 0..6 {
            let f = client.create(&format!("/f{i}"), 0o644, 0).unwrap();
            drives.insert(f.fh.drive);
        }
        assert_eq!(drives.len(), 3, "placement should use every drive");
    }

    #[test]
    fn data_moves_without_file_manager() {
        // Once opened, reads work even with the manager gone — the
        // capability is the only authority needed.
        let (client, fleet) = setup(1);
        let mut f = client.create("/direct", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"no fm needed").unwrap();
        // Talk straight to the drive endpoint with the open capability.
        let ep = fleet.resolve(f.fh).unwrap();
        let data = ep.read(&f.cap, 0, 12).unwrap();
        assert_eq!(data, b"no fm needed");
    }

    #[test]
    fn remove_and_not_found() {
        let (client, _fleet) = setup(1);
        client.create("/gone", 0o644, 0).unwrap();
        client.remove("/gone").unwrap();
        assert!(matches!(
            client.open("/gone", false),
            Err(FmError::NotFound(_))
        ));
        assert!(matches!(client.remove("/gone"), Err(FmError::NotFound(_))));
    }

    #[test]
    fn nonempty_dir_not_removable() {
        let (client, _fleet) = setup(1);
        client.mkdir("/d", 0o755, 0).unwrap();
        client.create("/d/x", 0o644, 0).unwrap();
        assert!(matches!(client.remove("/d"), Err(FmError::NotEmpty(_))));
        client.remove("/d/x").unwrap();
        client.remove("/d").unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let (client, _fleet) = setup(1);
        client.create("/dup", 0o644, 0).unwrap();
        assert!(matches!(
            client.create("/dup", 0o644, 0),
            Err(FmError::Exists(_))
        ));
    }

    #[test]
    fn write_denied_without_write_mode() {
        let (client, _fleet) = setup(1);
        let mut f = client.create("/ro", 0o444, 1).unwrap();
        client.write(&mut f, 0, b"seed").unwrap(); // creator's cap still valid
        assert!(matches!(client.open("/ro", true), Err(FmError::Permission)));
        // Read-only open works.
        assert!(client.open("/ro", false).is_ok());
    }

    #[test]
    fn no_write_capability_on_a_directory() {
        let (client, _fleet) = setup(1);
        client.mkdir("/d", 0o777, 0).unwrap();
        assert!(matches!(client.open("/d", true), Err(FmError::Permission)));
        // The manager writes directory objects; clients may still read.
        let dir = client.open("/d", false).unwrap();
        assert_eq!(dir.attrs.file_type, FileType::Directory);
    }

    #[test]
    fn an_open_is_one_manager_call() {
        use nasd_net::CallStats;
        let (mut client, _fleet) = setup(2);
        client.mkdir("/a", 0o755, 0).unwrap();
        client.mkdir("/a/b", 0o755, 0).unwrap();
        let mut f = client.create("/a/b/deep", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"three levels").unwrap();
        let stats = CallStats::in_registry(&Registry::new(), "fm");
        client
            .set_call_options(CallOptions::retry(RetryPolicy::control()).with_stats(stats.clone()));
        let mut g = client.open("//a/b//deep", false).unwrap();
        assert_eq!(stats.calls.value(), 1);
        assert_eq!(client.read(&mut g, 0, 12).unwrap(), b"three levels");
        assert!(matches!(
            client.open("/a/b/deep/x", false),
            Err(FmError::NotADirectory(n)) if n == "deep"
        ));
        assert!(matches!(
            client.walk_dir("/a/b/deep"),
            Err(FmError::NotADirectory(n)) if n == "deep"
        ));
        assert_eq!(
            client.walk_dir("/a/b").unwrap(),
            client.open("/a/b", false).unwrap().fh
        );
    }

    #[test]
    fn cap_cache_is_keyed_by_path_and_purged_below_a_rename() {
        let (client, _fleet) = setup_cached(2);
        client.mkdir("/a", 0o755, 0).unwrap();
        let mut f = client.create("/a/x", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"moved with its dir").unwrap();
        client.open("/a/x", false).unwrap();
        let hits = client.cap_cache_stats().hits;
        client.open("/a/x", false).unwrap();
        assert_eq!(
            client.cap_cache_stats().hits,
            hits + 1,
            "not cached by path"
        );

        client.rename("/a", "/b").unwrap();
        assert!(matches!(
            client.open("/a/x", false),
            Err(FmError::NotFound(_))
        ));
        let mut moved = client.open("/b/x", false).unwrap();
        assert_eq!(
            client.read(&mut moved, 0, 18).unwrap(),
            b"moved with its dir"
        );

        // Removing purges the path itself too.
        client.remove("/b/x").unwrap();
        assert!(matches!(
            client.open("/b/x", false),
            Err(FmError::NotFound(_))
        ));
    }

    #[test]
    fn path_helpers() {
        assert_eq!(canonical("//a/b//c/"), "/a/b/c");
        assert_eq!(canonical("/"), "");
        assert!(within("/a/b", "/a") && within("/a", "/a"));
        assert!(!within("/ab", "/a") && !within("/a", "/a/b"));
    }

    #[test]
    fn getattr_comes_from_drive() {
        let (client, _fleet) = setup(1);
        let mut f = client.create("/stat", 0o644, 7).unwrap();
        client.write(&mut f, 0, &[0u8; 1000]).unwrap();
        let attrs = client.getattr(&mut f).unwrap();
        assert_eq!(attrs.size, 1000);
        assert_eq!(attrs.uid, 7);
        assert_eq!(attrs.file_type, FileType::Regular);
    }

    #[test]
    fn rename_within_and_across_directories() {
        let (client, _fleet) = setup(2);
        client.mkdir("/a", 0o755, 0).unwrap();
        client.mkdir("/b", 0o755, 0).unwrap();
        let mut f = client.create("/a/old", 0o644, 0).unwrap();
        client
            .write(&mut f, 0, b"contents travel by name only")
            .unwrap();
        let backing = f.fh;

        // In-place rename.
        client.rename("/a/old", "/a/new").unwrap();
        assert!(matches!(
            client.open("/a/old", false),
            Err(FmError::NotFound(_))
        ));
        let g = client.open("/a/new", false).unwrap();
        assert_eq!(g.fh, backing, "the object did not move");

        // Cross-directory move.
        client.rename("/a/new", "/b/moved").unwrap();
        let mut h = client.open("/b/moved", false).unwrap();
        assert_eq!(h.fh, backing);
        assert_eq!(
            client.read(&mut h, 0, 28).unwrap(),
            b"contents travel by name only"
        );
        assert!(client.readdir("/a").unwrap().is_empty());

        // Collisions rejected.
        client.create("/b/taken", 0o644, 0).unwrap();
        assert!(matches!(
            client.rename("/b/moved", "/b/taken"),
            Err(FmError::Exists(_))
        ));
    }

    /// A client with its capability cache on.
    fn setup_cached(ndrives: usize) -> (NfsClient, Arc<DriveFleet>) {
        use crate::connect::FmConnect;
        use nasd_net::Connector;
        let fleet = Arc::new(
            DriveFleet::spawn_memory(ndrives, DriveConfig::small(), PartitionId(1), 16 << 20)
                .unwrap(),
        );
        // Dropping the handle leaves the manager serving; it drops with
        // the client's channel.
        let (rpc, _handle) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
        let mut client = Connector::new().nfs(rpc, Arc::clone(&fleet)).unwrap();
        client.enable_cap_cache(None);
        (client, fleet)
    }

    #[test]
    fn cached_client_serves_the_full_namespace() {
        let (client, _fleet) = setup_cached(3);
        client.mkdir("/a", 0o755, 0).unwrap();
        client.mkdir("/b", 0o755, 0).unwrap();
        for i in 0..12 {
            let mut f = client.create(&format!("/a/f{i}"), 0o644, 0).unwrap();
            client
                .write(&mut f, 0, format!("body {i}").as_bytes())
                .unwrap();
        }
        for i in 0..12 {
            let mut f = client.open(&format!("/a/f{i}"), false).unwrap();
            assert_eq!(
                client.read(&mut f, 0, 16).unwrap(),
                format!("body {i}").as_bytes()
            );
        }
        // Cross-directory rename takes both directories' stripe locks.
        client.rename("/a/f0", "/b/moved").unwrap();
        assert!(client.open("/b/moved", false).is_ok());
        assert!(matches!(
            client.open("/a/f0", false),
            Err(FmError::NotFound(_))
        ));
        assert_eq!(client.readdir("/a").unwrap().len(), 11);
    }

    #[test]
    fn concurrent_creates_through_one_manager_never_corrupt_a_directory() {
        let (client, fleet) = setup_cached(4);
        client.mkdir("/shared", 0o755, 0).unwrap();
        let client = Arc::new(client);
        let mut threads = Vec::new();
        for t in 0..4u32 {
            let client = Arc::clone(&client);
            threads.push(std::thread::spawn(move || {
                for i in 0..8u32 {
                    client
                        .create(&format!("/shared/t{t}-{i}"), 0o644, t)
                        .unwrap();
                }
            }));
        }
        for th in threads {
            th.join().expect("create thread panicked");
        }
        let names: std::collections::HashSet<String> = client
            .readdir("/shared")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names.len(), 32, "lost directory entries: {names:?}");
        drop(fleet);
    }

    #[test]
    fn cap_cache_serves_repeat_opens_without_fm_calls() {
        let (client, _fleet) = setup_cached(2);
        let mut f = client.create("/hot", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"popular").unwrap();

        let before = client.cap_cache_stats();
        let mut a = client.open("/hot", false).unwrap();
        let mid = client.cap_cache_stats();
        let mut b = client.open("/hot", false).unwrap();
        let after = client.cap_cache_stats();

        assert_eq!(mid.misses, before.misses + 1, "first open is a miss");
        assert_eq!(after.hits, mid.hits + 1, "second open is a hit");
        assert_eq!(after.misses, mid.misses, "second open made no FM call");
        // Both files work against the drive.
        assert_eq!(client.read(&mut a, 0, 7).unwrap(), b"popular");
        assert_eq!(client.read(&mut b, 0, 7).unwrap(), b"popular");
    }

    #[test]
    fn cap_cache_revocation_refreshes_exactly_once_and_counts() {
        use nasd_obs::Registry;
        let (mut client, _fleet) = setup_cached(2);
        let registry = Registry::new();
        client.enable_cap_cache(Some(&registry));
        let names: Vec<String> = registry
            .snapshot()
            .counters
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for leaf in ["hits", "misses", "evictions", "refreshes"] {
            let name = format!("capcache/{leaf}");
            assert!(names.contains(&name), "{name} is not registered");
        }

        let mut f = client.create("/policy", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"v1").unwrap();
        // Prime the cache.
        let mut cached = client.open("/policy", false).unwrap();
        assert_eq!(client.cap_cache_stats().misses, 1);

        // FM revokes: version bump makes every outstanding (and cached)
        // capability stale at the drive.
        match client.call(NfsRequest::SetMode {
            fh: f.fh,
            mode: 0o600,
        }) {
            Ok(NfsResponse::Ok) => {}
            other => panic!("setmode failed: {other:?}"),
        }

        // The drive rejects the cached cap; the client refreshes exactly
        // once and the read succeeds.
        assert_eq!(client.read(&mut cached, 0, 2).unwrap(), b"v1");
        let stats = client.cap_cache_stats();
        assert_eq!(stats.refreshes, 1, "exactly one refresh after revocation");
        assert_eq!(
            registry.counter("capcache/refreshes").value(),
            1,
            "obs counter did not move"
        );

        // A second read uses the refreshed capability: no further
        // refresh.
        assert_eq!(client.read(&mut cached, 0, 2).unwrap(), b"v1");
        assert_eq!(client.cap_cache_stats().refreshes, 1);

        // The stale cache entry for the path was purged: the next open
        // is a miss (fresh capability), not a poisoned hit.
        let misses_before = client.cap_cache_stats().misses;
        let mut reopened = client.open("/policy", false).unwrap();
        assert_eq!(client.cap_cache_stats().misses, misses_before + 1);
        assert_eq!(client.read(&mut reopened, 0, 2).unwrap(), b"v1");
    }

    #[test]
    fn a_slow_drive_holds_up_only_the_calls_that_reach_it() {
        use nasd_net::{FaultConfig, FaultPlan};
        use std::time::Duration;
        let (client, fleet) = setup(2);
        // Round-robin placement: the first file lands on drive 0, the
        // second on drive 1.
        let mut fast = client.create("/fast", 0o644, 0).unwrap();
        client.write(&mut fast, 0, b"quick").unwrap();
        let slow = client.create("/slow", 0o644, 0).unwrap();
        let slow_drive = fleet.endpoint(1);
        assert_eq!(fast.fh.drive, fleet.endpoint(0).id());
        assert_eq!(slow.fh.drive, slow_drive.id());
        // Every request to drive 1 now waits on the wire, up to 300 ms:
        // with this seed the SetMode's three requests wait 285, 84 and
        // 261 ms.
        let plan = FaultPlan::new(1);
        let delayed = FaultConfig::delay_only(1.0, Duration::from_millis(300));
        let faults = plan.channel(slow_drive.id().0, delayed);
        slow_drive.reconnect(slow_drive.channel().with_faults(faults));

        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        std::thread::scope(|s| {
            s.spawn(|| {
                let revoke = NfsRequest::SetMode {
                    fh: slow.fh,
                    mode: 0o600,
                };
                assert!(matches!(client.call(revoke), Ok(NfsResponse::Ok)));
                done_tx.send("SetMode on drive 1").unwrap();
            });
            // The SetMode is in flight once its first drive request is.
            while plan.trace().is_empty() {
                std::thread::yield_now();
            }
            s.spawn(|| {
                let mut f = client.open("/fast", false).unwrap();
                assert_eq!(client.read(&mut f, 0, 5).unwrap(), b"quick");
                done_tx.send("open + read on drive 0").unwrap();
            });
            assert_eq!(done_rx.recv().unwrap(), "open + read on drive 0");
            assert_eq!(done_rx.recv().unwrap(), "SetMode on drive 1");
        });
    }

    #[test]
    fn setmode_revokes_and_client_recovers() {
        let (client, _fleet) = setup(1);
        let mut f = client.create("/m", 0o644, 0).unwrap();
        client.write(&mut f, 0, b"v1").unwrap();
        // Policy change bumps the object version, revoking f's cap.
        match client.call(NfsRequest::SetMode {
            fh: f.fh,
            mode: 0o600,
        }) {
            Ok(NfsResponse::Ok) => {}
            other => panic!("setmode failed: {other:?}"),
        }
        // The read path refreshes transparently.
        assert_eq!(client.read(&mut f, 0, 2).unwrap(), b"v1");
    }
}
