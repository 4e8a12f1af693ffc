//! The NASD-AFS port (§5.1).
//!
//! AFS differs from NFS in exactly the ways the paper walks through:
//!
//! * clients parse directory files **locally**, so "there was no obvious
//!   operation on which to piggyback the issuing of capabilities so AFS
//!   RPCs were added to obtain and relinquish capabilities explicitly";
//! * sequential consistency comes from **callbacks**, "broken... when a
//!   write capability is issued", and "the issuing of new callbacks on a
//!   file with an outstanding write capability are blocked" — bounded by
//!   the write capability's expiration time;
//! * per-volume **quota** is enforced by byte-range escrow: "the file
//!   manager can create a write capability that escrows space for the
//!   file to grow by selecting a byte range larger than the current
//!   object"; on relinquish the manager examines the object's size and
//!   settles the quota books.

use crate::core::FmCore;
use crate::dirfmt::{decode_dir, DirRecord};
use crate::drives::DriveFleet;
use crate::drives::DEFAULT_TTL;
use crate::handle::{FileHandle, FileType, FmAttrs, FmError};
use crate::link::ManagerLink;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use nasd_net::{spawn_service, Channel, Rpc, ServiceHandle};
use nasd_proto::{ByteRange, Capability, Rights};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A callback break: the named file may have changed; drop cached copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallbackEvent {
    /// The file whose callback broke.
    pub fh: FileHandle,
}

/// Requests to the AFS file manager.
#[derive(Clone, Debug)]
pub enum AfsRequest {
    /// Register a callback delivery channel for `client`.
    Register {
        /// Client id.
        client: u64,
        /// Where to deliver callback breaks.
        sender: Sender<CallbackEvent>,
    },
    /// Fetch the root directory handle.
    GetRoot,
    /// Obtain a read capability (and a callback promise) for a file.
    FetchRead {
        /// Requesting client.
        client: u64,
        /// Target file.
        fh: FileHandle,
    },
    /// Obtain a write capability with `escrow` bytes of growth room.
    FetchWrite {
        /// Requesting client.
        client: u64,
        /// Target file.
        fh: FileHandle,
        /// Quota escrow beyond the current size.
        escrow: u64,
    },
    /// Return a capability; settles quota for writes.
    Relinquish {
        /// Relinquishing client.
        client: u64,
        /// Target file.
        fh: FileHandle,
        /// Whether a write capability is being returned.
        write: bool,
    },
    /// Create a file (directory updates go through the manager).
    Create {
        /// Parent directory.
        dir: FileHandle,
        /// New name.
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
        /// New name.
        name: String,
    },
    /// Remove a file or empty directory.
    Remove {
        /// Parent directory.
        dir: FileHandle,
        /// Entry name.
        name: String,
    },
    /// Volume quota report.
    VolumeStat,
}

/// AFS file manager replies.
#[derive(Clone, Debug)]
pub enum AfsResponse {
    /// Root handle.
    Root(FileHandle),
    /// A capability plus current attributes.
    Granted(Box<Capability>, FmAttrs),
    /// New handle (create/mkdir).
    Handle(FileHandle),
    /// Quota report: (quota, used).
    Volume(u64, u64),
    /// Success.
    Ok,
    /// Failure.
    Err(FmError),
    /// A write capability is outstanding; retry after it expires or is
    /// relinquished.
    Blocked {
        /// Drive-clock time when the conflicting capability expires.
        until: u64,
    },
}

struct WriterGrant {
    client: u64,
    escrow: u64,
    base_size: u64,
    expires: u64,
}

struct AfsState {
    /// Per-file callback holders, each client at most once.
    callbacks: HashMap<FileHandle, Vec<u64>>,
    /// Callback delivery channels.
    senders: HashMap<u64, Sender<CallbackEvent>>,
    /// Outstanding write capability per file.
    writers: HashMap<FileHandle, WriterGrant>,
    /// Volume quota in bytes.
    quota: u64,
    /// Bytes in use: every file's `charged` plus every outstanding
    /// writer's escrow.
    used: u64,
    /// Bytes each file's settled writes were charged, returned to the
    /// volume when the file is removed.
    charged: HashMap<FileHandle, u64>,
}

impl AfsState {
    /// Signal every callback holder of `fh` but `except`, and forget
    /// them.
    fn break_callbacks(&mut self, fh: FileHandle, except: u64) {
        let Some(holders) = self.callbacks.remove(&fh) else {
            return;
        };
        for holder in holders.iter().filter(|&&h| h != except) {
            if let Some(tx) = self.senders.get(holder) {
                if tx.send(CallbackEvent { fh }).is_err() {
                    // The client's callback channel is dead: drop its
                    // registration so future breaks stop signalling it.
                    self.senders.remove(holder);
                }
            }
        }
        if holders.contains(&except) {
            self.callbacks.insert(fh, vec![except]);
        }
    }

    /// Forget `fh`'s writer and return its escrow to the volume.
    fn end_write(&mut self, fh: FileHandle) -> Option<WriterGrant> {
        let grant = self.writers.remove(&fh)?;
        self.used = self.used.saturating_sub(grant.escrow);
        Some(grant)
    }
}

/// The NASD-AFS file manager: the AFS personality of the file-manager
/// core (`core.rs`). Files and directories are the same NASD objects
/// under the same namespace as NFS; what this adds is the capability
/// issuing discipline — callbacks, writer blocks and quota escrow, all
/// volatile by design.
pub struct NasdAfs {
    core: Arc<FmCore>,
    state: Mutex<AfsState>,
}

impl NasdAfs {
    /// Bootstrap an AFS manager over `fleet` with a volume `quota` in
    /// bytes.
    ///
    /// # Errors
    ///
    /// Drive failures during bootstrap.
    pub fn new(fleet: Arc<DriveFleet>, quota: u64) -> Result<Self, FmError> {
        Ok(Self::over(Arc::new(FmCore::new(fleet)?), quota))
    }

    /// The AFS personality over an existing core.
    pub(crate) fn over(core: Arc<FmCore>, quota: u64) -> Self {
        NasdAfs {
            core,
            state: Mutex::new(AfsState {
                callbacks: HashMap::new(),
                senders: HashMap::new(),
                writers: HashMap::new(),
                quota,
                used: 0,
                charged: HashMap::new(),
            }),
        }
    }

    /// Handle one request.
    pub fn handle(&self, req: AfsRequest) -> AfsResponse {
        match self.handle_inner(req) {
            Ok(r) => r,
            Err(e) => AfsResponse::Err(e),
        }
    }

    fn handle_inner(&self, req: AfsRequest) -> Result<AfsResponse, FmError> {
        let core = &self.core;
        match req {
            AfsRequest::Register { client, sender } => {
                self.state.lock().senders.insert(client, sender);
                Ok(AfsResponse::Ok)
            }
            AfsRequest::GetRoot => Ok(AfsResponse::Root(core.root())),
            AfsRequest::FetchRead { client, fh } => {
                let now = core.now();
                {
                    let mut state = self.state.lock();
                    if let Some(w) = state.writers.get(&fh) {
                        if w.expires > now {
                            // "The issuing of new callbacks on a file with
                            // an outstanding write capability are blocked."
                            return Ok(AfsResponse::Blocked { until: w.expires });
                        }
                        state.end_write(fh);
                    }
                    let holders = state.callbacks.entry(fh).or_default();
                    if !holders.contains(&client) {
                        holders.push(client);
                    }
                }
                let attrs = core.attrs(fh)?;
                let cap = core.grant(fh, Rights::READ | Rights::GETATTR, ByteRange::FULL)?;
                Ok(AfsResponse::Granted(Box::new(cap), attrs))
            }
            AfsRequest::FetchWrite { client, fh, escrow } => {
                let now = core.now();
                // Reserve the writer slot and the escrow before the drive
                // calls, so a concurrent fetch finds them: another writer
                // of this file is blocked, and another file's escrow is
                // checked against this one's.
                {
                    let mut state = self.state.lock();
                    let other = |w: &&WriterGrant| w.expires > now && w.client != client;
                    if let Some(w) = state.writers.get(&fh).filter(other) {
                        return Ok(AfsResponse::Blocked { until: w.expires });
                    }
                    state.end_write(fh);
                    if state.used + escrow > state.quota {
                        return Err(FmError::QuotaExceeded);
                    }
                    state.used += escrow;
                    state.writers.insert(
                        fh,
                        WriterGrant {
                            client,
                            escrow,
                            base_size: 0,
                            expires: now + DEFAULT_TTL,
                        },
                    );
                }
                let issued = self.issue_write(fh, escrow);
                let mut state = self.state.lock();
                // A `Remove`, or this client's own later fetch, may have
                // taken the reservation meanwhile.
                let reserved = state.writers.get_mut(&fh).filter(|w| w.client == client);
                let (cap, attrs) = match issued {
                    Ok(issued) => issued,
                    Err(e) => {
                        if reserved.is_some() {
                            state.end_write(fh);
                        }
                        return Err(e);
                    }
                };
                if let Some(w) = reserved {
                    w.base_size = attrs.size;
                    w.expires = cap.public.expires;
                }
                // "The file manager no longer knows that a write operation
                // arrived at a drive so must inform clients as soon as a
                // write may occur": break callbacks at issue time.
                state.break_callbacks(fh, client);
                Ok(AfsResponse::Granted(Box::new(cap), attrs))
            }
            AfsRequest::Relinquish { client, fh, write } => {
                if write {
                    // "The file manager can examine the object to
                    // determine its new size and update the quota data
                    // structures appropriately."
                    let size = core.attrs(fh).map(|a| a.size);
                    let mut state = self.state.lock();
                    let grant = match state.writers.get(&fh) {
                        Some(w) if w.client == client => state.end_write(fh),
                        _ => None,
                    };
                    if let Some(grant) = grant {
                        let grown = size.map_or(0, |s| s.saturating_sub(grant.base_size));
                        state.used += grown;
                        *state.charged.entry(fh).or_default() += grown;
                    }
                } else if let Some(holders) = self.state.lock().callbacks.get_mut(&fh) {
                    holders.retain(|&c| c != client);
                }
                Ok(AfsResponse::Ok)
            }
            // Directory updates go through the manager; clients parse
            // directories locally, so each one breaks the directory's
            // callbacks.
            AfsRequest::Create {
                dir,
                name,
                mode,
                uid,
            } => {
                let fh = core.add(dir, name, FileType::Regular, mode, uid)?;
                self.state.lock().break_callbacks(dir, u64::MAX);
                Ok(AfsResponse::Handle(fh))
            }
            AfsRequest::Mkdir { dir, name } => {
                let fh = core.add(dir, name, FileType::Directory, 0o755, 0)?;
                self.state.lock().break_callbacks(dir, u64::MAX);
                Ok(AfsResponse::Handle(fh))
            }
            AfsRequest::Remove { dir, name } => {
                let gone = core.remove(dir, name)?.handle;
                let mut state = self.state.lock();
                state.break_callbacks(dir, u64::MAX);
                // The victim's bytes, and any escrow still out on it, go
                // back to the volume; nobody can hold a callback on it.
                let freed = state.charged.remove(&gone).unwrap_or(0);
                state.used = state.used.saturating_sub(freed);
                state.end_write(gone);
                state.callbacks.remove(&gone);
                Ok(AfsResponse::Ok)
            }
            AfsRequest::VolumeStat => {
                let state = self.state.lock();
                Ok(AfsResponse::Volume(state.quota, state.used))
            }
        }
    }

    /// A write capability for `fh` with `escrow` bytes of growth room,
    /// and the attributes it was cut from.
    fn issue_write(&self, fh: FileHandle, escrow: u64) -> Result<(Capability, FmAttrs), FmError> {
        let attrs = self.core.attrs(fh)?;
        // Directory objects are written by the manager alone.
        if attrs.file_type == FileType::Directory {
            return Err(FmError::Permission);
        }
        let cap = self.core.grant(
            fh,
            Rights::READ | Rights::WRITE | Rights::GETATTR | Rights::RESIZE,
            ByteRange::new(0, attrs.size + escrow),
        )?;
        Ok((cap, attrs))
    }

    /// Serve in-process: each call runs on its caller's thread,
    /// concurrently with other callers'; the manager's own state lock
    /// and the core's locks order them.
    #[must_use]
    pub fn spawn(self) -> (Rpc<AfsRequest, AfsResponse>, ServiceHandle) {
        spawn_service(move |req| self.handle(req))
    }
}

impl std::fmt::Debug for NasdAfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NasdAfs { .. }")
    }
}

/// An AFS client: parses directories locally, manages callbacks, and
/// fetches/relinquishes capabilities explicitly.
pub struct AfsClient {
    id: u64,
    fm: Channel<AfsRequest, AfsResponse>,
    fleet: Arc<DriveFleet>,
    root: FileHandle,
    callbacks: Receiver<CallbackEvent>,
    /// Local whole-file cache, validity guarded by callbacks (AFS-style).
    cache: Mutex<HashMap<FileHandle, Bytes>>,
    link: ManagerLink,
}

impl AfsClient {
    /// Attach client `id` over an already-built channel: registers the
    /// callback channel and fetches the root. Obtain clients through
    /// [`FmConnect::afs`](crate::FmConnect::afs).
    pub(crate) fn attach(
        id: u64,
        fm: Channel<AfsRequest, AfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<Self, FmError> {
        let link = ManagerLink::default();
        let (tx, rx) = unbounded();
        let register = AfsRequest::Register {
            client: id,
            sender: tx,
        };
        match link.call(&fm, register)? {
            AfsResponse::Ok => {}
            AfsResponse::Err(e) => return Err(e),
            _ => return Err(FmError::Transport),
        }
        let root = match link.call(&fm, AfsRequest::GetRoot)? {
            AfsResponse::Root(fh) => fh,
            AfsResponse::Err(e) => return Err(e),
            _ => return Err(FmError::Transport),
        };
        Ok(AfsClient {
            id,
            fm,
            fleet,
            root,
            callbacks: rx,
            cache: Mutex::new(HashMap::new()),
            link,
        })
    }

    /// The root directory handle.
    #[must_use]
    pub fn root(&self) -> FileHandle {
        self.root
    }

    fn call_fm(&self, req: AfsRequest) -> Result<AfsResponse, FmError> {
        self.link.call(&self.fm, req)
    }

    /// Drain pending callback breaks, invalidating cached copies.
    pub fn poll_callbacks(&self) -> Vec<CallbackEvent> {
        let mut events = Vec::new();
        while let Ok(ev) = self.callbacks.try_recv() {
            self.cache.lock().remove(&ev.fh);
            events.push(ev);
        }
        events
    }

    /// Fetch a read capability for `fh`.
    ///
    /// # Errors
    ///
    /// [`FmError`]; a fetch blocked on another client's callback
    /// surfaces as [`FmError::Permission`] — callers should retry later.
    pub fn fetch_read(&self, fh: FileHandle) -> Result<(Capability, FmAttrs), FmError> {
        match self.call_fm(AfsRequest::FetchRead {
            client: self.id,
            fh,
        })? {
            AfsResponse::Granted(cap, attrs) => Ok((*cap, attrs)),
            AfsResponse::Blocked { .. } => Err(FmError::Permission),
            AfsResponse::Err(e) => Err(e),
            _ => Err(FmError::Transport),
        }
    }

    /// Fetch a write capability with `escrow` bytes of growth room.
    ///
    /// # Errors
    ///
    /// `QuotaExceeded`, blocking, transport.
    pub fn fetch_write(
        &self,
        fh: FileHandle,
        escrow: u64,
    ) -> Result<(Capability, FmAttrs), FmError> {
        match self.call_fm(AfsRequest::FetchWrite {
            client: self.id,
            fh,
            escrow,
        })? {
            AfsResponse::Granted(cap, attrs) => Ok((*cap, attrs)),
            AfsResponse::Blocked { .. } => Err(FmError::Permission),
            AfsResponse::Err(e) => Err(e),
            _ => Err(FmError::Transport),
        }
    }

    /// Return a capability to the manager.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn relinquish(&self, fh: FileHandle, write: bool) -> Result<(), FmError> {
        match self.call_fm(AfsRequest::Relinquish {
            client: self.id,
            fh,
            write,
        })? {
            AfsResponse::Ok => Ok(()),
            AfsResponse::Err(e) => Err(e),
            _ => Err(FmError::Transport),
        }
    }

    /// Read a whole file AFS-style: from the local cache if the callback
    /// is intact, otherwise fetched from the drive and cached.
    ///
    /// # Errors
    ///
    /// Capability or drive errors.
    pub fn read_file(&self, fh: FileHandle) -> Result<Bytes, FmError> {
        self.poll_callbacks();
        if let Some(data) = self.cache.lock().get(&fh) {
            return Ok(data.clone());
        }
        let (cap, attrs) = self.fetch_read(fh)?;
        let ep = self.fleet.resolve(fh)?;
        // The AFS whole-file cache wants one contiguous buffer it can
        // hand out repeatedly; flatten the rope once on fetch.
        let data = Bytes::from(ep.read(&cap, 0, attrs.size)?);
        self.cache.lock().insert(fh, data.clone());
        Ok(data)
    }

    /// Overwrite a file: fetch write capability, write directly to the
    /// drive, relinquish (settling quota).
    ///
    /// # Errors
    ///
    /// Quota, capability or drive errors.
    pub fn write_file(&self, fh: FileHandle, data: &[u8]) -> Result<(), FmError> {
        let grow = data.len() as u64 + 4_096;
        let (cap, _attrs) = self.fetch_write(fh, grow)?;
        let ep = self.fleet.resolve(fh)?;
        // nasd-lint: allow(hot-path-copy, "single ingest copy shared by the drive write and the whole-file cache")
        let bytes = Bytes::copy_from_slice(data);
        ep.write(&cap, 0, bytes.clone())?;
        self.relinquish(fh, true)?;
        // O(1) clone of the same buffer — no second ingest copy.
        self.cache.lock().insert(fh, bytes);
        Ok(())
    }

    /// Parse a directory **locally** (the AFS discipline).
    ///
    /// # Errors
    ///
    /// Capability or drive errors, corrupt directory data.
    pub fn readdir(&self, dir: FileHandle) -> Result<Vec<DirRecord>, FmError> {
        let data = self.read_file(dir)?;
        decode_dir(&data).map_err(|_| FmError::Transport)
    }

    /// Walk an absolute path by local directory parsing.
    ///
    /// # Errors
    ///
    /// `NotFound`, `NotADirectory`.
    pub fn lookup(&self, path: &str) -> Result<FileHandle, FmError> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let entries = self.readdir(cur)?;
            cur = entries
                .iter()
                .find(|e| e.name == comp)
                .map(|e| e.handle)
                .ok_or_else(|| FmError::NotFound(comp.to_string()))?;
        }
        Ok(cur)
    }

    /// Create a file via the manager.
    ///
    /// # Errors
    ///
    /// `Exists`, transport.
    pub fn create(&self, dir: FileHandle, name: &str) -> Result<FileHandle, FmError> {
        match self.call_fm(AfsRequest::Create {
            dir,
            name: name.to_string(),
            mode: 0o644,
            uid: self.id as u32,
        })? {
            AfsResponse::Handle(fh) => {
                self.cache.lock().remove(&dir);
                Ok(fh)
            }
            AfsResponse::Err(e) => Err(e),
            _ => Err(FmError::Transport),
        }
    }
}

impl std::fmt::Debug for AfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AfsClient").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_net::CallOptions;
    use nasd_net::{FaultConfig, FaultPlan};
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;
    use std::time::Duration;

    fn setup(quota: u64) -> (Rpc<AfsRequest, AfsResponse>, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(2, DriveConfig::small(), PartitionId(1), 64 << 20).unwrap(),
        );
        let afs = NasdAfs::new(Arc::clone(&fleet), quota).unwrap();
        let (rpc, _h) = afs.spawn();
        (rpc, fleet)
    }

    #[test]
    fn create_write_read_cycle() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc), fleet).unwrap();
        let fh = a.create(a.root(), "notes.txt").unwrap();
        a.write_file(fh, b"afs on nasd").unwrap();
        assert_eq!(&a.read_file(fh).unwrap()[..], b"afs on nasd");
        // Second read hits the local cache (no manager/drive traffic to
        // verify directly, but the data must still be right).
        assert_eq!(&a.read_file(fh).unwrap()[..], b"afs on nasd");
    }

    #[test]
    fn local_directory_parsing() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc), fleet).unwrap();
        a.create(a.root(), "x").unwrap();
        a.create(a.root(), "y").unwrap();
        let names: Vec<String> = a
            .readdir(a.root())
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["x", "y"]);
        assert!(a.lookup("/y").is_ok());
        assert!(matches!(a.lookup("/z"), Err(FmError::NotFound(_))));
    }

    #[test]
    fn write_capability_breaks_reader_callbacks() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let b = AfsClient::attach(2, Channel::in_proc(rpc), fleet).unwrap();
        let fh = a.create(a.root(), "shared").unwrap();
        a.write_file(fh, b"v1").unwrap();

        // B reads and caches.
        assert_eq!(&b.read_file(fh).unwrap()[..], b"v1");
        assert!(b.poll_callbacks().is_empty());

        // A writes: B's callback must break.
        a.write_file(fh, b"v2").unwrap();
        let events = b.poll_callbacks();
        assert_eq!(events, vec![CallbackEvent { fh }]);

        // B re-reads and sees the new data.
        assert_eq!(&b.read_file(fh).unwrap()[..], b"v2");
    }

    #[test]
    fn reads_blocked_while_writer_outstanding() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let b = AfsClient::attach(2, Channel::in_proc(rpc), fleet).unwrap();
        let fh = a.create(a.root(), "locked").unwrap();

        let (_wcap, _) = a.fetch_write(fh, 4096).unwrap();
        // B cannot obtain a callback promise while A may write.
        assert!(b.fetch_read(fh).is_err());
        a.relinquish(fh, true).unwrap();
        assert!(b.fetch_read(fh).is_ok());
    }

    #[test]
    fn writer_block_bounded_by_expiry() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let b = AfsClient::attach(2, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let fh = a.create(a.root(), "expiring").unwrap();
        let _ = a.fetch_write(fh, 4096).unwrap();
        assert!(b.fetch_read(fh).is_err());
        // After the capability's lifetime passes, the block lifts and
        // the lapsed writer's escrow returns to the volume.
        fleet.advance_clock(DEFAULT_TTL + 1);
        assert!(b.fetch_read(fh).is_ok());
        let stat = rpc.call_with(AfsRequest::VolumeStat, &CallOptions::blocking());
        assert!(matches!(stat, Ok(AfsResponse::Volume(_, 0))), "{stat:?}");
    }

    #[test]
    fn quota_escrow_enforced_and_settled() {
        let (rpc, fleet) = setup(10_000);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let fh = a.create(a.root(), "quota").unwrap();

        // Escrow larger than the volume quota is refused.
        assert!(matches!(
            a.fetch_write(fh, 50_000),
            Err(FmError::QuotaExceeded)
        ));

        // Write 6000 bytes with an 8000-byte escrow, then relinquish:
        // usage settles to the actual growth.
        let (cap, _) = a.fetch_write(fh, 8_000).unwrap();
        let ep = fleet.resolve(fh).unwrap();
        ep.write(&cap, 0, Bytes::from(vec![1u8; 6_000])).unwrap();
        a.relinquish(fh, true).unwrap();

        match rpc
            .call_with(AfsRequest::VolumeStat, &CallOptions::blocking())
            .unwrap()
        {
            AfsResponse::Volume(quota, used) => {
                assert_eq!(quota, 10_000);
                assert_eq!(used, 6_000);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Escrow beyond the remaining 4000 is refused.
        assert!(matches!(
            a.fetch_write(fh, 5_000),
            Err(FmError::QuotaExceeded)
        ));
        assert!(a.fetch_write(fh, 3_000).is_ok());
    }

    /// Clients `0..n` each send `req(client)`, all at once; the replies
    /// in client order.
    fn all_at_once(
        rpc: &Rpc<AfsRequest, AfsResponse>,
        n: u64,
        req: impl Fn(u64) -> AfsRequest + Sync,
    ) -> Vec<AfsResponse> {
        let start = std::sync::Barrier::new(n as usize);
        std::thread::scope(|s| {
            let calls: Vec<_> = (0..n)
                .map(|client| {
                    let (start, req) = (&start, &req);
                    s.spawn(move || {
                        start.wait();
                        rpc.call_with(req(client), &CallOptions::blocking())
                    })
                })
                .collect();
            calls
                .into_iter()
                .map(|call| call.join().unwrap().unwrap())
                .collect()
        })
    }

    /// Every drive request waits on the wire: fetches started together
    /// are all inside the manager at once.
    fn slow_drives(fleet: &DriveFleet) {
        let delayed = FaultConfig::delay_only(1.0, Duration::from_millis(20));
        fleet.set_faults(&FaultPlan::new(5), delayed);
    }

    fn volume_used(rpc: &Rpc<AfsRequest, AfsResponse>) -> u64 {
        match rpc.call_with(AfsRequest::VolumeStat, &CallOptions::blocking()) {
            Ok(AfsResponse::Volume(_, used)) => used,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn racing_writers_of_one_file_get_one_grant_and_one_escrow() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(100, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let files: Vec<_> = (0..3)
            .map(|i| a.create(a.root(), &format!("f{i}")).unwrap())
            .collect();
        slow_drives(&fleet);
        for (round, fh) in (1..).zip(files) {
            let replies = all_at_once(&rpc, 8, |client| AfsRequest::FetchWrite {
                client,
                fh,
                escrow: 1_000,
            });
            let granted = replies
                .iter()
                .filter(|r| matches!(r, AfsResponse::Granted(..)))
                .count();
            let blocked = replies
                .iter()
                .filter(|r| matches!(r, AfsResponse::Blocked { .. }))
                .count();
            assert_eq!((granted, blocked), (1, 7), "{replies:?}");
            assert_eq!(volume_used(&rpc), round * 1_000);
        }
    }

    #[test]
    fn racing_writers_of_two_files_cannot_escrow_past_the_quota() {
        let (rpc, fleet) = setup(10_000);
        let a = AfsClient::attach(100, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let files = [
            a.create(a.root(), "x").unwrap(),
            a.create(a.root(), "y").unwrap(),
        ];
        slow_drives(&fleet);
        let fetch = |client: u64| AfsRequest::FetchWrite {
            client,
            fh: files[client as usize],
            escrow: 6_000,
        };
        for _ in 0..3 {
            let replies = all_at_once(&rpc, 2, fetch);
            let refused = replies
                .iter()
                .filter(|r| matches!(r, AfsResponse::Err(FmError::QuotaExceeded)))
                .count();
            assert_eq!(refused, 1, "{replies:?}");
            assert_eq!(volume_used(&rpc), 6_000);
            // Nothing was written: relinquishing returns the escrow.
            for (client, fh) in (0..).zip(files) {
                let write = true;
                let relinquish = AfsRequest::Relinquish { client, fh, write };
                rpc.call_with(relinquish, &CallOptions::blocking()).unwrap();
            }
            assert_eq!(volume_used(&rpc), 0);
        }
    }

    #[test]
    fn escrow_region_caps_file_growth() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc), Arc::clone(&fleet)).unwrap();
        let fh = a.create(a.root(), "capped").unwrap();
        let (cap, _) = a.fetch_write(fh, 1_000).unwrap();
        let ep = fleet.resolve(fh).unwrap();
        // Within escrow: fine.
        ep.write(&cap, 0, Bytes::from(vec![0u8; 1_000])).unwrap();
        // Past the escrowed byte range: the *drive* rejects it.
        assert!(matches!(
            ep.write(&cap, 1_000, Bytes::from(vec![0u8; 1])),
            Err(FmError::Drive(nasd_proto::NasdStatus::RangeViolation))
        ));
    }

    #[test]
    fn remove_returns_the_files_quota() {
        let (rpc, fleet) = setup(10_000);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), fleet).unwrap();
        let call = |req| rpc.call_with(req, &CallOptions::blocking()).unwrap();
        let remove = |name: &str| AfsRequest::Remove {
            dir: a.root(),
            name: name.to_string(),
        };

        let fh = a.create(a.root(), "big").unwrap();
        a.write_file(fh, &[7u8; 5_000]).unwrap();
        let stat = call(AfsRequest::VolumeStat);
        assert!(
            matches!(stat, AfsResponse::Volume(10_000, 5_000)),
            "{stat:?}"
        );
        assert!(matches!(call(remove("big")), AfsResponse::Ok));
        let stat = call(AfsRequest::VolumeStat);
        assert!(matches!(stat, AfsResponse::Volume(10_000, 0)), "{stat:?}");
        // The volume is empty again: the same write fits on a fresh file.
        let fresh = a.create(a.root(), "next").unwrap();
        a.write_file(fresh, &[8u8; 5_000]).unwrap();

        // Escrow still out on a removed file comes back with it.
        a.fetch_write(fresh, 4_000).unwrap();
        assert!(matches!(call(remove("next")), AfsResponse::Ok));
        let stat = call(AfsRequest::VolumeStat);
        assert!(matches!(stat, AfsResponse::Volume(10_000, 0)), "{stat:?}");
    }

    #[test]
    fn no_write_capability_on_a_directory() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), fleet).unwrap();
        let mkdir = AfsRequest::Mkdir {
            dir: a.root(),
            name: "d".to_string(),
        };
        let AfsResponse::Handle(dir) = rpc.call_with(mkdir, &CallOptions::blocking()).unwrap()
        else {
            panic!("mkdir failed")
        };
        assert!(matches!(a.fetch_write(dir, 0), Err(FmError::Permission)));
        assert!(matches!(
            a.fetch_write(a.root(), 0),
            Err(FmError::Permission)
        ));
        // Clients still read directories to parse them locally.
        assert!(a.fetch_read(dir).is_ok());
        assert!(a.lookup("/d").is_ok());
    }

    #[test]
    fn one_holder_one_callback() {
        let (rpc, fleet) = setup(1 << 20);
        let a = AfsClient::attach(1, Channel::in_proc(rpc.clone()), Arc::clone(&fleet)).unwrap();
        let b = AfsClient::attach(2, Channel::in_proc(rpc), fleet).unwrap();
        let fh = a.create(a.root(), "popular").unwrap();
        for _ in 0..3 {
            b.fetch_read(fh).unwrap();
        }
        a.write_file(fh, b"changed").unwrap();
        assert_eq!(b.poll_callbacks(), vec![CallbackEvent { fh }]);
    }
}
