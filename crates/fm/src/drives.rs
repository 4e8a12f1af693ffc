//! Client-side plumbing for talking to a fleet of NASD drives.
//!
//! A [`DriveEndpoint`] wraps the transport channel to one drive together
//! with the key material a file manager obtains over the administrative
//! channel, and signs requests the way any NASD client library must. A
//! [`DriveFleet`] builds and owns several in-process drives — file
//! managers, Cheops and the parallel filesystem are all built on these.
//! An in-process drive owns no thread: each call runs it on the caller's
//! thread, one request at a time. The fleet also owns the one version
//! table every manager over it creates, mints and revokes through.

use crate::handle::{FileHandle, FmError};
use crate::stripes::VersionTable;
use bytes::{ByteRope, Bytes};
use nasd_crypto::{KeyHierarchy, KeyKind, SecretKey};
use nasd_disk::{MemDisk, SharedDisk};
use nasd_net::{
    spawn_service, BindAddr, CallOptions, Channel, ChannelFaults, Connector, FaultConfig,
    FaultPlan, Pending, RetryPolicy, Rpc, RpcError, ServiceHandle, WireServer,
};
use nasd_object::{DriveConfig, DriveFaultConfig, NasdDrive};
use nasd_proto::{
    ByteRange, Capability, CapabilityPublic, DriveId, NasdStatus, Nonce, ObjectAttributes,
    ObjectId, PartitionId, ProtectionLevel, Reply, ReplyBody, Request, RequestBody, Rights, Scope,
    SetAttrMask, Version,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static NEXT_SIGNER: AtomicU64 = AtomicU64::new(1000);

/// Lifetime of every capability a manager mints, and of the create
/// capability behind each object it makes (seconds).
pub(crate) const DEFAULT_TTL: u64 = 3_600;

/// A connection to one drive plus the authority to mint capabilities for
/// it (the file manager's position in the architecture).
pub struct DriveEndpoint {
    id: DriveId,
    channel: RwLock<Channel<Request, Reply>>,
    hierarchy: KeyHierarchy,
    /// Each partition's generation-0 gold working key, derived on the
    /// partition's first mint. The key keeps its HMAC key schedule, so
    /// minting a capability not minted before is 2 compressions for the
    /// private field plus 2 for the capability's own schedule.
    gold: RwLock<HashMap<PartitionId, SecretKey>>,
    /// Capabilities already minted, by public portion: a mint is a pure
    /// function of the public fields and the generation-0 gold key, so
    /// a repeat is the same bytes without the MAC work. Every field —
    /// version, rights, region, expiry — is part of the key, so a
    /// revocation or a new expiry mints afresh. At most as many as one
    /// client's capability cache holds; emptied when full, like that
    /// [`LeaseCache`](crate::LeaseCache).
    minted: RwLock<HashMap<CapabilityPublic, Capability>>,
    signer: u64,
    counter: AtomicU64,
    retry: RwLock<RetryPolicy>,
}

impl std::fmt::Debug for DriveEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriveEndpoint")
            .field("id", &self.id)
            .finish()
    }
}

/// A signed request in flight on one drive (see [`DriveEndpoint::start`]).
pub struct Started<'a> {
    ep: &'a DriveEndpoint,
    cap: &'a Capability,
    body: RequestBody,
    data: Bytes,
    reply: Option<Pending<Reply>>,
}

impl Started<'_> {
    /// Wait for the reply, at most the endpoint's retry timeout. When the
    /// send failed, the reply was lost in flight or late (fault
    /// injection, drive crash, a silent peer) or the drive bounced the
    /// request with a transient status, the request is re-issued through
    /// the retrying [`DriveEndpoint::call`] — every attempt freshly
    /// signed — so an operation only counts as done once some attempt's
    /// reply says so.
    ///
    /// # Errors
    ///
    /// As [`DriveEndpoint::call`].
    pub fn finish(self) -> Result<ReplyBody, FmError> {
        let timeout = self.ep.retry().timeout;
        match self.reply.map(|rx| rx.recv_timeout(timeout)) {
            Some(Ok(reply)) if reply.status.is_ok() => Ok(reply.body),
            Some(Ok(reply)) if !resign(reply.status) => Err(FmError::Drive(reply.status)),
            _ => self.ep.call(self.cap, self.body, self.data),
        }
    }
}

/// Whether to sign an attempt again: the drive bounced it (`Busy`) or
/// refused its nonce. Every attempt's nonce is drawn just before the
/// send, so `Replay` on one means callers sharing this endpoint's
/// counter got a window's width of later nonces to the drive first. A
/// fresh nonce clears that; a duplicated *message* still dies there.
fn resign(status: NasdStatus) -> bool {
    status.is_transient() || status == NasdStatus::Replay
}

impl DriveEndpoint {
    /// The drive's id.
    #[must_use]
    pub fn id(&self) -> DriveId {
        self.id
    }

    /// A snapshot of the transport channel (for custom requests;
    /// pipelined signed ones go through [`Self::start`]). After a drive
    /// crash/restart the endpoint is rewired, so take a fresh snapshot
    /// per batch rather than caching one across faults.
    #[must_use]
    pub fn channel(&self) -> Channel<Request, Reply> {
        self.channel.read().clone()
    }

    /// Swap in a fresh transport channel (drive restart). Snapshots
    /// taken earlier keep pointing at the dead service and surface
    /// [`nasd_net::RpcError::Disconnected`]; retried signed calls pick
    /// up the new channel automatically.
    pub fn reconnect(&self, channel: Channel<Request, Reply>) {
        *self.channel.write() = channel;
    }

    /// The retry policy governing the signed call paths.
    #[must_use]
    pub fn retry(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// Replace the retry policy (e.g. a more patient one while a chaos
    /// test holds a drive down across a restart).
    pub fn set_retry(&self, policy: RetryPolicy) {
        *self.retry.write() = policy;
    }

    /// Run one signed exchange with retries. Every attempt is re-signed
    /// by `sign` with a fresh nonce, so a duplicate of an old attempt
    /// dies in the drive's replay window while the fresh one is
    /// accepted. Timeouts, disconnections (the drive may be restarting),
    /// transient [`NasdStatus::Busy`] bounces and a fresh nonce refused
    /// as stale (see [`resign`]) back off and retry; any other failure
    /// status ends the call as [`FmError::Drive`].
    fn call_signed(&self, mut sign: impl FnMut() -> Request) -> Result<ReplyBody, FmError> {
        let policy = self.retry();
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            let pause = policy.backoff(attempt);
            // Backoff happens with no endpoint or slot lock held.
            nasd_net::pace(pause);
            match self
                .channel()
                .call_with(sign(), &CallOptions::once(policy.timeout))
            {
                Ok(reply) if resign(reply.status) => {}
                Ok(reply) if reply.status.is_ok() => return Ok(reply.body),
                Ok(reply) => return Err(FmError::Drive(reply.status)),
                Err(RpcError::TimedOut | RpcError::Disconnected) => {}
            }
        }
        Err(FmError::Unavailable { attempts })
    }

    fn next_nonce(&self) -> Nonce {
        Nonce::new(self.signer, self.counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Sign `body` + `data` under `cap` with a fresh nonce.
    fn sign(&self, cap: &Capability, body: RequestBody, data: Bytes) -> Request {
        Request::signed_by(
            cap.hmac_key(),
            Some(cap.public.clone()),
            ProtectionLevel::ArgsIntegrity,
            self.next_nonce(),
            body,
            data,
        )
    }

    /// Sign `body` + `data` under `cap` and call the drive, retrying
    /// transient failures per the endpoint's [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Drive statuses ([`FmError::Drive`]) and, after retries exhaust,
    /// [`FmError::Unavailable`].
    pub fn call(
        &self,
        cap: &Capability,
        body: RequestBody,
        data: Bytes,
    ) -> Result<ReplyBody, FmError> {
        self.call_signed(|| self.sign(cap, body.clone(), data.clone()))
    }

    /// Send a signed request without waiting for the reply — how a
    /// striping client keeps every socket drive busy (an in-process
    /// drive serves it at once, on this thread). Collect the reply with
    /// [`Started::finish`].
    #[must_use]
    pub fn start<'a>(&'a self, cap: &'a Capability, body: RequestBody, data: Bytes) -> Started<'a> {
        let req = self.sign(cap, body.clone(), data.clone());
        // A crashed drive fails the send; `finish` recovers.
        let reply = self.channel().call_async(req).ok();
        Started {
            ep: self,
            cap,
            body,
            data,
            reply,
        }
    }

    /// Mint a capability: the file-manager operation. `version` must be
    /// the object's current logical version. Always under the
    /// partition's generation-0 gold key.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn mint(
        &self,
        partition: PartitionId,
        object: ObjectId,
        version: Version,
        rights: Rights,
        region: ByteRange,
        expires: u64,
    ) -> Capability {
        let public =
            CapabilityPublic::gold(self.id, partition, object, version, rights, region, expires);
        if let Some(cap) = self.minted.read().get(&public) {
            return cap.clone();
        }
        let cap = public.mint(&self.gold_key(partition));
        let mut minted = self.minted.write();
        if minted.len() >= crate::CAP_CACHE_CAPACITY {
            minted.clear();
        }
        minted.insert(cap.public.clone(), cap.clone());
        cap
    }

    /// `partition`'s generation-0 gold working key, derived once.
    fn gold_key(&self, partition: PartitionId) -> SecretKey {
        if let Some(key) = self.gold.read().get(&partition) {
            return key.clone();
        }
        let key = self.hierarchy.working_key(partition.0, KeyKind::Gold, 0);
        self.gold.write().insert(partition, key.clone());
        key
    }

    /// Mint a partition-level capability (create / list).
    #[must_use]
    pub fn mint_partition(
        &self,
        partition: PartitionId,
        rights: Rights,
        expires: u64,
    ) -> Capability {
        let object = Scope::Partition.capability_object();
        self.mint(
            partition,
            object,
            Version(0),
            rights,
            ByteRange::FULL,
            expires,
        )
    }

    /// Build an administratively signed request (drive-key authority)
    /// without sending it.
    fn sign_admin(&self, body: &RequestBody) -> Request {
        Request::signed_by(
            self.hierarchy.drive().hmac_key(),
            None,
            ProtectionLevel::ArgsIntegrity,
            self.next_nonce(),
            body.clone(),
            Bytes::new(),
        )
    }

    /// Administrative call authorized by the drive key, with the same
    /// retry behaviour as [`DriveEndpoint::call`].
    ///
    /// # Errors
    ///
    /// Drive statuses and, after retries exhaust, [`FmError::Unavailable`].
    pub fn admin(&self, body: RequestBody) -> Result<ReplyBody, FmError> {
        self.call_signed(|| self.sign_admin(&body))
    }

    /// Cheap liveness probe: an administratively signed `ListObjects`
    /// exchange per attempt under a short `timeout`, bypassing the
    /// endpoint's retry policy (a health sweep must not inherit the data
    /// path's patience). Any reply — even an error status — proves the
    /// drive is serving; only transport silence on every
    /// attempt (timeout or disconnection) counts as dead. Multiple
    /// attempts keep a single dropped message on a lossy channel from
    /// reading as a dead drive.
    #[must_use]
    pub fn probe(&self, timeout: Duration, attempts: u32) -> bool {
        let body = RequestBody::ListObjects {
            partition: PartitionId(0),
        };
        for _ in 0..attempts.max(1) {
            match self
                .channel()
                .call_with(self.sign_admin(&body), &CallOptions::once(timeout))
            {
                Ok(_) => return true,
                Err(RpcError::TimedOut | RpcError::Disconnected) => {}
            }
        }
        false
    }

    /// Create an object in `partition`.
    ///
    /// # Errors
    ///
    /// Drive statuses ([`FmError::Drive`]) and transport failures.
    pub fn create_object(
        &self,
        partition: PartitionId,
        preallocate: u64,
        cluster_with: Option<ObjectId>,
        expires: u64,
    ) -> Result<ObjectId, FmError> {
        let cap = self.mint_partition(partition, Rights::CREATE, expires);
        let body = RequestBody::Create {
            partition,
            preallocate,
            cluster_with,
        };
        Ok(self.call(&cap, body, Bytes::new())?.into_created()?)
    }

    /// Read object data with `cap`. The payload is a scatter-gather
    /// rope decoded straight out of the reply buffer; flatten only at
    /// the consumer that truly needs contiguous bytes.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn read(&self, cap: &Capability, offset: u64, len: u64) -> Result<ByteRope, FmError> {
        let body = RequestBody::read(&cap.public, offset, len);
        Ok(self.call(cap, body, Bytes::new())?.into_data()?)
    }

    /// Write object data with `cap`.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn write(&self, cap: &Capability, offset: u64, data: Bytes) -> Result<u64, FmError> {
        let body = RequestBody::write(&cap.public, offset, data.len() as u64);
        Ok(self.call(cap, body, data)?.into_written()?)
    }

    /// Append object data at the drive-chosen end of data with `cap`;
    /// returns the offset where the data landed. Safe for concurrent
    /// appenders: the drive serializes the offset choice, so two clients
    /// sharing a pack object never overwrite each other.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn append(&self, cap: &Capability, data: Bytes) -> Result<u64, FmError> {
        let body = RequestBody::Append {
            partition: cap.public.partition,
            object: cap.public.object,
            len: data.len() as u64,
        };
        match self.call(cap, body, data)? {
            ReplyBody::Appended(offset) => Ok(offset),
            _ => Err(FmError::Drive(NasdStatus::DriveError)),
        }
    }

    /// Read attributes with `cap`.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn get_attr(&self, cap: &Capability) -> Result<ObjectAttributes, FmError> {
        let body = RequestBody::get_attr(&cap.public);
        Ok(self.call(cap, body, Bytes::new())?.into_attr()?)
    }

    /// One `SetAttr` selecting `mask`, carrying `fs_specific`.
    fn set_attr(
        &self,
        cap: &Capability,
        mask: SetAttrMask,
        fs_specific: [u8; nasd_proto::FS_SPECIFIC_ATTR_LEN],
    ) -> Result<(), FmError> {
        let body = RequestBody::SetAttr {
            partition: cap.public.partition,
            object: cap.public.object,
            mask,
            fs_specific: Box::new(fs_specific),
            preallocated: 0,
            cluster_with: None,
        };
        self.call(cap, body, Bytes::new())?;
        Ok(())
    }

    /// Update the filesystem-specific attribute block with `cap`.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn set_fs_specific(
        &self,
        cap: &Capability,
        fs_specific: [u8; nasd_proto::FS_SPECIFIC_ATTR_LEN],
    ) -> Result<(), FmError> {
        self.set_attr(cap, SetAttrMask::fs_specific_only(), fs_specific)
    }

    /// Bump an object's version (capability revocation). Returns the new
    /// version.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn bump_version(&self, cap: &Capability) -> Result<Version, FmError> {
        let unused = [0u8; nasd_proto::FS_SPECIFIC_ATTR_LEN];
        self.set_attr(cap, SetAttrMask::bump_version_only(), unused)?;
        Ok(cap.public.version.bumped())
    }

    /// Remove an object with `cap`.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn remove(&self, cap: &Capability) -> Result<(), FmError> {
        let (partition, object) = (cap.public.partition, cap.public.object);
        self.call(cap, RequestBody::Remove { partition, object }, Bytes::new())?;
        Ok(())
    }
}

/// A drive, which takes `&mut`, as the closure [`spawn_service`] and
/// socket `serve` take: each call holds the drive's own lock. A
/// panicking call kills the drive before it releases the lock, so a
/// waiting caller reads [`RpcError::Disconnected`] rather than run a
/// half-updated drive (the lock shim silently recovers a poisoned lock),
/// over either transport.
pub(crate) fn exclusive<S: Send, Req, Resp>(
    service: S,
    call: impl Fn(&mut S, Req) -> Resp + Send + Sync,
) -> impl Fn(Req) -> Resp + Send + Sync {
    let slot = Mutex::new(Some(service));
    move |req| {
        let mut slot = slot.lock();
        let Some(service) = slot.as_mut() else {
            // An earlier call died mid-update.
            panic::resume_unwind(Box::new(RpcError::Disconnected));
        };
        match panic::catch_unwind(AssertUnwindSafe(|| call(service, req))) {
            Ok(resp) => resp,
            Err(payload) => {
                *slot = None;
                panic::resume_unwind(payload)
            }
        }
    }
}

/// The drive service body, in-proc and over sockets alike: apply the
/// shared `clock` (modelling loosely synchronized drive clocks), then
/// serve the request.
fn serve_request<D: nasd_disk::BlockDevice>(
    drive: &mut NasdDrive<D>,
    clock: &AtomicU64,
    req: &Request,
) -> Reply {
    drive.set_clock(clock.load(Ordering::Relaxed));
    let (reply, _report) = drive.handle(req);
    reply
}

fn spawn_rpc<D: nasd_disk::BlockDevice + 'static>(
    drive: NasdDrive<D>,
    clock: Arc<AtomicU64>,
) -> (Rpc<Request, Reply>, ServiceHandle) {
    spawn_service(exclusive(drive, move |drive, req: Request| {
        serve_request(drive, &clock, &req)
    }))
}

/// Serve `drive` in-process: each call runs it on the caller's thread,
/// one request at a time. The shared `clock` is applied to the drive
/// before every request (modelling loosely synchronized drive clocks).
pub fn spawn_drive<D: nasd_disk::BlockDevice + 'static>(
    drive: NasdDrive<D>,
    clock: Arc<AtomicU64>,
) -> (DriveEndpoint, ServiceHandle) {
    let id = drive.id();
    let hierarchy = drive.hierarchy().clone();
    let (rpc, handle) = spawn_rpc(drive, clock);
    (
        DriveEndpoint::over(id, Channel::in_proc(rpc), hierarchy),
        handle,
    )
}

impl DriveEndpoint {
    /// An endpoint over an already-built transport channel — the
    /// terminal step both [`spawn_drive`] (in-proc) and
    /// [`serve_drive_socket`] (real sockets) share. The key hierarchy
    /// stands in for the key material a file manager obtains over the
    /// administrative channel.
    #[must_use]
    pub fn over(id: DriveId, channel: Channel<Request, Reply>, hierarchy: KeyHierarchy) -> Self {
        DriveEndpoint {
            id,
            channel: RwLock::new(channel),
            hierarchy,
            gold: RwLock::new(HashMap::new()),
            minted: RwLock::new(HashMap::new()),
            signer: NEXT_SIGNER.fetch_add(1, Ordering::Relaxed),
            counter: AtomicU64::new(1),
            retry: RwLock::new(RetryPolicy::standard()),
        }
    }
}

/// Serve `drive` over a real TCP/UDS socket and return the running
/// server plus an endpoint dialed back to it through `connector` — the
/// paper's drive-on-the-network shape. The drive runs one request at a
/// time under its own lock, as in-process (a drive that panicked
/// mid-update is never served again); the win is that framing, decode
/// and socket I/O for many connections overlap freely around it.
///
/// # Errors
///
/// Propagates bind/dial failures.
pub fn serve_drive_socket<D: nasd_disk::BlockDevice + 'static>(
    drive: NasdDrive<D>,
    clock: Arc<AtomicU64>,
    addr: &BindAddr,
    workers: usize,
    connector: &Connector,
) -> std::io::Result<(WireServer, DriveEndpoint)> {
    let id = drive.id();
    let hierarchy = drive.hierarchy().clone();
    let server = nasd_net::serve(
        addr,
        workers,
        exclusive(drive, move |drive, req: Request| {
            serve_request(drive, &clock, &req)
        }),
    )?;
    let channel = connector.dial(server.addr())?;
    Ok((server, DriveEndpoint::over(id, channel, hierarchy)))
}

/// Master secret rooting every fleet drive's key hierarchy (matches the
/// [`nasd_object::DriveBuilder`] default, so endpoints survive a drive
/// restart: reopening with the same seed re-derives the same partition
/// keys).
const FLEET_MASTER_SEED: [u8; 32] = [7u8; 32];

/// Everything needed to rebuild one fleet drive after a crash.
struct DriveSlot {
    device: SharedDisk,
    config: DriveConfig,
    handle: Option<ServiceHandle>,
    net_faults: Option<Arc<ChannelFaults>>,
    drive_faults: Option<(u64, DriveFaultConfig)>,
}

/// A set of in-process drives sharing a clock — the storage side of a
/// NASD installation — and the one capability mint over them.
pub struct DriveFleet {
    endpoints: Vec<Arc<DriveEndpoint>>,
    slots: Vec<Mutex<DriveSlot>>,
    clock: Arc<AtomicU64>,
    partition: PartitionId,
    /// Revocation versions: a capability is always minted at the latest,
    /// no matter which manager revoked.
    versions: VersionTable,
}

impl std::fmt::Debug for DriveFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriveFleet")
            .field("drives", &self.endpoints.len())
            .field("partition", &self.partition)
            .finish()
    }
}

impl DriveFleet {
    /// Spawn `n` memory-backed drives, each with `partition` created at
    /// `quota` bytes.
    ///
    /// # Errors
    ///
    /// Propagates drive failures during partition creation.
    pub fn spawn_memory(
        n: usize,
        config: DriveConfig,
        partition: PartitionId,
        quota: u64,
    ) -> Result<Self, FmError> {
        Self::spawn_faulty(n, config, partition, quota, None)
    }

    /// Spawn `n` drives over crash-surviving [`SharedDisk`] media, with
    /// optional deterministic drive-level fault injection: each drive
    /// `i` gets its injector seeded with `seed ^ drive_id` so the
    /// drives' fault streams differ but remain reproducible.
    ///
    /// # Errors
    ///
    /// Propagates drive failures during partition creation.
    pub fn spawn_faulty(
        n: usize,
        config: DriveConfig,
        partition: PartitionId,
        quota: u64,
        drive_faults: Option<(u64, DriveFaultConfig)>,
    ) -> Result<Self, FmError> {
        let clock = Arc::new(AtomicU64::new(1));
        let mut endpoints = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            let id = DriveId(i as u64 + 1);
            let device = SharedDisk::new(MemDisk::new(config.block_size, config.capacity_blocks));
            let drive_faults = drive_faults.map(|(seed, cfg)| (seed ^ id.0, cfg));
            let mut builder = NasdDrive::builder(id.0)
                .config(config.clone())
                .master_seed(FLEET_MASTER_SEED);
            if let Some((seed, cfg)) = drive_faults {
                builder = builder.faults(seed, cfg);
            }
            let drive = builder.build_on(device.clone());
            let (ep, handle) = spawn_drive(drive, Arc::clone(&clock));
            ep.admin(RequestBody::CreatePartition { partition, quota })?;
            endpoints.push(Arc::new(ep));
            slots.push(Mutex::new(DriveSlot {
                device,
                config: config.clone(),
                handle: Some(handle),
                net_faults: None,
                drive_faults,
            }));
        }
        Ok(DriveFleet {
            endpoints,
            slots,
            clock,
            partition,
            versions: VersionTable::new(),
        })
    }

    /// Attach seeded message-level fault injection to every drive
    /// channel (channel target ids are the drive ids, so the injected
    /// schedule is stable across runs and survives drive restarts).
    pub fn set_faults(&self, plan: &Arc<FaultPlan>, config: FaultConfig) {
        for (ep, slot) in self.endpoints.iter().zip(self.slots.iter()) {
            let ch = plan.channel(ep.id().0, config);
            ep.reconnect(ep.channel().with_faults(Arc::clone(&ch)));
            slot.lock().net_faults = Some(ch);
        }
    }

    /// Hard-stop drive `idx`, as a power cut would: a request in flight
    /// finishes, then unpersisted drive state dies with the drive, while
    /// the media (a [`SharedDisk`]) survives for [`DriveFleet::restart`].
    /// Clients observe disconnections/timeouts until the restart.
    pub fn crash(&self, idx: usize) {
        // nasd-lint: allow(panic, "chaos-harness API: a bogus drive index is a test bug, not a request-path input")
        let handle = self.slots[idx].lock().handle.take();
        if let Some(h) = handle {
            h.shutdown();
        }
    }

    /// Whether drive `idx` is up (not crashed).
    #[must_use]
    pub fn is_up(&self, idx: usize) -> bool {
        // nasd-lint: allow(panic, "chaos-harness API: a bogus drive index is a test bug, not a request-path input")
        self.slots[idx].lock().handle.is_some()
    }

    /// Restart a crashed drive from its persisted media and rewire its
    /// endpoint (and fault injectors); clients mid-retry pick up the
    /// new channel transparently. No-op if the drive is up.
    ///
    /// # Errors
    ///
    /// [`FmError::Drive`] with [`NasdStatus::DriveError`] when the
    /// media holds no usable checkpoint (the drive never persisted —
    /// see [`DriveConfig::durable`]).
    pub fn restart(&self, idx: usize) -> Result<(), FmError> {
        // nasd-lint: allow(panic, "chaos-harness API: a bogus drive index is a test bug, not a request-path input")
        let mut slot = self.slots[idx].lock();
        if slot.handle.is_some() {
            return Ok(());
        }
        // nasd-lint: allow(panic, "chaos-harness API: a bogus drive index is a test bug, not a request-path input")
        let ep = &self.endpoints[idx];
        let mut builder = NasdDrive::builder(ep.id().0)
            .config(slot.config.clone())
            .master_seed(FLEET_MASTER_SEED);
        if let Some((seed, cfg)) = slot.drive_faults {
            builder = builder.faults(seed, cfg);
        }
        let drive = builder
            .open(slot.device.clone())
            .map_err(|_| FmError::Drive(NasdStatus::DriveError))?;
        let (rpc, handle) = spawn_rpc(drive, Arc::clone(&self.clock));
        let channel = Channel::in_proc(rpc);
        let channel = match &slot.net_faults {
            Some(ch) => channel.with_faults(Arc::clone(ch)),
            None => channel,
        };
        ep.reconnect(channel);
        slot.handle = Some(handle);
        Ok(())
    }

    /// Number of drives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the fleet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The partition all drives carry.
    #[must_use]
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Endpoint by index.
    #[must_use]
    pub fn endpoint(&self, idx: usize) -> &Arc<DriveEndpoint> {
        // nasd-lint: allow(panic, "chaos-harness API: a bogus drive index is a test bug, not a request-path input")
        &self.endpoints[idx]
    }

    /// Endpoint by drive id.
    #[must_use]
    pub fn by_id(&self, id: DriveId) -> Option<&Arc<DriveEndpoint>> {
        self.endpoints.iter().find(|e| e.id() == id)
    }

    /// Index of a drive id within this fleet.
    #[must_use]
    pub fn index_of(&self, id: DriveId) -> Option<usize> {
        self.endpoints.iter().position(|e| e.id() == id)
    }

    /// Liveness-probe drive `idx` (see [`DriveEndpoint::probe`]); the
    /// health hook storage management sweeps. `false` for an
    /// out-of-range index.
    #[must_use]
    pub fn probe(&self, idx: usize, timeout: Duration, attempts: u32) -> bool {
        match self.endpoints.get(idx) {
            Some(ep) => ep.probe(timeout, attempts),
            None => false,
        }
    }

    /// All endpoints.
    #[must_use]
    pub fn endpoints(&self) -> &[Arc<DriveEndpoint>] {
        &self.endpoints
    }

    /// Current shared clock (seconds).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advance the shared clock.
    pub fn advance_clock(&self, secs: u64) {
        self.clock.fetch_add(secs, Ordering::Relaxed);
    }

    /// Resolve a handle to its endpoint.
    ///
    /// # Errors
    ///
    /// [`FmError::NotFound`] for an unknown drive.
    pub fn resolve(&self, fh: FileHandle) -> Result<&Arc<DriveEndpoint>, FmError> {
        self.by_id(fh.drive)
            .ok_or_else(|| FmError::NotFound(fh.to_string()))
    }

    /// Make an empty object on `ep` with `preallocate` bytes reserved,
    /// clustered `near` an existing one when given — the one way a
    /// manager creates an object.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn create(
        &self,
        ep: &DriveEndpoint,
        near: Option<ObjectId>,
        preallocate: u64,
    ) -> Result<FileHandle, FmError> {
        let expires = self.now() + DEFAULT_TTL;
        Ok(FileHandle {
            drive: ep.id(),
            partition: self.partition,
            object: ep.create_object(self.partition, preallocate, near, expires)?,
        })
    }

    /// Every object in the fleet's partition on `ep`.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures.
    pub fn list(&self, ep: &DriveEndpoint) -> Result<Vec<ObjectId>, FmError> {
        let expires = self.now() + DEFAULT_TTL;
        let cap = ep.mint_partition(self.partition, Rights::GETATTR, expires);
        let list = RequestBody::ListObjects {
            partition: self.partition,
        };
        match ep.call(&cap, list, Bytes::new())? {
            ReplyBody::Objects(ids) => Ok(ids),
            _ => Err(FmError::Drive(NasdStatus::DriveError)),
        }
    }

    /// A capability for `rights` over `region` of `fh`, minted at the
    /// version the fleet tracks for it, with the endpoint to use it on —
    /// the one place a manager makes a capability.
    ///
    /// # Errors
    ///
    /// [`FmError::NotFound`] for a drive outside the fleet.
    pub fn mint(
        &self,
        fh: FileHandle,
        rights: Rights,
        region: ByteRange,
    ) -> Result<(&DriveEndpoint, Capability), FmError> {
        let ep = self.resolve(fh)?;
        let version = self.versions.get(fh);
        let expires = self.now() + DEFAULT_TTL;
        let cap = ep.mint(fh.partition, fh.object, version, rights, region, expires);
        Ok((ep, cap))
    }

    /// Revoke every outstanding capability for `fh`: bump the object's
    /// version on its drive, then mint at the new one from now on.
    ///
    /// # Errors
    ///
    /// Drive statuses and transport failures (nothing is revoked).
    pub fn revoke(&self, fh: FileHandle) -> Result<(), FmError> {
        let (ep, cap) = self.mint(fh, Rights::ALL, ByteRange::FULL)?;
        self.versions.insert(fh, ep.bump_version(&cap)?);
        Ok(())
    }

    /// Drop `fh`'s tracked version once its object is removed.
    pub fn forget(&self, fh: FileHandle) {
        self.versions.remove(fh);
    }

    /// Shut down every drive (drop the endpoints first).
    pub fn shutdown(self) {
        drop(self.endpoints);
        for slot in self.slots {
            if let Some(h) = slot.into_inner().handle.take() {
                h.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> DriveFleet {
        DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap()
    }

    #[test]
    fn a_caller_waiting_on_a_panicked_exclusive_service_reads_disconnected() {
        // A failing call updates the service, then panics before it
        // finishes, once the other call is on its way to the lock.
        let (entered_tx, entered_rx) = crossbeam::channel::unbounded::<()>();
        let (inside_tx, inside_rx) = crossbeam::channel::unbounded::<()>();
        let service = exclusive(0u64, move |calls, fail: bool| {
            *calls += 1;
            if fail {
                entered_tx.send(()).unwrap();
                inside_rx.recv().unwrap();
                panic!("half-updated");
            }
            *calls
        });
        let (rpc, handle) = spawn_service(move |fail: bool| {
            if !fail {
                inside_tx.send(()).unwrap();
            }
            service(fail)
        });
        let call = |fail| {
            let rpc = rpc.clone();
            std::thread::spawn(move || rpc.call_with(fail, &CallOptions::blocking()))
        };
        let failing = call(true);
        entered_rx.recv().unwrap();
        let waiting = call(false);
        assert_eq!(failing.join().unwrap(), Err(RpcError::Disconnected));
        assert_eq!(waiting.join().unwrap(), Err(RpcError::Disconnected));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| handle.shutdown()));
        assert!(err.is_err(), "shutdown should re-raise the service panic");
    }

    #[test]
    fn end_to_end_over_rpc() {
        let f = fleet(2);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, f.now() + 100).unwrap();
        let cap = ep.mint(
            p,
            obj,
            Version(0),
            Rights::READ | Rights::WRITE | Rights::GETATTR,
            ByteRange::FULL,
            f.now() + 100,
        );
        ep.write(&cap, 0, Bytes::from_static(b"over the wire"))
            .unwrap();
        assert_eq!(ep.read(&cap, 5, 3).unwrap(), b"the");
        let attrs = ep.get_attr(&cap).unwrap();
        assert_eq!(attrs.size, 13);
        f.shutdown();
    }

    #[test]
    fn mint_signs_under_the_generation_zero_gold_key() {
        let f = fleet(2);
        for ep in f.endpoints() {
            let keys = KeyHierarchy::new(SecretKey::from_bytes(FLEET_MASTER_SEED), ep.id().0);
            for p in [PartitionId(1), PartitionId(9)] {
                // Twice: the derivation on first use and the kept key.
                for _ in 0..2 {
                    let public = CapabilityPublic::gold(
                        ep.id(),
                        p,
                        ObjectId(42),
                        Version(3),
                        Rights::READ,
                        ByteRange::FULL,
                        100,
                    );
                    let want = public.mint(&keys.partition_keys(p.0, 0).gold);
                    let got = ep.mint(
                        p,
                        ObjectId(42),
                        Version(3),
                        Rights::READ,
                        ByteRange::FULL,
                        100,
                    );
                    assert_eq!(got.private.as_bytes(), want.private.as_bytes());
                }
            }
        }
        f.shutdown();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A remembered mint is the capability a fresh mint makes, byte
        /// for byte, and repeating it costs no SHA-256 work.
        #[test]
        fn a_remembered_mint_is_a_fresh_mint(
            grants in proptest::collection::vec(
                (0u64..4, 0u16..=0xff, 0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 40),
                1..48,
            ),
        ) {
            let f = fleet(1);
            let ep = f.endpoint(0);
            let p = f.partition();
            let gold = KeyHierarchy::new(SecretKey::from_bytes(FLEET_MASTER_SEED), ep.id().0)
                .partition_keys(p.0, 0)
                .gold;
            for &(version, bits, start, len, expires) in &grants {
                let rights = Rights::from_bits(bits).unwrap();
                let region = ByteRange::new(start, start + len);
                let fresh = CapabilityPublic::gold(
                    ep.id(), p, ObjectId(7), Version(version), rights, region, expires,
                )
                .mint(&gold);
                let first = ep.mint(p, ObjectId(7), Version(version), rights, region, expires);
                let before = nasd_crypto::stats::compressions();
                let again = ep.mint(p, ObjectId(7), Version(version), rights, region, expires);
                proptest::prop_assert_eq!(nasd_crypto::stats::compressions(), before);
                // `Capability` equality covers the kept key schedule too.
                proptest::prop_assert_eq!(&first, &fresh);
                proptest::prop_assert_eq!(&again, &fresh);
            }
            f.shutdown();
        }
    }

    /// A mint after a revocation carries the bumped version, not the
    /// capability remembered from before it, and the drive refuses the
    /// old one.
    #[test]
    fn a_mint_after_revoke_carries_the_new_version() {
        let f = fleet(1);
        let fh = f.create(f.endpoint(0), None, 0).unwrap();
        let (ep, old) = f.mint(fh, Rights::READ, ByteRange::FULL).unwrap();
        assert!(ep.read(&old, 0, 0).is_ok());
        f.revoke(fh).unwrap();
        let (ep, new) = f.mint(fh, Rights::READ, ByteRange::FULL).unwrap();
        assert_eq!(new.public.version, Version(old.public.version.0 + 1));
        assert_eq!(
            ep.read(&old, 0, 0).unwrap_err(),
            FmError::Drive(NasdStatus::AccessDenied)
        );
        assert!(ep.read(&new, 0, 0).is_ok());
        f.shutdown();
    }

    #[test]
    fn append_lands_at_end_of_data_and_reports_offset() {
        let f = fleet(1);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, 100).unwrap();
        let cap = ep.mint(
            p,
            obj,
            Version(0),
            Rights::READ | Rights::WRITE,
            ByteRange::FULL,
            100,
        );
        assert_eq!(ep.append(&cap, Bytes::from_static(b"first ")).unwrap(), 0);
        assert_eq!(ep.append(&cap, Bytes::from_static(b"second")).unwrap(), 6);
        assert_eq!(ep.read(&cap, 0, 12).unwrap(), b"first second");
        f.shutdown();
    }

    #[test]
    fn drives_are_independent() {
        let f = fleet(2);
        let p = f.partition();
        let o0 = f.endpoint(0).create_object(p, 0, None, 100).unwrap();
        // Same numeric object id does not exist on drive 1.
        let cap_wrong = f
            .endpoint(1)
            .mint(p, o0, Version(0), Rights::READ, ByteRange::FULL, 100);
        assert!(matches!(
            f.endpoint(1).read(&cap_wrong, 0, 1),
            Err(FmError::Drive(NasdStatus::NoSuchObject))
        ));
        f.shutdown();
    }

    #[test]
    fn capability_minted_by_fleet_is_honored() {
        // The endpoint mints with keys learned out of band; the drive
        // never saw this capability before.
        let f = fleet(1);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, 100).unwrap();
        let cap = ep.mint(p, obj, Version(0), Rights::WRITE, ByteRange::FULL, 100);
        assert!(ep.write(&cap, 0, Bytes::from_static(b"x")).is_ok());
        // Reading with a write-only capability fails.
        assert!(matches!(
            ep.read(&cap, 0, 1),
            Err(FmError::Drive(NasdStatus::AccessDenied))
        ));
        f.shutdown();
    }

    #[test]
    fn clock_advance_expires_capabilities() {
        let f = fleet(1);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, f.now() + 5).unwrap();
        let cap = ep.mint(
            p,
            obj,
            Version(0),
            Rights::READ,
            ByteRange::FULL,
            f.now() + 5,
        );
        assert!(ep.read(&cap, 0, 0).is_ok());
        f.advance_clock(100);
        assert!(matches!(
            ep.read(&cap, 0, 0),
            Err(FmError::Drive(NasdStatus::AccessDenied))
        ));
        f.shutdown();
    }

    #[test]
    fn probe_distinguishes_live_from_crashed() {
        let f = fleet(2);
        let t = Duration::from_millis(50);
        // A live drive answers (even though partition 0 does not exist —
        // an error reply still proves liveness).
        assert!(f.probe(0, t, 2));
        assert!(f.probe(1, t, 2));
        f.crash(1);
        assert!(f.probe(0, t, 2));
        assert!(!f.probe(1, t, 2), "crashed drive must fail the probe");
        // Out-of-range indexes read as dead, not as a panic.
        assert!(!f.probe(9, t, 2));
        assert_eq!(f.index_of(DriveId(2)), Some(1));
        assert_eq!(f.index_of(DriveId(99)), None);
        f.shutdown();
    }

    #[test]
    fn version_bump_revokes_through_fleet() {
        let f = fleet(1);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, 100).unwrap();
        let cap = ep.mint(
            p,
            obj,
            Version(0),
            Rights::READ | Rights::SETATTR,
            ByteRange::FULL,
            100,
        );
        let v1 = ep.bump_version(&cap).unwrap();
        assert_eq!(v1, Version(1));
        assert!(ep.read(&cap, 0, 0).is_err());
        let fresh = ep.mint(p, obj, v1, Rights::READ, ByteRange::FULL, 100);
        assert!(ep.read(&fresh, 0, 0).is_ok());
        f.shutdown();
    }

    /// Delivers everything except the first request it is handed, which
    /// it holds between two meetings at `step`: "I hold it" and "let it
    /// go", once the test has let later nonces overtake it.
    struct HoldFirst {
        inner: Channel<Request, Reply>,
        first: std::sync::atomic::AtomicBool,
        step: std::sync::Barrier,
    }

    impl nasd_net::Transport<Request, Reply> for HoldFirst {
        fn attempt(&self, req: Request, timeout: Option<Duration>) -> Result<Reply, RpcError> {
            self.call_async(req)?.wait(timeout)
        }

        fn call_async(&self, req: Request) -> Result<Pending<Reply>, RpcError> {
            if self.first.swap(false, Ordering::SeqCst) {
                self.step.wait();
                self.step.wait();
            }
            self.inner.call_async(req)
        }
    }

    /// One caller signs a request; before it is delivered, callers
    /// sharing the endpoint (every client of a fleet does) get more than
    /// a replay window of later nonces to the drive.
    fn overtaken_by_a_window(op: fn(&DriveEndpoint, &Capability) -> Result<ReplyBody, FmError>) {
        let f = fleet(1);
        let ep = f.endpoint(0);
        let p = f.partition();
        let obj = ep.create_object(p, 0, None, 100).unwrap();
        let cap = ep.mint(p, obj, Version(0), Rights::GETATTR, ByteRange::FULL, 100);
        let hold = Arc::new(HoldFirst {
            inner: ep.channel(),
            first: std::sync::atomic::AtomicBool::new(true),
            step: std::sync::Barrier::new(2),
        });
        ep.reconnect(Channel::new(hold.clone()));

        let overtaken = std::thread::scope(|s| {
            let slow = s.spawn(|| op(ep, &cap));
            hold.step.wait();
            for _ in 0..70 {
                ep.get_attr(&cap).unwrap();
            }
            hold.step.wait();
            slow.join().unwrap()
        });
        assert!(
            matches!(overtaken, Ok(ReplyBody::Attr(_))),
            "a never-before-sent request was refused: {overtaken:?}"
        );
        f.shutdown();
    }

    #[test]
    fn call_overtaken_by_a_replay_window_is_resigned() {
        overtaken_by_a_window(|ep, cap| {
            ep.call(cap, RequestBody::get_attr(&cap.public), Bytes::new())
        });
    }

    #[test]
    fn started_request_overtaken_by_a_replay_window_is_resigned() {
        overtaken_by_a_window(|ep, cap| {
            ep.start(cap, RequestBody::get_attr(&cap.public), Bytes::new())
                .finish()
        });
    }

    #[test]
    fn started_request_to_a_silent_drive_gives_up() {
        // A socket peer that accepts connections and reads requests but
        // never answers one.
        let addr = BindAddr::uds_temp("silent");
        let BindAddr::Uds(path) = addr.clone() else {
            panic!("expected UDS")
        };
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let silent = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut held = Vec::new();
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { break };
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Swallow the request; the connection stays open.
                    let _ = nasd_net::read_frame(&mut stream);
                    held.push(stream);
                }
            }
        });
        let channel = Connector::new().dial(&addr).unwrap();
        let hierarchy = KeyHierarchy::new(nasd_crypto::SecretKey::from_bytes([7; 32]), 1);
        let ep = Arc::new(DriveEndpoint::over(DriveId(1), channel, hierarchy));
        ep.set_retry(RetryPolicy {
            max_attempts: 2,
            timeout: Duration::from_millis(50),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        });
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let caller = std::thread::spawn({
            let ep = Arc::clone(&ep);
            move || {
                let cap = ep.mint(
                    PartitionId(1),
                    ObjectId(1),
                    Version(0),
                    Rights::GETATTR,
                    ByteRange::FULL,
                    100,
                );
                let body = RequestBody::get_attr(&cap.public);
                done_tx.send(ep.start(&cap, body, Bytes::new()).finish())
            }
        });
        // A wait that never ends fails here instead of hanging the suite.
        let finished = done_rx.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(finished, Ok(Err(FmError::Unavailable { .. }))),
            "a started request without a reply must give up: {finished:?}"
        );
        caller.join().unwrap().unwrap();
        stop.store(true, Ordering::SeqCst);
        drop(std::os::unix::net::UnixStream::connect(&path));
        silent.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
