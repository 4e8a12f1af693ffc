//! The NASD drive: the request pipeline over the object store, with
//! security enforcement and cost metering.
//!
//! [`NasdDrive::handle`] is the drive's single entry point — the function
//! a drive ASIC would run per request — in five phases: inject faults,
//! **authorize** (the request's row of [`RequestBody::authority`] against
//! its capability or key and the object's current state), **execute**
//! (object-store calls only), commit (ack implies durable), account. It
//! returns both the wire [`Reply`] and a [`ServiceReport`]: the
//! request's instruction cost and the block-cache hits and misses it
//! caused, read as the change in the cache's
//! [`CacheStats`](crate::CacheStats) across execute and commit.

use crate::cost::{CostMeter, OpCost, OpKind};
use crate::security::DriveSecurity;
use crate::store::{ObjectStore, StoreError};
use bytes::{ByteRope, Bytes};
use nasd_crypto::{KeyHierarchy, KeyKind, SecretKey};
use nasd_disk::MemDisk;
use nasd_obs::{Counter, Histogram, Registry, SimTime, TraceEvent, TraceSink};
use nasd_proto::wire::WireEncode;
use nasd_proto::{
    ByteRange, Capability, CapabilityPublic, DriveId, NasdStatus, Nonce, ObjectId, PartitionId,
    ProtectionLevel, Reply, ReplyBody, Request, RequestBody, Rights, Scope, Version,
    WELL_KNOWN_OBJECT_LIST,
};
use nasd_sim::splitmix64;
use std::cell::Cell;
use std::sync::Arc;

/// Configuration of a drive instance.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    /// Device block size in bytes.
    pub block_size: usize,
    /// Device capacity in blocks.
    pub capacity_blocks: u64,
    /// Block cache capacity in blocks.
    pub cache_blocks: usize,
    /// Whether capability verification is enforced.
    pub security_enabled: bool,
    /// Durability: selects WAL commit-before-ack. Every successful
    /// mutating request group-commits its write-ahead log records before
    /// the reply leaves the drive, so an acknowledged write survives a
    /// power cycle ([`DriveBuilder::open`] replays the log). Off, the
    /// drive persists only at an explicit [`NasdDrive::checkpoint`].
    pub durable_writes: bool,
}

impl DriveConfig {
    /// A small drive for tests and examples: 32 MB device, 1 MB cache.
    #[must_use]
    pub fn small() -> Self {
        DriveConfig {
            block_size: 8_192,
            capacity_blocks: 4_096,
            cache_blocks: 128,
            security_enabled: true,
            durable_writes: false,
        }
    }

    /// A drive sized like the paper's prototype: 4 GB device, 16 MB cache
    /// (the prototype machine had 64 MB total).
    #[must_use]
    pub fn prototype() -> Self {
        DriveConfig {
            block_size: 8_192,
            capacity_blocks: 512 * 1024,
            cache_blocks: 2_048,
            security_enabled: true,
            durable_writes: false,
        }
    }

    /// This configuration with WAL commit-before-ack enabled.
    #[must_use]
    pub fn durable(mut self) -> Self {
        self.durable_writes = true;
        self
    }
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig::small()
    }
}

/// Drive-level fault injection: transient overload bounces and slow I/O.
///
/// Decisions are a pure function of `(seed, request sequence number)`,
/// so a seeded drive injects the identical fault schedule on every run.
/// A `Busy` bounce happens *before* any state changes or nonce
/// consumption — the client may freely re-sign and retry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriveFaultConfig {
    /// Probability a request is bounced with [`NasdStatus::Busy`]
    /// without being executed.
    pub busy: f64,
    /// Probability the request is served after an injected stall.
    pub slow_io: f64,
    /// Upper bound of the injected stall, in microseconds.
    pub max_slow_micros: u64,
}

impl DriveFaultConfig {
    /// A moderate chaos profile: 5% busy bounces, 10% stalls up to 300µs.
    #[must_use]
    pub fn moderate() -> Self {
        DriveFaultConfig {
            busy: 0.05,
            slow_io: 0.10,
            max_slow_micros: 300,
        }
    }
}

#[derive(Debug)]
struct DriveFaultState {
    config: DriveFaultConfig,
    seed: u64,
    seq: u64,
}

enum DriveFault {
    Busy,
    SlowMicros(u64),
}

impl DriveFaultState {
    fn next(&mut self) -> Option<DriveFault> {
        let seq = self.seq;
        self.seq += 1;
        let base = splitmix64(self.seed ^ seq.wrapping_mul(0xa076_1d64_78bd_642f));
        let roll = (base >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if roll < self.config.busy {
            Some(DriveFault::Busy)
        } else if roll < self.config.busy + self.config.slow_io && self.config.max_slow_micros > 0 {
            Some(DriveFault::SlowMicros(
                splitmix64(base) % self.config.max_slow_micros + 1,
            ))
        } else {
            None
        }
    }
}

/// Per-drive observability handles, resolved once when the drive is
/// built (see [`DriveBuilder::metrics`]) so recording per request is a
/// handful of atomic adds.
struct DriveObs {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    security_rejects: Arc<Counter>,
    busy_bounces: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    instructions: Arc<Histogram>,
    request_bytes: Arc<Histogram>,
    sink: Option<Arc<TraceSink>>,
}

impl DriveObs {
    fn wire(registry: &Registry, drive: u64, sink: Option<Arc<TraceSink>>) -> DriveObs {
        let name = |leaf: &str| format!("drive/{drive}/{leaf}");
        DriveObs {
            requests: registry.counter(&name("requests")),
            errors: registry.counter(&name("errors")),
            security_rejects: registry.counter(&name("security_rejects")),
            busy_bounces: registry.counter(&name("busy_bounces")),
            bytes_read: registry.counter(&name("bytes_read")),
            bytes_written: registry.counter(&name("bytes_written")),
            cache_hits: registry.counter(&name("cache_hits")),
            cache_misses: registry.counter(&name("cache_misses")),
            instructions: registry.histogram(&name("instructions")),
            request_bytes: registry.histogram(&name("request_bytes")),
            sink,
        }
    }
}

fn op_label(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Write => "write",
        OpKind::GetAttr => "get_attr",
        OpKind::Control => "control",
    }
}

/// How an executed request is accounted.
fn op_kind(body: &RequestBody) -> OpKind {
    match body {
        RequestBody::Read { .. } => OpKind::Read,
        RequestBody::Write { .. } | RequestBody::Append { .. } => OpKind::Write,
        RequestBody::GetAttr { .. } => OpKind::GetAttr,
        _ => OpKind::Control,
    }
}

/// What one request cost: instruction accounting plus the block-cache
/// lookups it made. A request with no misses ran the warm code path.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Kind of operation (for aggregation).
    pub kind: OpKind,
    /// Instruction cost split into comm / object-system work.
    pub cost: OpCost,
    /// Block lookups the cache satisfied.
    pub hits: u64,
    /// Block lookups that read the device.
    pub misses: u64,
}

/// A complete NASD drive over block device `D`.
pub struct NasdDrive<D = MemDisk> {
    id: DriveId,
    store: ObjectStore<D>,
    security: DriveSecurity,
    hierarchy: KeyHierarchy,
    meter: CostMeter,
    clock: u64,
    next_client: u64,
    issue_nonce: Cell<u64>,
    faults: Option<DriveFaultState>,
    obs: Option<DriveObs>,
}

/// Fluent constructor for [`NasdDrive`] — the single way a drive is
/// built, whether fresh in memory, over an arbitrary device, or
/// remounted from a checkpoint.
///
/// # Example
///
/// ```
/// use nasd_object::{DriveConfig, NasdDrive};
/// let mut drive = NasdDrive::builder(1)
///     .config(DriveConfig::prototype())
///     .build();
/// assert_eq!(drive.id().0, 1);
/// ```
#[derive(Clone, Debug)]
pub struct DriveBuilder {
    drive_number: u64,
    config: DriveConfig,
    master_seed: [u8; 32],
    faults: Option<(u64, DriveFaultConfig)>,
    metrics: Option<Arc<Registry>>,
    trace: Option<Arc<TraceSink>>,
}

impl DriveBuilder {
    /// Use `config` instead of the default [`DriveConfig::small`].
    #[must_use]
    pub fn config(mut self, config: DriveConfig) -> Self {
        self.config = config;
        self
    }

    /// Root the key hierarchy at `seed` instead of the default test seed.
    #[must_use]
    pub fn master_seed(mut self, seed: [u8; 32]) -> Self {
        self.master_seed = seed;
        self
    }

    /// Install a seeded drive-level fault injector at build time.
    #[must_use]
    pub fn faults(mut self, seed: u64, config: DriveFaultConfig) -> Self {
        self.faults = Some((seed, config));
        self
    }

    /// Record per-request counters and histograms under
    /// `drive/<n>/...` in `registry`, and the verified-capability
    /// cache's hits, misses and evictions under `drive/<n>/verified/...`.
    #[must_use]
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Emit a structured [`TraceEvent`] per served request into `sink`.
    #[must_use]
    pub fn trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Assemble the drive around `store` — fresh or just replayed. The
    /// partition keys are re-derived from the key hierarchy, with any
    /// working key `SetKey` has rotated overlaid from the store.
    fn mount<D: nasd_disk::BlockDevice>(self, mut store: ObjectStore<D>) -> NasdDrive<D> {
        // Replay (if any) is done; from here on, durable drives log every
        // mutation before acking it.
        store.enable_wal(self.config.durable_writes);
        let id = DriveId(self.drive_number);
        let hierarchy = KeyHierarchy::new(SecretKey::from_bytes(self.master_seed), id.0);
        let mut security =
            DriveSecurity::new(id, hierarchy.drive().clone(), self.config.security_enabled);
        if let Some(registry) = &self.metrics {
            security.count_verified_in(registry, &format!("drive/{}/verified", id.0));
        }
        for p in store.partition_ids() {
            let mut keys = hierarchy.partition_keys(p.0, 0);
            for &(kind, key) in store.rotated_keys(p) {
                keys.set_working(kind, SecretKey::from_bytes(key));
            }
            security.install_partition_keys(p, keys);
        }
        // Tracing without metrics still routes through DriveObs; the
        // throwaway registry just absorbs the unobserved counters.
        let obs = (self.metrics.is_some() || self.trace.is_some())
            .then(|| DriveObs::wire(&self.metrics.unwrap_or_default(), id.0, self.trace));
        NasdDrive {
            id,
            store,
            security,
            hierarchy,
            meter: CostMeter::new(),
            clock: 1,
            next_client: 1,
            issue_nonce: Cell::new(1),
            faults: self.faults.map(|(seed, config)| DriveFaultState {
                config,
                seed,
                seq: 0,
            }),
            obs,
        }
    }

    /// Build over a fresh in-memory device sized by the config.
    #[must_use]
    pub fn build(self) -> NasdDrive<MemDisk> {
        let device = MemDisk::new(self.config.block_size, self.config.capacity_blocks);
        self.build_on(device)
    }

    /// Build over `device` (formats it as a fresh drive).
    #[must_use]
    pub fn build_on<D: nasd_disk::BlockDevice>(self, device: D) -> NasdDrive<D> {
        let store = ObjectStore::new(device, self.config.cache_blocks);
        self.mount(store)
    }

    /// Remount a checkpointed `device` (see [`NasdDrive::checkpoint`]):
    /// rebuilds the object store from the metadata area and replays its
    /// log, so capabilities minted before the power cycle keep working
    /// and rotated working keys stay rotated.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] when the device holds no checkpoint.
    pub fn open<D: nasd_disk::BlockDevice>(self, device: D) -> Result<NasdDrive<D>, StoreError> {
        let store = ObjectStore::open(device, self.config.cache_blocks)?;
        Ok(self.mount(store))
    }
}

impl NasdDrive<MemDisk> {
    /// Start building drive number `drive_number`; defaults are
    /// [`DriveConfig::small`] and the fleet test seed.
    #[must_use]
    pub fn builder(drive_number: u64) -> DriveBuilder {
        DriveBuilder {
            drive_number,
            config: DriveConfig::small(),
            master_seed: [7u8; 32],
            faults: None,
            metrics: None,
            trace: None,
        }
    }
}

impl<D: nasd_disk::BlockDevice> NasdDrive<D> {
    /// Flush all data and persist the drive's metadata so the device can
    /// be remounted with [`DriveBuilder::open`].
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.store.checkpoint()
    }

    /// This drive's identity.
    #[must_use]
    pub fn id(&self) -> DriveId {
        self.id
    }

    /// The drive's clock (seconds). Capability expiry is checked against
    /// this.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Set the drive clock.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Advance the drive clock.
    pub fn advance_clock(&mut self, secs: u64) {
        self.clock += secs;
    }

    /// The object store (read access for diagnostics).
    #[must_use]
    pub fn store(&self) -> &ObjectStore<D> {
        &self.store
    }

    /// The security state.
    #[must_use]
    pub fn security(&self) -> &DriveSecurity {
        &self.security
    }

    /// The key hierarchy (the drive *owner's* view; a real deployment
    /// would keep this at the file manager).
    #[must_use]
    pub fn hierarchy(&self) -> &KeyHierarchy {
        &self.hierarchy
    }

    /// Handle one wire request — the drive's single entry point, five
    /// phases top to bottom: inject faults, authorize, execute, commit,
    /// account.
    pub fn handle(&mut self, req: &Request) -> (Reply, ServiceReport) {
        // 1. Inject faults.
        if let Some(bounced) = self.inject_fault() {
            return bounced;
        }
        let before = self.store.cache().stats();
        // 2. Authorize, then 3. execute. A request refused before it was
        // authorized touched nothing and is accounted as a bare control
        // exchange.
        let (mut reply, kind) = match self.authorize(req) {
            Err(refused) => (Reply::error(refused), OpKind::Control),
            Ok(()) => (
                self.execute(req).map_or_else(Reply::error, Reply::ok),
                op_kind(&req.body),
            ),
        };
        let bytes = match &reply.body {
            ReplyBody::Data(data) => data.len() as u64,
            ReplyBody::Written(_) | ReplyBody::Appended(_) => req.data.len() as u64,
            _ => 0,
        };
        // 4. Commit. Ack implies durable: write the blocks the op
        // redirected, then group-commit its write-ahead log records,
        // which name those blocks, before the reply leaves the drive.
        // A failed commit voids the ack. The
        // first commit on a fresh device writes a full checkpoint
        // instead, formatting the superblock. A drive that is not
        // durable logged nothing, and the commit returns at once.
        if reply.status.is_ok() && req.body.mutates() && self.store.wal_commit().is_err() {
            reply = Reply::error(NasdStatus::DriveError);
        }
        // 5. Account.
        let after = self.store.cache().stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let cost = self.meter.estimate(kind, bytes, misses);
        let report = ServiceReport {
            kind,
            cost,
            hits,
            misses,
        };
        self.account(&reply, &report, bytes);
        (reply, report)
    }

    /// Phase 1: the seeded injector may bounce the request with `Busy`
    /// — before authorization, so no nonce is consumed and no state
    /// touched, and the client may re-sign and retry — or stall it.
    fn inject_fault(&mut self) -> Option<(Reply, ServiceReport)> {
        match self.faults.as_mut()?.next()? {
            DriveFault::Busy => {
                if let Some(obs) = &self.obs {
                    obs.requests.inc();
                    obs.busy_bounces.inc();
                    if let Some(sink) = &obs.sink {
                        sink.record(
                            TraceEvent::new(SimTime::from_secs(self.clock), "control", "busy")
                                .with_drive(self.id.0),
                        );
                    }
                }
                let report = ServiceReport {
                    kind: OpKind::Control,
                    cost: self.meter.estimate(OpKind::Control, 0, 0),
                    hits: 0,
                    misses: 0,
                };
                Some((Reply::error(NasdStatus::Busy), report))
            }
            DriveFault::SlowMicros(us) => {
                // Pacing happens before any store lock is taken, so an
                // injected stall never extends a critical section.
                nasd_net::pace(std::time::Duration::from_micros(us));
                None
            }
        }
    }

    /// Phase 2: check the request against its row of the authority
    /// table ([`RequestBody::authority`]) and the drive state that row
    /// refers to — the object's current version and end of data, read
    /// without perturbing the object.
    fn authorize(&mut self, req: &Request) -> Result<(), NasdStatus> {
        if let RequestBody::Write { len, .. } | RequestBody::Append { len, .. } = &req.body {
            if *len != req.data.len() as u64 {
                return Err(NasdStatus::BadRequest);
            }
        }
        let authority = req.body.authority();
        let object = match authority.object() {
            // The object-list object is synthesized on every read, never
            // allocated, and so always version 0.
            Some(WELL_KNOWN_OBJECT_LIST) if matches!(req.body, RequestBody::Read { .. }) => None,
            Some(o) => Some(self.store.peek_attr(req.body.partition(), o)?),
            None => None,
        };
        self.security.authorize(req, authority, object, self.clock)
    }

    /// Phase 3: the authorized operation itself — store calls only.
    fn execute(&mut self, req: &Request) -> Result<ReplyBody, NasdStatus> {
        let (p, now) = (req.body.partition(), self.clock);
        Ok(match &req.body {
            // "Objects with well-known names... enable filesystems to
            // find a fixed starting point for an object hierarchy and
            // a complete list of allocated object names" (§4.1).
            RequestBody::Read {
                object: WELL_KNOWN_OBJECT_LIST,
                offset,
                len,
                ..
            } => {
                let ids = self.store.list_objects(p)?;
                let mut w = nasd_proto::wire::WireWriter::new();
                w.u32(ids.len() as u32);
                for id in ids {
                    id.encode(&mut w);
                }
                let encoded = Bytes::from(w.into_vec());
                // Wire integers: clamp in u64 before narrowing, so a
                // hostile offset/len neither wraps nor truncates;
                // `start <= end <= encoded.len()`.
                let total = encoded.len() as u64;
                let start = (*offset).min(total);
                let end = offset.saturating_add(*len).min(total);
                ReplyBody::Data(ByteRope::from(encoded.slice(start as usize..end as usize)))
            }
            RequestBody::Read {
                object,
                offset,
                len,
                ..
            } => ReplyBody::Data(self.store.read(p, *object, *offset, *len, now)?),
            RequestBody::Write { object, offset, .. } => {
                ReplyBody::Written(self.store.write(p, *object, *offset, &req.data, now)?)
            }
            RequestBody::Append { object, .. } => {
                // The drive chooses the offset: current end of data.
                let offset = self.store.peek_attr(p, *object)?.size;
                self.store.write(p, *object, offset, &req.data, now)?;
                ReplyBody::Appended(offset)
            }
            RequestBody::GetAttr { object, .. } => {
                ReplyBody::Attr(self.store.get_attr(p, *object, now)?)
            }
            RequestBody::SetAttr {
                object,
                mask,
                fs_specific,
                preallocated,
                cluster_with,
                ..
            } => {
                self.store.set_attr(
                    p,
                    *object,
                    *mask,
                    fs_specific,
                    *preallocated,
                    *cluster_with,
                    now,
                )?;
                ReplyBody::Empty
            }
            RequestBody::Create {
                preallocate,
                cluster_with,
                ..
            } => {
                ReplyBody::Created(
                    self.store
                        .create_object(p, *preallocate, *cluster_with, now)?,
                )
            }
            RequestBody::Remove { object, .. } => {
                self.store.remove_object(p, *object)?;
                ReplyBody::Empty
            }
            RequestBody::Resize {
                object, new_size, ..
            } => {
                self.store.resize(p, *object, *new_size, now)?;
                ReplyBody::Empty
            }
            RequestBody::Snapshot { object, .. } => {
                ReplyBody::Created(self.store.snapshot(p, *object, now)?)
            }
            RequestBody::Flush { .. } => {
                self.store.flush()?;
                ReplyBody::Empty
            }
            RequestBody::ListObjects { .. } => ReplyBody::Objects(self.store.list_objects(p)?),
            RequestBody::CreatePartition { quota, .. } => {
                self.store.create_partition(p, *quota)?;
                let keys = self.hierarchy.partition_keys(p.0, 0);
                self.security.install_partition_keys(p, keys);
                ReplyBody::Empty
            }
            RequestBody::ResizePartition { quota, .. } => {
                self.store.resize_partition(p, *quota)?;
                ReplyBody::Empty
            }
            RequestBody::RemovePartition { .. } => {
                self.store.remove_partition(p)?;
                self.security.remove_partition_keys(p);
                ReplyBody::Empty
            }
            RequestBody::SetKey {
                kind, wrapped_key, ..
            } => {
                let key: [u8; 32] = wrapped_key
                    .as_slice()
                    .try_into()
                    .map_err(|_| NasdStatus::BadRequest)?;
                // A rotated key is drive state: logged like any other
                // mutation, so the rotation still revokes after a
                // power cycle.
                self.store.set_working_key(p, *kind, key)?;
                self.security
                    .set_working_key(p, *kind, SecretKey::from_bytes(key))?;
                ReplyBody::Empty
            }
            // The protocol enum is non-exhaustive; a drive must answer
            // requests it does not understand.
            _ => return Err(NasdStatus::BadRequest),
        })
    }

    /// Phase 5: per-request counters, histograms and the trace event.
    fn account(&self, reply: &Reply, report: &ServiceReport, bytes: u64) {
        let Some(obs) = &self.obs else { return };
        obs.requests.inc();
        if !reply.status.is_ok() {
            obs.errors.inc();
            if matches!(
                reply.status,
                NasdStatus::AccessDenied | NasdStatus::Replay | NasdStatus::RangeViolation
            ) {
                obs.security_rejects.inc();
            }
        }
        match report.kind {
            OpKind::Read => obs.bytes_read.add(bytes),
            OpKind::Write => obs.bytes_written.add(bytes),
            OpKind::GetAttr | OpKind::Control => {}
        }
        obs.cache_hits.add(report.hits);
        obs.cache_misses.add(report.misses);
        obs.instructions.record(report.cost.total() as u64);
        obs.request_bytes.record(bytes);
        if let Some(sink) = &obs.sink {
            let phase = if reply.status.is_ok() {
                "served"
            } else {
                "error"
            };
            sink.record(
                TraceEvent::new(SimTime::from_secs(self.clock), op_label(report.kind), phase)
                    .with_drive(self.id.0)
                    .with_detail(format!("status={:?} bytes={bytes}", reply.status)),
            );
        }
    }

    // ----- owner / administrative convenience API ----------------------
    //
    // These mirror what a file manager (holding the partition keys) or a
    // drive administrator (holding the drive key) does over the secure
    // administrative channel. Examples and tests use them to avoid
    // re-implementing a file manager; `nasd-fm` builds the real thing.

    /// Create a partition as the drive administrator.
    ///
    /// # Errors
    ///
    /// Propagates the drive status on failure.
    pub fn admin_create_partition(&mut self, p: PartitionId, quota: u64) -> Result<(), NasdStatus> {
        let req = self.admin_request(RequestBody::CreatePartition {
            partition: p,
            quota,
        });
        match self.handle(&req).0.status {
            NasdStatus::Ok => Ok(()),
            refused => Err(refused),
        }
    }

    /// Create an object as the partition owner; returns its name.
    ///
    /// # Errors
    ///
    /// Propagates the drive status on failure.
    pub fn admin_create_object(
        &mut self,
        p: PartitionId,
        preallocate: u64,
    ) -> Result<ObjectId, NasdStatus> {
        let cap = self.issue_partition_capability(p, Rights::CREATE, 3_600);
        let body = RequestBody::Create {
            partition: p,
            preallocate,
            cluster_with: None,
        };
        self.client(cap)
            .call(self, body, Bytes::new())?
            .into_created()
    }

    /// Sign a capability-less control request under `key` as `signer`.
    fn keyed_request(&self, signer: u64, key: &SecretKey, body: RequestBody) -> Request {
        let nonce = Nonce::new(signer, self.issue_nonce.replace(self.issue_nonce.get() + 1));
        let protection = ProtectionLevel::ArgsIntegrity;
        Request::signed_by(key.hmac_key(), None, protection, nonce, body, Bytes::new())
    }

    /// Build a drive-key-authorized administrative request.
    #[must_use]
    pub fn admin_request(&self, body: RequestBody) -> Request {
        self.keyed_request(0xad31, self.hierarchy.drive(), body)
    }

    /// Build a partition-key-authorized `SetKey` request.
    #[must_use]
    pub fn setkey_request(&self, p: PartitionId, kind: KeyKind, new_key: &SecretKey) -> Request {
        let body = RequestBody::SetKey {
            partition: p,
            kind,
            // nasd-lint: allow(hot-path-copy, "32-byte key material on the control path, not payload")
            wrapped_key: new_key.as_bytes().to_vec(),
        };
        let keys = self.hierarchy.partition_keys(p.0, 0);
        self.keyed_request(0xad32, &keys.partition, body)
    }

    /// Mint a capability for an object, as the file manager would: rights
    /// over the object's full byte range, expiring `ttl_secs` from now,
    /// under the gold working key.
    #[must_use]
    pub fn issue_capability(
        &self,
        p: PartitionId,
        object: ObjectId,
        rights: Rights,
        ttl_secs: u64,
    ) -> Capability {
        self.issue_capability_region(p, object, rights, ByteRange::FULL, ttl_secs)
    }

    /// Mint a capability restricted to a byte region (the AFS quota-escrow
    /// mechanism uses this).
    #[must_use]
    pub fn issue_capability_region(
        &self,
        p: PartitionId,
        object: ObjectId,
        rights: Rights,
        region: ByteRange,
        ttl_secs: u64,
    ) -> Capability {
        let version = self
            .store
            .peek_attr(p, object)
            .map_or(Version(0), |attrs| attrs.version);
        let expires = self.clock + ttl_secs;
        let public = CapabilityPublic::gold(self.id, p, object, version, rights, region, expires);
        let key = self
            .security
            .working_key(p, KeyKind::Gold)
            .cloned()
            .unwrap_or_else(|| self.hierarchy.partition_keys(p.0, 0).gold);
        public.mint(&key)
    }

    /// Mint a partition-level capability (create / list); see
    /// [`Scope::capability_object`] for the object it names.
    #[must_use]
    pub fn issue_partition_capability(
        &self,
        p: PartitionId,
        rights: Rights,
        ttl_secs: u64,
    ) -> Capability {
        let object = Scope::Partition.capability_object();
        self.issue_capability_region(p, object, rights, ByteRange::FULL, ttl_secs)
    }

    /// Create a client handle that signs requests with `capability`.
    pub fn client(&mut self, capability: Capability) -> ClientHandle {
        let id = self.next_client;
        self.next_client += 1;
        ClientHandle::new(id, capability)
    }
}

impl<D: nasd_disk::BlockDevice> std::fmt::Debug for NasdDrive<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NasdDrive")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("store", &self.store)
            .finish()
    }
}

/// A client-side handle: holds a capability and signs requests with its
/// private field, exactly as a NASD client library would.
#[derive(Debug, Clone)]
pub struct ClientHandle {
    client_id: u64,
    capability: Capability,
    counter: Cell<u64>,
    protection: ProtectionLevel,
}

impl ClientHandle {
    /// Wrap a capability for client `client_id`.
    #[must_use]
    pub fn new(client_id: u64, capability: Capability) -> Self {
        ClientHandle {
            client_id,
            capability,
            counter: Cell::new(1),
            protection: ProtectionLevel::ArgsIntegrity,
        }
    }

    /// The capability in use.
    #[must_use]
    pub fn capability(&self) -> &Capability {
        &self.capability
    }

    /// Use a stronger protection level for subsequent requests.
    pub fn set_protection(&mut self, protection: ProtectionLevel) {
        self.protection = protection;
    }

    /// Build a signed request for `body` carrying `data`.
    #[must_use]
    pub fn build(&self, body: RequestBody, data: Bytes) -> Request {
        let nonce = Nonce::new(self.client_id, self.counter.replace(self.counter.get() + 1));
        Request::signed_by(
            self.capability.hmac_key(),
            Some(self.capability.public.clone()),
            self.protection,
            nonce,
            body,
            data,
        )
    }

    /// Sign `body` + `data`, run them through the drive's full request
    /// path, and split the reply on its status.
    fn call<D: nasd_disk::BlockDevice>(
        &self,
        drive: &mut NasdDrive<D>,
        body: RequestBody,
        data: Bytes,
    ) -> Result<ReplyBody, NasdStatus> {
        let (reply, _) = drive.handle(&self.build(body, data));
        if reply.status.is_ok() {
            Ok(reply.body)
        } else {
            Err(reply.status)
        }
    }

    /// Read object data through the drive's full request path. The
    /// payload arrives as a scatter-gather rope of cache-block views;
    /// callers that need contiguous bytes flatten it themselves, at the
    /// last possible moment.
    ///
    /// # Errors
    ///
    /// The drive's [`NasdStatus`] on failure.
    pub fn read<D: nasd_disk::BlockDevice>(
        &self,
        drive: &mut NasdDrive<D>,
        offset: u64,
        len: u64,
    ) -> Result<ByteRope, NasdStatus> {
        let body = RequestBody::read(&self.capability.public, offset, len);
        self.call(drive, body, Bytes::new())?.into_data()
    }

    /// Write object data through the drive's full request path.
    ///
    /// # Errors
    ///
    /// The drive's [`NasdStatus`] on failure.
    pub fn write<D: nasd_disk::BlockDevice>(
        &self,
        drive: &mut NasdDrive<D>,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, NasdStatus> {
        let body = RequestBody::write(&self.capability.public, offset, data.len() as u64);
        // nasd-lint: allow(hot-path-copy, "client write ingest: borrowed caller slice becomes the owned request payload")
        self.call(drive, body, Bytes::copy_from_slice(data))?
            .into_written()
    }

    /// Read object attributes.
    ///
    /// # Errors
    ///
    /// The drive's [`NasdStatus`] on failure.
    pub fn get_attr<D: nasd_disk::BlockDevice>(
        &self,
        drive: &mut NasdDrive<D>,
    ) -> Result<nasd_proto::ObjectAttributes, NasdStatus> {
        let body = RequestBody::get_attr(&self.capability.public);
        self.call(drive, body, Bytes::new())?.into_attr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PartitionId = PartitionId(1);

    fn drive() -> NasdDrive {
        let mut d = NasdDrive::builder(1).build();
        d.admin_create_partition(P, 16 << 20).unwrap();
        d
    }

    #[test]
    fn full_secure_read_write_path() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 100);
        let c = d.client(cap);
        assert_eq!(c.write(&mut d, 0, b"secured data").unwrap(), 12);
        assert_eq!(c.read(&mut d, 0, 12).unwrap(), b"secured data");
    }

    #[test]
    fn rights_enforced() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let read_only = d.issue_capability(P, obj, Rights::READ, 100);
        let c = d.client(read_only);
        assert_eq!(
            c.write(&mut d, 0, b"nope").unwrap_err(),
            NasdStatus::AccessDenied
        );
    }

    #[test]
    fn region_enforced() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let full = d.issue_capability(P, obj, Rights::WRITE, 100);
        d.client(full).write(&mut d, 0, &[0u8; 1000]).unwrap();

        let windowed =
            d.issue_capability_region(P, obj, Rights::READ, ByteRange::new(100, 200), 100);
        let c = d.client(windowed);
        assert!(c.read(&mut d, 100, 100).is_ok());
        assert_eq!(
            c.read(&mut d, 100, 101).unwrap_err(),
            NasdStatus::RangeViolation
        );
        assert_eq!(
            c.read(&mut d, 0, 10).unwrap_err(),
            NasdStatus::RangeViolation
        );
    }

    #[test]
    fn expired_capability_rejected() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ, 10);
        let c = d.client(cap);
        assert!(c.read(&mut d, 0, 0).is_ok());
        d.advance_clock(100);
        assert_eq!(c.read(&mut d, 0, 0).unwrap_err(), NasdStatus::AccessDenied);
    }

    #[test]
    fn version_bump_revokes() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ | Rights::SETATTR, 100);
        let c = d.client(cap);
        assert!(c.read(&mut d, 0, 0).is_ok());

        // The file manager bumps the version to revoke.
        let req = c.build(
            RequestBody::SetAttr {
                partition: P,
                object: obj,
                mask: nasd_proto::SetAttrMask::bump_version_only(),
                fs_specific: Box::new([0u8; nasd_proto::FS_SPECIFIC_ATTR_LEN]),
                preallocated: 0,
                cluster_with: None,
            },
            Bytes::new(),
        );
        let (reply, _) = d.handle(&req);
        assert!(reply.status.is_ok());

        // Old capability now fails; a re-issued one works.
        assert_eq!(c.read(&mut d, 0, 0).unwrap_err(), NasdStatus::AccessDenied);
        let fresh = d.issue_capability(P, obj, Rights::READ, 100);
        let c2 = d.client(fresh);
        assert!(c2.read(&mut d, 0, 0).is_ok());
    }

    #[test]
    fn tampered_request_rejected() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ, 100);
        let c = d.client(cap);
        let mut req = c.build(
            RequestBody::Read {
                partition: P,
                object: obj,
                offset: 0,
                len: 4,
            },
            Bytes::new(),
        );
        // Adversary enlarges the read after signing.
        req.body = RequestBody::Read {
            partition: P,
            object: obj,
            offset: 0,
            len: 4_096,
        };
        let (reply, _) = d.handle(&req);
        assert_eq!(reply.status, NasdStatus::AccessDenied);
    }

    #[test]
    fn forged_rights_rejected() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ, 100);
        // Adversary edits the public portion to claim WRITE.
        let mut forged = cap.clone();
        forged.public.rights = Rights::READ | Rights::WRITE;
        let c = ClientHandle::new(99, forged);
        assert_eq!(
            c.write(&mut d, 0, b"evil").unwrap_err(),
            NasdStatus::AccessDenied
        );
    }

    #[test]
    fn replayed_request_rejected() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ, 100);
        let c = d.client(cap);
        let req = c.build(
            RequestBody::Read {
                partition: P,
                object: obj,
                offset: 0,
                len: 0,
            },
            Bytes::new(),
        );
        let (r1, _) = d.handle(&req);
        assert!(r1.status.is_ok());
        let (r2, _) = d.handle(&req);
        assert_eq!(r2.status, NasdStatus::Replay);
    }

    #[test]
    fn setkey_rotates_and_revokes() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ, 100);
        let c = d.client(cap);
        assert!(c.read(&mut d, 0, 0).is_ok());

        // Rotate the gold working key: the capability dies with it.
        let new_key = SecretKey::random_from(b"rotation", 1);
        let req = d.setkey_request(P, KeyKind::Gold, &new_key);
        let (reply, _) = d.handle(&req);
        assert!(reply.status.is_ok(), "{:?}", reply.status);
        assert_eq!(c.read(&mut d, 0, 0).unwrap_err(), NasdStatus::AccessDenied);
    }

    #[test]
    fn remove_partition_empties_the_verified_capability_cache() {
        let mut d = drive();
        let q = PartitionId(2);
        d.admin_create_partition(q, 1 << 20).unwrap();
        let list = d.issue_partition_capability(q, Rights::GETATTR, 100);
        let c = d.client(list);
        let body = RequestBody::ListObjects { partition: q };
        assert!(c.call(&mut d, body.clone(), Bytes::new()).is_ok());
        assert_eq!(d.security().verified_len(), 1);
        let remove = d.admin_request(RequestBody::RemovePartition { partition: q });
        assert!(d.handle(&remove).0.status.is_ok());
        assert_eq!(d.security().verified_len(), 0);
        assert!(c.call(&mut d, body, Bytes::new()).is_err());
    }

    /// The verified-capability cache counts under `drive/<n>/verified/`:
    /// a fresh capability is a miss, its next request a hit, and a key
    /// change empties the cache without counting evictions.
    #[test]
    fn the_verified_cache_counts_in_the_drive_registry() {
        let registry = Arc::new(Registry::new());
        let mut d = NasdDrive::builder(3).metrics(Arc::clone(&registry)).build();
        // (hits, misses, evictions), read from a snapshot so a counter
        // that was never registered fails the test.
        let counts = || {
            let snapshot = registry.snapshot();
            let value = |leaf: &str| {
                let name = format!("drive/3/verified/{leaf}");
                let found = snapshot.counters.iter().find(|(n, _)| *n == name);
                found.map(|&(_, v)| v).expect("registered")
            };
            (value("hits"), value("misses"), value("evictions"))
        };
        assert_eq!(counts(), (0, 0, 0));
        d.admin_create_partition(P, 16 << 20).unwrap();
        // The create runs under a fresh partition capability.
        let obj = d.admin_create_object(P, 0).unwrap();
        assert_eq!(counts(), (0, 1, 0));
        let c = d.client(d.issue_capability(P, obj, Rights::READ, 100));
        c.read(&mut d, 0, 0).unwrap();
        assert_eq!(counts(), (0, 2, 0), "a fresh capability misses");
        c.read(&mut d, 0, 0).unwrap();
        assert_eq!(counts(), (1, 2, 0), "a warm request hits");
        assert_eq!(d.security().verified_len(), 2);

        // `install_partition_keys` empties the cache...
        d.admin_create_partition(PartitionId(2), 1 << 20).unwrap();
        assert_eq!(d.security().verified_len(), 0);
        c.read(&mut d, 0, 0).unwrap();
        assert_eq!(counts(), (1, 3, 0));
        // ...and so does `set_working_key`; neither counts an eviction.
        let rotated = SecretKey::random_from(b"rotation", 1);
        let req = d.setkey_request(P, KeyKind::Black, &rotated);
        assert!(d.handle(&req).0.status.is_ok());
        assert_eq!(d.security().verified_len(), 0);
        c.read(&mut d, 0, 0).unwrap();
        assert_eq!(counts(), (1, 4, 0));
    }

    #[test]
    fn admin_ops_require_drive_key() {
        let mut d = drive();
        // Request signed with the wrong key.
        let body = RequestBody::CreatePartition {
            partition: PartitionId(9),
            quota: 1,
        };
        let req = Request::signed(
            b"not the drive key",
            None,
            ProtectionLevel::ArgsIntegrity,
            Nonce::new(5, 1),
            body,
            Bytes::new(),
        );
        let (reply, _) = d.handle(&req);
        assert_eq!(reply.status, NasdStatus::AccessDenied);
    }

    #[test]
    fn capability_for_wrong_object_rejected() {
        let mut d = drive();
        let a = d.admin_create_object(P, 0).unwrap();
        let b = d.admin_create_object(P, 0).unwrap();
        let cap_a = d.issue_capability(P, a, Rights::READ, 100);
        let c = d.client(cap_a);
        // Hand-build a request against object b with a's capability.
        let req = c.build(
            RequestBody::Read {
                partition: P,
                object: b,
                offset: 0,
                len: 0,
            },
            Bytes::new(),
        );
        let (reply, _) = d.handle(&req);
        assert_eq!(reply.status, NasdStatus::AccessDenied);
    }

    #[test]
    fn service_report_reflects_cost_and_io() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 100);
        let c = d.client(cap);
        c.write(&mut d, 0, &vec![1u8; 65_536]).unwrap();

        let req = c.build(
            RequestBody::Read {
                partition: P,
                object: obj,
                offset: 0,
                len: 65_536,
            },
            Bytes::new(),
        );
        let (reply, report) = d.handle(&req);
        assert!(reply.status.is_ok());
        assert_eq!(report.kind, OpKind::Read);
        // Warm 64 KB read: Table 1 says ~224k instructions, ~97% comm.
        assert!(report.cost.total() > 150_000.0);
        assert!(report.cost.pct_comm() > 90.0);
        assert_eq!(report.misses, 0, "warm read");
        assert_eq!(report.hits, 8, "one hit per 8 KiB block");
    }

    #[test]
    fn per_request_cache_counts_sum_to_the_cache_stats() {
        // An 8-block cache: one 64 KiB object fills it, so writing a
        // second evicts the first and its next read is cold.
        let registry = Arc::new(Registry::new());
        let small = DriveConfig {
            cache_blocks: 8,
            ..DriveConfig::small()
        };
        for (n, config) in [(1u64, small.clone()), (2, small.durable())] {
            let mut d = NasdDrive::builder(n)
                .config(config)
                .metrics(Arc::clone(&registry))
                .build();
            d.admin_create_partition(P, 16 << 20).unwrap();
            let [a, b] = [0, 1].map(|_| {
                let obj = d.admin_create_object(P, 0).unwrap();
                d.client(d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 100))
            });
            a.write(&mut d, 0, &[1u8; 65_536]).unwrap();
            b.write(&mut d, 0, &[2u8; 65_536]).unwrap();

            let start = d.store().cache().stats();
            let read = |c: &ClientHandle| {
                c.build(
                    RequestBody::read(&c.capability.public, 0, 8_192),
                    Bytes::new(),
                )
            };
            let write = a.build(
                RequestBody::write(&a.capability.public, 0, 8_192),
                Bytes::from(vec![3u8; 8_192]),
            );
            let mut sum = (0, 0);
            // (hits, misses) per request.
            for (what, req, expected) in [
                ("cold read", read(&a), (0, 1)),
                ("warm read", read(&a), (1, 0)),
                ("write", write, (1, 0)),
            ] {
                let (reply, report) = d.handle(&req);
                assert!(reply.status.is_ok(), "drive {n} {what}: {:?}", reply.status);
                let got = (report.hits, report.misses);
                assert_eq!(got, expected, "drive {n} {what}");
                sum = (sum.0 + report.hits, sum.1 + report.misses);
            }
            let end = d.store().cache().stats();
            assert_eq!(sum, (end.hits - start.hits, end.misses - start.misses));
            // Every request went through `handle`, so the counters hold
            // the cache's whole history.
            let counter = |leaf: &str| registry.counter(&format!("drive/{n}/{leaf}")).value();
            assert_eq!(
                (counter("cache_hits"), counter("cache_misses")),
                (end.hits, end.misses),
                "drive {n}"
            );
        }
    }

    #[test]
    fn disabled_security_accepts_anything() {
        let mut config = DriveConfig::small();
        config.security_enabled = false;
        let mut d = NasdDrive::builder(1).config(config).build();
        d.admin_create_partition(P, 1 << 20).unwrap();
        let obj = d.admin_create_object(P, 0).unwrap();
        // Garbage capability, garbage digest: accepted when disabled.
        let cap = d.issue_capability(P, obj, Rights::NONE, 0);
        let c = ClientHandle::new(7, cap);
        assert!(c.read(&mut d, 0, 0).is_ok());
    }

    /// A security-off drive (the paper's §5.1 measurement configuration)
    /// holding one 12-byte object, plus a handle whose capability the
    /// drive will not check — so hostile wire integers reach the store.
    fn unchecked_drive() -> (NasdDrive, ClientHandle) {
        let mut config = DriveConfig::small();
        config.security_enabled = false;
        let mut d = NasdDrive::builder(1).config(config).build();
        d.admin_create_partition(P, 1 << 20).unwrap();
        let obj = d.admin_create_object(P, 0).unwrap();
        let c = ClientHandle::new(7, d.issue_capability(P, obj, Rights::NONE, 0));
        c.write(&mut d, 0, b"twelve bytes").unwrap();
        (d, c)
    }

    #[test]
    fn security_off_read_with_overflowing_len_is_clamped() {
        let (mut d, c) = unchecked_drive();
        assert_eq!(c.read(&mut d, 1, u64::MAX).unwrap(), b"welve bytes");
    }

    #[test]
    fn security_off_write_past_u64_max_is_a_typed_error() {
        let (mut d, c) = unchecked_drive();
        // `offset + len` overflows; one byte short of it, the block
        // count times the block size does.
        for offset in [u64::MAX, u64::MAX - 1] {
            assert_eq!(
                c.write(&mut d, offset, b"x").unwrap_err(),
                NasdStatus::NoSpace
            );
        }
        // No state change: the object reads back as before.
        assert_eq!(c.get_attr(&mut d).unwrap().size, 12);
        assert_eq!(c.read(&mut d, 0, 64).unwrap(), b"twelve bytes");
    }

    #[test]
    fn create_with_overflowing_preallocate_is_a_typed_error() {
        // `preallocate` rounds up to 2^51 blocks; times the block size
        // that is 2^64. A valid CREATE capability is all it takes.
        let mut d = drive();
        for preallocate in [u64::MAX, u64::MAX - 8_191] {
            assert_eq!(
                d.admin_create_object(P, preallocate).unwrap_err(),
                NasdStatus::NoSpace
            );
        }
        // No state change: the partition is empty and its quota whole.
        let info = d.store().partition_stats(P).unwrap();
        assert_eq!((info.used, info.objects), (0, 0));
    }

    #[test]
    fn security_off_object_list_read_with_huge_offset_is_empty() {
        let (mut d, _) = unchecked_drive();
        let cap = d.issue_capability(P, nasd_proto::WELL_KNOWN_OBJECT_LIST, Rights::NONE, 0);
        let c = ClientHandle::new(8, cap);
        assert!(c.read(&mut d, u64::MAX, 2).unwrap().is_empty());
        assert!(c.read(&mut d, 1 << 40, u64::MAX).unwrap().is_empty());
        // In-range windows still come back.
        assert_eq!(c.read(&mut d, 0, u64::MAX).unwrap().len(), 4 + 8);
    }

    #[test]
    fn snapshot_via_wire() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ | Rights::WRITE | Rights::SNAPSHOT, 100);
        let c = d.client(cap);
        c.write(&mut d, 0, b"before").unwrap();
        let req = c.build(
            RequestBody::Snapshot {
                partition: P,
                object: obj,
            },
            Bytes::new(),
        );
        let (reply, _) = d.handle(&req);
        let ReplyBody::Created(snap) = reply.body else {
            panic!("expected snapshot id, got {reply:?}");
        };
        c.write(&mut d, 0, b"after!").unwrap();
        let snap_cap = d.issue_capability(P, snap, Rights::READ, 100);
        let sc = d.client(snap_cap);
        assert_eq!(sc.read(&mut d, 0, 6).unwrap(), b"before");
    }

    #[test]
    fn list_objects_via_wire() {
        let mut d = drive();
        let a = d.admin_create_object(P, 0).unwrap();
        let b = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_partition_capability(P, Rights::GETATTR, 100);
        let c = d.client(cap);
        let req = c.build(RequestBody::ListObjects { partition: P }, Bytes::new());
        let (reply, _) = d.handle(&req);
        assert_eq!(reply.body, ReplyBody::Objects(vec![a, b]));
    }

    #[test]
    fn well_known_object_lists_namespace() {
        let mut d = drive();
        let a = d.admin_create_object(P, 0).unwrap();
        let b = d.admin_create_object(P, 0).unwrap();
        // A capability for the well-known object-list object.
        let cap = d.issue_capability(P, nasd_proto::WELL_KNOWN_OBJECT_LIST, Rights::READ, 100);
        let c = d.client(cap);
        let data = c.read(&mut d, 0, 1 << 16).unwrap().flatten();
        // Decode: count + ids.
        let mut r = nasd_proto::wire::WireReader::new(&data);
        let n = r.u32().unwrap();
        assert_eq!(n, 2);
        let ids: Vec<ObjectId> = (0..n)
            .map(|_| nasd_proto::wire::WireDecode::decode(&mut r).unwrap())
            .collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn drive_survives_power_cycle() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 1_000);
        let c = d.client(cap.clone());
        c.write(&mut d, 0, b"durable across reboot").unwrap();
        d.checkpoint().unwrap();

        // "Power off": recover the device, reopen the drive.
        let device = d.store().cache().device().clone();
        drop(d);
        let mut d2 = NasdDrive::builder(1).open(device).expect("remount");

        // The pre-reboot capability still verifies (keys re-derived) and
        // the data is intact.
        let c2 = ClientHandle::new(99, cap);
        assert_eq!(c2.read(&mut d2, 0, 21).unwrap(), b"durable across reboot");
        // New objects continue from the persisted namespace.
        let next = d2.admin_create_object(P, 0).unwrap();
        assert!(next > obj);
    }

    #[test]
    fn setkey_survives_power_cycle() {
        let mut d = NasdDrive::builder(1)
            .config(DriveConfig::small().durable())
            .build();
        d.admin_create_partition(P, 16 << 20).unwrap();
        let obj = d.admin_create_object(P, 0).unwrap();
        let old = d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 1_000);
        ClientHandle::new(7, old.clone())
            .write(&mut d, 0, b"keyed")
            .unwrap();
        let req = d.setkey_request(P, KeyKind::Gold, &SecretKey::random_from(b"rotation", 1));
        assert!(d.handle(&req).0.status.is_ok());
        let fresh = d.issue_capability(P, obj, Rights::READ, 1_000);

        // "Power off" with no checkpoint: only the log holds the rotation.
        let device = d.store().cache().device().clone();
        drop(d);
        let mut d2 = NasdDrive::builder(1)
            .config(DriveConfig::small().durable())
            .open(device)
            .expect("remount");
        assert_eq!(
            ClientHandle::new(8, old).read(&mut d2, 0, 5).unwrap_err(),
            NasdStatus::AccessDenied,
            "a revoked capability must stay revoked"
        );
        let c = ClientHandle::new(9, fresh);
        assert_eq!(c.read(&mut d2, 0, 5).unwrap(), b"keyed");

        // The rotation also rides the index checkpoint.
        d2.checkpoint().unwrap();
        let device = d2.store().cache().device().clone();
        drop(d2);
        let mut d3 = NasdDrive::builder(1)
            .config(DriveConfig::small().durable())
            .open(device)
            .expect("remount");
        assert_eq!(c.read(&mut d3, 0, 5).unwrap(), b"keyed");
    }

    /// Ack implies durable, for every request kind that `mutates()`: on
    /// a durable drive whose device is already formatted, an
    /// acknowledged mutation has left a committed log record (or, with
    /// the log full, a checkpoint). `Flush` logs nothing by design — it
    /// changes no logical state.
    #[test]
    fn acked_mutations_reach_the_log() {
        let mut d = NasdDrive::builder(1)
            .config(DriveConfig::small().durable())
            .build();
        // The first commit formats the device with a checkpoint.
        d.admin_create_partition(P, 16 << 20).unwrap();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::ALL, 1_000);
        let c = d.client(cap);
        let part_cap = d.issue_partition_capability(P, Rights::CREATE, 1_000);
        let pc = d.client(part_cap);
        let q = PartitionId(2);
        let key = SecretKey::random_from(b"rotation", 2);
        let data = Bytes::from_static(b"logged");
        let requests = vec![
            c.build(
                RequestBody::write(&c.capability().public, 0, 6),
                data.clone(),
            ),
            c.build(
                RequestBody::Append {
                    partition: P,
                    object: obj,
                    len: 6,
                },
                data,
            ),
            c.build(
                RequestBody::SetAttr {
                    partition: P,
                    object: obj,
                    mask: nasd_proto::SetAttrMask::fs_specific_only(),
                    fs_specific: Box::new([1u8; nasd_proto::FS_SPECIFIC_ATTR_LEN]),
                    preallocated: 0,
                    cluster_with: None,
                },
                Bytes::new(),
            ),
            c.build(
                RequestBody::Resize {
                    partition: P,
                    object: obj,
                    new_size: 3,
                },
                Bytes::new(),
            ),
            c.build(
                RequestBody::Snapshot {
                    partition: P,
                    object: obj,
                },
                Bytes::new(),
            ),
            pc.build(
                RequestBody::Create {
                    partition: P,
                    preallocate: 0,
                    cluster_with: None,
                },
                Bytes::new(),
            ),
            d.setkey_request(P, KeyKind::Black, &key),
            c.build(
                RequestBody::Remove {
                    partition: P,
                    object: obj,
                },
                Bytes::new(),
            ),
            d.admin_request(RequestBody::CreatePartition {
                partition: q,
                quota: 1 << 20,
            }),
            d.admin_request(RequestBody::ResizePartition {
                partition: q,
                quota: 2 << 20,
            }),
            d.admin_request(RequestBody::RemovePartition { partition: q }),
        ];
        let mut kinds = std::collections::HashSet::new();
        for req in &requests {
            assert!(req.body.mutates());
            kinds.insert(std::mem::discriminant(&req.body));
            let logged = d.store().wal_durable_bytes();
            let epoch = d.store().checkpoint_seq;
            let (reply, _) = d.handle(req);
            assert!(reply.status.is_ok(), "{:?}: {:?}", req.body, reply.status);
            assert!(
                d.store().wal_durable_bytes() > logged || d.store().checkpoint_seq > epoch,
                "{:?} was acknowledged but never reached the log",
                req.body
            );
        }
        // Every mutating kind but `Flush` was exercised.
        assert_eq!(kinds.len(), 11);
    }

    #[test]
    fn open_blank_device_fails() {
        let device = nasd_disk::MemDisk::new(8_192, 256);
        assert!(matches!(
            NasdDrive::builder(1).open(device),
            Err(StoreError::NotFormatted)
        ));
    }

    #[test]
    fn write_length_mismatch_rejected() {
        let mut d = drive();
        let obj = d.admin_create_object(P, 0).unwrap();
        let cap = d.issue_capability(P, obj, Rights::WRITE, 100);
        let c = d.client(cap);
        let req = c.build(
            RequestBody::Write {
                partition: P,
                object: obj,
                offset: 0,
                len: 10, // claims 10
            },
            Bytes::from_static(b"four"), // carries 4
        );
        let (reply, _) = d.handle(&req);
        assert_eq!(reply.status, NasdStatus::BadRequest);
    }
}
