//! The storage-management service proper: failure handling policy,
//! manager plumbing shared by the rebuild engine and the scrubber, and
//! the threaded RPC front end.

use crate::config::MgmtConfig;
use crate::health::HealthMonitor;
use crate::rebuild::RebuildOutcome;
use crate::scrub::ScrubOutcome;
use crate::spare::SparePool;
use nasd_cheops::{
    CheopsRequest, CheopsResponse, Component, ComponentSlot, Layout, LeaseKind, LogicalObjectId,
    RepairPhase, RepairRecord,
};
use nasd_fm::{DriveEndpoint, DriveFleet, FmError};
use nasd_net::{pace, spawn_service, CallOptions, Channel, RatePacer, Rpc, ServiceHandle};
use nasd_obs::{Counter, Gauge, Registry, SimTime, TraceEvent, TraceSink, Utilization};
use nasd_proto::{ByteRange, Capability, DriveId, Rights, Version};
use std::sync::Arc;

/// Storage-management failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MgmtError {
    /// An underlying drive or manager operation failed.
    Fm(FmError),
    /// The manager RPC channel is gone.
    Transport,
    /// The manager answered with an unexpected response variant.
    Protocol(&'static str),
    /// A rebuild was needed but the spare pool is empty.
    NoSpare,
}

impl From<FmError> for MgmtError {
    fn from(e: FmError) -> Self {
        MgmtError::Fm(e)
    }
}

impl std::fmt::Display for MgmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MgmtError::Fm(e) => write!(f, "storage error: {e}"),
            MgmtError::Transport => f.write_str("manager channel disconnected"),
            MgmtError::Protocol(what) => write!(f, "unexpected manager response to {what}"),
            MgmtError::NoSpare => f.write_str("spare pool exhausted"),
        }
    }
}

impl std::error::Error for MgmtError {}

/// Requests to the storage-management service.
#[derive(Clone, Debug)]
pub enum MgmtRequest {
    /// Run one management cycle: probe sweep, then any pending rebuilds.
    Check,
    /// Reconstruct `drive` onto a spare now, without waiting for probe
    /// detection (an operator pulling a drive).
    Rebuild {
        /// The drive to reconstruct.
        drive: DriveId,
    },
    /// Run one scrub pass over every logical object.
    Scrub,
    /// Add a hot spare to the pool.
    AddSpare {
        /// The new spare.
        drive: DriveId,
    },
    /// Snapshot the spare pool and repair records.
    Status,
}

/// Storage-management replies.
#[derive(Clone, Debug)]
pub enum MgmtResponse {
    /// Result of a management cycle.
    Check(CheckReport),
    /// Result of a forced rebuild.
    Rebuild(RebuildOutcome),
    /// Result of a scrub pass.
    Scrub(ScrubOutcome),
    /// Pool and repair status.
    Status {
        /// Free spares, sorted by drive id.
        spares: Vec<DriveId>,
        /// Repair records, sorted by drive id.
        repairs: Vec<RepairRecord>,
    },
    /// Success (for requests with nothing to report).
    Ok,
    /// Failure, rendered for the caller.
    Err(String),
}

/// What one management cycle did.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Drives newly declared failed this cycle.
    pub newly_failed: Vec<DriveId>,
    /// Spares that died in reserve (dropped from the pool, no rebuild
    /// needed — no layout references a spare).
    pub spares_lost: Vec<DriveId>,
    /// Completed reconstructions.
    pub rebuilt: Vec<(DriveId, RebuildOutcome)>,
    /// Rebuilds that could not run this cycle (no spare, component
    /// unreachable, ...) with the reason; retried next cycle.
    pub deferred: Vec<(DriveId, String)>,
}

/// Rebuild/scrub observability bundle (all under `mgmt/`).
pub(crate) struct MgmtObs {
    pub(crate) failures: Arc<Counter>,
    pub(crate) rebuilds_started: Arc<Counter>,
    pub(crate) rebuilds_completed: Arc<Counter>,
    pub(crate) rebuild_bytes: Arc<Counter>,
    pub(crate) rebuild_components: Arc<Counter>,
    pub(crate) rebuild_active: Arc<Gauge>,
    pub(crate) rebuild_busy: Arc<Utilization>,
    pub(crate) scrub_objects: Arc<Counter>,
    pub(crate) scrub_bytes: Arc<Counter>,
    pub(crate) scrub_repairs: Arc<Counter>,
    pub(crate) lease_release_failures: Arc<Counter>,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl MgmtObs {
    fn wire(registry: &Registry, trace: Option<Arc<TraceSink>>) -> Self {
        MgmtObs {
            failures: registry.counter("mgmt/failures"),
            rebuilds_started: registry.counter("mgmt/rebuild/started"),
            rebuilds_completed: registry.counter("mgmt/rebuild/completed"),
            rebuild_bytes: registry.counter("mgmt/rebuild/bytes"),
            rebuild_components: registry.counter("mgmt/rebuild/components"),
            rebuild_active: registry.gauge("mgmt/rebuild/active"),
            rebuild_busy: registry.utilization("mgmt/rebuild/busy"),
            scrub_objects: registry.counter("mgmt/scrub/objects"),
            scrub_bytes: registry.counter("mgmt/scrub/bytes"),
            scrub_repairs: registry.counter("mgmt/scrub/repairs"),
            lease_release_failures: registry.counter("mgmt/lease/release-failures"),
            trace,
        }
    }
}

/// The storage-management service. Owns failure detection, the spare
/// pool, and the rebuild/scrub engines; talks to the Cheops manager
/// over its ordinary RPC channel (`ReportFailure`, `Layouts`,
/// `SwapComponent`, ...) and to the drives directly.
pub struct NasdMgmt {
    pub(crate) fleet: Arc<DriveFleet>,
    pub(crate) mgr: Channel<CheopsRequest, CheopsResponse>,
    pub(crate) config: MgmtConfig,
    pub(crate) health: HealthMonitor,
    pub(crate) spares: SparePool,
    pub(crate) rebuild_pacer: RatePacer,
    pub(crate) scrub_pacer: RatePacer,
    pub(crate) obs: MgmtObs,
}

impl std::fmt::Debug for NasdMgmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NasdMgmt")
            .field("spares", &self.spares.available())
            .finish()
    }
}

impl NasdMgmt {
    /// Build a management service over `fleet`, talking to the Cheops
    /// manager at `mgr`, with `spares` held in reserve. Metrics go to a
    /// private registry until [`NasdMgmt::observed`] rewires them.
    #[must_use]
    pub fn new(
        fleet: Arc<DriveFleet>,
        mgr: Channel<CheopsRequest, CheopsResponse>,
        spares: Vec<DriveId>,
        config: MgmtConfig,
    ) -> Self {
        let registry = Registry::new();
        NasdMgmt {
            health: HealthMonitor::new(config.failure_threshold),
            spares: SparePool::new(spares),
            rebuild_pacer: RatePacer::with_rate(config.rebuild_rate),
            scrub_pacer: RatePacer::with_rate(config.scrub_rate),
            obs: MgmtObs::wire(&registry, None),
            fleet,
            mgr,
            config,
        }
    }

    /// Re-home the service's counters in `registry` and mirror rebuild
    /// and scrub lifecycle events into `trace`.
    #[must_use]
    pub fn observed(mut self, registry: &Registry, trace: Option<Arc<TraceSink>>) -> Self {
        self.obs = MgmtObs::wire(registry, trace);
        self
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MgmtConfig {
        &self.config
    }

    /// Free spares, sorted by drive id.
    #[must_use]
    pub fn spares_free(&self) -> Vec<DriveId> {
        self.spares.free()
    }

    /// Add a hot spare to the pool (also clears any failure history the
    /// monitor held for it).
    pub fn add_spare(&self, drive: DriveId) {
        self.health.mark_recovered(drive);
        self.spares.put(drive);
    }

    /// One management cycle: sweep the fleet for failures, report new
    /// ones to the manager, then run every pending reconstruction
    /// (including ones deferred by earlier cycles for want of a spare).
    ///
    /// # Errors
    ///
    /// Manager-channel failures. Per-drive rebuild problems do not
    /// abort the cycle; they land in [`CheckReport::deferred`].
    pub fn check_once(&self) -> Result<CheckReport, MgmtError> {
        let mut report = CheckReport::default();
        let newly = self.health.sweep(
            &self.fleet,
            self.config.probe_timeout,
            self.config.probe_attempts,
        );
        for drive in newly {
            if self.spares.remove(drive) {
                self.trace("spare-lost", Some(drive), String::new());
                self.obs.failures.inc();
                report.spares_lost.push(drive);
                continue;
            }
            self.mgr_ok(CheopsRequest::ReportFailure { drive })?;
            self.obs.failures.inc();
            self.trace("failure", Some(drive), String::new());
            report.newly_failed.push(drive);
        }
        for record in self.repairs()? {
            // `Failed` = detected, not yet attempted. `Rebuilding` = a
            // prior attempt stalled or errored mid-way; rebuild_drive is
            // idempotent per slot and resumes onto the recorded spare.
            if record.phase == RepairPhase::Rebuilt {
                continue;
            }
            match self.rebuild_drive(record.drive) {
                Ok(outcome) => report.rebuilt.push((record.drive, outcome)),
                Err(e) => report.deferred.push((record.drive, e.to_string())),
            }
        }
        Ok(report)
    }

    /// Spawn as a threaded service.
    #[must_use]
    pub fn spawn(self) -> (Rpc<MgmtRequest, MgmtResponse>, ServiceHandle) {
        let svc = Arc::new(self);
        spawn_service(move |req| svc.handle(req))
    }

    /// Handle one request (the service loop body; callable directly in
    /// tests).
    pub fn handle(&self, req: MgmtRequest) -> MgmtResponse {
        match req {
            MgmtRequest::Check => match self.check_once() {
                Ok(r) => MgmtResponse::Check(r),
                Err(e) => MgmtResponse::Err(e.to_string()),
            },
            MgmtRequest::Rebuild { drive } => match self.rebuild_drive(drive) {
                Ok(o) => MgmtResponse::Rebuild(o),
                Err(e) => MgmtResponse::Err(e.to_string()),
            },
            MgmtRequest::Scrub => match self.scrub() {
                Ok(o) => MgmtResponse::Scrub(o),
                Err(e) => MgmtResponse::Err(e.to_string()),
            },
            MgmtRequest::AddSpare { drive } => {
                self.add_spare(drive);
                MgmtResponse::Ok
            }
            MgmtRequest::Status => match self.repairs() {
                Ok(repairs) => MgmtResponse::Status {
                    spares: self.spares.free(),
                    repairs,
                },
                Err(e) => MgmtResponse::Err(e.to_string()),
            },
        }
    }

    // ---- manager plumbing shared with rebuild.rs / scrub.rs ----

    pub(crate) fn mgr_call(&self, req: CheopsRequest) -> Result<CheopsResponse, MgmtError> {
        match self.mgr.call_with(req, &CallOptions::blocking()) {
            Ok(CheopsResponse::Err(e)) => Err(MgmtError::Fm(e)),
            Ok(r) => Ok(r),
            Err(_) => Err(MgmtError::Transport),
        }
    }

    pub(crate) fn mgr_ok(&self, req: CheopsRequest) -> Result<(), MgmtError> {
        match self.mgr_call(req)? {
            CheopsResponse::Ok => Ok(()),
            _ => Err(MgmtError::Protocol("ok")),
        }
    }

    pub(crate) fn layouts(&self) -> Result<Vec<(LogicalObjectId, Layout)>, MgmtError> {
        match self.mgr_call(CheopsRequest::Layouts)? {
            CheopsResponse::Layouts(v) => Ok(v),
            _ => Err(MgmtError::Protocol("layouts")),
        }
    }

    /// Repair records, sorted by drive id.
    ///
    /// # Errors
    ///
    /// Manager-channel failures.
    pub fn repairs(&self) -> Result<Vec<RepairRecord>, MgmtError> {
        match self.mgr_call(CheopsRequest::RebuildStatus)? {
            CheopsResponse::Repairs(v) => Ok(v),
            _ => Err(MgmtError::Protocol("rebuild status")),
        }
    }

    /// Lease, re-snapshot, visit — the one walk rebuild and scrub share.
    /// Every logical object whose layout is `wanted` is visited under an
    /// exclusive lease (so a racing writer's read-modify-write can't read
    /// as a latent error) on the layout as it stands *under* that lease:
    /// it may have been swapped or removed since the walk began. `None`
    /// marks an object left for a later pass: its lease stayed busy
    /// through every retry, or it was removed meanwhile.
    pub(crate) fn visit_leased<T>(
        &self,
        wanted: impl Fn(&Layout) -> bool,
        mut visit: impl FnMut(LogicalObjectId, &Layout) -> Result<T, MgmtError>,
    ) -> Result<Vec<(LogicalObjectId, Option<T>)>, MgmtError> {
        let mut visited = Vec::new();
        for (id, layout) in self.layouts()? {
            if !wanted(&layout) {
                continue;
            }
            let outcome = self.with_exclusive_lease(id, || {
                let fresh = self.layouts()?.into_iter().find(|(other, _)| *other == id);
                fresh.map(|(_, layout)| visit(id, &layout)).transpose()
            })?;
            visited.push((id, outcome.flatten()));
        }
        Ok(visited)
    }

    /// Run `f` with an exclusive lease held on `id`. `Ok(None)` means
    /// the object was skipped: its lease stayed busy through every
    /// retry, or it was removed concurrently.
    fn with_exclusive_lease<T>(
        &self,
        id: LogicalObjectId,
        f: impl FnOnce() -> Result<T, MgmtError>,
    ) -> Result<Option<T>, MgmtError> {
        let mut attempts = 0;
        loop {
            let req = CheopsRequest::Lease {
                id,
                client: self.config.client_id,
                kind: LeaseKind::Exclusive,
                ttl: self.config.lease_ttl,
            };
            match self.mgr_call(req) {
                Ok(CheopsResponse::Leased { .. }) => break,
                Ok(CheopsResponse::LeaseBusy { .. }) => {
                    attempts += 1;
                    if attempts > self.config.lease_retries {
                        return Ok(None);
                    }
                    // Backoff with no lock held, via the sanctioned path.
                    pace(self.config.lease_retry_pause);
                }
                Err(MgmtError::Fm(FmError::NotFound(_))) => return Ok(None),
                Ok(_) => return Err(MgmtError::Protocol("lease")),
                Err(e) => return Err(e),
            }
        }
        let result = f();
        // Best-effort release; expiry reclaims it anyway — but a failed
        // release stalls other lessees for a full TTL, so count it.
        if let Err(e) = self.mgr_call(CheopsRequest::Unlease {
            id,
            client: self.config.client_id,
        }) {
            self.obs.lease_release_failures.inc();
            self.trace("unlease-failed", None, format!("object {}: {e}", id.0));
        }
        result.map(Some)
    }

    // ---- drive plumbing ----

    /// The drive holding `c` and a capability for `rights` on it — the
    /// one place storage management mints a component capability.
    pub(crate) fn party(&self, c: Component, rights: Rights) -> Result<Party<'_>, MgmtError> {
        let ep = self.fleet.by_id(c.drive).ok_or(MgmtError::Transport)?;
        let expires = self.fleet.now() + self.config.lease_ttl;
        let cap = ep.mint(
            c.partition,
            c.object,
            Version(0),
            rights,
            ByteRange::FULL,
            expires,
        );
        Ok((ep, cap))
    }

    /// Read parties for the slots whose XOR equals `slot`, or `None`
    /// when nothing protects it.
    pub(crate) fn sources_of(
        &self,
        layout: &Layout,
        slot: ComponentSlot,
    ) -> Result<Option<Vec<Party<'_>>>, MgmtError> {
        let Some(sources) = layout.sources(slot) else {
            return Ok(None);
        };
        let held = layout.slots().filter(|(s, _)| sources.contains(s));
        let parties = held.map(|(_, c)| self.party(c, Rights::READ | Rights::GETATTR));
        parties.collect::<Result<_, _>>().map(Some)
    }

    pub(crate) fn trace(&self, phase: &'static str, drive: Option<DriveId>, detail: String) {
        let Some(sink) = &self.obs.trace else {
            return;
        };
        let mut ev = TraceEvent::new(SimTime::from_secs(self.fleet.now()), "mgmt", phase);
        if let Some(d) = drive {
            ev = ev.with_drive(d.0);
        }
        if !detail.is_empty() {
            ev = ev.with_detail(detail);
        }
        sink.record(ev);
    }
}

/// One component as a party to redundancy I/O: its drive and a
/// capability for it.
pub(crate) type Party<'a> = (&'a DriveEndpoint, Capability);

/// The longest of the parties' current sizes: how far their XOR extends.
pub(crate) fn extent(parties: &[Party<'_>]) -> Result<u64, MgmtError> {
    let mut len = 0;
    for (ep, cap) in parties {
        len = len.max(ep.get_attr(cap)?.size);
    }
    Ok(len)
}

/// `[0, len)` as `(offset, length)` transfers of at most `chunk` bytes.
pub(crate) fn chunks(len: u64, chunk: u64) -> impl Iterator<Item = (u64, u64)> {
    let chunk = chunk.max(1);
    (0..len.div_ceil(chunk)).map(move |i| (i * chunk, chunk.min(len - i * chunk)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nasd_cheops::{CheopsClient, CheopsConnect, CheopsManager, Redundancy};
    use nasd_net::Connector;
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;
    use std::time::Duration;

    fn setup(
        n: usize,
    ) -> (
        Arc<DriveFleet>,
        Rpc<CheopsRequest, CheopsResponse>,
        CheopsClient,
    ) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 64 << 20).unwrap(),
        );
        let (mgr, _h) = CheopsManager::new(Arc::clone(&fleet)).spawn();
        let client = Connector::new().cheops(77, mgr.clone(), Arc::clone(&fleet));
        (fleet, mgr, client)
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(seed as u64) % 251) as u8)
            .collect()
    }

    fn quick_config() -> MgmtConfig {
        MgmtConfig::standard().probe_timeout(Duration::from_millis(30))
    }

    /// Detect-then-rebuild after `threshold` sweeps; returns the last
    /// report (the one that carried the rebuild).
    fn detect_and_rebuild(mgmt: &NasdMgmt) -> CheckReport {
        let mut last = CheckReport::default();
        for _ in 0..mgmt.config().failure_threshold {
            last = mgmt.check_once().unwrap();
        }
        last
    }

    #[test]
    fn parity_drive_failure_detected_and_rebuilt() {
        let (fleet, mgr, client) = setup(5);
        let id = client.create(3, 64 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(400 << 10, 3);
        client.write(&file, 0, &data).unwrap();

        // Drive index 1 (id 2) holds column 1; kill it mid-life.
        let failed = fleet.endpoint(1).id();
        fleet.crash(1);

        let spare = fleet.endpoint(4).id();
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![spare],
            quick_config(),
        );
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.newly_failed, vec![failed]);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        let (drive, outcome) = &report.rebuilt[0];
        assert_eq!(*drive, failed);
        assert_eq!(outcome.spare, Some(spare));
        assert_eq!(outcome.components, 1);
        assert!(outcome.lost.is_empty() && outcome.busy.is_empty());

        // The manager records the repair...
        let repairs = mgmt.repairs().unwrap();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].phase, RepairPhase::Rebuilt);
        assert_eq!(repairs[0].spare, Some(spare));

        // ...and a re-open mints capabilities for the spare, with the
        // dead drive gone from the layout and reads byte-identical.
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        assert!(file.layout.slots_on_drive(failed).is_empty());
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data, "rebuilt reads must be byte-identical");

        // Parity stayed consistent: writes after the rebuild work and a
        // *different* drive's loss is still survivable (degraded read).
        let more = pattern(64 << 10, 9);
        client.write(&file, 100 << 10, &more).unwrap();
        fleet.crash(0);
        let mut expect = data.clone();
        expect[100 << 10..(100 << 10) + more.len()].copy_from_slice(&more);
        let back = client.read(&file, 0, expect.len() as u64).unwrap();
        assert_eq!(back, expect, "degraded read after rebuild");
    }

    #[test]
    fn mirrored_drive_failure_rebuilds_both_slots() {
        let (fleet, mgr, client) = setup(4);
        // Width 2 mirrored on 3 data drives: drive idx1 holds column 1's
        // primary AND column 0's mirror.
        let id = client.create(2, 32 << 10, Redundancy::Mirrored).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(200 << 10, 5);
        client.write(&file, 0, &data).unwrap();

        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let spare = fleet.endpoint(3).id();
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![spare],
            quick_config(),
        );
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        assert_eq!(report.rebuilt[0].1.components, 2, "primary + mirror slot");

        let file = client.open(id, Rights::READ).unwrap();
        assert!(file.layout.slots_on_drive(failed).is_empty());
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn scrubber_repairs_corrupted_parity() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(128 << 10, 7);
        client.write(&file, 0, &data).unwrap();

        // Flip bytes in the parity component behind Cheops' back — a
        // latent error a degraded read would faithfully amplify.
        let parity = file.layout.parity.unwrap();
        let pep = fleet.by_id(parity.drive).unwrap();
        let pcap = pep.mint(
            parity.partition,
            parity.object,
            Version(0),
            Rights::WRITE,
            ByteRange::FULL,
            fleet.now() + 100,
        );
        pep.write(&pcap, 4_000, Bytes::from(vec![0xAA; 2_000]))
            .unwrap();

        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![],
            quick_config(),
        );
        let outcome = mgmt.scrub().unwrap();
        assert_eq!(outcome.objects, 1);
        assert!(outcome.mismatches >= 1, "corruption must be found");
        assert_eq!(outcome.repairs, outcome.mismatches);

        // A second pass is clean...
        let outcome = mgmt.scrub().unwrap();
        assert_eq!(outcome.mismatches, 0, "scrub must converge");

        // ...and the repaired parity really reconstructs: crash a data
        // drive and read degraded.
        fleet.crash(0);
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data, "degraded read off repaired parity");
    }

    #[test]
    fn scrubber_repairs_diverged_mirror() {
        let (fleet, mgr, client) = setup(3);
        let id = client.create(1, 32 << 10, Redundancy::Mirrored).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(64 << 10, 2);
        client.write(&file, 0, &data).unwrap();

        let mirror = file.layout.columns[0].mirror.unwrap();
        let mep = fleet.by_id(mirror.drive).unwrap();
        let mcap = mep.mint(
            mirror.partition,
            mirror.object,
            Version(0),
            Rights::WRITE,
            ByteRange::FULL,
            fleet.now() + 100,
        );
        mep.write(&mcap, 100, Bytes::from(vec![0x55; 300])).unwrap();

        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![],
            quick_config(),
        );
        let outcome = mgmt.scrub().unwrap();
        assert!(outcome.mismatches >= 1);
        // The mirror again matches the primary: kill the primary's drive
        // and the mirror fallback read returns the true bytes.
        let primary_drive = file.layout.columns[0].primary.drive;
        let idx = fleet.index_of(primary_drive).unwrap();
        fleet.crash(idx);
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn rebuild_defers_without_spare_and_resumes() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(96 << 10, 11);
        client.write(&file, 0, &data).unwrap();

        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![],
            quick_config(),
        );
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.newly_failed, vec![failed]);
        assert!(report.rebuilt.is_empty());
        assert_eq!(report.deferred.len(), 1);
        assert!(
            report.deferred[0].1.contains("spare"),
            "{:?}",
            report.deferred
        );

        // A spare arrives; the next cycle picks the pending record up.
        let spare = fleet.endpoint(3).id();
        mgmt.add_spare(spare);
        let report = mgmt.check_once().unwrap();
        assert!(report.newly_failed.is_empty(), "no re-detection");
        assert_eq!(report.rebuilt.len(), 1);

        let file = client.open(id, Rights::READ).unwrap();
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn failed_spare_is_dropped_not_rebuilt() {
        let (fleet, mgr, _client) = setup(3);
        let spare = fleet.endpoint(2).id();
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![spare],
            quick_config(),
        );
        fleet.crash(2);
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.spares_lost, vec![spare]);
        assert!(report.newly_failed.is_empty());
        assert!(mgmt.spares_free().is_empty());
        assert!(
            mgmt.repairs().unwrap().is_empty(),
            "no repair record for a spare"
        );
    }

    #[test]
    fn service_front_end_answers_status_and_check() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        client.write(&file, 0, &pattern(32 << 10, 1)).unwrap();

        let spare = fleet.endpoint(3).id();
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![],
            quick_config(),
        );
        let (rpc, handle) = mgmt.spawn();
        let MgmtResponse::Ok = rpc
            .call_with(
                MgmtRequest::AddSpare { drive: spare },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("add spare failed");
        };
        let MgmtResponse::Status { spares, repairs } = rpc
            .call_with(MgmtRequest::Status, &CallOptions::blocking())
            .unwrap()
        else {
            panic!("status failed");
        };
        assert_eq!(spares, vec![spare]);
        assert!(repairs.is_empty());

        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let mut rebuilt = false;
        for _ in 0..4 {
            let MgmtResponse::Check(report) = rpc
                .call_with(MgmtRequest::Check, &CallOptions::blocking())
                .unwrap()
            else {
                panic!("check failed");
            };
            if report.rebuilt.iter().any(|(d, _)| *d == failed) {
                rebuilt = true;
                break;
            }
        }
        assert!(rebuilt, "service loop must drive the rebuild");
        let MgmtResponse::Scrub(outcome) = rpc
            .call_with(MgmtRequest::Scrub, &CallOptions::blocking())
            .unwrap()
        else {
            panic!("scrub failed");
        };
        assert_eq!(outcome.mismatches, 0, "fresh rebuild scrubs clean");
        handle.shutdown();
    }

    #[test]
    fn rebuild_throttle_paces_reconstruction() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        client.write(&file, 0, &pattern(512 << 10, 4)).unwrap();
        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let spare = fleet.endpoint(3).id();
        // Column 1 holds ~256 KiB; at 1 MiB/s the rebuild must take
        // roughly 250 ms (wall-clock assertions stay loose).
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![spare],
            quick_config().rebuild_rate(1 << 20).rebuild_chunk(32 << 10),
        );
        let t0 = std::time::Instant::now();
        let outcome = mgmt.rebuild_drive(failed).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(outcome.components, 1);
        assert!(outcome.bytes >= 192 << 10, "bytes: {}", outcome.bytes);
        assert!(
            elapsed >= Duration::from_millis(120),
            "throttle did not pace: {elapsed:?}"
        );
        let file = client.open(id, Rights::READ).unwrap();
        let back = client.read(&file, 0, 512 << 10).unwrap();
        assert_eq!(back, pattern(512 << 10, 4));
    }

    #[test]
    fn rebuild_counters_and_trace_events_fire() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        client.write(&file, 0, &pattern(64 << 10, 8)).unwrap();
        let registry = Registry::new();
        let trace = TraceSink::new(256);
        let spare = fleet.endpoint(3).id();
        let mgmt = NasdMgmt::new(
            Arc::clone(&fleet),
            Channel::in_proc(mgr.clone()),
            vec![spare],
            quick_config(),
        )
        .observed(&registry, Some(Arc::clone(&trace)));
        fleet.crash(1);
        detect_and_rebuild(&mgmt);
        assert_eq!(registry.counter("mgmt/failures").value(), 1);
        assert_eq!(registry.counter("mgmt/rebuild/started").value(), 1);
        assert_eq!(registry.counter("mgmt/rebuild/completed").value(), 1);
        assert!(registry.counter("mgmt/rebuild/bytes").value() > 0);
        assert_eq!(registry.gauge("mgmt/rebuild/active").value(), 0);
        let phases: Vec<String> = trace.events().iter().map(|e| e.phase.to_string()).collect();
        assert!(phases.contains(&"failure".to_string()));
        assert!(phases.contains(&"rebuild-start".to_string()));
        assert!(phases.contains(&"rebuild-done".to_string()), "{phases:?}");
    }
}
