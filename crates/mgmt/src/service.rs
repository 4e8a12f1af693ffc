//! The storage-management engine proper: failure handling policy and
//! the lease-and-visit walk shared by the rebuild engine and the
//! scrubber.

use crate::config::{
    FAILURE_THRESHOLD, LEASE_RETRIES, LEASE_RETRY_PAUSE, LEASE_TTL, MGMT_CLIENT_ID, PROBE_ATTEMPTS,
    PROBE_TIMEOUT,
};
use crate::health::HealthMonitor;
use crate::rebuild::RebuildOutcome;
use crate::spare::SparePool;
use nasd_cheops::{CheopsManager, ComponentSlot, Layout, LeaseKind, LogicalObjectId, RepairPhase};
use nasd_fm::{DriveEndpoint, DriveFleet, FmError};
use nasd_net::{pace, RatePacer};
use nasd_obs::{Counter, Gauge, Registry, SimTime, TraceEvent, TraceSink, Utilization};
use nasd_proto::{ByteRange, Capability, DriveId, Rights};
use std::sync::Arc;

/// Storage-management failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MgmtError {
    /// An underlying drive or manager operation failed.
    Fm(FmError),
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
            MgmtError::NoSpare => f.write_str("spare pool exhausted"),
        }
    }
}

impl std::error::Error for MgmtError {}

/// What one management cycle did.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Drives newly declared failed this cycle.
    pub newly_failed: Vec<DriveId>,
    /// Spares that died in reserve: dropped from the pool, no rebuild
    /// needed (no layout references them; see [`SparePool`]).
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
            trace,
        }
    }
}

/// Storage management: failure detection, the spare pool, and the
/// rebuild and scrub engines, run on the Cheops manager's own maps,
/// lease table and repair records (its typed methods, called directly)
/// and on the drives.
pub struct NasdMgmt {
    pub(crate) fleet: Arc<DriveFleet>,
    pub(crate) mgr: Arc<CheopsManager>,
    pub(crate) health: HealthMonitor,
    pub(crate) spares: SparePool,
    pub(crate) rebuild_pacer: RatePacer,
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
    /// Storage management for `mgr`'s logical objects on `fleet` (the
    /// fleet `mgr` was built over), with `spares` held in reserve and
    /// rebuild I/O throttled to `rebuild_rate` bytes/second (`0` =
    /// unthrottled). Metrics go to a private registry until
    /// [`NasdMgmt::observed`] rewires them.
    #[must_use]
    pub fn new(
        fleet: Arc<DriveFleet>,
        mgr: Arc<CheopsManager>,
        spares: Vec<DriveId>,
        rebuild_rate: u64,
    ) -> Self {
        let registry = Registry::new();
        NasdMgmt {
            fleet,
            health: HealthMonitor::new(FAILURE_THRESHOLD),
            spares: SparePool::new(spares),
            rebuild_pacer: RatePacer::with_rate(rebuild_rate),
            obs: MgmtObs::wire(&registry, None),
            mgr,
        }
    }

    /// Re-home the engine's counters in `registry` and mirror rebuild
    /// and scrub lifecycle events into `trace`.
    #[must_use]
    pub fn observed(mut self, registry: &Registry, trace: Option<Arc<TraceSink>>) -> Self {
        self.obs = MgmtObs::wire(registry, trace);
        self
    }

    /// Free spares (pool members no layout references), sorted by id.
    #[must_use]
    pub fn spares_free(&self) -> Vec<DriveId> {
        let (mut free, in_use) = (self.spares.free(), self.mgr.drives_in_use());
        free.retain(|d| !in_use.contains(d));
        free
    }

    /// Add a hot spare to the pool (also clears any failure history the
    /// monitor held for it).
    pub fn add_spare(&self, drive: DriveId) {
        self.health.mark_recovered(drive);
        self.spares.put(drive);
    }

    /// One management cycle: sweep the fleet for failures, record new
    /// ones with the manager, then run every pending reconstruction
    /// (including ones deferred by earlier cycles for want of a spare).
    /// Per-drive rebuild problems do not abort the cycle; they land in
    /// [`CheckReport::deferred`].
    pub fn check_once(&self) -> CheckReport {
        let mut report = CheckReport::default();
        let newly = self
            .health
            .sweep(&self.fleet, PROBE_TIMEOUT, PROBE_ATTEMPTS);
        for drive in newly {
            self.obs.failures.inc();
            if self.spares.remove(drive) && !self.mgr.drives_in_use().contains(&drive) {
                self.trace("spare-lost", Some(drive), String::new());
                report.spares_lost.push(drive);
            } else {
                self.mgr.set_repair(drive, RepairPhase::Failed, None);
                self.trace("failure", Some(drive), String::new());
                report.newly_failed.push(drive);
            }
        }
        for record in self.mgr.repairs() {
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
        report
    }

    /// Lease, re-read, visit — the one walk rebuild and scrub share.
    /// Every logical object whose layout is `wanted` is visited under an
    /// exclusive lease (so a racing writer's read-modify-write can't read
    /// as a latent error) on the layout as it stands *under* that lease:
    /// it may have been swapped or removed since the walk's snapshot.
    /// `None` marks an object left for a later pass: its lease stayed
    /// busy through every retry, or it was removed meanwhile.
    pub(crate) fn visit_leased<T>(
        &self,
        wanted: impl Fn(&Layout) -> bool,
        mut visit: impl FnMut(LogicalObjectId, &Layout) -> Result<T, MgmtError>,
    ) -> Result<Vec<(LogicalObjectId, Option<T>)>, MgmtError> {
        let mut visited = Vec::new();
        for (id, layout) in self.mgr.layouts() {
            if !wanted(&layout) {
                continue;
            }
            let outcome = self.with_exclusive_lease(id, || {
                let fresh = self.mgr.layout(id).ok();
                fresh.map(|layout| visit(id, &layout)).transpose()
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
            let asked = self
                .mgr
                .lease(id, MGMT_CLIENT_ID, LeaseKind::Exclusive, LEASE_TTL);
            match asked {
                Ok(Ok(_)) => break,
                Ok(Err(_)) => {
                    attempts += 1;
                    if attempts > LEASE_RETRIES {
                        return Ok(None);
                    }
                    // Backoff with no lock held, via the sanctioned path.
                    pace(LEASE_RETRY_PAUSE);
                }
                Err(FmError::NotFound(_)) => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        }
        let result = f();
        self.mgr.unlease(id, MGMT_CLIENT_ID);
        result.map(Some)
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
        let rights = Rights::READ | Rights::GETATTR;
        let parties = held.map(|(_, c)| self.fleet.mint(c, rights, ByteRange::FULL));
        Ok(Some(parties.collect::<Result<_, _>>()?))
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
/// capability for it ([`DriveFleet::mint`]).
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
#[expect(
    clippy::disallowed_methods,
    reason = "times a rate-limited rebuild on real threads"
)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nasd_cheops::{CheopsClient, CheopsConnect, Redundancy, RepairRecord};
    use nasd_fm::DriveFleet;
    use nasd_net::Connector;
    use nasd_object::DriveConfig;
    use nasd_proto::{ByteRange, PartitionId, Version};
    use std::time::Duration;

    fn setup(n: usize) -> (Arc<DriveFleet>, Arc<CheopsManager>, CheopsClient) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 64 << 20).unwrap(),
        );
        let mgr = Arc::new(CheopsManager::new(Arc::clone(&fleet)));
        let (rpc, _h) = mgr.serve();
        let client = Connector::new().cheops(77, rpc, Arc::clone(&fleet));
        (fleet, mgr, client)
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(seed as u64) % 251) as u8)
            .collect()
    }

    /// Detect-then-rebuild after `threshold` sweeps; returns the last
    /// report (the one that carried the rebuild).
    fn detect_and_rebuild(mgmt: &NasdMgmt) -> CheckReport {
        let mut last = CheckReport::default();
        for _ in 0..FAILURE_THRESHOLD {
            last = mgmt.check_once();
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
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 0);
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.newly_failed, vec![failed]);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        let (drive, outcome) = &report.rebuilt[0];
        assert_eq!(*drive, failed);
        assert_eq!(outcome.spare, Some(spare));
        assert_eq!(outcome.components, 1);
        assert!(outcome.lost.is_empty() && outcome.busy.is_empty());

        // The manager records the repair...
        let repairs = mgr.repairs();
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
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 0);
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

        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![], 0);
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

        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![], 0);
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
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![], 0);
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
        let report = mgmt.check_once();
        assert!(report.newly_failed.is_empty(), "no re-detection");
        assert_eq!(report.rebuilt.len(), 1);

        let file = client.open(id, Rights::READ).unwrap();
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn lease_busy_object_stalls_the_rebuild_and_resumes_onto_the_same_spare() {
        let (fleet, mgr, client) = setup(4);
        let ids = [(); 2].map(|()| client.create(2, 32 << 10, Redundancy::Parity).unwrap());
        let data = [pattern(96 << 10, 13), pattern(80 << 10, 17)];
        for (id, bytes) in ids.iter().zip(&data) {
            let file = client.open(*id, Rights::READ | Rights::WRITE).unwrap();
            client.write(&file, 0, bytes).unwrap();
        }
        let [free, held] = ids;
        // A client's exclusive *wire* lease sits on one object; the
        // engine's typed lease must find it in the same table.
        client.lease(held, LeaseKind::Exclusive, 3_600).unwrap();

        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let spare = fleet.endpoint(3).id();
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 0);
        let outcome = mgmt.rebuild_drive(failed).unwrap();
        assert_eq!(outcome.busy, vec![held]);
        assert_eq!((outcome.objects, outcome.components), (2, 1));
        // Stalled, not failed: the record keeps the spare, the spare stays
        // claimed, and the object that could be leased is already swapped.
        let stalled = RepairRecord {
            drive: failed,
            phase: RepairPhase::Rebuilding,
            spare: Some(spare),
        };
        assert_eq!(mgr.repairs(), vec![stalled]);
        assert!(mgmt.spares_free().is_empty(), "spare must not be returned");
        let on_failed = |id| mgr.layout(id).unwrap().slots_on_drive(failed).len();
        assert_eq!((on_failed(free), on_failed(held)), (0, 1));

        client.unlease(held).unwrap();
        let report = mgmt.check_once();
        assert!(report.deferred.is_empty(), "{:?}", report.deferred);
        let (drive, outcome) = &report.rebuilt[0];
        assert_eq!((*drive, outcome.spare), (failed, Some(spare)));
        assert_eq!((outcome.components, outcome.busy.len()), (1, 0));
        assert_eq!(mgr.repairs()[0].phase, RepairPhase::Rebuilt);
        for (id, bytes) in ids.iter().zip(&data) {
            let file = client.open(*id, Rights::READ).unwrap();
            assert!(file.layout.slots_on_drive(failed).is_empty());
            let back = client.read(&file, 0, bytes.len() as u64).unwrap();
            assert_eq!(&back, bytes, "rebuilt reads must be byte-identical");
        }
    }

    #[test]
    fn failed_spare_is_dropped_not_rebuilt() {
        let (fleet, mgr, _client) = setup(3);
        let spare = fleet.endpoint(2).id();
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 0);
        fleet.crash(2);
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.spares_lost, vec![spare]);
        assert!(report.newly_failed.is_empty());
        assert!(mgmt.spares_free().is_empty());
        assert!(mgr.repairs().is_empty(), "no repair record for a spare");
    }

    /// Six drives with ids 5 and 6 in the pool, and a width-4 parity
    /// object whose parity lands on drive 5: a pool member in use.
    fn parity_on_a_pool_member() -> (Arc<DriveFleet>, CheopsClient, NasdMgmt, Vec<u8>) {
        let (fleet, mgr, client) = setup(6);
        let id = client.create(4, 16 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(200 << 10, 4);
        client.write(&file, 0, &data).unwrap();
        let pool = vec![fleet.endpoint(4).id(), fleet.endpoint(5).id()];
        assert_eq!(file.layout.parity.map(|p| p.drive), Some(pool[0]));
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), mgr, pool, 0);
        (fleet, client, mgmt, data)
    }

    /// Every layout keeps each component on a drive of its own, and
    /// reads back `data`.
    fn assert_intact(mgmt: &NasdMgmt, client: &CheopsClient, data: &[u8]) {
        for (id, layout) in mgmt.mgr.layouts() {
            let drives: std::collections::HashSet<_> =
                layout.slots().map(|(_, c)| c.drive).collect();
            assert_eq!(drives.len(), layout.slots().count(), "{id}: {layout:?}");
            let file = client.open(id, Rights::READ).unwrap();
            assert_eq!(client.read(&file, 0, data.len() as u64).unwrap(), data);
        }
    }

    #[test]
    fn a_pool_member_holding_parity_is_rebuilt_when_it_dies() {
        let (fleet, client, mgmt, data) = parity_on_a_pool_member();
        let (parity, spare) = (fleet.endpoint(4).id(), fleet.endpoint(5).id());
        fleet.crash(4);
        let report = detect_and_rebuild(&mgmt);
        assert!(report.spares_lost.is_empty(), "{report:?}");
        assert_eq!(report.newly_failed, vec![parity]);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        assert_eq!(report.rebuilt[0].1.spare, Some(spare));
        assert!(mgmt
            .mgr
            .layouts()
            .iter()
            .all(|(_, l)| l.slots_on_drive(parity).is_empty()));
        assert!(mgmt.spares_free().is_empty());
        assert_intact(&mgmt, &client, &data);
    }

    #[test]
    fn a_column_is_never_rebuilt_onto_its_objects_parity_drive() {
        let (fleet, client, mgmt, data) = parity_on_a_pool_member();
        fleet.crash(0);
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        assert_eq!(report.rebuilt[0].1.spare, Some(fleet.endpoint(5).id()));
        assert!(mgmt.spares_free().is_empty(), "drive 5 is in use");
        assert_intact(&mgmt, &client, &data);
    }

    #[test]
    fn a_revoked_object_is_rebuilt_at_its_current_version() {
        let (fleet, mgr, client) = setup(5);
        let id = client.create(3, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        let data = pattern(300 << 10, 6);
        client.write(&file, 0, &data).unwrap();
        mgr.revoke(id).unwrap();

        fleet.crash(1);
        let spare = vec![fleet.endpoint(4).id()];
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), mgr, spare, 0);
        let report = detect_and_rebuild(&mgmt);
        assert_eq!(report.rebuilt.len(), 1, "deferred: {:?}", report.deferred);
        assert_eq!(report.rebuilt[0].1.components, 1);
        let file = client.open(id, Rights::READ).unwrap();
        assert!(file
            .layout
            .slots_on_drive(fleet.endpoint(1).id())
            .is_empty());
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data, "rebuilt reads must be byte-identical");
        assert_eq!(mgmt.scrub().unwrap().mismatches, 0);
    }

    #[test]
    fn fresh_rebuild_scrubs_clean() {
        let (fleet, mgr, client) = setup(4);
        let id = client.create(2, 32 << 10, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::READ | Rights::WRITE).unwrap();
        client.write(&file, 0, &pattern(32 << 10, 1)).unwrap();

        let spare = fleet.endpoint(3).id();
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![], 0);
        mgmt.add_spare(spare);
        assert_eq!(mgmt.spares_free(), vec![spare]);
        assert!(mgr.repairs().is_empty());

        let failed = fleet.endpoint(1).id();
        fleet.crash(1);
        let mut rebuilt = false;
        for _ in 0..4 {
            let report = mgmt.check_once();
            if report.rebuilt.iter().any(|(d, _)| *d == failed) {
                rebuilt = true;
                break;
            }
        }
        assert!(rebuilt, "check cycles must drive the rebuild");
        let outcome = mgmt.scrub().unwrap();
        assert_eq!(outcome.mismatches, 0, "fresh rebuild scrubs clean");
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
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 1 << 20);
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
        let mgmt = NasdMgmt::new(Arc::clone(&fleet), Arc::clone(&mgr), vec![spare], 0)
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
