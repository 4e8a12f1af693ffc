//! The Cheops storage manager.
//!
//! Keeps the logical-object maps, creates/destroys component objects on
//! the drives, mints and revokes component capability *sets* through the
//! fleet's one mint, arbitrates multi-disk concurrency with expiring
//! leases and records drive repairs. It is deliberately thin: data never
//! flows through it.
//!
//! Clients reach the state over the wire enum [`CheopsRequest`], whose
//! arms call the typed methods; storage management (`nasd-mgmt`) holds
//! the manager itself and calls them directly. None talks to a drive
//! under the state lock: clone the layout, unlock, then mint and do I/O.

use crate::map::{Column, Component, ComponentSlot, Layout, LogicalObjectId, Redundancy};
use nasd_fm::{DriveFleet, FmError};
use nasd_net::{spawn_service, Rpc, ServiceHandle};
use nasd_proto::{ByteRange, Capability, DriveId, NasdStatus, Rights};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Lease type for concurrency control on a logical object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseKind {
    /// Shared (many readers).
    Shared,
    /// Exclusive (one writer).
    Exclusive,
}

/// Requests to the Cheops manager.
#[derive(Clone, Debug)]
pub enum CheopsRequest {
    /// Create a logical object striped over `width` drives.
    Create {
        /// Number of stripe columns.
        width: usize,
        /// Stripe unit in bytes.
        stripe_unit: u64,
        /// Redundancy scheme.
        redundancy: Redundancy,
    },
    /// Fetch the layout and the capability set for a logical object —
    /// "the additional control message" of organization (6).
    Open {
        /// Target logical object.
        id: LogicalObjectId,
        /// Rights wanted on every component.
        rights: Rights,
    },
    /// Destroy a logical object and its components.
    Remove {
        /// Target logical object.
        id: LogicalObjectId,
    },
    /// Acquire a lease for multi-disk concurrency control.
    Lease {
        /// Target logical object.
        id: LogicalObjectId,
        /// Requesting client.
        client: u64,
        /// Shared or exclusive.
        kind: LeaseKind,
        /// Requested duration (seconds).
        ttl: u64,
    },
    /// Release a lease early.
    Unlease {
        /// Target logical object.
        id: LogicalObjectId,
        /// Releasing client.
        client: u64,
    },
    /// List all logical objects.
    List,
}

/// Where a failed drive is in its repair lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairPhase {
    /// Failure reported; reconstruction not yet started.
    Failed,
    /// Reconstruction onto a spare is in progress.
    Rebuilding,
    /// Reconstruction finished; no layout references the drive.
    Rebuilt,
}

/// One drive's repair record, kept by the manager so clients and
/// operators can observe rebuild progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairRecord {
    /// The failed drive.
    pub drive: DriveId,
    /// Repair lifecycle phase.
    pub phase: RepairPhase,
    /// The spare absorbing the drive's components, once rebuild starts.
    pub spare: Option<DriveId>,
}

/// Manager replies.
#[derive(Clone, Debug)]
pub enum CheopsResponse {
    /// New logical object.
    Created(LogicalObjectId),
    /// Layout plus one capability per component, in [`Layout::slots`]
    /// order.
    Opened(Box<Layout>, Vec<Capability>),
    /// Lease granted until the given drive-clock time.
    Leased {
        /// Expiry (drive clock, seconds).
        until: u64,
    },
    /// Lease denied; retry after the given time.
    LeaseBusy {
        /// When the conflicting lease expires.
        until: u64,
    },
    /// Logical object ids.
    Objects(Vec<LogicalObjectId>),
    /// Success.
    Ok,
    /// Failure.
    Err(FmError),
}

/// One lease holder. Expiry is tracked **per holder**: a single
/// group-level expiry would let an early release leave a stale far-future
/// deadline behind, under which a dead holder could keep "renewing"
/// forever (the expiry race fixed in PR 4).
struct LeaseHolder {
    client: u64,
    kind: LeaseKind,
    expires: u64,
}

struct ManagerState {
    maps: HashMap<LogicalObjectId, Layout>,
    leases: HashMap<LogicalObjectId, Vec<LeaseHolder>>,
    repairs: HashMap<DriveId, RepairRecord>,
    next_id: u64,
}

/// The Cheops manager ("possibly co-located with the file manager").
pub struct CheopsManager {
    fleet: Arc<DriveFleet>,
    state: Mutex<ManagerState>,
}

impl CheopsManager {
    /// Create a manager over `fleet`.
    #[must_use]
    pub fn new(fleet: Arc<DriveFleet>) -> Self {
        CheopsManager {
            fleet,
            state: Mutex::new(ManagerState {
                maps: HashMap::new(),
                leases: HashMap::new(),
                repairs: HashMap::new(),
                next_id: 1,
            }),
        }
    }

    fn create_layout(
        &self,
        width: usize,
        stripe_unit: u64,
        redundancy: Redundancy,
    ) -> Result<Layout, FmError> {
        let n = self.fleet.len();
        // Parity needs a drive of its own; a mirror, a drive other than
        // its primary's.
        let drives = match redundancy {
            Redundancy::None => width,
            Redundancy::Mirrored => width.max(2),
            Redundancy::Parity => width + 1,
        };
        if width == 0 || drives > n || stripe_unit == 0 {
            return Err(FmError::Drive(NasdStatus::BadRequest));
        }
        let place = |drive: usize| self.fleet.create(self.fleet.endpoint(drive), None, 0);
        let mut columns = Vec::with_capacity(width);
        for col in 0..width {
            let primary = place(col)?;
            // Mirror on the next drive: not the primary's, as n >= 2.
            let mirror = (redundancy == Redundancy::Mirrored)
                .then(|| place((col + 1) % n))
                .transpose()?;
            columns.push(Column { primary, mirror });
        }
        // Parity lives on the drive after the last column.
        let parity = (redundancy == Redundancy::Parity)
            .then(|| place(width))
            .transpose()?;
        Ok(Layout {
            stripe_unit,
            columns,
            redundancy,
            parity,
        })
    }

    /// Revoke every capability set issued for `id`: each component's
    /// version moves on ([`DriveFleet::revoke`]). Every component is
    /// tried and the first failure reported (`NotFound` for no such `id`).
    pub fn revoke(&self, id: LogicalObjectId) -> Result<(), FmError> {
        let layout = self.layout(id)?;
        let mut outcome = Ok(());
        for (_, c) in layout.slots() {
            outcome = outcome.and(self.fleet.revoke(c));
        }
        outcome
    }

    /// Every logical object's layout, sorted by id.
    #[must_use]
    pub fn layouts(&self) -> Vec<(LogicalObjectId, Layout)> {
        let state = self.state.lock();
        let mut layouts: Vec<_> = state.maps.iter().map(|(id, l)| (*id, l.clone())).collect();
        layouts.sort_by_key(|(id, _)| *id);
        layouts
    }

    /// Every drive some layout holds a component on: none is a spare.
    #[must_use]
    pub fn drives_in_use(&self) -> Vec<DriveId> {
        let state = self.state.lock();
        let components = state.maps.values().flat_map(Layout::slots);
        components.map(|(_, c)| c.drive).collect()
    }

    /// The layout of `id` as it stands now ([`FmError::NotFound`] for an
    /// unknown or removed object).
    pub fn layout(&self, id: LogicalObjectId) -> Result<Layout, FmError> {
        let layout = self.state.lock().maps.get(&id).cloned();
        layout.ok_or_else(|| FmError::NotFound(id.to_string()))
    }

    /// Ask for a `kind` lease on `id` for `client`, `ttl` drive-clock
    /// seconds long, in the one table wire clients and storage management
    /// share: `Ok(until)` granted, `Err(until)` busy until the conflicting
    /// lease expires ([`FmError::NotFound`] for an unknown object).
    pub fn lease(
        &self,
        id: LogicalObjectId,
        client: u64,
        kind: LeaseKind,
        ttl: u64,
    ) -> Result<Result<u64, u64>, FmError> {
        let now = self.fleet.now();
        let mut state = self.state.lock();
        if !state.maps.contains_key(&id) {
            return Err(FmError::NotFound(id.to_string()));
        }
        let holders = state.leases.entry(id).or_default();
        // Expired holders evaporate individually; only live holders
        // participate in conflict checks, so a stale client id can never
        // renew past its own expiry.
        holders.retain(|h| h.expires > now);
        let busy_until = holders
            .iter()
            .filter(|h| h.client != client)
            .filter(|h| kind == LeaseKind::Exclusive || h.kind == LeaseKind::Exclusive)
            .map(|h| h.expires)
            .max();
        if let Some(until) = busy_until {
            return Ok(Err(until));
        }
        holders.retain(|h| h.client != client);
        holders.push(LeaseHolder {
            client,
            kind,
            expires: now + ttl,
        });
        Ok(Ok(now + ttl))
    }

    /// Release `client`'s lease on `id` early (a no-op without one).
    pub fn unlease(&self, id: LogicalObjectId, client: u64) {
        if let Some(holders) = self.state.lock().leases.get_mut(&id) {
            holders.retain(|h| h.client != client);
        }
    }

    /// Atomically replace the component behind one layout slot, once the
    /// replacement holds the reconstructed bytes; later `Open`s mint
    /// capabilities for the new component. [`FmError::NotFound`] for an
    /// unknown object; `BadRequest` (map untouched) for a slot the layout
    /// does not have.
    pub fn swap_component(
        &self,
        id: LogicalObjectId,
        slot: ComponentSlot,
        new: Component,
    ) -> Result<(), FmError> {
        let mut state = self.state.lock();
        let layout = state.maps.get_mut(&id);
        let layout = layout.ok_or_else(|| FmError::NotFound(id.to_string()))?;
        if layout.set_component(slot, new) {
            Ok(())
        } else {
            Err(FmError::Drive(NasdStatus::BadRequest))
        }
    }

    /// Every drive-repair record, sorted by drive id.
    #[must_use]
    pub fn repairs(&self) -> Vec<RepairRecord> {
        let mut repairs: Vec<_> = self.state.lock().repairs.values().copied().collect();
        repairs.sort_by_key(|r| r.drive.0);
        repairs
    }

    /// Move `drive`'s repair record to `phase` (`Failed → Rebuilding →
    /// Rebuilt`), remembering `spare` once one is named. Reporting
    /// `Failed` is idempotent: a drive already under repair keeps its
    /// record.
    pub fn set_repair(&self, drive: DriveId, phase: RepairPhase, spare: Option<DriveId>) {
        let failed = RepairRecord {
            drive,
            phase: RepairPhase::Failed,
            spare: None,
        };
        let mut state = self.state.lock();
        let record = state.repairs.entry(drive).or_insert(failed);
        if phase != RepairPhase::Failed {
            record.phase = phase;
            record.spare = spare.or(record.spare);
        }
    }

    /// Handle one wire request.
    pub fn handle(&self, req: CheopsRequest) -> CheopsResponse {
        match self.handle_inner(req) {
            Ok(r) => r,
            Err(e) => CheopsResponse::Err(e),
        }
    }

    fn handle_inner(&self, req: CheopsRequest) -> Result<CheopsResponse, FmError> {
        match req {
            CheopsRequest::Create {
                width,
                stripe_unit,
                redundancy,
            } => {
                let layout = self.create_layout(width, stripe_unit, redundancy)?;
                let mut state = self.state.lock();
                let id = LogicalObjectId(state.next_id);
                state.next_id += 1;
                state.maps.insert(id, layout);
                Ok(CheopsResponse::Created(id))
            }
            CheopsRequest::Open { id, rights } => {
                let layout = self.layout(id)?;
                let caps = layout
                    .slots()
                    .map(|(slot, c)| {
                        let rights = layout.rights(slot, rights);
                        Ok(self.fleet.mint(c, rights, ByteRange::FULL)?.1)
                    })
                    .collect::<Result<_, FmError>>()?;
                Ok(CheopsResponse::Opened(Box::new(layout), caps))
            }
            CheopsRequest::Remove { id } => {
                let layout = {
                    let mut state = self.state.lock();
                    state.leases.remove(&id);
                    let layout = state.maps.remove(&id);
                    layout.ok_or_else(|| FmError::NotFound(id.to_string()))?
                };
                // The map is gone, so nobody can retry this walk: remove
                // every component that is reachable and only then report
                // the first one that was not.
                let mut outcome = Ok(());
                for (_, c) in layout.slots() {
                    let minted = self.fleet.mint(c, Rights::REMOVE, ByteRange::FULL);
                    outcome = outcome.and(minted.and_then(|(ep, cap)| ep.remove(&cap)));
                    self.fleet.forget(c);
                }
                outcome.map(|()| CheopsResponse::Ok)
            }
            CheopsRequest::Lease {
                id,
                client,
                kind,
                ttl,
            } => Ok(match self.lease(id, client, kind, ttl)? {
                Ok(until) => CheopsResponse::Leased { until },
                Err(until) => CheopsResponse::LeaseBusy { until },
            }),
            CheopsRequest::Unlease { id, client } => {
                self.unlease(id, client);
                Ok(CheopsResponse::Ok)
            }
            CheopsRequest::List => {
                let state = self.state.lock();
                let mut ids: Vec<LogicalObjectId> = state.maps.keys().copied().collect();
                ids.sort();
                Ok(CheopsResponse::Objects(ids))
            }
        }
    }

    /// Serve the wire enum in-process, each call on its caller's thread
    /// and ordered only by the manager's own state lock, over a manager
    /// the caller keeps hold of (storage management runs on the same
    /// state).
    #[must_use]
    pub fn serve(self: &Arc<Self>) -> (Rpc<CheopsRequest, CheopsResponse>, ServiceHandle) {
        let mgr = Arc::clone(self);
        spawn_service(move |req| mgr.handle(req))
    }

    /// Serve in-process (see [`CheopsManager::serve`]).
    #[must_use]
    pub fn spawn(self) -> (Rpc<CheopsRequest, CheopsResponse>, ServiceHandle) {
        Arc::new(self).serve()
    }
}

impl std::fmt::Debug for CheopsManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CheopsManager { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_net::CallOptions;
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;

    fn manager(n: usize) -> (Arc<CheopsManager>, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 32 << 20).unwrap(),
        );
        (Arc::new(CheopsManager::new(Arc::clone(&fleet))), fleet)
    }

    fn setup(n: usize) -> (Rpc<CheopsRequest, CheopsResponse>, Arc<DriveFleet>) {
        let (mgr, fleet) = manager(n);
        let (rpc, _h) = mgr.serve();
        (rpc, fleet)
    }

    #[test]
    fn create_and_open_yields_capability_set() {
        let (rpc, _fleet) = setup(4);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 4,
                    stripe_unit: 512 * 1024,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("create failed");
        };
        let CheopsResponse::Opened(layout, caps) = rpc
            .call_with(
                CheopsRequest::Open {
                    id,
                    rights: Rights::READ | Rights::WRITE,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("open failed");
        };
        assert_eq!(layout.width(), 4);
        assert_eq!(caps.len(), 4, "one capability per component");
        // Each capability is for a distinct drive.
        let drives: std::collections::HashSet<_> = caps.iter().map(|c| c.public.drive).collect();
        assert_eq!(drives.len(), 4);
    }

    #[test]
    fn mirrored_layout_doubles_capabilities() {
        let (rpc, _fleet) = setup(3);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::Mirrored,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        let CheopsResponse::Opened(layout, caps) = rpc
            .call_with(
                CheopsRequest::Open {
                    id,
                    rights: Rights::READ,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(caps.len(), 4);
        for col in &layout.columns {
            let m = col.mirror.expect("mirror present");
            assert_ne!(m.drive, col.primary.drive, "mirror on a distinct drive");
        }
    }

    #[test]
    fn remove_destroys_components() {
        let (rpc, fleet) = setup(2);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        let CheopsResponse::Opened(layout, _) = rpc
            .call_with(
                CheopsRequest::Open {
                    id,
                    rights: Rights::READ,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        rpc.call_with(CheopsRequest::Remove { id }, &CallOptions::blocking())
            .unwrap();
        // Component objects are gone from the drives.
        for (_, c) in layout.slots() {
            let (ep, cap) = fleet.mint(c, Rights::READ, ByteRange::FULL).unwrap();
            assert!(ep.read(&cap, 0, 1).is_err());
        }
        // And the map is gone.
        let CheopsResponse::Err(FmError::NotFound(_)) = rpc
            .call_with(
                CheopsRequest::Open {
                    id,
                    rights: Rights::READ,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("open after remove should fail");
        };
    }

    #[test]
    fn exclusive_lease_blocks_others() {
        let (rpc, fleet) = setup(2);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        let CheopsResponse::Leased { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 1,
                    kind: LeaseKind::Exclusive,
                    ttl: 100,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("lease failed");
        };
        // Another client is refused, shared or exclusive.
        for kind in [LeaseKind::Shared, LeaseKind::Exclusive] {
            let CheopsResponse::LeaseBusy { .. } = rpc
                .call_with(
                    CheopsRequest::Lease {
                        id,
                        client: 2,
                        kind,
                        ttl: 100,
                    },
                    &CallOptions::blocking(),
                )
                .unwrap()
            else {
                panic!("lease should be busy");
            };
        }
        // Release, then client 2 succeeds.
        rpc.call_with(
            CheopsRequest::Unlease { id, client: 1 },
            &CallOptions::blocking(),
        )
        .unwrap();
        let CheopsResponse::Leased { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 2,
                    kind: LeaseKind::Exclusive,
                    ttl: 100,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("lease after release failed");
        };
        // Leases also expire with the clock.
        fleet.advance_clock(1_000);
        let CheopsResponse::Leased { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 3,
                    kind: LeaseKind::Exclusive,
                    ttl: 100,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("expired lease should evaporate");
        };
    }

    #[test]
    fn stale_client_cannot_renew_after_expiry() {
        let (rpc, fleet) = setup(2);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        // Client 1 takes a long exclusive lease and releases it early.
        // Under the old group-level expiry this left a stale far-future
        // deadline on the lease record.
        let CheopsResponse::Leased { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 1,
                    kind: LeaseKind::Exclusive,
                    ttl: 10_000,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("long lease failed");
        };
        rpc.call_with(
            CheopsRequest::Unlease { id, client: 1 },
            &CallOptions::blocking(),
        )
        .unwrap();
        // Client 2 takes a short exclusive lease; its expiry must be its
        // own `now + ttl`, not the polluted group deadline.
        let now = fleet.now();
        let CheopsResponse::Leased { until } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 2,
                    kind: LeaseKind::Exclusive,
                    ttl: 50,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("short lease failed");
        };
        assert_eq!(until, now + 50, "expiry follows the holder's own ttl");
        // Past client 2's expiry a third client must be granted...
        fleet.advance_clock(100);
        let CheopsResponse::Leased { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 3,
                    kind: LeaseKind::Exclusive,
                    ttl: 50,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("expired exclusive lease must evaporate");
        };
        // ...and the stale client id must NOT renew over client 3.
        let CheopsResponse::LeaseBusy { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 2,
                    kind: LeaseKind::Exclusive,
                    ttl: 50,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("stale client renewed an expired lease");
        };
    }

    #[test]
    fn repair_records_track_phases() {
        let (mgr, _fleet) = manager(2);
        let d = DriveId(1);
        let s = DriveId(9);
        mgr.set_repair(d, RepairPhase::Failed, None);
        // Reporting twice keeps the record.
        mgr.set_repair(d, RepairPhase::Failed, None);
        assert_eq!(
            mgr.repairs(),
            vec![RepairRecord {
                drive: d,
                phase: RepairPhase::Failed,
                spare: None
            }]
        );
        mgr.set_repair(d, RepairPhase::Rebuilding, Some(s));
        mgr.set_repair(d, RepairPhase::Rebuilt, None);
        assert_eq!(
            mgr.repairs(),
            vec![RepairRecord {
                drive: d,
                phase: RepairPhase::Rebuilt,
                spare: Some(s)
            }]
        );
    }

    #[test]
    fn swap_component_changes_subsequent_opens() {
        let (mgr, fleet) = manager(3);
        let (rpc, _h) = mgr.serve();
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        // Put a real replacement object on drive index 2.
        let ep = fleet.endpoint(2);
        let p = fleet.partition();
        let obj = ep.create_object(p, 0, None, fleet.now() + 3_600).unwrap();
        let new = crate::map::Component {
            drive: ep.id(),
            partition: p,
            object: obj,
        };
        // A bogus slot is rejected without touching the map.
        assert!(
            mgr.swap_component(id, ComponentSlot::Mirror(0), new)
                .is_err(),
            "swap into a missing mirror slot must fail"
        );
        mgr.swap_component(id, ComponentSlot::Primary(1), new)
            .unwrap();
        let CheopsResponse::Opened(layout, caps) = rpc
            .call_with(
                CheopsRequest::Open {
                    id,
                    rights: Rights::READ,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(layout.columns[1].primary, new);
        assert!(
            caps.iter().any(|c| c.public.drive == new.drive),
            "open mints a capability for the swapped-in component"
        );
    }

    #[test]
    fn shared_leases_coexist() {
        let (rpc, _fleet) = setup(2);
        let CheopsResponse::Created(id) = rpc
            .call_with(
                CheopsRequest::Create {
                    width: 1,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!();
        };
        for client in 1..=3 {
            let CheopsResponse::Leased { .. } = rpc
                .call_with(
                    CheopsRequest::Lease {
                        id,
                        client,
                        kind: LeaseKind::Shared,
                        ttl: 100,
                    },
                    &CallOptions::blocking(),
                )
                .unwrap()
            else {
                panic!("shared lease {client} failed");
            };
        }
        // Writer blocked while readers hold.
        let CheopsResponse::LeaseBusy { .. } = rpc
            .call_with(
                CheopsRequest::Lease {
                    id,
                    client: 9,
                    kind: LeaseKind::Exclusive,
                    ttl: 100,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("exclusive lease should be busy");
        };
    }

    #[test]
    fn invalid_geometry_rejected() {
        let (rpc, _fleet) = setup(2);
        for (width, su) in [(0usize, 4096u64), (3, 4096), (2, 0)] {
            let CheopsResponse::Err(_) = rpc
                .call_with(
                    CheopsRequest::Create {
                        width,
                        stripe_unit: su,
                        redundancy: Redundancy::None,
                    },
                    &CallOptions::blocking(),
                )
                .unwrap()
            else {
                panic!("width {width} su {su} should fail");
            };
        }
    }

    #[test]
    fn a_mirror_needs_a_second_drive() {
        let (mgr, _fleet) = manager(1);
        let (rpc, _h) = mgr.serve();
        let create = |redundancy| CheopsRequest::Create {
            width: 1,
            stripe_unit: 4096,
            redundancy,
        };
        let opts = CallOptions::blocking();
        let resp = rpc.call_with(create(Redundancy::Mirrored), &opts).unwrap();
        assert!(
            matches!(
                resp,
                CheopsResponse::Err(FmError::Drive(NasdStatus::BadRequest))
            ),
            "a one-drive fleet mirrored onto the primary's drive: {resp:?}"
        );
        assert!(mgr.layouts().is_empty());
        let resp = rpc.call_with(create(Redundancy::None), &opts).unwrap();
        assert!(matches!(resp, CheopsResponse::Created(_)), "{resp:?}");
    }

    #[test]
    fn list_reports_objects() {
        let (rpc, _fleet) = setup(2);
        for _ in 0..3 {
            rpc.call_with(
                CheopsRequest::Create {
                    width: 2,
                    stripe_unit: 4096,
                    redundancy: Redundancy::None,
                },
                &CallOptions::blocking(),
            )
            .unwrap();
        }
        let CheopsResponse::Objects(ids) = rpc
            .call_with(CheopsRequest::List, &CallOptions::blocking())
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(ids.len(), 3);
    }
}
