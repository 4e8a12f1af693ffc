//! The Cheops storage manager service.
//!
//! Keeps the logical-object maps, creates/destroys component objects on
//! the drives, mints component capability *sets*, and arbitrates
//! multi-disk concurrency with expiring leases. It is deliberately thin:
//! data never flows through it.

use crate::map::{Column, Component, ComponentSlot, Layout, LogicalObjectId, Redundancy};
use nasd_fm::{DriveFleet, FmError};
use nasd_net::{spawn_service, Rpc, ServiceHandle};
use nasd_proto::{ByteRange, Capability, DriveId, Rights, Version};
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
    /// Report a drive as failed (storage management's failure detector).
    /// Idempotent; a drive already under repair keeps its record.
    ReportFailure {
        /// The failed drive.
        drive: DriveId,
    },
    /// Record that online reconstruction of `drive` onto `spare` began.
    StartRebuild {
        /// The failed drive being reconstructed.
        drive: DriveId,
        /// The hot spare receiving the rebuilt components.
        spare: DriveId,
    },
    /// Record that reconstruction of `drive` finished; no layout
    /// references the drive any more.
    CompleteRebuild {
        /// The repaired drive.
        drive: DriveId,
    },
    /// Fetch every drive-repair record.
    RebuildStatus,
    /// Snapshot every logical object's layout (rebuild and the scrubber
    /// walk these).
    Layouts,
    /// Atomically replace the component behind one layout slot. Issued by
    /// the rebuild engine after the spare's component holds the
    /// reconstructed bytes; subsequent `Open`s mint capabilities for the
    /// new component.
    SwapComponent {
        /// Target logical object.
        id: LogicalObjectId,
        /// Which slot to swap.
        slot: ComponentSlot,
        /// The replacement component.
        new: Component,
    },
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
    /// Layout snapshot, sorted by id.
    Layouts(Vec<(LogicalObjectId, Layout)>),
    /// Repair records, sorted by drive id.
    Repairs(Vec<RepairRecord>),
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

struct LeaseState {
    holders: Vec<LeaseHolder>,
}

struct ManagerState {
    maps: HashMap<LogicalObjectId, Layout>,
    leases: HashMap<LogicalObjectId, LeaseState>,
    repairs: HashMap<DriveId, RepairRecord>,
    next_id: u64,
}

/// The Cheops manager ("possibly co-located with the file manager").
pub struct CheopsManager {
    fleet: Arc<DriveFleet>,
    state: Mutex<ManagerState>,
    /// Capability lifetime issued with each Open.
    ttl: u64,
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
            ttl: 3_600,
        }
    }

    fn create_layout(
        &self,
        width: usize,
        stripe_unit: u64,
        redundancy: Redundancy,
    ) -> Result<Layout, FmError> {
        let n = self.fleet.len();
        if width == 0 || width > n || stripe_unit == 0 {
            return Err(FmError::Drive(nasd_proto::NasdStatus::BadRequest));
        }
        // RAID-4-style parity needs a drive of its own.
        if redundancy == Redundancy::Parity && width >= n {
            return Err(FmError::Drive(nasd_proto::NasdStatus::BadRequest));
        }
        let p = self.fleet.partition();
        let expires = self.fleet.now() + self.ttl;
        let place = |drive: usize| -> Result<Component, FmError> {
            let ep = self.fleet.endpoint(drive);
            Ok(Component {
                drive: ep.id(),
                partition: p,
                object: ep.create_object(p, 0, None, expires)?,
            })
        };
        let mut columns = Vec::with_capacity(width);
        for col in 0..width {
            let primary = place(col)?;
            // Mirror on the next drive (requires width < n for a distinct
            // drive; same-drive mirroring defeats the point).
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

    fn mint_for(&self, c: Component, rights: Rights) -> Result<Capability, FmError> {
        let ep = self.fleet.by_id(c.drive).ok_or(FmError::Transport)?;
        Ok(ep.mint(
            c.partition,
            c.object,
            Version(0),
            rights,
            ByteRange::FULL,
            self.fleet.now() + self.ttl,
        ))
    }

    /// Handle one request.
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
                let layout = {
                    let state = self.state.lock();
                    state
                        .maps
                        .get(&id)
                        .cloned()
                        .ok_or_else(|| FmError::NotFound(id.to_string()))?
                };
                let caps = layout
                    .slots()
                    .map(|(slot, c)| self.mint_for(c, layout.rights(slot, rights)))
                    .collect::<Result<_, _>>()?;
                Ok(CheopsResponse::Opened(Box::new(layout), caps))
            }
            CheopsRequest::Remove { id } => {
                let layout = {
                    let mut state = self.state.lock();
                    state.leases.remove(&id);
                    state
                        .maps
                        .remove(&id)
                        .ok_or_else(|| FmError::NotFound(id.to_string()))?
                };
                // The map is gone, so nobody can retry this walk: remove
                // every component that is reachable and only then report
                // the first one that was not.
                let mut outcome = Ok(());
                for (_, c) in layout.slots() {
                    let ep = self.fleet.by_id(c.drive).ok_or(FmError::Transport);
                    let removed = ep.and_then(|ep| ep.remove(&self.mint_for(c, Rights::REMOVE)?));
                    outcome = outcome.and(removed);
                }
                outcome.map(|()| CheopsResponse::Ok)
            }
            CheopsRequest::Lease {
                id,
                client,
                kind,
                ttl,
            } => {
                let now = self.fleet.now();
                let mut state = self.state.lock();
                if !state.maps.contains_key(&id) {
                    return Err(FmError::NotFound(id.to_string()));
                }
                let lease = state.leases.entry(id).or_insert(LeaseState {
                    holders: Vec::new(),
                });
                // Expired holders evaporate individually; only live
                // holders participate in conflict checks, so a stale
                // client id can never renew past its own expiry.
                lease.holders.retain(|h| h.expires > now);
                let busy_until = lease
                    .holders
                    .iter()
                    .filter(|h| h.client != client)
                    .filter(|h| kind == LeaseKind::Exclusive || h.kind == LeaseKind::Exclusive)
                    .map(|h| h.expires)
                    .max();
                if let Some(until) = busy_until {
                    return Ok(CheopsResponse::LeaseBusy { until });
                }
                lease.holders.retain(|h| h.client != client);
                lease.holders.push(LeaseHolder {
                    client,
                    kind,
                    expires: now + ttl,
                });
                Ok(CheopsResponse::Leased { until: now + ttl })
            }
            CheopsRequest::Unlease { id, client } => {
                let mut state = self.state.lock();
                if let Some(lease) = state.leases.get_mut(&id) {
                    lease.holders.retain(|h| h.client != client);
                }
                Ok(CheopsResponse::Ok)
            }
            CheopsRequest::List => {
                let state = self.state.lock();
                let mut ids: Vec<LogicalObjectId> = state.maps.keys().copied().collect();
                ids.sort();
                Ok(CheopsResponse::Objects(ids))
            }
            CheopsRequest::ReportFailure { drive } => {
                let mut state = self.state.lock();
                state.repairs.entry(drive).or_insert(RepairRecord {
                    drive,
                    phase: RepairPhase::Failed,
                    spare: None,
                });
                Ok(CheopsResponse::Ok)
            }
            CheopsRequest::StartRebuild { drive, spare } => {
                let mut state = self.state.lock();
                state.repairs.insert(
                    drive,
                    RepairRecord {
                        drive,
                        phase: RepairPhase::Rebuilding,
                        spare: Some(spare),
                    },
                );
                Ok(CheopsResponse::Ok)
            }
            CheopsRequest::CompleteRebuild { drive } => {
                let mut state = self.state.lock();
                match state.repairs.get_mut(&drive) {
                    Some(r) => r.phase = RepairPhase::Rebuilt,
                    None => {
                        state.repairs.insert(
                            drive,
                            RepairRecord {
                                drive,
                                phase: RepairPhase::Rebuilt,
                                spare: None,
                            },
                        );
                    }
                }
                Ok(CheopsResponse::Ok)
            }
            CheopsRequest::RebuildStatus => {
                let state = self.state.lock();
                let mut repairs: Vec<RepairRecord> = state.repairs.values().copied().collect();
                repairs.sort_by_key(|r| r.drive.0);
                Ok(CheopsResponse::Repairs(repairs))
            }
            CheopsRequest::Layouts => {
                let state = self.state.lock();
                let mut layouts: Vec<(LogicalObjectId, Layout)> =
                    state.maps.iter().map(|(id, l)| (*id, l.clone())).collect();
                layouts.sort_by_key(|(id, _)| *id);
                Ok(CheopsResponse::Layouts(layouts))
            }
            CheopsRequest::SwapComponent { id, slot, new } => {
                let mut state = self.state.lock();
                let layout = state
                    .maps
                    .get_mut(&id)
                    .ok_or_else(|| FmError::NotFound(id.to_string()))?;
                if layout.set_component(slot, new) {
                    Ok(CheopsResponse::Ok)
                } else {
                    Err(FmError::Drive(nasd_proto::NasdStatus::BadRequest))
                }
            }
        }
    }

    /// Spawn as a threaded service.
    #[must_use]
    pub fn spawn(self) -> (Rpc<CheopsRequest, CheopsResponse>, ServiceHandle) {
        let mgr = Arc::new(self);
        spawn_service(move |req| mgr.handle(req))
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

    fn setup(n: usize) -> (Rpc<CheopsRequest, CheopsResponse>, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 32 << 20).unwrap(),
        );
        let (rpc, _h) = CheopsManager::new(Arc::clone(&fleet)).spawn();
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
        let c = layout.columns[0].primary;
        let ep = fleet.by_id(c.drive).unwrap();
        let cap = ep.mint(
            c.partition,
            c.object,
            Version(0),
            Rights::READ,
            ByteRange::FULL,
            fleet.now() + 10,
        );
        assert!(ep.read(&cap, 0, 1).is_err());
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
        let (rpc, _fleet) = setup(2);
        let d = DriveId(1);
        let s = DriveId(9);
        rpc.call_with(
            CheopsRequest::ReportFailure { drive: d },
            &CallOptions::blocking(),
        )
        .unwrap();
        // Reporting twice keeps the record.
        rpc.call_with(
            CheopsRequest::ReportFailure { drive: d },
            &CallOptions::blocking(),
        )
        .unwrap();
        let CheopsResponse::Repairs(r) = rpc
            .call_with(CheopsRequest::RebuildStatus, &CallOptions::blocking())
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(
            r,
            vec![RepairRecord {
                drive: d,
                phase: RepairPhase::Failed,
                spare: None
            }]
        );
        rpc.call_with(
            CheopsRequest::StartRebuild { drive: d, spare: s },
            &CallOptions::blocking(),
        )
        .unwrap();
        rpc.call_with(
            CheopsRequest::CompleteRebuild { drive: d },
            &CallOptions::blocking(),
        )
        .unwrap();
        let CheopsResponse::Repairs(r) = rpc
            .call_with(CheopsRequest::RebuildStatus, &CallOptions::blocking())
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(
            r,
            vec![RepairRecord {
                drive: d,
                phase: RepairPhase::Rebuilt,
                spare: Some(s)
            }]
        );
    }

    #[test]
    fn swap_component_changes_subsequent_opens() {
        let (rpc, fleet) = setup(3);
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
        let CheopsResponse::Err(_) = rpc
            .call_with(
                CheopsRequest::SwapComponent {
                    id,
                    slot: ComponentSlot::Mirror(0),
                    new,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("swap into a missing mirror slot must fail");
        };
        rpc.call_with(
            CheopsRequest::SwapComponent {
                id,
                slot: ComponentSlot::Primary(1),
                new,
            },
            &CallOptions::blocking(),
        )
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
