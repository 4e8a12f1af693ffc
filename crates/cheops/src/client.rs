//! The Cheops client library.
//!
//! "Our prototype system implements a Cheops client library that
//! translates application requests and manages both levels of
//! capabilities across multiple NASD drives" — striping, mirroring and
//! reassembly run on *client* cycles, with one pipelined request per
//! stripe-column run so every drive works in parallel.

use crate::manager::{CheopsRequest, CheopsResponse, LeaseKind};
use crate::map::{xor_read, ColumnRun, ComponentSlot, Layout, LogicalObjectId, Redundancy};
use bytes::{ByteRope, Bytes};
use nasd_fm::{DriveEndpoint, DriveFleet, FmError, ManagerLink, Started};
use nasd_net::Channel;
use nasd_proto::{Capability, NasdStatus, RequestBody, Rights};
use std::sync::Arc;

/// An open logical object: layout plus the capability set.
#[derive(Clone, Debug)]
pub struct CheopsFile {
    /// Logical name.
    pub id: LogicalObjectId,
    /// Striping/mirroring layout.
    pub layout: Layout,
    /// One capability per component, in [`Layout::slots`] order.
    caps: Vec<Capability>,
}

/// Client library handle.
pub struct CheopsClient {
    id: u64,
    mgr: Channel<CheopsRequest, CheopsResponse>,
    fleet: Arc<DriveFleet>,
    link: ManagerLink,
}

impl CheopsClient {
    /// Attach client `id` over an already-built manager channel. Obtain
    /// clients through [`CheopsConnect::cheops`](crate::CheopsConnect::cheops).
    #[must_use]
    pub(crate) fn attach(
        id: u64,
        mgr: Channel<CheopsRequest, CheopsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Self {
        CheopsClient {
            id,
            mgr,
            fleet,
            link: ManagerLink::default(),
        }
    }

    fn call_mgr(&self, req: CheopsRequest) -> Result<CheopsResponse, FmError> {
        match self.link.call(&self.mgr, req)? {
            CheopsResponse::Err(e) => Err(e),
            reply => Ok(reply),
        }
    }

    /// The drive and capability behind `slot` of an open file. A slot
    /// the layout lacks can only be asked for if the manager handed out
    /// an inconsistent map, which surfaces as a drive error instead of a
    /// client panic.
    fn party<'a>(
        &'a self,
        file: &'a CheopsFile,
        slot: ComponentSlot,
    ) -> Result<(&'a DriveEndpoint, &'a Capability), FmError> {
        let (component, cap) = file
            .layout
            .slots()
            .zip(&file.caps)
            .find_map(|((s, c), cap)| (s == slot).then_some((c, cap)))
            .ok_or(FmError::Drive(NasdStatus::DriveError))?;
        let ep = self
            .fleet
            .by_id(component.drive)
            .ok_or(FmError::Transport)?;
        Ok((ep, cap))
    }

    /// Create a logical object.
    ///
    /// # Errors
    ///
    /// Manager/drive failures.
    pub fn create(
        &self,
        width: usize,
        stripe_unit: u64,
        redundancy: Redundancy,
    ) -> Result<LogicalObjectId, FmError> {
        match self.call_mgr(CheopsRequest::Create {
            width,
            stripe_unit,
            redundancy,
        })? {
            CheopsResponse::Created(id) => Ok(id),
            _ => Err(FmError::Transport),
        }
    }

    /// Open a logical object, obtaining the capability set.
    ///
    /// # Errors
    ///
    /// `NotFound`, transport.
    pub fn open(&self, id: LogicalObjectId, rights: Rights) -> Result<CheopsFile, FmError> {
        match self.call_mgr(CheopsRequest::Open { id, rights })? {
            CheopsResponse::Opened(layout, caps) if caps.len() == layout.slots().count() => {
                Ok(CheopsFile {
                    id,
                    layout: *layout,
                    caps,
                })
            }
            _ => Err(FmError::Transport),
        }
    }

    /// Remove a logical object and its components.
    ///
    /// # Errors
    ///
    /// `NotFound`, transport.
    pub fn remove(&self, id: LogicalObjectId) -> Result<(), FmError> {
        match self.call_mgr(CheopsRequest::Remove { id })? {
            CheopsResponse::Ok => Ok(()),
            _ => Err(FmError::Transport),
        }
    }

    /// Acquire a lease (concurrency control for multi-disk accesses).
    ///
    /// # Errors
    ///
    /// [`FmError::Permission`] when the lease is held conflictingly.
    pub fn lease(&self, id: LogicalObjectId, kind: LeaseKind, ttl: u64) -> Result<u64, FmError> {
        match self.call_mgr(CheopsRequest::Lease {
            id,
            client: self.id,
            kind,
            ttl,
        })? {
            CheopsResponse::Leased { until } => Ok(until),
            CheopsResponse::LeaseBusy { .. } => Err(FmError::Permission),
            _ => Err(FmError::Transport),
        }
    }

    /// Release a lease.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn unlease(&self, id: LogicalObjectId) -> Result<(), FmError> {
        match self.call_mgr(CheopsRequest::Unlease {
            id,
            client: self.id,
        })? {
            CheopsResponse::Ok => Ok(()),
            _ => Err(FmError::Transport),
        }
    }

    /// Read `len` bytes at logical `offset`, striping the request across
    /// all columns in parallel. Short at end-of-object.
    ///
    /// # Errors
    ///
    /// Drive failures (after the degraded fallback for protected objects).
    pub fn read(&self, file: &CheopsFile, offset: u64, len: u64) -> Result<ByteRope, FmError> {
        let runs = file.layout.split(offset, len);
        // Fire every run asynchronously: "clients again access storage
        // objects directly", all drives in parallel.
        let mut pending = Vec::with_capacity(runs.len());
        for run in &runs {
            let (ep, cap) = self.party(file, ComponentSlot::Primary(run.column))?;
            // A crashed drive fails the send; recovery happens per-run
            // below (signed retry, then the XOR of the column's sources).
            let body = RequestBody::read(&cap.public, run.local_offset, run.len);
            pending.push(ep.start(cap, body, Bytes::new()));
        }

        // Collect one run's bytes, cut to the run. Degraded read: when the
        // column is gone the run is the XOR of its sources, if it has any.
        let collect = |run: &ColumnRun, started: Started<'_>| {
            let data = match started.finish().and_then(|body| Ok(body.into_data()?)) {
                Ok(d) => d,
                Err(e) => {
                    let column = ComponentSlot::Primary(run.column);
                    self.read_xor(file, column, run.local_offset, run.len)?
                        .ok_or(e)?
                }
            };
            let n = data.len().min(run.len as usize);
            Ok::<_, FmError>(data.slice(..n))
        };

        // Single-run reads (the common small-file case) pass the drive's
        // rope straight through with zero copies.
        if let [run] = runs.as_slice() {
            let started = pending.pop().ok_or(FmError::Transport)?;
            return collect(run, started);
        }
        // Reads striped across several columns are reassembled into one
        // buffer — the one place striping genuinely forces a gather copy,
        // made straight into the allocation the returned rope shares.
        let mut out: Arc<[u8]> = std::iter::repeat_n(0u8, len as usize).collect();
        let gather = Arc::get_mut(&mut out).ok_or(FmError::Drive(NasdStatus::DriveError))?;
        let mut delivered_end = 0;
        for (run, started) in runs.iter().zip(pending) {
            let data = collect(run, started)?;
            let start = run.buf_offset as usize;
            let dst = gather
                .get_mut(start..start + data.len())
                .ok_or(FmError::Drive(NasdStatus::DriveError))?;
            if data.copy_to(dst) != data.len() {
                return Err(FmError::Drive(NasdStatus::DriveError));
            }
            if !data.is_empty() {
                delivered_end = delivered_end.max(start + data.len());
            }
        }
        Ok(Bytes::from_arc(out).slice(..delivered_end).into())
    }

    /// Write `data` at logical `offset`, striping across columns in
    /// parallel and keeping every redundant slot that covers a column up
    /// to date: an exact copy (mirror) takes the same bytes in the same
    /// pipeline; an XOR of several columns (parity) is read-modify-written
    /// (`slot' = slot ⊕ old_data ⊕ new_data`) one run at a time. Callers
    /// serialize writers of such objects with an exclusive lease; the
    /// read-modify-write itself is not atomic.
    ///
    /// # Errors
    ///
    /// Drive failures.
    pub fn write(&self, file: &CheopsFile, offset: u64, data: &[u8]) -> Result<u64, FmError> {
        // A write is only counted as acked once some attempt's reply
        // says `Written`, so a lost first attempt never loses acked data.
        fn finish(pending: &mut Vec<Started<'_>>) -> Result<(), FmError> {
            for started in pending.drain(..) {
                started.finish()?.into_written()?;
            }
            Ok(())
        }
        let mut pending = Vec::new();
        for run in file.layout.split(offset, data.len() as u64) {
            // nasd-lint: allow(hot-path-copy, "write scatter: each striped column gets its own owned chunk of the caller buffer")
            let chunk = Bytes::copy_from_slice(
                data.get(run.buf_offset as usize..(run.buf_offset + run.len) as usize)
                    .ok_or(FmError::Drive(NasdStatus::DriveError))?,
            );
            let start = |slot, payload| {
                let (ep, cap) = self.party(file, slot)?;
                let body = RequestBody::write(&cap.public, run.local_offset, run.len);
                Ok::<_, FmError>(ep.start(cap, body, payload))
            };
            let column = ComponentSlot::Primary(run.column);
            for check in file.layout.checks(run.column) {
                let payload = if file.layout.is_xor(check) {
                    // The next run may fold into the same bytes of
                    // `check`: every write so far must land first.
                    finish(&mut pending)?;
                    // nasd-lint: allow(hot-path-copy, "parity read-modify-write folds old data and old parity into an owned copy of the new bytes")
                    let mut folded = chunk.to_vec();
                    let old = [self.party(file, check)?, self.party(file, column)?];
                    xor_read(&mut folded, &old, run.local_offset)?;
                    Bytes::from(folded)
                } else {
                    chunk.clone()
                };
                pending.push(start(check, payload)?);
            }
            // Last, so that every fold above read the column's old bytes.
            pending.push(start(column, chunk)?);
        }
        finish(&mut pending)?;
        Ok(data.len() as u64)
    }

    /// What `slot` holds over `[offset, offset+len)`, read as the XOR of
    /// its sources; `None` when nothing protects it. Cut to the longest
    /// extent a source held, so a single source — the mirror — reads
    /// short at end-of-object like the slot it stands for.
    fn read_xor(
        &self,
        file: &CheopsFile,
        slot: ComponentSlot,
        offset: u64,
        len: u64,
    ) -> Result<Option<ByteRope>, FmError> {
        let Some(sources) = file.layout.sources(slot) else {
            return Ok(None);
        };
        let parties = sources
            .into_iter()
            .map(|s| self.party(file, s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut acc = vec![0u8; len as usize];
        let extent = xor_read(&mut acc, &parties, offset)?;
        acc.truncate(extent);
        Ok(Some(ByteRope::from(acc)))
    }

    /// Logical size: the maximum logical extent implied by any column's
    /// component size (computed client-side from per-drive getattrs).
    ///
    /// # Errors
    ///
    /// Drive failures.
    pub fn size(&self, file: &CheopsFile) -> Result<u64, FmError> {
        let mut pending = Vec::with_capacity(file.layout.width());
        for column in 0..file.layout.width() {
            let (ep, cap) = self.party(file, ComponentSlot::Primary(column))?;
            pending.push(ep.start(cap, RequestBody::get_attr(&cap.public), Bytes::new()));
        }
        let mut size = 0u64;
        for (column, started) in pending.into_iter().enumerate() {
            let attrs = started.finish()?.into_attr()?;
            size = size.max(file.layout.logical_size_from_component(column, attrs.size));
        }
        Ok(size)
    }
}

impl std::fmt::Debug for CheopsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheopsClient")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CheopsManager;
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;

    fn setup(n: usize) -> (CheopsClient, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 32 << 20).unwrap(),
        );
        let (rpc, _h) = CheopsManager::new(Arc::clone(&fleet)).spawn();
        (
            CheopsClient::attach(7, Channel::in_proc(rpc), Arc::clone(&fleet)),
            fleet,
        )
    }

    const RW: Rights = Rights::ALL;

    #[test]
    fn striped_write_read_roundtrip() {
        let (client, _fleet) = setup(4);
        let id = client.create(4, 64 * 1024, Redundancy::None).unwrap();
        let file = client.open(id, RW).unwrap();
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 249) as u8).collect();
        client.write(&file, 0, &data).unwrap();
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
        assert_eq!(client.size(&file).unwrap(), data.len() as u64);
    }

    #[test]
    fn unaligned_offsets_roundtrip() {
        let (client, _fleet) = setup(3);
        let id = client.create(3, 4 * 1024, Redundancy::None).unwrap();
        let file = client.open(id, RW).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        client.write(&file, 12_345, &data).unwrap();
        let back = client.read(&file, 12_345, data.len() as u64).unwrap();
        assert_eq!(back, data);
        // Reads inside the leading gap return zeros.
        let gap = client.read(&file, 0, 100).unwrap();
        assert!(gap.to_vec().iter().all(|&b| b == 0));
    }

    #[test]
    fn data_actually_lands_on_all_drives() {
        let (client, _fleet) = setup(4);
        let id = client.create(4, 8 * 1024, Redundancy::None).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, &vec![5u8; 256 * 1024]).unwrap();
        // Every component object holds 64 KB.
        for (column, col) in file.layout.columns.iter().enumerate() {
            let (ep, cap) = client.party(&file, ComponentSlot::Primary(column)).unwrap();
            assert_eq!(ep.id(), col.primary.drive);
            let attrs = ep.get_attr(cap).unwrap();
            assert_eq!(attrs.size, 64 * 1024, "column {column}");
        }
    }

    #[test]
    fn short_read_past_end() {
        let (client, _fleet) = setup(2);
        let id = client.create(2, 4 * 1024, Redundancy::None).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, b"short object").unwrap();
        let back = client.read(&file, 0, 1_000_000).unwrap();
        assert_eq!(back, b"short object");
        assert!(client.read(&file, 1 << 20, 100).unwrap().is_empty());
    }

    #[test]
    fn mirrored_write_lands_on_both_copies() {
        let (client, _fleet) = setup(3);
        let id = client.create(2, 4 * 1024, Redundancy::Mirrored).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, &vec![9u8; 32 * 1024]).unwrap();
        for (column, col) in file.layout.columns.iter().enumerate() {
            let m = col.mirror.unwrap();
            let (ep, cap) = client.party(&file, ComponentSlot::Mirror(column)).unwrap();
            assert_eq!(ep.id(), m.drive);
            let attrs = ep.get_attr(cap).unwrap();
            assert_eq!(attrs.size, 16 * 1024, "mirror of column {column}");
        }
    }

    #[test]
    fn degraded_read_from_mirror() {
        let (client, fleet) = setup(3);
        let id = client.create(2, 4 * 1024, Redundancy::Mirrored).unwrap();
        let file = client.open(id, RW).unwrap();
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        client.write(&file, 0, &data).unwrap();

        // Destroy column 0's primary component (drive failure stand-in).
        let victim = file.layout.columns[0].primary;
        let ep = fleet.by_id(victim.drive).unwrap();
        let kill_cap = ep.mint(
            victim.partition,
            victim.object,
            nasd_proto::Version(0),
            Rights::REMOVE,
            nasd_proto::ByteRange::FULL,
            fleet.now() + 10,
        );
        ep.remove(&kill_cap).unwrap();

        // Reads still succeed via the mirror.
        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn revoke_retires_every_capability_set_issued_before_it() {
        use nasd_proto::{ByteRange, RetryClass};

        for redundancy in [Redundancy::None, Redundancy::Mirrored, Redundancy::Parity] {
            let fleet = Arc::new(
                DriveFleet::spawn_memory(4, DriveConfig::small(), PartitionId(1), 32 << 20)
                    .unwrap(),
            );
            let mgr = Arc::new(CheopsManager::new(Arc::clone(&fleet)));
            let (rpc, _h) = mgr.serve();
            let client = CheopsClient::attach(7, Channel::in_proc(rpc), Arc::clone(&fleet));
            let id = client.create(3, 4096, redundancy).unwrap();
            let old = client.open(id, Rights::ALL).unwrap();
            let data: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
            client.write(&old, 0, &data).unwrap();

            mgr.revoke(id).unwrap();
            // The drives refuse the whole old set, so a client holding it
            // must go back to the manager...
            for ((_, c), cap) in old.layout.slots().zip(&old.caps) {
                let ep = fleet.by_id(c.drive).unwrap();
                match ep.read(cap, 0, 1) {
                    Err(FmError::Drive(status)) => {
                        assert_eq!(status.retry_class(), RetryClass::Refresh);
                    }
                    other => panic!("{redundancy:?}: revoked {c} honoured: {other:?}"),
                }
            }
            assert!(client.read(&old, 0, data.len() as u64).is_err());
            // ...for a set that reads the same bytes.
            let fresh = client.open(id, Rights::READ).unwrap();
            assert_eq!(fresh.layout, old.layout);
            let back = client.read(&fresh, 0, data.len() as u64).unwrap();
            assert_eq!(back, data, "{redundancy:?}");

            // Remove still reaches every revoked component.
            client.remove(id).unwrap();
            for (_, c) in old.layout.slots() {
                let (ep, cap) = fleet.mint(c, Rights::READ, ByteRange::FULL).unwrap();
                assert!(ep.read(&cap, 0, 1).is_err(), "{redundancy:?}: {c} survived");
            }
        }
    }

    /// Reads a component's first `len` bytes raw, zero-padded.
    fn raw(fleet: &DriveFleet, c: crate::map::Component, len: usize) -> Vec<u8> {
        let ep = fleet.by_id(c.drive).unwrap();
        let cap = ep.mint(
            c.partition,
            c.object,
            nasd_proto::Version(0),
            Rights::READ,
            nasd_proto::ByteRange::FULL,
            fleet.now() + 10,
        );
        let mut bytes = ep.read(&cap, 0, len as u64).unwrap().to_vec();
        bytes.resize(len, 0);
        bytes
    }

    /// The rule itself, against live drives: for every redundancy scheme
    /// and every slot of a written object, the XOR of `sources(slot)`
    /// equals the slot's bytes, and `Open` hands the capabilities out in
    /// `slots()` order. Every caller leans on exactly these two facts.
    #[test]
    fn every_slot_is_the_xor_of_its_sources() {
        const LEN: usize = 48 * 1024;
        for redundancy in [Redundancy::None, Redundancy::Mirrored, Redundancy::Parity] {
            let (client, fleet) = setup(5);
            let id = client.create(3, 4 * 1024, redundancy).unwrap();
            let file = client.open(id, RW).unwrap();
            let data: Vec<u8> = (0..100_001u32).map(|i| (i % 233) as u8 + 1).collect();
            client.write(&file, 0, &data).unwrap();

            let slots: Vec<_> = file.layout.slots().collect();
            assert_eq!(slots.len(), file.caps.len(), "{redundancy:?}");
            for ((slot, component), cap) in slots.iter().zip(&file.caps) {
                let named = (cap.public.drive, cap.public.partition, cap.public.object);
                let held = (component.drive, component.partition, component.object);
                assert_eq!(
                    named, held,
                    "{redundancy:?} {slot}: capability out of order"
                );
                assert_eq!(file.layout.component(*slot), Some(*component));

                let Some(sources) = file.layout.sources(*slot) else {
                    assert_eq!(redundancy, Redundancy::None, "{slot} unprotected");
                    continue;
                };
                assert_ne!(redundancy, Redundancy::None, "{slot} protected by nothing");
                assert!(!sources.contains(slot), "{slot} is its own source");
                let parties: Vec<_> = sources
                    .iter()
                    .map(|s| client.party(&file, *s).unwrap())
                    .collect();
                let mut xor = vec![0u8; LEN];
                xor_read(&mut xor, &parties, 0).unwrap();
                assert!(
                    xor == raw(&fleet, *component, LEN),
                    "{redundancy:?}: {slot} is not the XOR of {sources:?}"
                );
            }
        }
    }

    #[test]
    fn remove_with_a_drive_down_removes_every_reachable_component() {
        let (client, fleet) = setup(3);
        let id = client.create(2, 4 * 1024, Redundancy::Mirrored).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, &vec![7u8; 32 * 1024]).unwrap();

        // Drive 0 holds column 0's primary only; the other three
        // components live on drives that stay up.
        fleet.crash(0);
        let down = fleet.endpoint(0).id();
        assert!(
            client.remove(id).is_err(),
            "the unreachable drive is reported"
        );
        assert!(matches!(client.open(id, RW), Err(FmError::NotFound(_))));
        for (slot, component) in file.layout.slots() {
            if component.drive == down {
                continue;
            }
            let (ep, cap) = client.party(&file, slot).unwrap();
            assert!(
                matches!(
                    ep.read(cap, 0, 1),
                    Err(FmError::Drive(NasdStatus::NoSuchObject))
                ),
                "{slot} leaked on a live drive"
            );
        }
    }

    #[test]
    fn capability_rights_flow_through() {
        let (client, _fleet) = setup(2);
        let id = client.create(2, 4 * 1024, Redundancy::None).unwrap();
        let ro = client.open(id, Rights::READ | Rights::GETATTR).unwrap();
        assert!(matches!(
            client.write(&ro, 0, b"denied"),
            Err(FmError::Drive(NasdStatus::AccessDenied))
        ));
    }

    #[test]
    fn lease_api_flows() {
        let (client, _fleet) = setup(2);
        let id = client.create(2, 4 * 1024, Redundancy::None).unwrap();
        client.lease(id, LeaseKind::Exclusive, 50).unwrap();
        let other = CheopsClient::attach(99, client.mgr.clone(), Arc::clone(&client.fleet));
        assert!(matches!(
            other.lease(id, LeaseKind::Shared, 50),
            Err(FmError::Permission)
        ));
        client.unlease(id).unwrap();
        other.lease(id, LeaseKind::Shared, 50).unwrap();
    }
}

#[cfg(test)]
mod parity_tests {
    use super::*;
    use crate::manager::CheopsManager;
    use nasd_object::DriveConfig;
    use nasd_proto::{ByteRange, PartitionId, Version};

    fn setup(n: usize) -> (CheopsClient, Arc<DriveFleet>) {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(n, DriveConfig::small(), PartitionId(1), 32 << 20).unwrap(),
        );
        let (rpc, _h) = CheopsManager::new(Arc::clone(&fleet)).spawn();
        (
            CheopsClient::attach(7, Channel::in_proc(rpc), Arc::clone(&fleet)),
            fleet,
        )
    }

    #[test]
    fn parity_write_read_roundtrip() {
        let (client, _fleet) = setup(4); // 3 data columns + 1 parity drive
        let id = client.create(3, 8 * 1024, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::ALL).unwrap();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 247) as u8).collect();
        client.write(&file, 0, &data).unwrap();
        assert_eq!(client.read(&file, 0, data.len() as u64).unwrap(), &data[..]);
    }

    #[test]
    fn parity_component_is_the_xor_of_columns() {
        let (client, fleet) = setup(3); // 2 data + parity
        let id = client.create(2, 4 * 1024, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::ALL).unwrap();
        // One full stripe row: 2 units.
        let a = vec![0xF0u8; 4 * 1024];
        let b = vec![0x3Cu8; 4 * 1024];
        let mut logical = a.clone();
        logical.extend_from_slice(&b);
        client.write(&file, 0, &logical).unwrap();

        // Read the parity object raw and check the XOR relation.
        let parity = file.layout.parity.unwrap();
        let ep = fleet.by_id(parity.drive).unwrap();
        let pcap = ep.mint(
            parity.partition,
            parity.object,
            Version(0),
            Rights::READ,
            ByteRange::FULL,
            fleet.now() + 10,
        );
        let pdata = ep.read(&pcap, 0, 4 * 1024).unwrap();
        assert!(pdata.to_vec().iter().all(|&x| x == 0xF0 ^ 0x3C));
    }

    #[test]
    fn parity_overwrite_keeps_invariant() {
        let (client, _fleet) = setup(4);
        let id = client.create(3, 4 * 1024, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::ALL).unwrap();
        client.write(&file, 0, &vec![1u8; 30_000]).unwrap();
        // Unaligned partial overwrite: the RMW must keep parity coherent.
        client.write(&file, 1_234, &vec![9u8; 10_000]).unwrap();
        // Verify via reconstruction: every column must be rebuildable.
        for lost in 0..3 {
            let direct = {
                let (ep, cap) = client.party(&file, ComponentSlot::Primary(lost)).unwrap();
                let mut v = ep.read(cap, 0, 16_384).unwrap().to_vec();
                v.resize(16_384, 0);
                v
            };
            let rebuilt = client.read_xor(&file, ComponentSlot::Primary(lost), 0, 16_384);
            let mut rebuilt = rebuilt.unwrap().unwrap().to_vec();
            rebuilt.resize(16_384, 0);
            assert_eq!(rebuilt, direct, "column {lost}");
        }
    }

    #[test]
    fn parity_degraded_read_survives_column_loss() {
        let (client, fleet) = setup(3);
        let id = client.create(2, 4 * 1024, Redundancy::Parity).unwrap();
        let file = client.open(id, Rights::ALL).unwrap();
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
        client.write(&file, 0, &data).unwrap();

        // Destroy column 1's component outright.
        let victim = file.layout.columns[1].primary;
        let ep = fleet.by_id(victim.drive).unwrap();
        let kill = ep.mint(
            victim.partition,
            victim.object,
            Version(0),
            Rights::REMOVE,
            ByteRange::FULL,
            fleet.now() + 10,
        );
        ep.remove(&kill).unwrap();

        let back = client.read(&file, 0, data.len() as u64).unwrap();
        assert_eq!(back, data, "reconstructed from parity");
    }

    #[test]
    fn parity_object_opened_for_writing_only_can_be_written() {
        let (client, _fleet) = setup(4);
        let id = client.create(3, 8 * 1024, Redundancy::Parity).unwrap();
        // The read-modify-write reads the old data column as well as the
        // old parity: a writer's capabilities must cover both.
        let writer = client.open(id, Rights::WRITE).unwrap();
        let data: Vec<u8> = (0..70_000u32).map(|i| (i % 241) as u8).collect();
        client.write(&writer, 0, &data).unwrap();
        client.write(&writer, 5_000, &data[..9_000]).unwrap();
        let reader = client.open(id, Rights::READ).unwrap();
        let mut expect = data.clone();
        expect[5_000..14_000].copy_from_slice(&data[..9_000]);
        assert_eq!(
            client.read(&reader, 0, expect.len() as u64).unwrap(),
            expect
        );
        // Least privilege otherwise: a reader is not handed WRITE.
        assert!(matches!(
            client.write(&reader, 0, b"denied"),
            Err(FmError::Drive(NasdStatus::AccessDenied))
        ));
    }

    #[test]
    fn parity_requires_a_spare_drive() {
        let (client, _fleet) = setup(2);
        assert!(client.create(2, 4 * 1024, Redundancy::Parity).is_err());
        assert!(client.create(1, 4 * 1024, Redundancy::Parity).is_ok());
    }
}
