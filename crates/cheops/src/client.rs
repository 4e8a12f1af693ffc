//! The Cheops client library.
//!
//! "Our prototype system implements a Cheops client library that
//! translates application requests and manages both levels of
//! capabilities across multiple NASD drives" — striping, mirroring and
//! reassembly run on *client* cycles, with one pipelined request per
//! stripe-column run so every drive works in parallel.

use crate::manager::{CheopsRequest, CheopsResponse, LeaseKind};
use crate::map::{Layout, LogicalObjectId, Redundancy};
use bytes::{ByteRope, Bytes};
use nasd_fm::{DriveFleet, FmError, ManagerLink};
use nasd_net::{CallOptions, Channel, RetryPolicy};
use nasd_proto::{Capability, NasdStatus, RequestBody, Rights};
use std::sync::Arc;

/// An open logical object: layout plus the capability set.
#[derive(Clone, Debug)]
pub struct CheopsFile {
    /// Logical name.
    pub id: LogicalObjectId,
    /// Striping/mirroring layout.
    pub layout: Layout,
    /// Capability for each column's primary.
    primary_caps: Vec<Capability>,
    /// Capability for each column's mirror (when mirrored).
    mirror_caps: Vec<Option<Capability>>,
    /// Capability for the parity component (when parity-protected).
    parity_cap: Option<Capability>,
}

impl CheopsFile {
    /// Column `i` of the layout. A run can only refer past the layout if
    /// the manager handed out an inconsistent map, which surfaces as a
    /// drive error instead of a client panic.
    fn column(&self, i: usize) -> Result<&crate::map::Column, FmError> {
        self.layout
            .columns
            .get(i)
            .ok_or(FmError::Drive(NasdStatus::DriveError))
    }

    /// Capability for column `i`'s primary component.
    fn primary_cap(&self, i: usize) -> Result<&Capability, FmError> {
        self.primary_caps
            .get(i)
            .ok_or(FmError::Drive(NasdStatus::DriveError))
    }

    /// Capability for column `i`'s mirror, when mirrored.
    fn mirror_cap(&self, i: usize) -> Option<&Capability> {
        self.mirror_caps.get(i).and_then(|c| c.as_ref())
    }
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

    /// The drive fleet (shared with other layers).
    #[must_use]
    pub fn fleet(&self) -> &Arc<DriveFleet> {
        &self.fleet
    }

    /// Replace the manager-path retry policy (any attached call stats
    /// are kept).
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.link.set_retry(policy);
    }

    /// Replace the full manager-path call options (policy, per-attempt
    /// timeout and stats) in one shot.
    pub fn set_call_options(&mut self, opts: CallOptions) {
        self.link.set_call_options(opts);
    }

    fn call_mgr(&self, req: CheopsRequest) -> Result<CheopsResponse, FmError> {
        self.link.call(&self.mgr, req)
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
            CheopsResponse::Err(e) => Err(e),
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
            CheopsResponse::Opened(layout, caps) => {
                let mut primary_caps = Vec::with_capacity(layout.width());
                let mut mirror_caps = Vec::with_capacity(layout.width());
                let mut it = caps.into_iter();
                for col in &layout.columns {
                    primary_caps.push(it.next().ok_or(FmError::Transport)?);
                    if col.mirror.is_some() {
                        mirror_caps.push(Some(it.next().ok_or(FmError::Transport)?));
                    } else {
                        mirror_caps.push(None);
                    }
                }
                let parity_cap = if layout.parity.is_some() {
                    Some(it.next().ok_or(FmError::Transport)?)
                } else {
                    None
                };
                Ok(CheopsFile {
                    id,
                    layout: *layout,
                    primary_caps,
                    mirror_caps,
                    parity_cap,
                })
            }
            CheopsResponse::Err(e) => Err(e),
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
            CheopsResponse::Err(e) => Err(e),
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
            CheopsResponse::Err(e) => Err(e),
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
            CheopsResponse::Err(e) => Err(e),
            _ => Err(FmError::Transport),
        }
    }

    /// Read `len` bytes at logical `offset`, striping the request across
    /// all columns in parallel. Short at end-of-object.
    ///
    /// # Errors
    ///
    /// Drive failures (after mirror fallback for mirrored objects).
    pub fn read(&self, file: &CheopsFile, offset: u64, len: u64) -> Result<ByteRope, FmError> {
        let runs = file.layout.split(offset, len);
        // Fire every run asynchronously: "clients again access storage
        // objects directly", all drives in parallel.
        let mut pending = Vec::with_capacity(runs.len());
        for run in &runs {
            let col = file.column(run.column)?;
            let cap = file.primary_cap(run.column)?;
            let ep = self
                .fleet
                .by_id(col.primary.drive)
                .ok_or(FmError::Transport)?;
            // A crashed drive fails the send; recovery happens per-run
            // below (signed retry, then mirror/parity fallback).
            let body = RequestBody::read(&cap.public, run.local_offset, run.len);
            pending.push(ep.start(cap, body, Bytes::new()));
        }

        // Single-run reads (the common small-file case) pass the drive's
        // rope straight through with zero copies. Reads striped across
        // several columns are reassembled into one buffer below — the
        // one place striping genuinely forces a gather copy.
        let single_run = runs.len() == 1;
        let mut out = if single_run {
            Vec::new()
        } else {
            vec![0u8; len as usize]
        };
        let mut rope = ByteRope::new();
        let mut delivered_end = 0u64;
        for (run, started) in runs.iter().zip(pending) {
            let col = file.column(run.column)?;
            let data = match started.finish().and_then(|body| Ok(body.into_data()?)) {
                Ok(d) => d,
                Err(e) => {
                    // Degraded read: mirror first, then parity
                    // reconstruction.
                    if let (Some(m), Some(mcap)) = (col.mirror, file.mirror_cap(run.column)) {
                        let ep = self.fleet.by_id(m.drive).ok_or(FmError::Transport)?;
                        ep.read(mcap, run.local_offset, run.len)?
                    } else if file.layout.parity.is_some() {
                        self.reconstruct_run(file, run.column, run.local_offset, run.len)?
                    } else {
                        return Err(e);
                    }
                }
            };
            let n = data.len().min(run.len as usize);
            if single_run {
                rope = data.slice(..n);
            } else {
                let start = run.buf_offset as usize;
                let dst = out
                    .get_mut(start..start + n)
                    .ok_or(FmError::Drive(NasdStatus::DriveError))?;
                // Multi-column gather: striped runs land in one client buffer.
                let copied = data.slice(..n).copy_to(dst);
                if copied != n {
                    return Err(FmError::Drive(NasdStatus::DriveError));
                }
            }
            if n > 0 {
                delivered_end = delivered_end.max(run.buf_offset + n as u64);
            }
        }
        if single_run {
            return Ok(rope);
        }
        out.truncate(delivered_end as usize);
        Ok(ByteRope::from(out))
    }

    /// Write `data` at logical `offset`, striping across columns (and to
    /// mirrors) in parallel.
    ///
    /// # Errors
    ///
    /// Drive failures.
    pub fn write(&self, file: &CheopsFile, offset: u64, data: &[u8]) -> Result<u64, FmError> {
        let runs = file.layout.split(offset, data.len() as u64);
        if file.layout.redundancy == Redundancy::Parity {
            for run in &runs {
                let chunk = data
                    .get(run.buf_offset as usize..(run.buf_offset + run.len) as usize)
                    .ok_or(FmError::Drive(NasdStatus::DriveError))?;
                self.write_run_with_parity(file, run.column, run.local_offset, chunk)?;
            }
            return Ok(data.len() as u64);
        }
        let mut pending = Vec::new();
        for run in &runs {
            let col = file.column(run.column)?;
            // nasd-lint: allow(hot-path-copy, "write scatter: each striped column gets its own owned chunk of the caller buffer")
            let chunk = Bytes::copy_from_slice(
                data.get(run.buf_offset as usize..(run.buf_offset + run.len) as usize)
                    .ok_or(FmError::Drive(NasdStatus::DriveError))?,
            );
            let targets = std::iter::once((col.primary, file.primary_cap(run.column)?)).chain(
                col.mirror
                    .iter()
                    .filter_map(|m| file.mirror_cap(run.column).map(|c| (*m, c))),
            );
            for (component, cap) in targets {
                let ep = self
                    .fleet
                    .by_id(component.drive)
                    .ok_or(FmError::Transport)?;
                let body = RequestBody::write(&cap.public, run.local_offset, run.len);
                pending.push(ep.start(cap, body, chunk.clone()));
            }
        }
        // A write is only counted as acked once some attempt's reply
        // says `Written`, so a lost first attempt never loses acked data.
        for started in pending {
            started.finish()?.into_written()?;
        }
        Ok(data.len() as u64)
    }

    /// Read `[offset, offset+len)` of one component, zero-padded to
    /// exactly `len` bytes (unwritten object space reads as zero, which
    /// is the XOR identity).
    fn read_padded(
        &self,
        component: crate::map::Component,
        cap: &Capability,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, FmError> {
        let ep = self
            .fleet
            .by_id(component.drive)
            .ok_or(FmError::Transport)?;
        let data = ep.read(cap, offset, len)?;
        let mut out = vec![0u8; len as usize];
        // Parity XOR needs an owned zero-padded buffer; degraded path only.
        data.copy_to(&mut out);
        Ok(out)
    }

    /// Rebuild a lost column's bytes from the surviving columns and the
    /// parity component: `lost = parity ⊕ (⊕ other columns)`.
    fn reconstruct_run(
        &self,
        file: &CheopsFile,
        lost_column: usize,
        local_offset: u64,
        len: u64,
    ) -> Result<ByteRope, FmError> {
        let parity = file.layout.parity.ok_or(FmError::Transport)?;
        let pcap = file.parity_cap.as_ref().ok_or(FmError::Transport)?;
        let mut acc = self.read_padded(parity, pcap, local_offset, len)?;
        for (column, col) in file.layout.columns.iter().enumerate() {
            if column == lost_column {
                continue;
            }
            let survivor =
                self.read_padded(col.primary, file.primary_cap(column)?, local_offset, len)?;
            for (a, b) in acc.iter_mut().zip(survivor) {
                *a ^= b;
            }
        }
        Ok(ByteRope::from(acc))
    }

    /// Parity-maintaining write of one run: read-modify-write of the data
    /// column and the parity component
    /// (`parity' = parity ⊕ old_data ⊕ new_data`). Callers serialize
    /// writers with an exclusive lease; the RMW itself is not atomic.
    fn write_run_with_parity(
        &self,
        file: &CheopsFile,
        column: usize,
        local_offset: u64,
        new_data: &[u8],
    ) -> Result<(), FmError> {
        let col = file.column(column)?.primary;
        let cap = file.primary_cap(column)?;
        let parity = file.layout.parity.ok_or(FmError::Transport)?;
        let pcap = file.parity_cap.as_ref().ok_or(FmError::Transport)?;
        let len = new_data.len() as u64;

        let old_data = self.read_padded(col, cap, local_offset, len)?;
        let mut new_parity = self.read_padded(parity, pcap, local_offset, len)?;
        for ((p, o), n) in new_parity.iter_mut().zip(&old_data).zip(new_data) {
            *p ^= o ^ n;
        }

        let ep = self.fleet.by_id(col.drive).ok_or(FmError::Transport)?;
        // nasd-lint: allow(hot-path-copy, "parity RMW write ingests the caller slice as owned request payload")
        ep.write(cap, local_offset, Bytes::copy_from_slice(new_data))?;
        let pep = self.fleet.by_id(parity.drive).ok_or(FmError::Transport)?;
        pep.write(pcap, local_offset, Bytes::from(new_parity))?;
        Ok(())
    }

    /// Logical size: the maximum logical extent implied by any column's
    /// component size (computed client-side from per-drive getattrs).
    ///
    /// # Errors
    ///
    /// Drive failures.
    pub fn size(&self, file: &CheopsFile) -> Result<u64, FmError> {
        let mut pending = Vec::with_capacity(file.layout.width());
        for (column, col) in file.layout.columns.iter().enumerate() {
            let cap = file.primary_cap(column)?;
            let ep = self
                .fleet
                .by_id(col.primary.drive)
                .ok_or(FmError::Transport)?;
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
        let (client, fleet) = setup(4);
        let id = client.create(4, 8 * 1024, Redundancy::None).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, &vec![5u8; 256 * 1024]).unwrap();
        // Every component object holds 64 KB.
        for (column, col) in file.layout.columns.iter().enumerate() {
            let ep = fleet.by_id(col.primary.drive).unwrap();
            let cap = &file.primary_caps[column];
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
        let (client, fleet) = setup(3);
        let id = client.create(2, 4 * 1024, Redundancy::Mirrored).unwrap();
        let file = client.open(id, RW).unwrap();
        client.write(&file, 0, &vec![9u8; 32 * 1024]).unwrap();
        for (column, col) in file.layout.columns.iter().enumerate() {
            let m = col.mirror.unwrap();
            let ep = fleet.by_id(m.drive).unwrap();
            let cap = file.mirror_caps[column].as_ref().unwrap();
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
                let col = file.layout.columns[lost].primary;
                let ep = client.fleet.by_id(col.drive).unwrap();
                let mut v = ep
                    .read(&file.primary_caps[lost], 0, 16_384)
                    .unwrap()
                    .to_vec();
                v.resize(16_384, 0);
                v
            };
            let rebuilt = client.reconstruct_run(&file, lost, 0, 16_384).unwrap();
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
    fn parity_requires_a_spare_drive() {
        let (client, _fleet) = setup(2);
        assert!(client.create(2, 4 * 1024, Redundancy::Parity).is_err());
        assert!(client.create(1, 4 * 1024, Redundancy::Parity).is_ok());
    }
}
