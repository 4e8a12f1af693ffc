//! Active Disks (§6): application code executing on the drive.
//!
//! "By extending the object notion of the basic NASD interface to include
//! code that provides specialized 'methods' for accessing and operating
//! on a particular data type, there is a natural way to tie computation
//! to the data and scale as capacity is added to the system."
//!
//! A [`DiskFunction`] is such a method: it streams an object's data *at
//! the drive* and emits a small result — only the result crosses the
//! network. The [`on_drive`] module provides the paper's example, the
//! frequent-sets counter, which let the authors reach the same 45 MB/s
//! effective scan rate "with low-bandwidth 10 Mb/s ethernet networking
//! and only 1/3 of the hardware".
//!
//! # Example
//!
//! ```
//! use nasd_active::{ActiveDrive, on_drive::FrequentItemsCounter};
//! use nasd_object::NasdDrive;
//! use nasd_proto::{PartitionId, Rights};
//!
//! let mut drive = NasdDrive::builder(1).build();
//! let p = PartitionId(1);
//! drive.admin_create_partition(p, 1 << 20)?;
//! let obj = drive.admin_create_object(p, 0)?;
//! let cap = drive.issue_capability(p, obj, Rights::READ | Rights::WRITE, 3600);
//! let client = drive.client(cap.clone());
//! client.write(&mut drive, 0, &[2, 0, 7, 0, 0, 0, 9, 0, 0, 0])?; // one txn: items 7, 9
//!
//! let mut active = ActiveDrive::new(drive);
//! let result = active.execute(&cap, &mut FrequentItemsCounter::new(1 << 16))?;
//! assert_eq!(result.bytes_shipped, result.result.len() as u64);
//! assert!(result.bytes_scanned >= 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod on_drive;

use nasd_disk::BlockDevice;
use nasd_object::NasdDrive;
use nasd_proto::{Capability, NasdStatus};
use std::fmt;

/// A method executed at the drive over an object's data.
///
/// Functions see the object as a stream of byte buffers and accumulate
/// state; [`DiskFunction::finish`] emits the (small) result that actually
/// crosses the network.
pub trait DiskFunction: Send {
    /// Consume the next stretch of object data.
    fn process(&mut self, data: &[u8]);

    /// Produce the result to ship to the client.
    fn finish(&mut self) -> Vec<u8>;

    /// Preferred read granularity at the drive (defaults to 512 KB, the
    /// stripe unit of the §5.2 experiments).
    fn read_granularity(&self) -> u64 {
        512 * 1024
    }
}

/// Outcome of an on-drive execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The function's result (this is all that crosses the network).
    pub result: Vec<u8>,
    /// Object bytes scanned at the drive.
    pub bytes_scanned: u64,
    /// Bytes shipped over the network (= result size).
    pub bytes_shipped: u64,
}

/// A NASD drive with an execution environment.
///
/// Execution rides the drive's ordinary secured read path — the installed
/// function is just another client of the object system, so capabilities,
/// regions and revocation apply unchanged.
pub struct ActiveDrive<D = nasd_disk::MemDisk> {
    drive: NasdDrive<D>,
}

impl<D: BlockDevice> ActiveDrive<D> {
    /// Wrap a drive with the execution environment.
    #[must_use]
    pub fn new(drive: NasdDrive<D>) -> Self {
        ActiveDrive { drive }
    }

    /// Access the wrapped drive.
    #[must_use]
    pub fn drive(&self) -> &NasdDrive<D> {
        &self.drive
    }

    /// Mutable access to the wrapped drive (it still serves ordinary
    /// requests).
    pub fn drive_mut(&mut self) -> &mut NasdDrive<D> {
        &mut self.drive
    }

    /// Execute `function` over the object named by `cap`, streaming the
    /// data entirely inside the drive.
    ///
    /// # Errors
    ///
    /// Any [`NasdStatus`] the secured read path produces (bad capability,
    /// revocation, expiry...).
    pub fn execute(
        &mut self,
        cap: &Capability,
        function: &mut dyn DiskFunction,
    ) -> Result<ExecutionReport, NasdStatus> {
        let handle = nasd_object::ClientHandle::new(0xac71, cap.clone());
        let granularity = function.read_granularity().max(1);
        let mut offset = 0u64;
        let mut scanned = 0u64;
        loop {
            let data = handle.read(&mut self.drive, offset, granularity)?;
            if data.is_empty() {
                break;
            }
            scanned += data.len() as u64;
            offset += data.len() as u64;
            // Functions see contiguous bytes; flatten each granularity
            // chunk here, on the drive-resident side, where the copy is
            // the point (data never crosses the wire).
            function.process(&data.flatten());
            if (data.len() as u64) < granularity {
                break;
            }
        }
        let result = function.finish();
        Ok(ExecutionReport {
            bytes_shipped: result.len() as u64,
            bytes_scanned: scanned,
            result,
        })
    }
}

impl<D: BlockDevice> fmt::Debug for ActiveDrive<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveDrive")
            .field("drive", &self.drive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_proto::{PartitionId, Rights};

    struct ByteSum {
        sum: u64,
        calls: u64,
    }

    impl DiskFunction for ByteSum {
        fn process(&mut self, data: &[u8]) {
            self.sum += data.iter().map(|&b| u64::from(b)).sum::<u64>();
            self.calls += 1;
        }
        fn finish(&mut self) -> Vec<u8> {
            self.sum.to_be_bytes().to_vec()
        }
        fn read_granularity(&self) -> u64 {
            8 * 1024
        }
    }

    fn setup(len: usize) -> (ActiveDrive, Capability) {
        let mut drive = NasdDrive::builder(1).build();
        let p = PartitionId(1);
        drive.admin_create_partition(p, 16 << 20).unwrap();
        let obj = drive.admin_create_object(p, 0).unwrap();
        let cap = drive.issue_capability(p, obj, Rights::READ | Rights::WRITE, 3_600);
        let client = drive.client(cap.clone());
        client.write(&mut drive, 0, &vec![1u8; len]).unwrap();
        (ActiveDrive::new(drive), cap)
    }

    #[test]
    fn streams_whole_object_in_granules() {
        let (mut active, cap) = setup(50_000);
        let mut f = ByteSum { sum: 0, calls: 0 };
        let report = active.execute(&cap, &mut f).unwrap();
        assert_eq!(report.bytes_scanned, 50_000);
        assert_eq!(f.sum, 50_000);
        // 50 KB at 8 KB granularity = 7 reads.
        assert_eq!(f.calls, 7);
        // Only 8 bytes cross the network, not 50 KB.
        assert_eq!(report.bytes_shipped, 8);
        assert_eq!(report.result, 50_000u64.to_be_bytes().to_vec());
    }

    #[test]
    fn execution_respects_capabilities() {
        let (mut active, cap) = setup(1_000);
        // A write-only capability cannot drive an (on-drive) scan.
        let p = cap.public.partition;
        let obj = cap.public.object;
        let bad = active
            .drive()
            .issue_capability(p, obj, Rights::WRITE, 3_600);
        let mut f = ByteSum { sum: 0, calls: 0 };
        assert_eq!(
            active.execute(&bad, &mut f).unwrap_err(),
            NasdStatus::AccessDenied
        );
    }

    #[test]
    fn expired_capability_stops_execution() {
        let (mut active, cap) = setup(1_000);
        active.drive_mut().advance_clock(10_000);
        let mut f = ByteSum { sum: 0, calls: 0 };
        assert_eq!(
            active.execute(&cap, &mut f).unwrap_err(),
            NasdStatus::AccessDenied
        );
    }

    #[test]
    fn empty_object_scans_zero() {
        let mut drive = NasdDrive::builder(1).build();
        let p = PartitionId(1);
        drive.admin_create_partition(p, 1 << 20).unwrap();
        let obj = drive.admin_create_object(p, 0).unwrap();
        let cap = drive.issue_capability(p, obj, Rights::READ, 3_600);
        let mut active = ActiveDrive::new(drive);
        let mut f = ByteSum { sum: 0, calls: 0 };
        let report = active.execute(&cap, &mut f).unwrap();
        assert_eq!(report.bytes_scanned, 0);
        assert_eq!(f.calls, 0);
    }
}
