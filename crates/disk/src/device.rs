//! Functional block devices: where the bytes actually live.
//!
//! The timing plane ([`crate::DiskModel`]) answers *when*; these devices
//! answer *what*. The NASD object system stores real data through this
//! interface.

use nasd_sim::splitmix64;
use std::fmt;
use std::sync::Arc;

/// Errors from block device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// Access past the end of the device.
    OutOfRange {
        /// First block of the offending access.
        block: u64,
        /// Number of blocks in the device.
        device_blocks: u64,
    },
    /// Buffer length does not match the device block size.
    BadBufferSize {
        /// Expected length (the block size).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The (simulated) power failed: the write budget of a [`CrashDisk`]
    /// is exhausted, so this and every later write is lost without
    /// touching the media. Crash harnesses reopen the underlying shared
    /// media to model the post-reboot recovery path.
    PowerFailure,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange {
                block,
                device_blocks,
            } => write!(
                f,
                "block {block} out of range (device has {device_blocks} blocks)"
            ),
            DiskError::BadBufferSize { expected, got } => {
                write!(f, "buffer of {got} bytes, device block size is {expected}")
            }
            DiskError::PowerFailure => f.write_str("power failed: write lost"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A fixed-block storage device.
///
/// All transfers are whole blocks; layering (objects, files) is the job of
/// the systems above. Implementations must be usable behind a lock from
/// multiple threads (`Send`).
pub trait BlockDevice: Send {
    /// Size of one block in bytes.
    fn block_size(&self) -> usize;

    /// Number of blocks in the device.
    fn num_blocks(&self) -> u64;

    /// Read block `block` into `buf`.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] if `block` is past the end;
    /// [`DiskError::BadBufferSize`] if `buf` is not exactly one block.
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError>;

    /// Write `data` to block `block`.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] if `block` is past the end;
    /// [`DiskError::BadBufferSize`] if `data` is not exactly one block.
    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError>;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_blocks() * self.block_size() as u64
    }
}

/// An in-memory block device.
///
/// Blocks are allocated lazily (a fresh device of many GB costs nothing
/// until written), and read as zeros before first write — like a freshly
/// formatted disk.
///
/// # Example
///
/// ```
/// use nasd_disk::{BlockDevice, MemDisk};
/// let mut d = MemDisk::new(4096, 1024);
/// let mut buf = vec![0u8; 4096];
/// d.read_block(7, &mut buf)?; // zeros before first write
/// assert!(buf.iter().all(|&b| b == 0));
/// d.write_block(7, &vec![0xab; 4096])?;
/// d.read_block(7, &mut buf)?;
/// assert!(buf.iter().all(|&b| b == 0xab));
/// # Ok::<(), nasd_disk::DiskError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemDisk {
    block_size: usize,
    num_blocks: u64,
    // Arc'd blocks make cloning a device (e.g. for snapshots in tests)
    // cheap. A block write copies into the stored block when no clone
    // shares it, and into a fresh one (copy-on-write) when one does.
    blocks: std::collections::HashMap<u64, Arc<[u8]>>,
}

impl MemDisk {
    /// Create a device of `num_blocks` blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize, num_blocks: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        MemDisk {
            block_size,
            num_blocks,
            blocks: std::collections::HashMap::new(),
        }
    }

    /// Number of blocks actually materialized (diagnostic).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn check(&self, block: u64, buf_len: usize) -> Result<(), DiskError> {
        if block >= self.num_blocks {
            return Err(DiskError::OutOfRange {
                block,
                device_blocks: self.num_blocks,
            });
        }
        if buf_len != self.block_size {
            return Err(DiskError::BadBufferSize {
                expected: self.block_size,
                got: buf_len,
            });
        }
        Ok(())
    }
}

impl BlockDevice for MemDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.check(block, buf.len())?;
        match self.blocks.get(&block) {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.check(block, data.len())?;
        match self.blocks.get_mut(&block) {
            Some(stored) => match Arc::get_mut(stored) {
                Some(bytes) => bytes.copy_from_slice(data),
                None => *stored = Arc::from(data),
            },
            None => {
                self.blocks.insert(block, Arc::from(data));
            }
        }
        Ok(())
    }
}

/// A cloneable handle to one shared underlying device.
///
/// Every clone reads and writes the *same* media. This is how a test
/// harness models the difference between a drive's controller and its
/// platters: the controller (a `NasdDrive` owning a `SharedDisk` clone)
/// can crash and be rebuilt, while the harness retains another clone of
/// the same media to remount from — data written before the crash is
/// still there, dirty state that never reached the device is not.
///
/// # Example
///
/// ```
/// use nasd_disk::{BlockDevice, MemDisk, SharedDisk};
/// let media = SharedDisk::new(MemDisk::new(512, 64));
/// let mut controller = media.clone();
/// controller.write_block(3, &[7u8; 512])?;
/// drop(controller); // "crash": the controller instance goes away
/// let mut buf = [0u8; 512];
/// media.read_block(3, &mut buf)?; // the media survived
/// assert_eq!(buf[0], 7);
/// # Ok::<(), nasd_disk::DiskError>(())
/// ```
#[derive(Clone)]
pub struct SharedDisk {
    inner: Arc<parking_lot::RwLock<MemDisk>>,
}

impl SharedDisk {
    /// Wrap `disk` so clones of this handle share its blocks.
    #[must_use]
    pub fn new(disk: MemDisk) -> Self {
        SharedDisk {
            inner: Arc::new(parking_lot::RwLock::new(disk)),
        }
    }

    /// Number of blocks actually materialized (diagnostic).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.inner.read().resident_blocks()
    }
}

impl BlockDevice for SharedDisk {
    fn block_size(&self) -> usize {
        self.inner.read().block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.read().num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.read().read_block(block, buf)
    }

    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write().write_block(block, data)
    }
}

impl fmt::Debug for SharedDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.read();
        f.debug_struct("SharedDisk")
            .field("block_size", &d.block_size())
            .field("num_blocks", &d.num_blocks())
            .field("resident", &d.resident_blocks())
            .finish()
    }
}

/// A power-failure fault wrapper: the first `budget` writes reach the
/// inner device, then the power "fails".
///
/// The write that hits the budget either vanishes entirely (the default)
/// or — in torn mode — lands *partially*: a seeded prefix of the new
/// bytes over the old block contents, modelling a sector written halfway
/// when the power dropped. Every write from the crash point on fails
/// with [`DiskError::PowerFailure`] without touching media. Reads keep
/// working (the harness usually reopens a clone of the shared media
/// instead).
///
/// An unarmed `CrashDisk` passes everything through and just counts
/// writes — run the workload once unarmed to learn the total write count
/// `W`, then sweep `budget` over `0..W` to kill the drive at every
/// possible disk write.
///
/// # Example
///
/// ```
/// use nasd_disk::{BlockDevice, CrashDisk, DiskError, MemDisk};
/// let mut d = CrashDisk::new(MemDisk::new(512, 8), 42);
/// d.arm(1, false); // one write survives, then the power fails
/// d.write_block(0, &[1u8; 512])?;
/// assert_eq!(d.write_block(1, &[2u8; 512]), Err(DiskError::PowerFailure));
/// assert!(d.tripped());
/// # Ok::<(), nasd_disk::DiskError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrashDisk<D> {
    inner: D,
    seed: u64,
    /// Complete writes allowed before the power fails; `None` = never.
    budget: Option<u64>,
    /// Whether the crash-point write is torn (partial sector) instead of
    /// dropped whole.
    torn: bool,
    /// The one write that fails transiently: the attempt after this many
    /// completed writes. The power stays on.
    transient: Option<u64>,
    writes: u64,
    tripped: bool,
}

impl<D: BlockDevice> CrashDisk<D> {
    /// Wrap `inner`, unarmed: all writes pass through and are counted.
    #[must_use]
    pub fn new(inner: D, seed: u64) -> Self {
        CrashDisk {
            inner,
            seed,
            budget: None,
            torn: false,
            transient: None,
            writes: 0,
            tripped: false,
        }
    }

    /// Arm the crash: after `budget` more successful writes the power
    /// fails. With `torn`, the failing write lands partially (a seeded
    /// prefix of the new bytes); without, it is dropped whole.
    pub fn arm(&mut self, budget: u64, torn: bool) {
        self.budget = Some(budget);
        self.torn = torn;
        self.tripped = false;
    }

    /// Fail exactly one write, dropped whole: the attempt made after
    /// `completed` writes have reached the device. Later writes go
    /// through (until an [armed](Self::arm) crash point, which counts
    /// completed writes only).
    pub fn fail_once(&mut self, completed: u64) {
        self.transient = Some(completed);
    }

    /// Writes that fully reached the inner device so far.
    #[must_use]
    pub fn writes_completed(&self) -> u64 {
        self.writes
    }

    /// Whether the armed crash point has been hit.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The wrapped device.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwrap the inner device.
    #[must_use]
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for CrashDisk<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.read_block(block, buf)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "crash-injection harness: `keep` is `% bs` so both slices stay inside the bs-length buffers"
    )]
    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        if self.transient == Some(self.writes) && !self.tripped {
            self.transient = None;
            return Err(DiskError::PowerFailure);
        }
        match self.budget {
            None => {
                self.inner.write_block(block, data)?;
                self.writes += 1;
                Ok(())
            }
            Some(budget) if self.writes < budget && !self.tripped => {
                self.inner.write_block(block, data)?;
                self.writes += 1;
                Ok(())
            }
            Some(_) => {
                if !self.tripped && self.torn {
                    // The crash-point write lands halfway: a seeded prefix
                    // of the new bytes over the old contents — the torn
                    // sector recovery must detect and roll back.
                    let bs = self.inner.block_size();
                    if data.len() == bs && block < self.inner.num_blocks() {
                        let mut old = vec![0u8; bs];
                        self.inner.read_block(block, &mut old)?;
                        let keep = (splitmix64(self.seed ^ self.writes) as usize % bs).max(1);
                        let mut mixed = data.to_vec();
                        mixed[keep..].copy_from_slice(&old[keep..]);
                        self.inner.write_block(block, &mixed)?;
                    }
                }
                self.tripped = true;
                Err(DiskError::PowerFailure)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_reads_zero_before_write() {
        let d = MemDisk::new(512, 8);
        let mut buf = vec![0xffu8; 512];
        d.read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(d.resident_blocks(), 0);
    }

    #[test]
    fn memdisk_roundtrip() {
        let mut d = MemDisk::new(512, 8);
        let data = vec![7u8; 512];
        d.write_block(5, &data).unwrap();
        let mut buf = vec![0u8; 512];
        d.read_block(5, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(d.resident_blocks(), 1);
        assert_eq!(d.capacity_bytes(), 4096);
    }

    #[test]
    fn memdisk_clone_never_sees_a_later_write() {
        let mut d = MemDisk::new(512, 8);
        d.write_block(2, &[1u8; 512]).unwrap();
        let snap = d.clone();
        // The first write after the clone copies; the second is in place.
        d.write_block(2, &[2u8; 512]).unwrap();
        d.write_block(2, &[3u8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        snap.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 512], "the clone keeps its bytes");
        d.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; 512]);
    }

    #[test]
    fn memdisk_bounds_and_sizes() {
        let mut d = MemDisk::new(512, 8);
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            d.read_block(8, &mut buf),
            Err(DiskError::OutOfRange { block: 8, .. })
        ));
        assert!(matches!(
            d.write_block(0, &[0u8; 100]),
            Err(DiskError::BadBufferSize {
                expected: 512,
                got: 100
            })
        ));
        let mut small = vec![0u8; 100];
        assert!(d.read_block(0, &mut small).is_err());
    }

    #[test]
    fn error_display() {
        let e = DiskError::OutOfRange {
            block: 9,
            device_blocks: 4,
        };
        assert!(e.to_string().contains("block 9"));
        let e = DiskError::BadBufferSize {
            expected: 512,
            got: 4,
        };
        assert!(e.to_string().contains("512"));
        assert!(DiskError::PowerFailure.to_string().contains("power"));
    }

    #[test]
    fn crash_disk_unarmed_passes_through_and_counts() {
        let mut d = CrashDisk::new(MemDisk::new(512, 8), 1);
        for b in 0..4u64 {
            d.write_block(b, &vec![b as u8; 512]).unwrap();
        }
        assert_eq!(d.writes_completed(), 4);
        assert!(!d.tripped());
        let mut buf = vec![0u8; 512];
        d.read_block(3, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn crash_disk_drops_write_at_budget() {
        let mut d = CrashDisk::new(MemDisk::new(512, 8), 1);
        d.arm(2, false);
        d.write_block(0, &[1u8; 512]).unwrap();
        d.write_block(1, &[2u8; 512]).unwrap();
        // Third write hits the budget: dropped whole, media untouched.
        assert_eq!(d.write_block(2, &[3u8; 512]), Err(DiskError::PowerFailure));
        assert!(d.tripped());
        let mut buf = vec![0xffu8; 512];
        d.read_block(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // All later writes fail too, without touching media.
        assert_eq!(d.write_block(0, &[9u8; 512]), Err(DiskError::PowerFailure));
        d.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert_eq!(d.writes_completed(), 2);
    }

    #[test]
    fn crash_disk_torn_write_is_partial() {
        let mut d = CrashDisk::new(MemDisk::new(512, 8), 0xC0FFEE);
        d.write_block(0, &[0xaau8; 512]).unwrap();
        d.arm(0, true);
        assert_eq!(
            d.write_block(0, &[0xbbu8; 512]),
            Err(DiskError::PowerFailure)
        );
        let mut buf = vec![0u8; 512];
        d.read_block(0, &mut buf).unwrap();
        // Some seeded prefix is new, the rest is old — a genuine tear.
        let keep = buf.iter().take_while(|&&b| b == 0xbb).count();
        assert!(keep >= 1, "at least one new byte must land");
        assert!(buf[keep..].iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn crash_disk_fails_one_write_and_lets_later_ones_through() {
        let mut d = CrashDisk::new(MemDisk::new(512, 8), 3);
        d.fail_once(1);
        d.arm(2, false);
        d.write_block(0, &[1u8; 512]).unwrap();
        assert_eq!(d.write_block(1, &[2u8; 512]), Err(DiskError::PowerFailure));
        assert!(!d.tripped(), "a transient fault is not the crash");
        let mut buf = vec![0xffu8; 512];
        d.read_block(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "dropped whole");
        d.write_block(1, &[2u8; 512]).unwrap();
        assert_eq!(d.write_block(2, &[3u8; 512]), Err(DiskError::PowerFailure));
        assert!(d.tripped());
        assert_eq!(d.writes_completed(), 2);
    }

    #[test]
    fn crash_disk_budget_zero_fails_first_write() {
        let mut d = CrashDisk::new(MemDisk::new(512, 8), 7);
        d.arm(0, false);
        assert_eq!(d.write_block(0, &[1u8; 512]), Err(DiskError::PowerFailure));
        assert_eq!(d.writes_completed(), 0);
    }
}
