//! A counting, timing [`BlockDevice`] wrapper — the benchmark's view of
//! the disk layer, private to this package.

use nasd::disk::{BlockDevice, DiskError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals of one wrapped device, readable while the drive owns it.
#[derive(Debug, Default)]
pub struct DevCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// A point-in-time copy of [`DevCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevSnapshot {
    /// Block reads issued to the device.
    pub reads: u64,
    /// Block writes issued to the device.
    pub writes: u64,
    /// Bytes moved in either direction.
    pub bytes: u64,
    /// Wall time spent inside the device, nanoseconds.
    pub busy_ns: u64,
}

impl DevCounters {
    pub fn snapshot(&self) -> DevSnapshot {
        // Relaxed: statistics read after the fact; they publish nothing.
        DevSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl DevSnapshot {
    /// Activity since `earlier`.
    pub fn since(&self, earlier: &DevSnapshot) -> DevSnapshot {
        DevSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// `inner`, with every block transfer counted and timed.
#[derive(Debug)]
pub struct CountingDevice<D> {
    inner: D,
    counters: Arc<DevCounters>,
}

impl<D: BlockDevice> CountingDevice<D> {
    pub fn new(inner: D) -> (Self, Arc<DevCounters>) {
        let counters = Arc::new(DevCounters::default());
        (
            CountingDevice {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }

    fn charge(&self, started: Instant, bytes: usize) {
        let c = &self.counters;
        c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        c.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<D: BlockDevice> BlockDevice for CountingDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let t0 = Instant::now();
        let out = self.inner.read_block(block, buf);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.charge(t0, buf.len());
        out
    }

    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        let t0 = Instant::now();
        let out = self.inner.write_block(block, data);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.charge(t0, data.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd::disk::MemDisk;

    #[test]
    fn counts_and_times_every_transfer() {
        let (mut dev, counters) = CountingDevice::new(MemDisk::new(512, 8));
        let before = counters.snapshot();
        dev.write_block(1, &[7u8; 512]).unwrap();
        let mut buf = [0u8; 512];
        dev.read_block(1, &mut buf).unwrap();
        dev.read_block(2, &mut buf).unwrap();
        let d = counters.snapshot().since(&before);
        assert_eq!((d.reads, d.writes, d.bytes), (2, 1, 1536));
        assert!(d.busy_ns > 0);
        assert!(dev.read_block(99, &mut buf).is_err());
    }
}
