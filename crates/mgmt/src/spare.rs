//! The hot-spare pool: drives no layout references.

use nasd_proto::DriveId;
use parking_lot::Mutex;

/// Drives held in reserve for reconstruction targets: fleet members no
/// layout references (a pool member one does is a live drive, never
/// taken, rebuilt when it dies). Taking one hands it to the rebuild
/// engine, which fills it and swaps it into the logical-object maps.
#[derive(Debug)]
pub struct SparePool {
    free: Mutex<Vec<DriveId>>,
}

impl SparePool {
    /// A pool holding `spares`.
    #[must_use]
    pub fn new(spares: Vec<DriveId>) -> Self {
        SparePool {
            free: Mutex::new(spares),
        }
    }

    /// Claim a spare outside `in_use` (lowest drive id first, for
    /// determinism), or `None` when the pool has none.
    pub fn take(&self, in_use: &[DriveId]) -> Option<DriveId> {
        let mut free = self.free.lock();
        let spares = free.iter().enumerate().filter(|(_, d)| !in_use.contains(d));
        let (idx, _) = spares.min_by_key(|(_, d)| d.0)?;
        Some(free.swap_remove(idx))
    }

    /// Return (or add) a spare to the pool.
    pub fn put(&self, drive: DriveId) {
        let mut free = self.free.lock();
        if !free.contains(&drive) {
            free.push(drive);
        }
    }

    /// Drop `drive` from the pool (it failed while in reserve).
    /// Returns whether it was present.
    pub fn remove(&self, drive: DriveId) -> bool {
        let mut free = self.free.lock();
        let before = free.len();
        free.retain(|d| *d != drive);
        free.len() != before
    }

    /// How many spares are free.
    #[must_use]
    pub fn available(&self) -> usize {
        self.free.lock().len()
    }

    /// Snapshot of the free spares, sorted by drive id.
    #[must_use]
    pub fn free(&self) -> Vec<DriveId> {
        let mut v = self.free.lock().clone();
        v.sort_by_key(|d| d.0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_deterministic_and_exhaustible() {
        let p = SparePool::new(vec![DriveId(9), DriveId(4), DriveId(7)]);
        assert_eq!(p.available(), 3);
        assert_eq!(p.take(&[]), Some(DriveId(4)), "lowest id first");
        assert_eq!(p.take(&[]), Some(DriveId(7)));
        assert_eq!(p.take(&[]), Some(DriveId(9)));
        assert_eq!(p.take(&[]), None);
        p.put(DriveId(7));
        p.put(DriveId(7));
        assert_eq!(p.available(), 1, "put is idempotent");
        assert!(p.remove(DriveId(7)));
        assert!(!p.remove(DriveId(7)));
    }

    #[test]
    fn a_member_in_use_is_never_taken() {
        let p = SparePool::new(vec![DriveId(5), DriveId(6)]);
        assert_eq!(p.take(&[DriveId(5)]), Some(DriveId(6)));
        assert_eq!(p.take(&[DriveId(5)]), None);
        assert_eq!(p.free(), vec![DriveId(5)]);
    }
}
