//! The striped tables behind the fleet's mint (`drives.rs`) and the
//! file-manager core (`core.rs`).
//!
//! Managers take their callers' requests concurrently — each runs on
//! its caller's thread — and these types are what orders them. Each is
//! split into stripes chosen by handle hash ([`nasd_proto::route_hash`]),
//! so calls about different objects rarely meet on a lock:
//!
//! * [`VersionTable`] — revocation versions, one table per fleet, so a
//!   call minting a capability always embeds the latest version,
//!   whichever manager revoked it.
//! * [`DirLocks`] — a striped directory lock table. Directory updates
//!   are read-modify-write cycles over a directory object; two calls
//!   mutating (or renaming across) the same directory must serialize.
//!   Stripes are acquired in index order (deduplicated), so multi-lock
//!   paths (cross-directory rename, directory remove) cannot deadlock.

use crate::handle::FileHandle;
use nasd_proto::{route_hash, shard_index, Version};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;

/// Number of version-table stripes (power of two).
const VERSION_STRIPES: usize = 16;
/// Number of directory-lock stripes (power of two).
const DIR_LOCK_STRIPES: usize = 64;

fn stripe_of(fh: FileHandle, stripes: usize) -> usize {
    shard_index(route_hash(fh.drive, fh.partition, fh.object), stripes)
}

/// Revocation versions for every object the fleet has revoked (absent =
/// `Version(0)`), striped to keep contention between calls low.
///
/// Stripe 0 is stored out-of-band as `first` so stripe lookup is total
/// without indexing: `shard_index` is always in range, and the
/// (unreachable) out-of-range fallback degrades to stripe 0 instead of
/// a panic on a request path.
pub(crate) struct VersionTable {
    first: Mutex<HashMap<FileHandle, Version>>,
    rest: Box<[Mutex<HashMap<FileHandle, Version>>]>,
}

impl VersionTable {
    pub(crate) fn new() -> Self {
        VersionTable {
            first: Mutex::new(HashMap::new()),
            rest: (1..VERSION_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(&self, fh: FileHandle) -> &Mutex<HashMap<FileHandle, Version>> {
        match stripe_of(fh, self.rest.len() + 1).checked_sub(1) {
            Some(i) => self.rest.get(i).unwrap_or(&self.first),
            None => &self.first,
        }
    }

    pub(crate) fn get(&self, fh: FileHandle) -> Version {
        self.stripe(fh)
            .lock()
            .get(&fh)
            .copied()
            .unwrap_or(Version(0))
    }

    pub(crate) fn insert(&self, fh: FileHandle, v: Version) {
        self.stripe(fh).lock().insert(fh, v);
    }

    pub(crate) fn remove(&self, fh: FileHandle) {
        self.stripe(fh).lock().remove(&fh);
    }
}

/// A guard over one or two directory-lock stripes, released on drop.
pub(crate) struct DirGuard<'a> {
    _first: MutexGuard<'a, ()>,
    _second: Option<MutexGuard<'a, ()>>,
}

/// Striped directory locks serializing concurrent calls' directory
/// read-modify-write cycles.
///
/// Same `first`/`rest` layout as [`VersionTable`]: stripe lookup stays
/// total with no panicking index on a request path.
pub(crate) struct DirLocks {
    first: Mutex<()>,
    rest: Box<[Mutex<()>]>,
}

impl DirLocks {
    pub(crate) fn new() -> Self {
        DirLocks {
            first: Mutex::new(()),
            rest: (1..DIR_LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    fn stripe(&self, idx: usize) -> &Mutex<()> {
        match idx.checked_sub(1) {
            Some(i) => self.rest.get(i).unwrap_or(&self.first),
            None => &self.first,
        }
    }

    /// Lock the stripe covering `dir`.
    pub(crate) fn lock(&self, dir: FileHandle) -> DirGuard<'_> {
        let idx = stripe_of(dir, self.rest.len() + 1);
        DirGuard {
            _first: self.stripe(idx).lock(),
            _second: None,
        }
    }

    /// Lock the stripes covering both `a` and `b`, in ascending stripe
    /// order (one lock when they collide) — the no-deadlock discipline
    /// for rename and directory-remove.
    pub(crate) fn lock_pair(&self, a: FileHandle, b: FileHandle) -> DirGuard<'_> {
        let stripes = self.rest.len() + 1;
        let ia = stripe_of(a, stripes);
        let ib = stripe_of(b, stripes);
        let (lo, hi) = if ia <= ib { (ia, ib) } else { (ib, ia) };
        let first = self.stripe(lo).lock();
        let second = if hi == lo {
            None
        } else {
            // nasd-lint: allow(lock-order, "distinct stripes acquired in ascending deduplicated index order; lock_pair_order_is_symmetric proves no interleaving deadlocks")
            Some(self.stripe(hi).lock())
        };
        DirGuard {
            _first: first,
            _second: second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_proto::{DriveId, ObjectId, PartitionId};

    fn fh(object: u64) -> FileHandle {
        FileHandle {
            drive: DriveId(object % 5),
            partition: PartitionId(1),
            object: ObjectId(object),
        }
    }

    #[test]
    fn version_table_defaults_to_zero_and_round_trips() {
        let t = VersionTable::new();
        assert_eq!(t.get(fh(1)), Version(0));
        t.insert(fh(1), Version(3));
        assert_eq!(t.get(fh(1)), Version(3));
        assert_eq!(t.get(fh(2)), Version(0), "stripes must not alias");
        t.remove(fh(1));
        assert_eq!(t.get(fh(1)), Version(0));
    }

    #[test]
    fn lock_pair_handles_colliding_stripes() {
        let locks = DirLocks::new();
        // Same handle → same stripe → must not self-deadlock.
        let g = locks.lock_pair(fh(7), fh(7));
        drop(g);
        // All pairs over a set of handles acquire and release cleanly.
        for a in 0..20 {
            for b in 0..20 {
                let g = locks.lock_pair(fh(a), fh(b));
                drop(g);
            }
        }
    }

    #[test]
    fn lock_pair_order_is_symmetric() {
        // (a, b) and (b, a) acquire the same stripes in the same order;
        // interleaved threads cannot deadlock. Smoke it with real threads.
        let locks = std::sync::Arc::new(DirLocks::new());
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let locks = std::sync::Arc::clone(&locks);
            threads.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let (a, b) = if t % 2 == 0 {
                        (fh(i % 9), fh(i % 7))
                    } else {
                        (fh(i % 7), fh(i % 9))
                    };
                    let g = locks.lock_pair(a, b);
                    drop(g);
                }
            }));
        }
        for th in threads {
            th.join().expect("lock stress thread panicked");
        }
    }
}
