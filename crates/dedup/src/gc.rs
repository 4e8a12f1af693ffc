//! Mark-and-sweep garbage collection and pack compaction.
//!
//! Chunks become garbage when the last snapshot referencing them is
//! pruned. GC runs in three steps:
//!
//! 1. **Mark + sweep** — one critical section: the live set is the
//!    union of every catalogued manifest's digests plus every pinned
//!    digest (in-progress backups), and unmarked index entries are
//!    dropped. Doing both under one lock means a manifest published
//!    the instant before the sweep is always seen, and a backup in
//!    flight is protected by its pins — there is no window where a
//!    chunk is referenced but collectable.
//! 2. **Compact** — packs whose live fraction fell below half have
//!    their live frames re-appended to the drive's open pack; an
//!    entry is repointed only if it still names the old location
//!    (compare-and-swap under the lock), so racing GCs or inserts
//!    never clobber each other.
//! 3. **Reap** — packs with no live frames left *and no in-flight
//!    appends* are removed. An insert registers its target pack as
//!    in-flight (under the lock that picks the pack) before appending
//!    and deregisters only after the frame's index entry lands, so a
//!    pack that rolls closed and is fully swept mid-insert still
//!    cannot be reaped out from under the landing frame.
//!
//! Every step is idempotent and crash-restartable: a crash mid-compact
//! leaves both copies (the index still names a valid one); a crash
//! after reap but before the next index flush leaves stale index
//! entries that [`ChunkStore::open`](crate::ChunkStore::open) drops
//! when it finds their pack gone. Re-running GC converges.

use crate::error::DedupError;
use crate::index::ChunkDigest;
use crate::store::{AppendGuard, ChunkLoc, ChunkStore, PackState};
use bytes::Bytes;
use nasd_fm::FmError;
use nasd_proto::{NasdStatus, ObjectId, Rights};
use std::collections::BTreeSet;

/// Live fraction below which a pack is compacted.
const COMPACT_THRESHOLD_NUM: u64 = 1;
const COMPACT_THRESHOLD_DEN: u64 = 2;

/// What one GC pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live chunks at mark time (manifest-referenced or pinned).
    pub marked: u64,
    /// Index entries swept.
    pub swept: u64,
    /// Frame bytes dereferenced by the sweep.
    pub reclaimed_bytes: u64,
    /// Frames moved by compaction.
    pub moved: u64,
    /// Pack objects removed.
    pub packs_removed: u64,
}

impl ChunkStore {
    /// Run one full GC pass. Safe to run concurrently with backups
    /// (see module docs); re-running after any failure converges.
    pub fn gc(&self) -> Result<GcReport, DedupError> {
        let (runs, marked_c, swept_c, reclaimed_c) = self.metrics_gc();
        runs.inc();
        let mut report = GcReport::default();

        // Mark + sweep in one critical section.
        {
            let mut inner = self.inner_for_gc().lock();
            let mut live: BTreeSet<ChunkDigest> = BTreeSet::new();
            for (_, _, m) in inner.manifests.values() {
                for a in &m.archives {
                    for d in a.index.digests() {
                        live.insert(*d);
                    }
                }
            }
            for d in inner.pins.keys() {
                live.insert(*d);
            }
            report.marked = live.len() as u64;
            let dead: Vec<ChunkDigest> = inner
                .index
                .keys()
                .filter(|d| !live.contains(*d))
                .copied()
                .collect();
            for d in dead {
                if let Some(loc) = inner.index.remove(&d) {
                    report.swept += 1;
                    report.reclaimed_bytes += u64::from(loc.frame_len);
                    inner.stored = inner.stored.saturating_sub(u64::from(loc.frame_len));
                }
            }
            self.update_ratio(&inner);
        }
        marked_c.add(report.marked);
        swept_c.add(report.swept);
        reclaimed_c.add(report.reclaimed_bytes);

        // Compact low-occupancy packs, then reap empty ones.
        let candidates = self.compaction_candidates();
        for (drive, pack) in candidates {
            report.moved += self.compact_pack(drive, pack)?;
        }
        report.packs_removed = self.reap_empty_packs()?;
        Ok(report)
    }

    /// Non-open packs whose live bytes fell under the threshold.
    fn compaction_candidates(&self) -> Vec<(u32, PackState)> {
        let inner = self.inner_for_gc().lock();
        let mut out = Vec::new();
        for (di, drive_packs) in inner.packs.iter().enumerate() {
            // The last pack is the open one; never compact it.
            let Some((_open, closed)) = drive_packs.split_last() else {
                continue;
            };
            for p in closed {
                let live: u64 = inner
                    .index
                    .values()
                    .filter(|loc| loc.drive == di as u32 && loc.object == p.object)
                    .map(|loc| u64::from(loc.frame_len))
                    .sum();
                if p.covered > 0 && live * COMPACT_THRESHOLD_DEN < p.covered * COMPACT_THRESHOLD_NUM
                {
                    out.push((di as u32, *p));
                }
            }
        }
        out
    }

    /// Move the live frames of `pack` to the drive's open pack,
    /// repointing each index entry only if it still names the old
    /// location. Returns the number of frames moved.
    fn compact_pack(&self, drive: u32, pack: PackState) -> Result<u64, DedupError> {
        let victims: Vec<(ChunkDigest, ChunkLoc)> = {
            let inner = self.inner_for_gc().lock();
            inner
                .index
                .iter()
                .filter(|(_, loc)| loc.drive == drive && loc.object == pack.object)
                .map(|(d, loc)| (*d, *loc))
                .collect()
        };
        let mut moved = 0u64;
        for (digest, old) in victims {
            let (ep, src_cap) = self.access(drive, old.object, Rights::READ)?;
            let frame = ep
                .read(&src_cap, old.offset, u64::from(old.frame_len))?
                .to_vec();
            // Only verified bytes are worth moving; a frame that fails
            // to decode is dead weight and is simply left behind.
            if crate::blob::decode(&frame).is_err() {
                continue;
            }
            // The guard keeps the destination pack un-reapable until
            // the CAS below has (or has declined to) repoint the entry.
            let (dst, offset) = self.append_to_open_pack(drive, &frame)?;
            let new = ChunkLoc {
                drive,
                object: dst.object,
                offset,
                frame_len: old.frame_len,
                unc_len: old.unc_len,
            };
            let mut inner = self.inner_for_gc().lock();
            match inner.index.get_mut(&digest) {
                // CAS: repoint only if nobody moved or removed it since.
                Some(loc) if *loc == old => {
                    *loc = new;
                    moved += 1;
                }
                _ => {}
            }
            Self::cover(
                &mut inner,
                drive,
                new.object,
                new.offset + u64::from(new.frame_len),
            );
        }
        Ok(moved)
    }

    /// Remove packs no index entry references. The open pack is spared
    /// unless it is also unwritten-to garbage beyond the threshold of
    /// usefulness (i.e. fully covered and fully dead).
    fn reap_empty_packs(&self) -> Result<u64, DedupError> {
        let doomed: Vec<(u32, ObjectId)> = {
            let mut inner = self.inner_for_gc().lock();
            let inner = &mut *inner;
            let mut doomed = Vec::new();
            let index_live: BTreeSet<(u32, u64)> = inner
                .index
                .values()
                .map(|loc| (loc.drive, loc.object.0))
                .collect();
            for (di, drive_packs) in inner.packs.iter_mut().enumerate() {
                let n = drive_packs.len();
                let mut kept = Vec::with_capacity(n);
                for (pi, p) in drive_packs.drain(..).enumerate() {
                    let is_open = pi + 1 == n;
                    let dead = !index_live.contains(&(di as u32, p.object.0));
                    // A registered in-flight append means a frame may
                    // have landed without an index entry yet; the pack
                    // is off-limits until the appender settles.
                    let inflight = inner.inflight.contains_key(&(di as u32, p.object.0));
                    // Keep the open pack even when empty: inserts are
                    // racing toward it.
                    if dead && !is_open && !inflight && p.covered > 0 {
                        doomed.push((di as u32, p.object));
                    } else {
                        kept.push(p);
                    }
                }
                *drive_packs = kept;
            }
            doomed
        };
        let mut removed = 0u64;
        for (drive, object) in doomed {
            // Idempotence: the pack may already be gone if a previous
            // GC crashed between dropping it from state and removing
            // the object — open() re-adopts such packs as empty, and
            // this pass removes them again.
            match self.remove(drive, object) {
                Ok(()) => removed += 1,
                Err(DedupError::Fm(FmError::Drive(NasdStatus::NoSuchObject))) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(removed)
    }

    /// Append raw frame bytes to the drive's open pack (compaction
    /// path), returning the pack's append guard and the landing offset.
    fn append_to_open_pack(
        &self,
        drive: u32,
        frame: &[u8],
    ) -> Result<(AppendGuard<'_>, u64), DedupError> {
        let pack = self.open_pack_for_append(drive)?;
        let (ep, cap) = self.access(drive, pack.object, Rights::WRITE)?;
        let offset = ep.append(&cap, Bytes::from(frame.to_vec()))?;
        Ok((pack, offset))
    }
}

#[cfg(test)]
mod tests {
    use crate::store::{ChunkStore, StoreConfig};
    use nasd_fm::DriveFleet;
    use nasd_object::DriveConfig;
    use nasd_obs::Registry;
    use nasd_proto::{PartitionId, Rights};
    use std::sync::Arc;

    #[test]
    fn reap_spares_packs_with_inflight_appends() {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(1, DriveConfig::small(), PartitionId(1), 64 << 20).unwrap(),
        );
        let registry = Registry::new();
        let config = StoreConfig {
            pack_target_bytes: 1 << 10,
            compress: false,
        };
        let store = ChunkStore::open(Arc::clone(&fleet), config, &registry).unwrap();

        // Claim an append slot on the open pack, then roll past it so
        // it becomes a closed, fully-dead pack — exactly the state a
        // racing insert leaves between its append and its index entry.
        let guard = store.open_pack_for_append(0).unwrap();
        let victim = guard.object;
        {
            let mut session = store.pin_session();
            store.insert(&mut session, &[0xab; 2_000]).unwrap(); // fills victim past target
            store.insert(&mut session, &[0xcd; 2_000]).unwrap(); // rolls to a fresh pack
        }

        // Pins are gone, so everything sweeps; reap must still spare
        // the victim while the append slot is held...
        store.gc().unwrap();
        let (ep, cap) = store.access(0, victim, Rights::GETATTR).unwrap();
        assert!(
            ep.get_attr(&cap).is_ok(),
            "reap removed a pack with an in-flight append"
        );

        // ...and may collect it once the slot is released.
        drop(guard);
        let report = store.gc().unwrap();
        assert!(report.packs_removed >= 1);
        assert!(matches!(
            ep.get_attr(&cap),
            Err(nasd_fm::FmError::Drive(
                nasd_proto::NasdStatus::NoSuchObject
            ))
        ));
    }
}
