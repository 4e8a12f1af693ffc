//! Online reconstruction of a failed drive onto a hot spare.
//!
//! The rebuild state machine, per failed drive:
//!
//! 1. claim a spare from the pool (`Failed → Rebuilding`, recorded in
//!    the manager so operators and the chaos suite can watch),
//! 2. snapshot every layout and walk the slots living on the dead
//!    drive; for each, under an exclusive lease on the logical object:
//!    write the XOR of the slot's sources (the mirror twin, or the
//!    surviving columns ⊕ parity) into a fresh object on the spare —
//!    chunked, throttled through the rebuild [`nasd_net::RatePacer`] —
//!    then `swap_component` the layout slot to the new component (the
//!    map swap is atomic under the manager's state lock; an `Open`
//!    sees either the old component or the new one, never a torn
//!    layout),
//! 3. `Rebuilding → Rebuilt` once no layout references the drive.
//!
//! A reconstructed column's exact pre-failure length is unrecoverable
//! (the failed drive held it); the engine rebuilds `max(survivor
//! sizes)` bytes instead. Bytes past the true length XOR to zero, and
//! all-zero chunks are skipped on write, so the spare's object reads
//! back byte-identical: unwritten object space reads as zero.

use crate::config::REBUILD_CHUNK;
use crate::service::{chunks, extent, MgmtError, NasdMgmt};
use bytes::Bytes;
use nasd_cheops::{xor_read, ComponentSlot, Layout, LogicalObjectId, RepairPhase};
use nasd_fm::FmError;
use nasd_proto::{ByteRange, DriveId, Rights};

/// What happened to one layout slot during a rebuild.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotFate {
    /// Reconstructed onto the spare and swapped into the map.
    Rebuilt {
        /// Bytes written to the spare (all-zero chunks skipped).
        bytes: u64,
    },
    /// Unprotected data (`Redundancy::None`, or a column with no
    /// mirror): nothing to reconstruct from. The slot keeps pointing at
    /// the dead drive and reads keep failing, exactly as before the
    /// rebuild.
    Lost,
}

/// What one drive's reconstruction did.
#[derive(Clone, Debug, Default)]
pub struct RebuildOutcome {
    /// The spare that absorbed the drive.
    pub spare: Option<DriveId>,
    /// Logical objects that had at least one slot on the drive.
    pub objects: u64,
    /// Slots reconstructed and swapped.
    pub components: u64,
    /// Bytes read from survivors per reconstructed slot, summed (the
    /// amount of reconstruction the pacer throttled).
    pub bytes: u64,
    /// Slots with no redundancy to rebuild from.
    pub lost: Vec<(LogicalObjectId, ComponentSlot)>,
    /// Objects skipped because their exclusive lease stayed busy; the
    /// drive stays `Rebuilding` and a later cycle retries.
    pub busy: Vec<LogicalObjectId>,
}

impl NasdMgmt {
    /// Reconstruct every component of `failed` onto a spare and swap
    /// the logical-object maps. Idempotent per slot: only slots still
    /// referencing `failed` are touched, so a retried rebuild resumes
    /// where the previous attempt stopped.
    ///
    /// # Errors
    ///
    /// [`MgmtError::NoSpare`] with the pool empty; survivor read
    /// failures (e.g. a second drive died — reconstruction is then
    /// impossible and the drive record stays `Rebuilding`). The claimed
    /// spare is *not* returned to the pool on error or stall: it may
    /// already hold swapped-in live components. A retry finds it in the
    /// drive's repair record and resumes onto it, touching only slots
    /// that still reference the dead drive.
    pub fn rebuild_drive(&self, failed: DriveId) -> Result<RebuildOutcome, MgmtError> {
        // Resume onto a previously assigned spare if an earlier attempt
        // stalled or failed; otherwise claim a fresh one.
        let assigned = self.mgr.repairs().into_iter().find(|r| r.drive == failed);
        let spare = match assigned.and_then(|r| r.spare) {
            Some(s) => s,
            None => self
                .spares
                .take(&self.mgr.drives_in_use())
                .ok_or(MgmtError::NoSpare)?,
        };
        self.mgr
            .set_repair(failed, RepairPhase::Rebuilding, Some(spare));
        self.obs.rebuilds_started.inc();
        self.obs.rebuild_active.add(1);
        let t0 = self.fleet.now();
        self.trace("rebuild-start", Some(failed), format!("spare {}", spare.0));
        let result = self.rebuild_onto(failed, spare);
        self.obs.rebuild_active.add(-1);
        let t1 = self.fleet.now();
        if t1 > t0 {
            self.obs.rebuild_busy.record_busy(
                nasd_obs::SimTime::from_secs(t0),
                nasd_obs::SimTime::from_secs(t1),
            );
        }
        let mut outcome = result?;
        outcome.spare = Some(spare);
        if outcome.busy.is_empty() {
            self.mgr.set_repair(failed, RepairPhase::Rebuilt, None);
            self.obs.rebuilds_completed.inc();
            self.trace(
                "rebuild-done",
                Some(failed),
                format!(
                    "{} components, {} bytes onto spare {}",
                    outcome.components, outcome.bytes, spare.0
                ),
            );
        } else {
            self.trace(
                "rebuild-stalled",
                Some(failed),
                format!("{} objects lease-busy", outcome.busy.len()),
            );
        }
        Ok(outcome)
    }

    fn rebuild_onto(&self, failed: DriveId, spare: DriveId) -> Result<RebuildOutcome, MgmtError> {
        let mut outcome = RebuildOutcome::default();
        let walk = self.visit_leased(
            |layout| !layout.slots_on_drive(failed).is_empty(),
            |id, layout| {
                let mut fates = Vec::new();
                for (slot, _) in layout.slots_on_drive(failed) {
                    fates.push((slot, self.rebuild_slot(id, layout, slot, spare)?));
                }
                Ok(fates)
            },
        )?;
        for (id, fates) in walk {
            outcome.objects += 1;
            let Some(fates) = fates else {
                outcome.busy.push(id);
                continue;
            };
            for (slot, fate) in fates {
                match fate {
                    SlotFate::Rebuilt { bytes } => {
                        outcome.components += 1;
                        outcome.bytes += bytes;
                        self.obs.rebuild_components.inc();
                    }
                    SlotFate::Lost => outcome.lost.push((id, slot)),
                }
            }
        }
        Ok(outcome)
    }

    /// Write the XOR of `slot`'s sources to a fresh object on `spare` and
    /// swap it into the map in place of the dead component.
    fn rebuild_slot(
        &self,
        id: LogicalObjectId,
        layout: &Layout,
        slot: ComponentSlot,
        spare: DriveId,
    ) -> Result<SlotFate, MgmtError> {
        let Some(sources) = self.sources_of(layout, slot)? else {
            return Ok(SlotFate::Lost);
        };
        let len = extent(&sources)?;
        let spare_ep = self.fleet.by_id(spare).ok_or(FmError::Transport)?;
        let new = self.fleet.create(spare_ep, None, 0)?;
        let (ep, cap) = self.fleet.mint(new, Rights::WRITE, ByteRange::FULL)?;
        let mut moved = 0u64;
        for (offset, n) in chunks(len, REBUILD_CHUNK) {
            // Throttle *before* the transfer: the token bucket meters
            // reconstruction progress, foreground traffic fills the gaps.
            self.rebuild_pacer.debit(n);
            let mut acc = vec![0u8; n as usize];
            xor_read(&mut acc, &sources, offset)?;
            // Unwritten object space already reads as zero.
            if acc.iter().any(|b| *b != 0) {
                ep.write(&cap, offset, Bytes::from(acc))?;
            }
            self.obs.rebuild_bytes.add(n);
            moved += n;
        }
        self.mgr.swap_component(id, slot, new)?;
        Ok(SlotFate::Rebuilt { bytes: moved })
    }
}
