//! Periodic scrubbing: walk every stripe, verify redundancy agreement,
//! repair latent errors before a failure turns them fatal.
//!
//! A slot is the XOR of its sources ([`Layout::sources`]). Each
//! redundant slot — a mirror, the parity component — is compared chunk
//! by chunk with that XOR and mismatching chunks are rewritten from it:
//! the columns are authoritative, they are what degraded reads
//! reconstruct from. Unprotected layouts have nothing to verify against
//! and are skipped.
//!
//! Each object is scrubbed under a short exclusive lease, on the layout
//! as it stands under that lease, so a racing writer's read-modify-write
//! can't read as a latent error; objects whose lease stays busy are
//! skipped and picked up by the next pass. Scrub I/O is not throttled;
//! only rebuild is (see [`crate::NasdMgmt::new`]).

use crate::config::SCRUB_CHUNK;
use crate::service::{chunks, extent, MgmtError, NasdMgmt};
use bytes::Bytes;
use nasd_cheops::{xor_read, Component, ComponentSlot, Layout, LogicalObjectId};
use nasd_proto::{ByteRange, Rights};

/// What one scrub pass found and fixed.
#[derive(Clone, Debug, Default)]
pub struct ScrubOutcome {
    /// Logical objects verified.
    pub objects: u64,
    /// Objects skipped because their lease stayed busy.
    pub busy: Vec<LogicalObjectId>,
    /// Redundancy bytes verified (per-chunk maximum of the extents
    /// compared).
    pub bytes: u64,
    /// Chunks whose redundancy disagreed with the data.
    pub mismatches: u64,
    /// Chunks rewritten to repair a mismatch.
    pub repairs: u64,
}

impl NasdMgmt {
    /// One scrub pass over every logical object.
    ///
    /// # Errors
    ///
    /// Drive I/O errors (a scrub does not run degraded: verifying
    /// redundancy needs every component reachable).
    pub fn scrub(&self) -> Result<ScrubOutcome, MgmtError> {
        let mut outcome = ScrubOutcome::default();
        let walk = self.visit_leased(
            |layout| layout.slots().any(|(slot, _)| slot.is_redundant()),
            |_, layout| {
                let mut totals = (0u64, 0u64);
                for (slot, held) in layout.slots().filter(|(slot, _)| slot.is_redundant()) {
                    self.verify_slot(layout, slot, held, &mut totals)?;
                }
                Ok(totals)
            },
        )?;
        for (id, scrubbed) in walk {
            let Some((bytes, mismatches)) = scrubbed else {
                outcome.busy.push(id);
                continue;
            };
            outcome.objects += 1;
            outcome.bytes += bytes;
            outcome.mismatches += mismatches;
            outcome.repairs += mismatches;
            self.obs.scrub_objects.inc();
            self.obs.scrub_bytes.add(bytes);
            self.obs.scrub_repairs.add(mismatches);
            if mismatches > 0 {
                self.trace(
                    "scrub-repair",
                    None,
                    format!("{id}: {mismatches} chunks repaired"),
                );
            }
        }
        Ok(outcome)
    }

    /// Compare `slot` (held by `held`) with the XOR of its sources chunk
    /// by chunk and rewrite the chunks that differ: the sources are
    /// authoritative — they are what a degraded read returns. Adds
    /// (bytes verified, chunks repaired) to `totals`.
    fn verify_slot(
        &self,
        layout: &Layout,
        slot: ComponentSlot,
        held: Component,
        totals: &mut (u64, u64),
    ) -> Result<(), MgmtError> {
        let Some(sources) = self.sources_of(layout, slot)? else {
            return Ok(());
        };
        let rights = Rights::READ | Rights::WRITE | Rights::GETATTR;
        let target = [self.fleet.mint(held, rights, ByteRange::FULL)?];
        let len = extent(&sources)?.max(extent(&target)?);
        for (offset, n) in chunks(len, SCRUB_CHUNK) {
            let mut expect = vec![0u8; n as usize];
            xor_read(&mut expect, &sources, offset)?;
            let mut actual = vec![0u8; n as usize];
            xor_read(&mut actual, &target, offset)?;
            if expect != actual {
                let [(ep, cap)] = &target;
                ep.write(cap, offset, Bytes::from(expect))?;
                totals.1 += 1;
            }
            totals.0 += n;
        }
        Ok(())
    }
}
