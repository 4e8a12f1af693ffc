//! Logical-object layouts: the striping address math and the redundancy
//! rule, stated once: a layout's components are its
//! [`slots`](Layout::slots), in one order, and a protected slot is the
//! XOR of its [`sources`](Layout::sources) — one source is an exact copy
//! (a mirror and its primary), several are parity math. [`xor_read`] is
//! the one read of that XOR: a degraded read returns it, a parity write
//! folds new data into it, rebuild writes it to a spare, scrub compares
//! and rewrites it. A component is a plain [`FileHandle`], so the fleet
//! creates it, mints for it and revokes it as it does a file's object.

use nasd_fm::{DriveEndpoint, FileHandle, FmError};
use nasd_proto::{Capability, DriveId, Rights};
use std::borrow::Borrow;

/// Name of a Cheops logical object (the "second level of objects").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalObjectId(pub u64);

impl std::fmt::Display for LogicalObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lobj-{}", self.0)
    }
}

/// One physical NASD object backing part of a logical object.
pub type Component = FileHandle;

/// Redundancy scheme of a logical object. "Redundancy and striping are
/// done within the objects accessible with the client's set of
/// capabilities, not the physical disk addresses."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redundancy {
    /// Striping only (RAID 0).
    None,
    /// Each column mirrored on a second drive (RAID 1+0).
    Mirrored,
    /// One dedicated parity component XORing all data columns (RAID 4
    /// over objects): survives the loss of any single column at the cost
    /// of read-modify-write on every update.
    Parity,
}

/// One stripe column: a primary component and an optional mirror.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Column {
    /// Primary copy.
    pub primary: Component,
    /// Mirror copy (for [`Redundancy::Mirrored`]).
    pub mirror: Option<Component>,
}

/// The full layout of a logical object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Stripe unit in bytes.
    pub stripe_unit: u64,
    /// Stripe columns, one per drive used.
    pub columns: Vec<Column>,
    /// Redundancy scheme.
    pub redundancy: Redundancy,
    /// Dedicated parity component (for [`Redundancy::Parity`]): byte `i`
    /// of the parity object is the XOR of byte `i` of every column's
    /// component.
    pub parity: Option<Component>,
}

/// Names one component position inside a [`Layout`], independent of the
/// physical [`Component`] currently occupying it. Storage management
/// (rebuild onto a hot spare) swaps the component behind a slot without
/// disturbing the striping math.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComponentSlot {
    /// The primary copy of column `i`.
    Primary(usize),
    /// The mirror copy of column `i`.
    Mirror(usize),
    /// The dedicated parity component.
    Parity,
}

impl ComponentSlot {
    /// Whether the slot holds redundancy (a mirror, parity) rather than a
    /// stripe column: the columns are authoritative when the two disagree.
    #[must_use]
    pub fn is_redundant(self) -> bool {
        !matches!(self, ComponentSlot::Primary(_))
    }
}

impl std::fmt::Display for ComponentSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComponentSlot::Primary(i) => write!(f, "primary[{i}]"),
            ComponentSlot::Mirror(i) => write!(f, "mirror[{i}]"),
            ComponentSlot::Parity => write!(f, "parity"),
        }
    }
}

/// A contiguous run of a logical access on one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnRun {
    /// Column index.
    pub column: usize,
    /// Offset within the component object.
    pub local_offset: u64,
    /// Run length in bytes.
    pub len: u64,
    /// Offset of this run within the caller's buffer.
    pub buf_offset: u64,
}

impl Layout {
    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Map logical byte `offset` to `(column, local offset)`.
    #[must_use]
    pub fn locate(&self, offset: u64) -> (usize, u64) {
        let su = self.stripe_unit;
        let n = self.columns.len() as u64;
        let unit = offset / su;
        let within = offset % su;
        let column = (unit % n) as usize;
        let local = (unit / n) * su + within;
        (column, local)
    }

    /// Split a logical access `[offset, offset+len)` into per-column
    /// runs, coalescing adjacent units on the same column.
    #[must_use]
    pub fn split(&self, offset: u64, len: u64) -> Vec<ColumnRun> {
        let su = self.stripe_unit;
        let mut runs: Vec<ColumnRun> = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let within = pos % su;
            let take = (su - within).min(end - pos);
            let (column, local_offset) = self.locate(pos);
            if let Some(last) = runs.last_mut() {
                if last.column == column
                    && last.local_offset + last.len == local_offset
                    && last.buf_offset + last.len == pos - offset
                {
                    last.len += take;
                    pos += take;
                    continue;
                }
            }
            runs.push(ColumnRun {
                column,
                local_offset,
                len: take,
                buf_offset: pos - offset,
            });
            pos += take;
        }
        runs
    }

    /// The component currently occupying `slot`, if the slot exists in
    /// this layout.
    #[must_use]
    pub fn component(&self, slot: ComponentSlot) -> Option<Component> {
        self.slots().find_map(|(s, c)| (s == slot).then_some(c))
    }

    /// Replace the component behind `slot` with `new`. Returns `false`
    /// (and changes nothing) when the slot does not exist — a mirror slot
    /// on an unmirrored column, a column index past the width, or the
    /// parity slot of a layout without parity.
    pub(crate) fn set_component(&mut self, slot: ComponentSlot, new: Component) -> bool {
        let place = match slot {
            ComponentSlot::Primary(i) => self.columns.get_mut(i).map(|c| &mut c.primary),
            ComponentSlot::Mirror(i) => self.columns.get_mut(i).and_then(|c| c.mirror.as_mut()),
            ComponentSlot::Parity => self.parity.as_mut(),
        };
        place.map(|held| *held = new).is_some()
    }

    /// Every component of the layout with the slot it occupies, in the
    /// one enumeration order: `Primary(0)`, `Mirror(0)`, `Primary(1)`, …,
    /// `Parity`. `Open`'s capability vector travels in this order.
    pub fn slots(&self) -> impl Iterator<Item = (ComponentSlot, Component)> + '_ {
        let columns = self.columns.iter().enumerate().flat_map(|(i, col)| {
            let mirror = col.mirror.map(|m| (ComponentSlot::Mirror(i), m));
            std::iter::once((ComponentSlot::Primary(i), col.primary)).chain(mirror)
        });
        columns.chain(self.parity.map(|p| (ComponentSlot::Parity, p)))
    }

    /// The slots whose XOR equals `slot`, or `None` when nothing protects
    /// it (or it does not exist). A mirror and its primary are each
    /// other's single source; under parity a column is the other columns
    /// ⊕ parity, and parity is every column.
    #[must_use]
    pub fn sources(&self, slot: ComponentSlot) -> Option<Vec<ComponentSlot>> {
        let columns = || (0..self.width()).map(ComponentSlot::Primary);
        let sources: Vec<ComponentSlot> = match slot {
            ComponentSlot::Primary(i) => match self.columns.get(i)?.mirror {
                Some(_) => vec![ComponentSlot::Mirror(i)],
                None => {
                    self.parity?;
                    columns()
                        .filter(|s| *s != slot)
                        .chain([ComponentSlot::Parity])
                        .collect()
                }
            },
            ComponentSlot::Mirror(i) => {
                self.columns.get(i)?.mirror?;
                vec![ComponentSlot::Primary(i)]
            }
            ComponentSlot::Parity => {
                self.parity?;
                columns().collect()
            }
        };
        (!sources.is_empty()).then_some(sources)
    }

    /// Whether `slot` is the XOR of several sources rather than a copy of
    /// one: updating it (or a column it covers) is a read-modify-write.
    #[must_use]
    pub(crate) fn is_xor(&self, slot: ComponentSlot) -> bool {
        self.sources(slot).is_some_and(|s| s.len() > 1)
    }

    /// The redundant slots a write to `column` must also update: its
    /// mirror, the parity component.
    pub(crate) fn checks(&self, column: usize) -> impl Iterator<Item = ComponentSlot> {
        let mirror = self.columns.get(column).and_then(|c| c.mirror);
        let mirror = mirror.map(|_| ComponentSlot::Mirror(column));
        mirror
            .into_iter()
            .chain(self.parity.map(|_| ComponentSlot::Parity))
    }

    /// The rights a holder asking for `asked` gets on `slot`: a writer
    /// must also read every slot its writes read-modify-write — an
    /// XOR-maintained slot and each column it covers.
    #[must_use]
    pub(crate) fn rights(&self, slot: ComponentSlot, asked: Rights) -> Rights {
        let rmw = match slot {
            ComponentSlot::Primary(i) => self.checks(i).any(|c| self.is_xor(c)),
            _ => self.is_xor(slot),
        };
        if rmw && asked.allows(Rights::WRITE) {
            asked | Rights::READ
        } else {
            asked
        }
    }

    /// Every slot whose component lives on `drive`, with the component.
    /// Rebuild walks this list for each layout after a drive failure.
    #[must_use]
    pub fn slots_on_drive(&self, drive: DriveId) -> Vec<(ComponentSlot, Component)> {
        self.slots().filter(|(_, c)| c.drive == drive).collect()
    }

    /// Logical size implied by a column's component size: the logical
    /// index one past the last byte stored on `column` when its component
    /// holds `component_size` bytes.
    #[must_use]
    pub fn logical_size_from_component(&self, column: usize, component_size: u64) -> u64 {
        if component_size == 0 {
            return 0;
        }
        let su = self.stripe_unit;
        let n = self.columns.len() as u64;
        let last_local = component_size - 1;
        let local_unit = last_local / su;
        let within = last_local % su;
        let logical_unit = local_unit * n + column as u64;
        logical_unit * su + within + 1
    }
}

/// XOR `[offset, offset + acc.len())` of every source into `acc` and
/// return the longest extent any source held. Bytes past a source's end
/// leave `acc` alone — unwritten object space reads as zero, the XOR
/// identity — so over a zeroed `acc` one source is an exact copy (as long
/// as the extent) and several are their zero-padded XOR.
///
/// # Errors
///
/// The first source read that fails.
pub fn xor_read<C: Borrow<Capability>>(
    acc: &mut [u8],
    sources: &[(&DriveEndpoint, C)],
    offset: u64,
) -> Result<usize, FmError> {
    let mut extent = 0;
    for (ep, cap) in sources {
        let data = ep.read(cap.borrow(), offset, acc.len() as u64)?;
        let mut rest = &mut *acc;
        for seg in data.iter_slices() {
            let n = seg.len().min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            for (a, b) in head.iter_mut().zip(seg) {
                *a ^= b;
            }
            rest = tail;
        }
        extent = extent.max(data.len().min(acc.len()));
    }
    Ok(extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_proto::{ObjectId, PartitionId};

    fn layout(n: usize, su: u64) -> Layout {
        let columns = (0..n)
            .map(|i| Column {
                primary: Component {
                    drive: DriveId(i as u64 + 1),
                    partition: PartitionId(1),
                    object: ObjectId(0x100 + i as u64),
                },
                mirror: None,
            })
            .collect();
        Layout {
            stripe_unit: su,
            columns,
            redundancy: Redundancy::None,
            parity: None,
        }
    }

    /// What a write to a column must also update, and what a writer
    /// must be able to read, both follow from `sources` alone.
    #[test]
    fn checks_and_rights_follow_from_sources() {
        let spare = |object| Component {
            drive: DriveId(9),
            partition: PartitionId(1),
            object: ObjectId(object),
        };
        let mut mirrored = layout(3, 64);
        for (i, col) in mirrored.columns.iter_mut().enumerate() {
            col.mirror = Some(spare(0x200 + i as u64));
        }
        let parity = |n| Layout {
            parity: Some(spare(0x300)),
            ..layout(n, 64)
        };
        for l in [layout(3, 64), mirrored, parity(3), parity(1)] {
            for i in 0..l.width() {
                let column = ComponentSlot::Primary(i);
                let covers = |s: &ComponentSlot| {
                    s.is_redundant() && l.sources(*s).is_some_and(|src| src.contains(&column))
                };
                let covering: Vec<_> = l.slots().map(|(s, _)| s).filter(covers).collect();
                assert_eq!(l.checks(i).collect::<Vec<_>>(), covering, "{column}");
            }
            for (slot, _) in l.slots() {
                // Read-modify-write touches an XOR of several slots and the
                // columns under it; a copy of one slot is just overwritten.
                let rmw = l.is_xor(ComponentSlot::Parity)
                    && matches!(slot, ComponentSlot::Primary(_) | ComponentSlot::Parity);
                let granted = l.rights(slot, Rights::WRITE);
                assert_eq!(granted.allows(Rights::READ), rmw, "{slot}");
                assert_eq!(l.rights(slot, Rights::GETATTR), Rights::GETATTR);
            }
        }
    }

    #[test]
    fn locate_round_robins_units() {
        let l = layout(3, 100);
        assert_eq!(l.locate(0), (0, 0));
        assert_eq!(l.locate(99), (0, 99));
        assert_eq!(l.locate(100), (1, 0));
        assert_eq!(l.locate(250), (2, 50));
        assert_eq!(l.locate(300), (0, 100));
        assert_eq!(l.locate(301), (0, 101));
    }

    #[test]
    fn split_covers_exactly() {
        let l = layout(4, 512 * 1024);
        let runs = l.split(100, 3 * 512 * 1024);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 3 * 512 * 1024);
        // Buffer offsets tile the request without gaps.
        let mut sorted = runs.clone();
        sorted.sort_by_key(|r| r.buf_offset);
        let mut expect = 0;
        for r in sorted {
            assert_eq!(r.buf_offset, expect);
            expect += r.len;
        }
    }

    #[test]
    fn split_small_within_one_unit() {
        let l = layout(8, 1 << 20);
        let runs = l.split(5, 100);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].column, 0);
        assert_eq!(runs[0].local_offset, 5);
    }

    #[test]
    fn wide_access_touches_all_columns() {
        let l = layout(4, 1000);
        let runs = l.split(0, 8_000);
        let cols: std::collections::HashSet<usize> = runs.iter().map(|r| r.column).collect();
        assert_eq!(cols.len(), 4);
        // Two units per column coalesce per wrap-around... units 0..8 map
        // col 0,1,2,3,0,1,2,3; locals 0 then 1000: adjacent on the same
        // column but split in buffer space, so we get 8 runs or 4 merged
        // depending on buffer adjacency (they are not buffer-adjacent).
        assert_eq!(runs.len(), 8);
    }

    #[test]
    fn logical_size_reconstruction() {
        let l = layout(3, 100);
        // Write 0..450 logically: col0 gets units 0,3 → local 0..200 minus
        // tail: unit 3 holds logical 300..400 fully, unit 4 (col 1) holds
        // 400..450 → col1 local size 150.
        assert_eq!(l.logical_size_from_component(0, 200), 400);
        assert_eq!(l.logical_size_from_component(1, 150), 450);
        assert_eq!(l.logical_size_from_component(2, 100), 300);
        // Max across columns = logical size.
        let size = (0..3)
            .map(|c| l.logical_size_from_component(c, [200, 150, 100][c]))
            .max()
            .unwrap();
        assert_eq!(size, 450);
        assert_eq!(l.logical_size_from_component(0, 0), 0);
    }

    #[test]
    fn split_then_reassemble_identity() {
        // Property-style check: scatter bytes by split(), gather, compare.
        let l = layout(3, 64);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let offset = 37u64;
        let mut columns: Vec<Vec<u8>> = vec![vec![0; 8_192]; 3];
        for r in l.split(offset, data.len() as u64) {
            let src = &data[r.buf_offset as usize..(r.buf_offset + r.len) as usize];
            columns[r.column][r.local_offset as usize..(r.local_offset + r.len) as usize]
                .copy_from_slice(src);
        }
        let mut out = vec![0u8; data.len()];
        for r in l.split(offset, data.len() as u64) {
            let src =
                &columns[r.column][r.local_offset as usize..(r.local_offset + r.len) as usize];
            out[r.buf_offset as usize..(r.buf_offset + r.len) as usize].copy_from_slice(src);
        }
        assert_eq!(out, data);
    }
}
