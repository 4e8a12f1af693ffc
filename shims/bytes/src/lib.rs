//! Offline stand-in for the `bytes` crate.
//!
//! The container this workspace builds in has no access to crates.io, so
//! the handful of external crates the NASD reproduction depends on are
//! provided as minimal local shims (see `shims/README.md`). This one
//! implements the [`Bytes`] subset the workspace uses — a cheaply
//! cloneable, immutable, contiguous byte buffer — plus two extensions the
//! zero-copy data path is built on:
//!
//! * [`ByteRope`] — a scatter-gather sequence of [`Bytes`] segments, the
//!   return type of the drive's read path. Pushing a segment, cloning,
//!   and slicing are all O(segments) bookkeeping; the payload is only
//!   memcpied when a caller explicitly flattens.
//! * [`stats`] — per-thread accounting of every payload memcpy this shim
//!   performs, so the perf harness can report bytes-copied-per-operation
//!   and CI can catch copy regressions on the data path.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

pub mod stats {
    //! Per-thread payload-copy accounting.
    //!
    //! Every operation in this shim that memcpies payload bytes (building
    //! a [`Bytes`](super::Bytes) from a `Vec`, `copy_from_slice`,
    //! `to_vec`, flattening a multi-segment [`ByteRope`](super::ByteRope))
    //! records the byte count here. Counters are thread-local so parallel
    //! test threads never see each other's traffic; the perf harness
    //! measures on a single thread.

    use std::cell::Cell;

    thread_local! {
        static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
        static COPY_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one payload memcpy of `n` bytes on this thread.
    ///
    /// Exposed so layers above the shim (e.g. the object cache filling a
    /// block from the device) can fold their own unavoidable copies into
    /// the same ledger.
    pub fn record_copy(n: usize) {
        BYTES_COPIED.with(|c| c.set(c.get() + n as u64));
        COPY_CALLS.with(|c| c.set(c.get() + 1));
    }

    /// Total payload bytes memcpied on this thread since the last reset.
    #[must_use]
    pub fn bytes_copied() -> u64 {
        BYTES_COPIED.with(Cell::get)
    }

    /// Number of payload memcpy calls on this thread since the last reset.
    #[must_use]
    pub fn copy_calls() -> u64 {
        COPY_CALLS.with(Cell::get)
    }

    /// Zero this thread's counters.
    pub fn reset() {
        BYTES_COPIED.with(|c| c.set(0));
        COPY_CALLS.with(|c| c.set(0));
    }
}

/// A cheaply cloneable, immutable byte buffer.
///
/// Backed by an `Arc<[u8]>` plus a window; `clone` and `slice` are O(1)
/// and share the underlying allocation, matching the real crate's
/// semantics for the operations this workspace performs.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation: an empty `Arc<[u8]>` from
    /// `Default` shares one static, where `Arc::from(&[][..])` would
    /// allocate a refcount header).
    #[must_use]
    pub fn new() -> Self {
        Bytes {
            data: Arc::default(),
            start: 0,
            end: 0,
        }
    }

    /// Wrap a static byte slice.
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into a fresh buffer (one memcpy, recorded in
    /// [`stats`]).
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        stats::record_copy(data.len());
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Wrap an already-shared allocation without copying.
    ///
    /// This is the zero-copy entry point the object cache uses: cache
    /// blocks live in `Arc<[u8]>` and reads hand out windows over them.
    #[must_use]
    pub fn from_arc(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Length of the buffer in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) sub-slice sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// O(1) re-slice from a `&[u8]` that borrows from this buffer, as in
    /// the real crate's `slice_ref`: the returned `Bytes` shares this
    /// buffer's allocation and windows exactly `subset`.
    ///
    /// # Panics
    ///
    /// Panics when `subset` does not lie inside `self`.
    #[must_use]
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ref().as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len(),
            "slice_ref: subset is not a sub-slice of this buffer"
        );
        let off = sub - base;
        self.slice(off..off + subset.len())
    }

    /// View as a byte slice. An inherent method (as in the real `bytes`
    /// crate) so callers resolve it without importing `AsRef`.
    #[must_use]
    #[expect(
        clippy::should_implement_trait,
        reason = "inherent, as in the real bytes crate, so callers need no AsRef import"
    )]
    pub fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy out into a `Vec<u8>` (one memcpy, recorded in [`stats`]).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        stats::record_copy(self.len());
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // `Arc::from` cannot take over the Vec's allocation (the refcount
        // header must sit inline), so this is a real memcpy — record it.
        stats::record_copy(v.len());
        let len = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref().iter().take(64) {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 64 {
            write!(f, "... {} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// A scatter-gather rope: an ordered sequence of [`Bytes`] segments
/// presented as one logical byte string.
///
/// This is what the zero-copy read path returns — each segment is an
/// O(1) window over a cache block, so a read never copies payload until
/// (unless) someone calls [`flatten`](ByteRope::flatten) or
/// [`to_vec`](ByteRope::to_vec). Equality, ordering and the `PartialEq`
/// impls against slices compare *logical content*, never segmentation, so
/// a rope that arrived in three segments equals its flat round-trip.
#[derive(Clone, Default)]
pub struct ByteRope {
    segs: Vec<Bytes>,
    len: usize,
}

impl ByteRope {
    /// An empty rope.
    #[must_use]
    pub fn new() -> Self {
        ByteRope {
            segs: Vec::new(),
            len: 0,
        }
    }

    /// An empty rope with room for `n` segments.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        ByteRope {
            segs: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// Append a segment (O(1), no payload copy). Empty segments are
    /// dropped so segment iteration never yields zero-length slices.
    pub fn push(&mut self, seg: Bytes) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segs.push(seg);
        }
    }

    /// Append all of `other`'s segments (no payload copy).
    pub fn append(&mut self, other: ByteRope) {
        self.len += other.len;
        self.segs.extend(other.segs);
    }

    /// Logical length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the rope holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying segments, in order. Never contains an empty
    /// segment.
    #[must_use]
    pub fn segments(&self) -> &[Bytes] {
        &self.segs
    }

    /// Iterate the segments as plain byte slices (cheap chained
    /// iteration; no copy).
    pub fn iter_slices(&self) -> impl Iterator<Item = &[u8]> {
        self.segs.iter().map(Bytes::as_ref)
    }

    /// Collapse to a single contiguous [`Bytes`].
    ///
    /// O(1) for an empty or single-segment rope (the segment is shared,
    /// not copied); multi-segment ropes pay exactly one memcpy of the
    /// payload, recorded in [`stats`].
    #[must_use]
    pub fn flatten(&self) -> Bytes {
        match self.segs.len() {
            0 => Bytes::new(),
            1 => self.segs[0].clone(),
            _ => {
                stats::record_copy(self.len);
                let mut out = Vec::with_capacity(self.len);
                for s in &self.segs {
                    out.extend_from_slice(s.as_ref());
                }
                let end = out.len();
                Bytes {
                    data: Arc::from(out.into_boxed_slice()),
                    start: 0,
                    end,
                }
            }
        }
    }

    /// Copy out into a `Vec<u8>` (one memcpy, recorded in [`stats`]).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        stats::record_copy(self.len);
        let mut out = Vec::with_capacity(self.len);
        for s in &self.segs {
            out.extend_from_slice(s.as_ref());
        }
        out
    }

    /// Copy this rope's bytes into the front of `dst`, returning the
    /// number of bytes written (`min(self.len(), dst.len())`). The copy
    /// is recorded in [`stats`].
    pub fn copy_to(&self, dst: &mut [u8]) -> usize {
        let mut at = 0;
        for s in &self.segs {
            if at >= dst.len() {
                break;
            }
            let n = s.len().min(dst.len() - at);
            dst[at..at + n].copy_from_slice(&s.as_ref()[..n]);
            at += n;
        }
        stats::record_copy(at);
        at
    }

    /// O(segments) logical sub-rope; segment payloads are shared, never
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len,
        };
        assert!(begin <= end && end <= self.len, "slice out of bounds");
        let mut out = ByteRope::new();
        let (mut skip, mut take) = (begin, end - begin);
        for s in &self.segs {
            if take == 0 {
                break;
            }
            if skip >= s.len() {
                skip -= s.len();
                continue;
            }
            let n = (s.len() - skip).min(take);
            out.push(s.slice(skip..skip + n));
            skip = 0;
            take -= n;
        }
        out
    }
}

impl From<Bytes> for ByteRope {
    fn from(b: Bytes) -> Self {
        let mut r = ByteRope::new();
        r.push(b);
        r
    }
}

impl From<Vec<u8>> for ByteRope {
    fn from(v: Vec<u8>) -> Self {
        ByteRope::from(Bytes::from(v))
    }
}

impl From<ByteRope> for Bytes {
    fn from(r: ByteRope) -> Self {
        r.flatten()
    }
}

impl PartialEq for ByteRope {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter_slices()
                .flatten()
                .eq(other.iter_slices().flatten())
    }
}
impl Eq for ByteRope {}

impl PartialEq<[u8]> for ByteRope {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && self.iter_slices().flatten().eq(other.iter())
    }
}

impl PartialEq<&[u8]> for ByteRope {
    fn eq(&self, other: &&[u8]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u8>> for ByteRope {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for ByteRope {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for ByteRope {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Bytes> for ByteRope {
    fn eq(&self, other: &Bytes) -> bool {
        *self == *other.as_ref()
    }
}

impl PartialEq<ByteRope> for Bytes {
    fn eq(&self, other: &ByteRope) -> bool {
        *other == *self.as_ref()
    }
}

// Debug mirrors Bytes: printable preview of the first 64 logical bytes.
impl fmt::Debug for ByteRope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter_slices().flatten().take(64) {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 64 {
            write!(f, "... {} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let b = Bytes::from_static(b"hello world");
        assert_eq!(b.len(), 11);
        assert_eq!(&b[..5], b"hello");
        assert_eq!(b, Bytes::copy_from_slice(b"hello world"));
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::from(vec![2u8, 3]));
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_bounds_checked() {
        let _ = Bytes::from(vec![1u8]).slice(0..2);
    }

    #[test]
    fn clone_and_slice_never_copy_payload() {
        let b = Bytes::from(vec![7u8; 4096]);
        let before = stats::bytes_copied();
        let c = b.clone();
        let s = b.slice(100..200);
        let r = b.slice_ref(&b[5..50]);
        assert_eq!(
            stats::bytes_copied(),
            before,
            "clone/slice/slice_ref must not memcpy the payload"
        );
        // All three views point into the same allocation.
        let base = b.as_ref().as_ptr() as usize;
        assert_eq!(c.as_ref().as_ptr() as usize, base);
        assert_eq!(s.as_ref().as_ptr() as usize, base + 100);
        assert_eq!(r.as_ref().as_ptr() as usize, base + 5);
        assert_eq!(r.len(), 45);
    }

    #[test]
    fn from_arc_is_zero_copy() {
        let arc: Arc<[u8]> = Arc::from(vec![9u8; 64].into_boxed_slice());
        let before = stats::bytes_copied();
        let b = Bytes::from_arc(Arc::clone(&arc));
        assert_eq!(stats::bytes_copied(), before);
        assert_eq!(b.as_ref().as_ptr(), arc.as_ptr());
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let other = [4u8, 5, 6];
        let hit = std::panic::catch_unwind(|| b.slice_ref(&other[..]));
        assert!(hit.is_err());
    }

    #[test]
    fn rope_push_and_content_equality() {
        let mut r = ByteRope::new();
        r.push(Bytes::from_static(b"hello "));
        r.push(Bytes::new()); // dropped
        r.push(Bytes::from_static(b"world"));
        assert_eq!(r.len(), 11);
        assert_eq!(r.segments().len(), 2);
        assert_eq!(r, b"hello world");
        assert_eq!(r, ByteRope::from(Bytes::from_static(b"hello world")));
        assert_ne!(r, b"hello worlds");
        assert_ne!(r, b"hello-world");
    }

    #[test]
    fn rope_clone_push_slice_never_copy_payload() {
        let block = Bytes::from(vec![3u8; 8192]);
        let before = stats::bytes_copied();
        let mut r = ByteRope::new();
        r.push(block.slice(0..4096));
        r.push(block.slice(4096..8192));
        let c = r.clone();
        let s = r.slice(1000..7000);
        assert_eq!(stats::bytes_copied(), before);
        assert_eq!(c.len(), 8192);
        assert_eq!(s.len(), 6000);
        // Sliced segments still point into the original block.
        let base = block.as_ref().as_ptr() as usize;
        assert_eq!(s.segments()[0].as_ref().as_ptr() as usize, base + 1000);
    }

    #[test]
    fn rope_flatten_single_segment_is_free() {
        let r = ByteRope::from(Bytes::from(vec![5u8; 1024]));
        let before = stats::bytes_copied();
        let flat = r.flatten();
        assert_eq!(stats::bytes_copied(), before, "1-segment flatten is O(1)");
        assert_eq!(flat.len(), 1024);
        assert_eq!(
            flat.as_ref().as_ptr(),
            r.segments()[0].as_ref().as_ptr(),
            "flatten of a single segment shares its allocation"
        );
    }

    #[test]
    fn rope_flatten_multi_segment_copies_once() {
        let mut r = ByteRope::new();
        r.push(Bytes::from(vec![1u8; 100]));
        r.push(Bytes::from(vec![2u8; 50]));
        let before = stats::bytes_copied();
        let flat = r.flatten();
        assert_eq!(stats::bytes_copied() - before, 150);
        assert_eq!(flat.len(), 150);
        assert_eq!(&flat[..100], &[1u8; 100][..]);
        assert_eq!(&flat[100..], &[2u8; 50][..]);
    }

    #[test]
    fn rope_slice_spans_segments() {
        let mut r = ByteRope::new();
        r.push(Bytes::from(vec![1u8, 2, 3]));
        r.push(Bytes::from(vec![4u8, 5]));
        r.push(Bytes::from(vec![6u8, 7, 8, 9]));
        assert_eq!(r.slice(2..7), b"\x03\x04\x05\x06\x07"[..]);
        assert_eq!(r.slice(..), r);
        assert_eq!(r.slice(4..4).len(), 0);
        assert_eq!(r.slice(8..), b"\x09"[..]);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn rope_slice_bounds_checked() {
        let _ = ByteRope::from(vec![1u8, 2]).slice(0..3);
    }

    #[test]
    fn rope_copy_to_and_to_vec() {
        let mut r = ByteRope::new();
        r.push(Bytes::from_static(b"abc"));
        r.push(Bytes::from_static(b"defg"));
        assert_eq!(r.to_vec(), b"abcdefg");
        let mut buf = [0u8; 5];
        assert_eq!(r.copy_to(&mut buf), 5);
        assert_eq!(&buf, b"abcde");
        let mut big = [9u8; 10];
        assert_eq!(r.copy_to(&mut big), 7);
        assert_eq!(&big[..8], b"abcdefg\x09");
    }

    #[test]
    fn copy_entry_points_are_recorded() {
        stats::reset();
        let _ = Bytes::copy_from_slice(b"xyzw");
        assert_eq!(stats::bytes_copied(), 4);
        let _ = Bytes::from(vec![0u8; 10]);
        assert_eq!(stats::bytes_copied(), 14);
        assert_eq!(stats::copy_calls(), 2);
        stats::reset();
        assert_eq!(stats::bytes_copied(), 0);
    }
}
