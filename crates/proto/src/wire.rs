//! Canonical byte encoding for protocol messages.
//!
//! NASD request digests are MACs over "the request parameters" (Figure 5),
//! which requires a canonical encoding: the same logical message must
//! always serialize to the same bytes on both the client and the drive.
//! This module provides a tiny deterministic binary format — all integers
//! big-endian, all variable-length fields length-prefixed — plus a reader
//! with explicit error reporting for the decode side.
//!
//! # Example
//!
//! ```
//! use nasd_proto::wire::{WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! w.u32(7).bytes(b"nasd");
//! let buf = w.into_vec();
//!
//! let mut r = WireReader::new(&buf);
//! assert_eq!(r.u32().unwrap(), 7);
//! assert_eq!(r.bytes().unwrap(), b"nasd");
//! assert!(r.is_empty());
//! ```

use std::fmt;

/// Error produced when decoding a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the expected field.
    Truncated {
        /// Bytes needed to decode the next field.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A discriminant or enum byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => write!(
                f,
                "truncated message: needed {needed} bytes, {remaining} remaining"
            ),
            DecodeError::BadTag { context, value } => {
                write!(f, "invalid {context} tag: {value}")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializer for the canonical format.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create an empty writer. Pre-reserves enough for a typical
    /// header-only message, so the common encode is one allocation
    /// instead of a growth cascade.
    #[must_use]
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(64),
        }
    }

    /// Create a writer with preallocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// If the field exceeds the 4 GiB wire limit — a caller bug, not
    /// reachable from network input.
    #[expect(
        clippy::expect_used,
        reason = "encode-side length guard: a >4 GiB field is a local caller bug, never network input"
    )]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("field under 4 GiB"));
        // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
        self.buf.extend_from_slice(v);
        self
    }

    /// Append raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed byte string from a scatter-gather rope,
    /// byte-identical to [`bytes`](WireWriter::bytes) of its flattened
    /// content but without materializing a flat copy first.
    ///
    /// # Panics
    ///
    /// If the rope exceeds the 4 GiB wire limit — a caller bug, not
    /// reachable from network input.
    #[expect(
        clippy::expect_used,
        reason = "encode-side length guard: a >4 GiB field is a local caller bug, never network input"
    )]
    pub fn rope(&mut self, v: &bytes::ByteRope) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("field under 4 GiB"));
        for seg in v.iter_slices() {
            // nasd-lint: allow(hot-path-copy, "serializer sink: building the contiguous wire image is the copy")
            self.buf.extend_from_slice(seg);
        }
        self
    }

    /// Current encoded length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Continue an encoding at the end of `buf`: the bytes already there
/// stay, so a caller can serialize straight into a buffer it reuses.
impl From<Vec<u8>> for WireWriter {
    fn from(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }
}

/// Deserializer for the canonical format.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wrap a buffer for reading.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read exactly `N` bytes as an array. `take` already guarantees the
    /// length, so the fallback arm is unreachable — but it is a typed
    /// error, not a panic, keeping the whole decode path panic-free.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let head = self.take(N)?;
        <[u8; N]>::try_from(head).map_err(|_| DecodeError::Truncated {
            needed: N,
            remaining: head.len(),
        })
    }

    /// Read a byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        // Saturating on 16-bit targets only; `take` rejects any length
        // beyond the buffer either way.
        let len = usize::try_from(self.u32()?).unwrap_or(usize::MAX);
        self.take(len)
    }

    /// Read `n` raw bytes (fixed-size field).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// The bytes not yet consumed, as a slice.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Error unless the buffer is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Deserializer over an owned, shared receive buffer.
///
/// The borrow-then-slice half of the zero-copy decode path: scalar and
/// fixed-size fields decode through the ordinary borrowed [`WireReader`]
/// machinery (via [`with_borrowed`](OwnedReader::with_borrowed), so no
/// decode logic is duplicated), while variable-length payloads come out
/// as O(1) [`Bytes::slice`] windows of the one receive buffer instead of
/// being re-copied.
#[derive(Debug, Clone)]
pub(crate) struct OwnedReader {
    buf: bytes::Bytes,
    pos: usize,
}

impl OwnedReader {
    /// Wrap a shared receive buffer for reading.
    #[must_use]
    pub fn new(buf: bytes::Bytes) -> Self {
        OwnedReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Run a borrowed-decode closure over the unconsumed bytes and
    /// advance past whatever it consumed. This is how nested types reuse
    /// their existing [`WireDecode`] impls against an owned buffer.
    ///
    /// # Errors
    ///
    /// Whatever the closure reports.
    pub fn with_borrowed<T>(
        &mut self,
        f: impl FnOnce(&mut WireReader<'_>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        // `pos <= len` is a structural invariant; an empty slice (never
        // a panic) is the benign answer if it were ever violated.
        let rest = self.buf.as_ref().get(self.pos..).unwrap_or(&[]);
        let mut r = WireReader::new(rest);
        let v = f(&mut r)?;
        self.pos += rest.len() - r.remaining();
        Ok(v)
    }

    /// Decode one nested value through its borrowed [`WireDecode`] impl.
    ///
    /// # Errors
    ///
    /// The nested type's decode error.
    pub fn decode<T: WireDecode>(&mut self) -> Result<T, DecodeError> {
        self.with_borrowed(T::decode)
    }

    /// Read a byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.with_borrowed(|r| r.u8())
    }

    /// Read a length-prefixed byte string as an O(1) shared slice of the
    /// receive buffer — no payload copy.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the prefix overruns the buffer.
    pub fn bytes_shared(&mut self) -> Result<bytes::Bytes, DecodeError> {
        // Saturating on 16-bit targets only; the remaining() check
        // rejects any length beyond the buffer either way.
        let len = usize::try_from(self.with_borrowed(|r| r.u32())?).unwrap_or(usize::MAX);
        if self.remaining() < len {
            return Err(DecodeError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        // `remaining() >= len` above makes this end in-bounds.
        let end = self.pos.saturating_add(len);
        let out = self.buf.slice(self.pos..end);
        self.pos = end;
        Ok(out)
    }

    /// Error unless the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }
}

thread_local! {
    /// The buffer [`WireEncode::with_wire`] encodes into.
    static WIRE_SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Types with a canonical wire encoding.
pub trait WireEncode {
    /// Append this value's canonical encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Run `f` over this value's canonical encoding, built in a
    /// per-thread buffer that every call reuses: how a MAC absorbs a
    /// message's arguments or a capability's public portion without a
    /// heap allocation per request.
    fn with_wire<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R
    where
        Self: Sized,
    {
        // Taken out of the cell while `f` runs, so a nested call
        // encodes into a fresh buffer instead of this one.
        let mut w = WireWriter::from(WIRE_SCRATCH.take());
        self.encode(&mut w);
        let out = f(w.as_slice());
        let mut buf = w.into_vec();
        buf.clear();
        WIRE_SCRATCH.set(buf);
        out
    }

    /// Size of the canonical encoding in bytes.
    fn wire_len(&self) -> usize {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.len()
    }
}

/// Types decodable from the canonical wire encoding.
pub trait WireDecode: Sized {
    /// Decode one value, consuming its bytes from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;

    /// Decode from a complete buffer, rejecting trailing bytes.
    fn from_wire(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = WireWriter::new();
        w.u8(0xab).u16(0xcdef).u32(0xdead_beef).u64(u64::MAX);
        let buf = w.into_vec();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xcdef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_errors() {
        let mut r = WireReader::new(&[1, 2]);
        let err = r.u32().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn bytes_roundtrip_and_empty() {
        let mut w = WireWriter::new();
        w.bytes(b"").bytes(b"hello");
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = WireReader::new(&[0]);
        assert_eq!(r.finish().unwrap_err(), DecodeError::TrailingBytes(1));
    }

    #[test]
    fn bogus_length_prefix_is_truncation() {
        let mut w = WireWriter::new();
        w.u32(1000); // claims 1000 bytes follow
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.bytes().unwrap_err(),
            DecodeError::Truncated { .. }
        ));
    }

    #[test]
    fn owned_reader_shares_the_receive_buffer() {
        let mut w = WireWriter::new();
        w.u8(3).bytes(b"payload bytes").u64(17);
        let buf = bytes::Bytes::from(w.into_vec());
        let mut r = OwnedReader::new(buf.clone());
        assert_eq!(r.u8().unwrap(), 3);
        let before = bytes::stats::bytes_copied();
        let payload = r.bytes_shared().unwrap();
        assert_eq!(
            bytes::stats::bytes_copied(),
            before,
            "bytes_shared must not copy the payload"
        );
        assert_eq!(&payload[..], b"payload bytes");
        // The slice is a window of the original allocation.
        assert_eq!(
            payload.as_ref().as_ptr() as usize,
            buf.as_ref().as_ptr() as usize + 5
        );
        assert_eq!(r.with_borrowed(|r| r.u64()).unwrap(), 17);
        r.finish().unwrap();
    }

    #[test]
    fn owned_reader_truncation_and_trailing() {
        let mut w = WireWriter::new();
        w.u32(100);
        let mut r = OwnedReader::new(bytes::Bytes::from(w.into_vec()));
        assert!(matches!(
            r.bytes_shared().unwrap_err(),
            DecodeError::Truncated { .. }
        ));
        let r = OwnedReader::new(bytes::Bytes::from(vec![0u8; 2]));
        assert_eq!(r.finish().unwrap_err(), DecodeError::TrailingBytes(2));
    }

    #[test]
    fn rope_write_matches_flat_bytes_write() {
        let mut rope = bytes::ByteRope::new();
        rope.push(bytes::Bytes::from(vec![1u8, 2, 3]));
        rope.push(bytes::Bytes::from(vec![4u8, 5]));
        let mut a = WireWriter::new();
        a.rope(&rope);
        let mut b = WireWriter::new();
        b.bytes(&[1, 2, 3, 4, 5]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn error_display() {
        let e = DecodeError::BadTag {
            context: "request",
            value: 99,
        };
        assert_eq!(e.to_string(), "invalid request tag: 99");
    }
}
