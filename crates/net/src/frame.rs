//! Length-prefixed, tagged framing for the socket transport.
//!
//! Every message on a connection — request or reply — travels as one
//! frame:
//!
//! ```text
//! [ payload_len: u32 BE ][ tag: u64 BE ][ payload: payload_len bytes ]
//! ```
//!
//! The server echoes each request's `tag` on its reply, and the client
//! checks it: a connection carries one request at a time, so a reply
//! under any other tag means the connection is out of step. The payload
//! is the existing canonical wire encoding (`Request`/`Reply` `to_wire`
//! bytes), unchanged — the frame layer adds correlation and delimiting
//! only.
//!
//! Copy discipline: the receive path reads each frame into exactly one
//! buffer and hands it out as [`Bytes`], so decoders can take O(1)
//! slice views of it ([`Reply::from_wire_shared`]); a connection reuses
//! that buffer for its next frame once no view of it is left. The send
//! path never glues: [`FrameBuf`] carries the 12-byte header, the
//! encoded head and the payload segments as separate pieces, and
//! [`write_frames`] pushes them through a single vectored
//! [`Write::write_vectored`] call per syscall round.

use crate::rpc::RpcError;
use bytes::Bytes;
use nasd_proto::wire::WireReader;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

/// Bytes of frame header: u32 length + u64 tag.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload (64 MiB). Far above any legal
/// request/reply (object reads are capped well below this) and far
/// below an allocation that could hurt: a hostile or corrupt length
/// prefix is rejected before any buffer is sized from it.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// One received frame: correlation tag plus the complete payload as a
/// single shared buffer (decoders slice it without copying).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation tag copied back verbatim from request to reply.
    pub tag: u64,
    /// The canonical wire encoding of the message.
    pub payload: Bytes,
}

/// How a socket connection fails at the framing layer. Everything here
/// collapses onto the two-class [`RpcError`] taxonomy via
/// [`FrameError::to_rpc`] — the framing layer never invents a new error
/// vocabulary for callers to interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary — a clean
    /// shutdown, not corruption.
    Closed,
    /// The connection died mid-frame: `got` of `needed` bytes arrived.
    /// The partial bytes are discarded; a frame is all-or-nothing.
    Torn {
        /// Bytes that did arrive before the stream ended.
        got: usize,
        /// Bytes the header or length prefix promised.
        needed: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; the connection is
    /// poisoned (stream framing is lost) and must be dropped.
    Oversized(u32),
    /// An OS-level I/O failure, carried as its [`io::ErrorKind`].
    Io(io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Torn { got, needed } => {
                write!(f, "torn frame: {got} of {needed} bytes before EOF")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Map an OS error kind onto the [`RpcError`] taxonomy: deadline-ish
/// kinds are [`RpcError::TimedOut`] (the request may yet be retried on
/// the same connection), everything else means the connection is
/// unusable — [`RpcError::Disconnected`].
#[must_use]
pub fn classify_io(kind: io::ErrorKind) -> RpcError {
    match kind {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => RpcError::TimedOut,
        _ => RpcError::Disconnected,
    }
}

impl FrameError {
    /// Collapse onto the transport error taxonomy (see [`classify_io`]).
    /// `Closed`/`Torn`/`Oversized` all mean the connection cannot carry
    /// further traffic: [`RpcError::Disconnected`].
    #[must_use]
    pub fn to_rpc(&self) -> RpcError {
        match self {
            FrameError::Io(kind) => classify_io(*kind),
            FrameError::Closed | FrameError::Torn { .. } | FrameError::Oversized(_) => {
                RpcError::Disconnected
            }
        }
    }
}

/// Fill `buf` completely, classifying the three ways a stream read ends:
/// success, clean EOF before any byte (only meaningful `at_boundary`),
/// or EOF partway through (`Torn`).
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let dst = buf.get_mut(filled..).unwrap_or(&mut []);
        match r.read(dst) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Torn {
                        got: filled,
                        needed: buf.len(),
                    })
                };
            }
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Read one complete frame into a buffer of its own. The payload
/// lands in a single allocation returned as [`Bytes`], so the decoder
/// can alias it instead of copying. The transport's connections, which
/// read frame after frame, reuse one buffer instead (`RecvBuf`).
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary,
/// [`FrameError::Torn`] when the stream ends mid-frame,
/// [`FrameError::Oversized`] for a hostile length prefix, and
/// [`FrameError::Io`] for OS failures.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    RecvBuf::default().read_frame(r)
}

/// The largest receive buffer a connection keeps between frames (1 MiB,
/// well above a 64 KiB block's frame). A larger frame gets a buffer of
/// its own that is never retained.
const RETAIN_MAX: usize = 1 << 20;

/// One connection's spare receive buffer, reused frame after frame.
///
/// A frame lands in the spare only when no [`Bytes`] still views it,
/// the frame fits, and it fills at least half of it — so a payload a
/// caller holds never pins more than twice its own bytes. Otherwise
/// the frame gets a fresh, zero-filled buffer of exactly its size, and
/// the connection keeps whichever of the two buffers is the better
/// spare: the old one while it is free and at least as large, else the
/// new one if it is at most [`RETAIN_MAX`].
#[derive(Debug, Default)]
pub(crate) struct RecvBuf {
    spare: Option<Arc<[u8]>>,
}

impl RecvBuf {
    /// Read one complete frame (see [`read_frame`]), reusing the spare
    /// buffer when it is free and the right size.
    pub(crate) fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<Frame, FrameError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or(r, &mut header, true)?;
        let mut rd = WireReader::new(&header);
        // A 12-byte buffer always satisfies u32+u64 — decode cannot fail.
        let len = rd.u32().map_err(|_| FrameError::Torn {
            got: 0,
            needed: HEADER_LEN,
        })?;
        let tag = rd.u64().map_err(|_| FrameError::Torn {
            got: 4,
            needed: HEADER_LEN,
        })?;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let len = len as usize;
        let mut old = self.spare.take();
        // The spare's size, when no `Bytes` still views it.
        let free = old.as_mut().and_then(Arc::get_mut).map(|b| b.len());
        let mut buf = match old {
            Some(spare) if free.is_some_and(|cap| cap >= len && len.saturating_mul(2) >= cap) => {
                spare
            }
            old => {
                if free.is_some_and(|cap| cap >= len) {
                    self.spare = old;
                }
                // Read straight into the allocation the returned `Bytes`
                // shares: `Bytes::from(Vec)` would memcpy the whole
                // payload once more.
                std::iter::repeat_n(0u8, len).collect()
            }
        };
        // A reused spare was just found free and a fresh buffer has no
        // other owner, so this cannot fail.
        let dst = Arc::get_mut(&mut buf)
            .and_then(|b| b.get_mut(..len))
            .ok_or(FrameError::Io(io::ErrorKind::Other))?;
        read_exact_or(r, dst, false)?;
        if self.spare.is_none() && buf.len() <= RETAIN_MAX {
            self.spare = Some(Arc::clone(&buf));
        }
        Ok(Frame {
            tag,
            payload: Bytes::from_arc(buf).slice(..len),
        })
    }
}

/// An encoded frame staged for vectored transmission: header, encoded
/// head bytes, and zero or more shared payload segments, kept separate
/// so [`write_frames`] can hand them all to `writev` without gluing.
#[derive(Debug)]
pub struct FrameBuf {
    header: [u8; HEADER_LEN],
    head: Vec<u8>,
    segments: Vec<Bytes>,
}

impl FrameBuf {
    /// Stage a frame from the pieces an `encode_frame` produced. The
    /// payload length is the head plus every segment; the segments are
    /// never touched, only referenced.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the total payload exceeds
    /// [`MAX_FRAME_LEN`] — callers turn this into an error *reply*
    /// rather than sending a frame the peer would reject.
    pub fn new(tag: u64, head: Vec<u8>, segments: Vec<Bytes>) -> Result<Self, FrameError> {
        let mut total = head.len();
        for s in &segments {
            total = total.saturating_add(s.len());
        }
        let len = u32::try_from(total).map_err(|_| FrameError::Oversized(u32::MAX))?;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let mut header = [0u8; HEADER_LEN];
        if let Some(dst) = header.get_mut(..4) {
            // nasd-lint: allow(hot-path-copy, "12-byte frame header, not payload")
            dst.copy_from_slice(&len.to_be_bytes());
        }
        if let Some(dst) = header.get_mut(4..) {
            // nasd-lint: allow(hot-path-copy, "12-byte frame header, not payload")
            dst.copy_from_slice(&tag.to_be_bytes());
        }
        Ok(FrameBuf {
            header,
            head,
            segments,
        })
    }

    /// Total bytes this frame puts on the wire (header included).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let mut total = HEADER_LEN.saturating_add(self.head.len());
        for s in &self.segments {
            total = total.saturating_add(s.len());
        }
        total
    }

    /// This frame's non-empty pieces, in wire order.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        [self.header.as_slice(), self.head.as_slice()]
            .into_iter()
            .chain(self.segments.iter().map(Bytes::as_ref))
            .filter(|p| !p.is_empty())
    }
}

/// `IoSlice`s [`write_frames`] stages on the stack before it falls
/// back to the heap: a frame's header and head plus a 64 KiB cached
/// read's 8 block segments, with room to spare.
const STACK_SLICES: usize = 16;

/// Write frames with vectored I/O and flush once: every piece of every
/// frame goes out in as few syscalls as the OS allows. The transport
/// writes one frame per call; a raw peer may pipeline several.
///
/// # Errors
///
/// [`FrameError::Io`] for OS failures (a zero-length vectored write is
/// reported as `WriteZero`).
pub fn write_frames<W: Write>(w: &mut W, frames: &[FrameBuf]) -> Result<(), FrameError> {
    let pieces = || frames.iter().flat_map(FrameBuf::pieces);
    let count = pieces().count();
    let mut stack = [IoSlice::new(&[]); STACK_SLICES];
    let mut heap: Vec<IoSlice<'_>>;
    let iov = match stack.get_mut(..count) {
        Some(iov) => {
            for (slot, piece) in iov.iter_mut().zip(pieces()) {
                *slot = IoSlice::new(piece);
            }
            iov
        }
        None => {
            heap = pieces().map(IoSlice::new).collect();
            heap.as_mut_slice()
        }
    };
    write_all_slices(w, iov)?;
    w.flush().map_err(|e| FrameError::Io(e.kind()))
}

/// Drive `write_vectored` to completion, advancing past whatever each
/// call wrote.
fn write_all_slices<W: Write>(w: &mut W, mut iov: &mut [IoSlice<'_>]) -> Result<(), FrameError> {
    while !iov.is_empty() {
        match w.write_vectored(iov) {
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut iov, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call, forcing the
    /// partial-write resumption paths.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame_bytes(tag: u64, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_be_bytes());
        v.extend_from_slice(&tag.to_be_bytes());
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn roundtrip_single_frame() {
        let fb = FrameBuf::new(
            77,
            vec![1, 2, 3],
            vec![Bytes::from(vec![4, 5]), Bytes::from(vec![6])],
        )
        .unwrap();
        assert_eq!(fb.wire_len(), HEADER_LEN + 6);
        let mut wire = Vec::new();
        write_frames(&mut wire, &[fb]).unwrap();
        assert_eq!(wire, frame_bytes(77, &[1, 2, 3, 4, 5, 6]));
        let f = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(f.tag, 77);
        assert_eq!(f.payload.as_ref(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn batch_write_concatenates_frames_in_order() {
        let a = FrameBuf::new(1, vec![10], vec![]).unwrap();
        let b = FrameBuf::new(2, vec![], vec![Bytes::from(vec![20, 21])]).unwrap();
        let mut wire = Vec::new();
        write_frames(&mut wire, &[a, b]).unwrap();
        let mut expect = frame_bytes(1, &[10]);
        expect.extend_from_slice(&frame_bytes(2, &[20, 21]));
        assert_eq!(wire, expect);
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().tag, 1);
        assert_eq!(read_frame(&mut r).unwrap().tag, 2);
        assert_eq!(read_frame(&mut r), Err(FrameError::Closed));
    }

    #[test]
    fn partial_vectored_writes_resume_correctly() {
        for cap in 1..=7 {
            let a = FrameBuf::new(
                9,
                vec![1, 2, 3, 4],
                vec![
                    Bytes::from(vec![5, 6, 7]),
                    Bytes::from(vec![]),
                    Bytes::from(vec![8]),
                ],
            )
            .unwrap();
            let b = FrameBuf::new(10, vec![], vec![]).unwrap();
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            write_frames(&mut w, &[a, b]).unwrap();
            let mut expect = frame_bytes(9, &[1, 2, 3, 4, 5, 6, 7, 8]);
            expect.extend_from_slice(&frame_bytes(10, &[]));
            assert_eq!(w.out, expect, "cap {cap}");
        }
    }

    #[test]
    fn empty_payload_frame_roundtrips() {
        let fb = FrameBuf::new(0, vec![], vec![]).unwrap();
        let mut wire = Vec::new();
        write_frames(&mut wire, &[fb]).unwrap();
        let f = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(f.tag, 0);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn clean_eof_is_closed_not_torn() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }), Err(FrameError::Closed));
    }

    #[test]
    fn torn_header_reports_partial() {
        let partial: &[u8] = &[0, 0, 0, 5, 0];
        assert_eq!(
            read_frame(&mut { partial }),
            Err(FrameError::Torn { got: 5, needed: 12 })
        );
    }

    #[test]
    fn torn_payload_reports_partial() {
        let mut wire = frame_bytes(3, &[1, 2, 3, 4, 5]);
        wire.truncate(HEADER_LEN + 2); // 2 of 5 payload bytes
        assert_eq!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Torn { got: 2, needed: 5 })
        );
    }

    #[test]
    fn short_reads_accumulate() {
        /// A reader that returns one byte at a time.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match (self.0.split_first(), buf.first_mut()) {
                    (Some((b, rest)), Some(dst)) => {
                        *dst = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                    _ => Ok(0),
                }
            }
        }
        let wire = frame_bytes(42, b"hello");
        let f = read_frame(&mut OneByte(&wire)).unwrap();
        assert_eq!(f.tag, 42);
        assert_eq!(f.payload.as_ref(), b"hello");
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        wire.extend_from_slice(&0u64.to_be_bytes());
        assert_eq!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn oversized_frame_buf_rejected() {
        // Lie about nothing: an actual > MAX payload would need 64 MiB;
        // use segments summing past the cap via a shared handle instead.
        let big = Bytes::from(vec![0u8; 1 << 20]);
        let segs: Vec<Bytes> = (0..65).map(|_| big.clone()).collect();
        assert!(matches!(
            FrameBuf::new(0, vec![], segs),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn every_frame_error_classifies_onto_rpc_taxonomy() {
        // Satellite: the socket path introduces no new caller-visible
        // error vocabulary. Every FrameError collapses to TimedOut or
        // Disconnected, and every io::ErrorKind classifies.
        assert_eq!(FrameError::Closed.to_rpc(), RpcError::Disconnected);
        assert_eq!(
            FrameError::Torn { got: 1, needed: 2 }.to_rpc(),
            RpcError::Disconnected
        );
        assert_eq!(
            FrameError::Oversized(u32::MAX).to_rpc(),
            RpcError::Disconnected
        );
        assert_eq!(
            FrameError::Io(io::ErrorKind::TimedOut).to_rpc(),
            RpcError::TimedOut
        );
        assert_eq!(
            FrameError::Io(io::ErrorKind::WouldBlock).to_rpc(),
            RpcError::TimedOut
        );
        assert_eq!(
            FrameError::Io(io::ErrorKind::ConnectionReset).to_rpc(),
            RpcError::Disconnected
        );
    }

    #[test]
    fn read_frame_copies_no_payload_bytes() {
        let wire = frame_bytes(5, &[0x3c; 64 << 10]);
        let before = bytes::stats::bytes_copied();
        let f = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(bytes::stats::bytes_copied() - before, 0);
        assert_eq!(f.payload.as_ref(), &[0x3c; 64 << 10][..]);
    }

    /// Where a payload's bytes live, for telling buffers apart.
    fn addr(f: &Frame) -> usize {
        f.payload.as_ptr() as usize
    }

    #[test]
    fn a_held_payload_keeps_its_bytes_as_later_frames_arrive() {
        let mut wire = frame_bytes(1, &[0xaa; 4096]);
        wire.extend_from_slice(&frame_bytes(2, &[0xbb; 4096]));
        wire.extend_from_slice(&frame_bytes(3, &[0xcc; 4096]));
        let mut r = wire.as_slice();
        let mut recv = RecvBuf::default();
        let held = recv.read_frame(&mut r).unwrap();
        let second = recv.read_frame(&mut r).unwrap();
        drop(second);
        let third = recv.read_frame(&mut r).unwrap();
        assert_eq!(held.payload.as_ref(), &[0xaa; 4096][..]);
        assert_ne!(addr(&third), addr(&held));
        assert_eq!(third.payload.as_ref(), &[0xcc; 4096][..]);
    }

    #[test]
    fn equal_frames_reuse_one_buffer() {
        let mut wire = Vec::new();
        for tag in 0..8u8 {
            wire.extend_from_slice(&frame_bytes(u64::from(tag), &[tag; 65_600]));
        }
        let mut r = wire.as_slice();
        let mut recv = RecvBuf::default();
        let first = recv.read_frame(&mut r).unwrap();
        let at = addr(&first);
        drop(first);
        for tag in 1..8u8 {
            let f = recv.read_frame(&mut r).unwrap();
            assert_eq!(addr(&f), at, "frame {tag} landed in a new buffer");
            assert_eq!(f.payload.as_ref(), &[tag; 65_600][..]);
        }
    }

    #[test]
    fn a_small_frame_does_not_land_in_a_large_buffer() {
        let mut wire = frame_bytes(1, &[1; 65_600]);
        wire.extend_from_slice(&frame_bytes(2, &[2; 200]));
        wire.extend_from_slice(&frame_bytes(3, &[3; 65_000]));
        let mut r = wire.as_slice();
        let mut recv = RecvBuf::default();
        let large = recv.read_frame(&mut r).unwrap();
        let at = addr(&large);
        drop(large);
        let small = recv.read_frame(&mut r).unwrap();
        assert_ne!(addr(&small), at);
        assert_eq!(small.payload.as_ref(), &[2; 200][..]);
        // The small one pins only its own bytes; the large buffer is
        // still the spare, and the next large frame reuses it.
        drop(small);
        let again = recv.read_frame(&mut r).unwrap();
        assert_eq!(addr(&again), at);
        assert_eq!(again.payload.as_ref(), &[3; 65_000][..]);
    }

    #[test]
    fn a_frame_above_the_retention_bound_is_not_retained() {
        let wire = frame_bytes(1, &vec![7; RETAIN_MAX + 1]);
        let mut recv = RecvBuf::default();
        let f = recv.read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(f.payload.len(), RETAIN_MAX + 1);
        assert!(recv.spare.is_none());
        let wire = frame_bytes(2, &vec![8; RETAIN_MAX]);
        recv.read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(recv.spare.as_ref().map(|b| b.len()), Some(RETAIN_MAX));
    }

    #[test]
    fn payload_is_single_buffer_sliceable() {
        let wire = frame_bytes(1, &[9; 64]);
        let f = read_frame(&mut wire.as_slice()).unwrap();
        let view = f.payload.slice(10..20);
        assert_eq!(view.as_ref(), &[9; 10]);
    }
}
