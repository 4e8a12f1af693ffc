//! Real sockets: a multi-threaded TCP/UDS drive server and a pooled
//! client — the paper's drive-on-the-network (§3) made concrete.
//!
//! A connection carries one request at a time: the caller writes its
//! frame and reads the reply on its own thread, so a reply's tag is
//! checked, never demultiplexed. Requests in flight together — and
//! replies completing out of order — ride separate connections, as each
//! in-process call has its own reply slot.
//!
//! ## Server anatomy
//!
//! [`serve`] binds a [`BindAddr`] and spawns one **acceptor** thread
//! looping on `accept`, and per accepted connection one thread that
//! reads a request, runs the service function holding one of `workers`
//! permits, releases it, and writes the reply. A peer that stops reading
//! stalls only its own connection, and holds no permit while it does.
//! Graceful shutdown ([`WireServer::shutdown`]) closes every socket and
//! joins every thread.
//!
//! ## Client anatomy
//!
//! [`SocketClient`] keeps up to `pool` idle connections. A call checks
//! one out — dialing when none is idle — writes, reads its reply and
//! hands the connection back only after a clean exchange: a connection
//! that failed or timed out is closed, so a late reply can never answer
//! a later call. Because every call may dial, [`Transport::reconnects`]
//! is `true` for this transport — `Disconnected` is retryable here.
//!
//! ## Copy discipline
//!
//! Requests and replies are staged as [`FrameBuf`]s straight from
//! `encode_frame`: header + encoded head + shared payload segments,
//! written with vectored I/O. The server measures its own send path
//! ([`ServerStats::send_copies`]): for cached reads the payload bytes
//! memcpied on the send side must be zero, and the perf harness holds
//! that line.

use crate::frame::{classify_io, write_frames, FrameBuf, FrameError, RecvBuf};
use crate::rpc::RpcError;
use crate::transport::{Pending, Transport};
use bytes::stats as byte_stats;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use nasd_obs::Counter;
use nasd_proto::wire::WireWriter;
use nasd_proto::{NasdStatus, Reply, ReplyBody, Request};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a wire server listens / a client dials: TCP or a Unix-domain
/// socket path. CI uses UDS (no ports to fight over); TCP is the
/// paper's actual deployment shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// TCP endpoint. Bind with port 0 to let the OS pick; the resolved
    /// address comes back from [`serve`].
    Tcp(SocketAddr),
    /// Unix-domain socket path. [`serve`] removes a stale file first;
    /// [`WireServer::shutdown`] removes it again on the way out.
    Uds(PathBuf),
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp://{a}"),
            BindAddr::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// Process-wide counter so every [`BindAddr::uds_temp`] path is unique
/// even within one test binary.
static UDS_SEQ: AtomicU64 = AtomicU64::new(0);

impl BindAddr {
    /// Loopback TCP with an OS-assigned port.
    #[must_use]
    pub fn tcp_ephemeral() -> Self {
        BindAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// A fresh Unix-socket path under the system temp directory,
    /// unique per process and call — what tests and the CI smoke job
    /// bind to.
    #[must_use]
    pub fn uds_temp(label: &str) -> Self {
        let seq = UDS_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        BindAddr::Uds(std::env::temp_dir().join(format!("nasd-{label}-{pid}-{seq}.sock")))
    }
}

// Process-wide counts of the socket syscalls the transport makes:
// `read`s, `writev`s (a plain `write` counts as one) and `setsockopt`s.
static READS: AtomicU64 = AtomicU64::new(0);
static WRITEVS: AtomicU64 = AtomicU64::new(0);
static SETSOCKOPTS: AtomicU64 = AtomicU64::new(0);

/// Socket syscalls made by every connection of this process, clients
/// and servers alike, since it started: take the difference of two
/// readings for a window's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallCounts {
    /// `read` calls.
    pub reads: u64,
    /// `writev` (and `write`) calls.
    pub writevs: u64,
    /// `setsockopt` calls (two per timeout change: read and write).
    pub setsockopts: u64,
}

/// The process's [`SyscallCounts`] so far.
#[must_use]
pub fn syscall_counts() -> SyscallCounts {
    SyscallCounts {
        reads: READS.load(Ordering::Relaxed),
        writevs: WRITEVS.load(Ordering::Relaxed),
        setsockopts: SETSOCKOPTS.load(Ordering::Relaxed),
    }
}

/// A connected stream of either flavor. `write_vectored` MUST delegate
/// (the default `Write` impl falls back to plain `write`, which would
/// silently defeat the `writev` path this transport is built on).
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn dial(addr: &BindAddr) -> io::Result<Stream> {
        Ok(match addr {
            BindAddr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            BindAddr::Uds(p) => Stream::Uds(UnixStream::connect(p)?),
        })
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Bound each later read and write by `timeout`; `None` blocks.
    fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), RpcError> {
        // std refuses a zero timeout (the OS reads it as "block"); the
        // shortest real one stands in.
        let timeout = timeout.map(|t| t.max(Duration::from_nanos(1)));
        SETSOCKOPTS.fetch_add(2, Ordering::Relaxed);
        let set = match self {
            Stream::Tcp(s) => s
                .set_read_timeout(timeout)
                .and_then(|()| s.set_write_timeout(timeout)),
            Stream::Uds(s) => s
                .set_read_timeout(timeout)
                .and_then(|()| s.set_write_timeout(timeout)),
        };
        set.map_err(|e| classify_io(e.kind()))
    }

    /// Best-effort full shutdown — used to unblock a connection thread;
    /// a failure means the peer beat us to it.
    fn shutdown_both(&self) {
        // nasd-lint: allow(swallowed-error, "shutdown races with the peer closing first; either way the socket is dead")
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        READS.fetch_add(1, Ordering::Relaxed);
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        WRITEVS.fetch_add(1, Ordering::Relaxed);
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        WRITEVS.fetch_add(1, Ordering::Relaxed);
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Bind, returning the listener and the *resolved* address (TCP
    /// port 0 becomes the real port).
    fn bind(addr: &BindAddr) -> io::Result<(Listener, BindAddr)> {
        match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let resolved = BindAddr::Tcp(l.local_addr()?);
                Ok((Listener::Tcp(l), resolved))
            }
            BindAddr::Uds(p) => {
                // A stale socket file from a dead process would make
                // bind fail; removing a path that isn't there is fine.
                // nasd-lint: allow(swallowed-error, "stale-socket cleanup; bind below reports the real failure if any")
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                Ok((Listener::Uds(l), BindAddr::Uds(p.clone())))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }
}

/// Room reserved for a frame's encoded head. A signed request with a
/// capability — security header, capability, arguments, digest and the
/// payload's length — needs about 200 bytes; a reply head other than an
/// object list needs far less.
const HEAD_RESERVE: usize = 256;

/// Stage a message's `encode_frame` output as one frame under `tag`,
/// into a head of [`HEAD_RESERVE`] bytes and a segment list sized for
/// the `segments` payload pieces the message carries.
fn frame(
    tag: u64,
    segments: usize,
    encode: impl FnOnce(&mut WireWriter, &mut Vec<Bytes>),
) -> Result<FrameBuf, FrameError> {
    let mut head = WireWriter::with_capacity(HEAD_RESERVE);
    let mut pieces = Vec::with_capacity(segments);
    encode(&mut head, &mut pieces);
    FrameBuf::new(tag, head.into_vec(), pieces)
}

/// Payload pieces `req`'s frame carries: its data, if any.
fn request_segments(req: &Request) -> usize {
    usize::from(!req.data.is_empty())
}

/// Payload pieces `reply`'s frame carries: one per segment of its data.
fn reply_segments(reply: &Reply) -> usize {
    match &reply.body {
        ReplyBody::Data(data) => data.segments().len(),
        _ => 0,
    }
}

/// Server-side counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: Counter,
    /// Request frames successfully decoded and dispatched.
    pub frames_in: Counter,
    /// Reply frames staged for writing.
    pub frames_out: Counter,
    /// Frames whose payload failed to decode as a [`Request`] (the
    /// client gets a [`NasdStatus::BadRequest`] reply, the connection
    /// survives).
    pub decode_errors: Counter,
    /// Payload bytes memcpied on the send side (reply encode + write),
    /// measured via the thread-local copy ledger. Cached reads must
    /// keep this at zero — the perf harness asserts it.
    pub send_copies: Counter,
}

/// What every connection thread of one server shares.
struct Shared<F> {
    service: F,
    stats: Arc<ServerStats>,
    /// Room for `workers` tokens: a connection queues one before
    /// `service` runs and takes one back after, so a full queue holds
    /// further calls off.
    permits: (Sender<()>, Receiver<()>),
    /// A clone of each live connection by id, for the acceptor to close
    /// at shutdown; a connection removes its own when it ends.
    live: Mutex<HashMap<u64, Stream>>,
}

/// Frame `reply` under `tag` and write it, debiting any bytes the
/// encode or the write memcpied to the server's send-copy counter.
/// Payload segments ride as shared handles, so for data replies this
/// counts only the fixed head.
fn send_reply(
    stream: &mut Stream,
    tag: u64,
    reply: &Reply,
    stats: &ServerStats,
) -> Result<(), FrameError> {
    let before = byte_stats::bytes_copied();
    // A reply too large to frame becomes an in-band error; the error
    // reply itself is tiny and cannot fail to frame.
    let out = frame(tag, reply_segments(reply), |h, s| reply.encode_frame(h, s)).or_else(|_| {
        frame(tag, 0, |h, s| {
            Reply::error(NasdStatus::DriveError).encode_frame(h, s);
        })
    })?;
    stats.frames_out.inc();
    let sent = write_frames(stream, std::slice::from_ref(&out));
    stats
        .send_copies
        .add(byte_stats::bytes_copied().saturating_sub(before));
    sent
}

/// One server connection: read a request, run the service under a
/// permit, write the reply, repeat. Malformed payloads get an in-band
/// `BadRequest` reply; framing and write errors end the connection, and
/// so does a panicking service call, after its permit is returned: the
/// caller reads the closed connection as `Disconnected`, and every other
/// connection is served on.
fn serve_connection<F>(mut stream: Stream, shared: &Shared<F>)
where
    F: Fn(Request) -> Reply,
{
    let mut recv = RecvBuf::default();
    while let Ok(frame) = recv.read_frame(&mut stream) {
        let reply = match Request::from_wire_shared(frame.payload) {
            Ok(req) => {
                shared.stats.frames_in.inc();
                // `shared` holds both ends of the permit set, so
                // neither call can find it closed.
                if shared.permits.0.send(()).is_err() {
                    break;
                }
                let reply = panic::catch_unwind(AssertUnwindSafe(|| (shared.service)(req)));
                if shared.permits.1.recv().is_err() {
                    break;
                }
                match reply {
                    Ok(reply) => reply,
                    Err(_) => break,
                }
            }
            Err(_) => {
                shared.stats.decode_errors.inc();
                Reply::error(NasdStatus::BadRequest)
            }
        };
        if send_reply(&mut stream, frame.tag, &reply, &shared.stats).is_err() {
            break;
        }
    }
}

/// A running wire server. Dropping it (or calling
/// [`WireServer::shutdown`]) closes every connection and joins every
/// thread.
#[derive(Debug)]
pub struct WireServer {
    addr: BindAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

/// Start a wire server: bind `addr` and serve each accepted connection
/// on its own thread, running `service` on at most `workers` (clamped
/// to at least one) requests at a time.
///
/// The service function sees whole decoded [`Request`]s and returns
/// whole [`Reply`]s; framing, decoding and tagging are the server's
/// business. Drive services wrap `NasdDrive::handle` here (behind the
/// drive's own lock — the drive itself is single-threaded by design, the
/// concurrency win is overlapping I/O and framing across connections).
/// A call that panics closes only its own connection.
///
/// # Errors
///
/// Propagates the bind failure (address in use, bad path, …).
pub fn serve<F>(addr: &BindAddr, workers: usize, service: F) -> io::Result<WireServer>
where
    F: Fn(Request) -> Reply + Send + Sync + 'static,
{
    let (listener, resolved) = Listener::bind(addr)?;
    let stats = Arc::new(ServerStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        service,
        stats: Arc::clone(&stats),
        permits: bounded(workers.max(1)),
        live: Mutex::new(HashMap::new()),
    });

    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
            let mut id = 0u64;
            while let Ok(stream) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    // The wake-up dial from shutdown lands here.
                    break;
                }
                shared.stats.connections.inc();
                conn_threads.retain(|t| !t.is_finished());
                let Ok(registered) = stream.try_clone() else {
                    continue;
                };
                id += 1;
                shared.live.lock().insert(id, registered);
                let shared = Arc::clone(&shared);
                conn_threads.push(std::thread::spawn(move || {
                    serve_connection(stream, &shared);
                    shared.live.lock().remove(&id);
                }));
            }
            // Every connection registered before the loop ended is in
            // `live`: closing them returns their threads from `read`.
            for conn in shared.live.lock().values() {
                conn.shutdown_both();
            }
            for t in conn_threads {
                // A panicking connection thread is a bug, but the
                // acceptor is the last thread standing at shutdown —
                // re-raising here would abort the join sequence. The
                // chaos suite asserts on stats instead.
                // nasd-lint: allow(swallowed-error, "join of connection threads at shutdown; panics surface via missing replies in tests")
                let _ = t.join();
            }
        })
    };

    Ok(WireServer {
        addr: resolved,
        stats,
        stop,
        acceptor: Some(acceptor),
    })
}

impl WireServer {
    /// The resolved listen address (real port for TCP port-0 binds) —
    /// what clients dial.
    #[must_use]
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Live server counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful shutdown: close sockets, join all threads, remove the
    /// UDS socket file — what dropping the server does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor: it only checks the flag after accept
        // returns, so dial it once. Failure means it is already gone.
        // nasd-lint: allow(swallowed-error, "wake-up dial; if the listener is already closed the acceptor has already exited")
        let _ = Stream::dial(&self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            // nasd-lint: allow(swallowed-error, "thread join at teardown; a panicked acceptor shows up as test failure via dropped replies")
            let _ = acceptor.join();
        }
        if let BindAddr::Uds(p) = &self.addr {
            // nasd-lint: allow(swallowed-error, "socket-file cleanup; a missing file is the desired end state")
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A client connection, its spare receive buffer and the timeout last
/// set on it.
#[derive(Debug)]
struct Conn {
    stream: Stream,
    recv: RecvBuf,
    /// `None` until the first [`Conn::set_timeout`], so a freshly
    /// dialed connection always gets its timeout set once.
    timeout: Option<Option<Duration>>,
}

impl Conn {
    fn dial(addr: &BindAddr) -> io::Result<Conn> {
        Ok(Conn {
            stream: Stream::dial(addr)?,
            recv: RecvBuf::default(),
            timeout: None,
        })
    }

    /// [`Stream::set_timeout`], skipped when `timeout` is the value
    /// already set: a pooled connection reused under one timeout costs
    /// no `setsockopt` per exchange.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), RpcError> {
        if self.timeout != Some(timeout) {
            self.stream.set_timeout(timeout)?;
            self.timeout = Some(timeout);
        }
        Ok(())
    }
}

/// A client's connections to one address, idle between exchanges.
#[derive(Debug)]
struct Pool {
    addr: BindAddr,
    /// Idle connections kept; one beyond this is closed on check-in.
    keep: usize,
    idle: Mutex<Vec<Conn>>,
}

impl Pool {
    /// An idle connection, or a freshly dialed one when none is.
    fn check_out(&self) -> Result<Conn, RpcError> {
        if let Some(conn) = self.idle.lock().pop() {
            return Ok(conn);
        }
        Conn::dial(&self.addr).map_err(|e| classify_io(e.kind()))
    }

    /// Read the reply to request `tag` off `conn`; only after a clean
    /// exchange does the connection go back to the pool.
    fn finish(&self, mut conn: Conn, tag: u64) -> Result<Reply, RpcError> {
        let frame = conn
            .recv
            .read_frame(&mut conn.stream)
            .map_err(|e| e.to_rpc())?;
        if frame.tag != tag {
            return Err(RpcError::Disconnected);
        }
        let reply = Reply::from_wire_shared(frame.payload).map_err(|_| RpcError::Disconnected)?;
        let mut idle = self.idle.lock();
        if idle.len() < self.keep {
            idle.push(conn);
        }
        Ok(reply)
    }
}

/// A pooled socket client for drive traffic: the `Socket`
/// implementation of [`Transport`]`<Request, Reply>`.
///
/// Each exchange has a connection to itself; calls beyond the `pool`
/// idle connections dial their own, so [`Transport::reconnects`] is
/// `true` and the [`Channel`](crate::Channel) retry loop treats
/// `Disconnected` as retryable.
#[derive(Debug)]
pub struct SocketClient {
    pool: Arc<Pool>,
    next_tag: AtomicU64,
}

impl SocketClient {
    /// Dial `addr`, keeping up to `pool` idle connections (clamped to at
    /// least one). The first connection is established eagerly so a bad
    /// address fails here, not on the first call.
    ///
    /// # Errors
    ///
    /// The dial failure, verbatim.
    pub fn dial(addr: &BindAddr, pool: usize) -> io::Result<SocketClient> {
        let first = Conn::dial(addr)?;
        Ok(SocketClient {
            pool: Arc::new(Pool {
                addr: addr.clone(),
                keep: pool.max(1),
                idle: Mutex::new(vec![first]),
            }),
            next_tag: AtomicU64::new(1),
        })
    }

    /// The dialed address.
    #[must_use]
    pub fn addr(&self) -> &BindAddr {
        &self.pool.addr
    }

    /// Write `req` on a checked-out connection whose reads and writes
    /// `timeout` bounds; returns the connection and the request's tag.
    fn send(&self, req: &Request, timeout: Option<Duration>) -> Result<(Conn, u64), RpcError> {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let out = frame(tag, request_segments(req), |h, s| req.encode_frame(h, s))
            .map_err(|e| e.to_rpc())?;
        let mut conn = self.pool.check_out()?;
        conn.set_timeout(timeout)?;
        write_frames(&mut conn.stream, std::slice::from_ref(&out)).map_err(|e| e.to_rpc())?;
        Ok((conn, tag))
    }
}

impl Transport<Request, Reply> for SocketClient {
    fn attempt(&self, req: Request, timeout: Option<Duration>) -> Result<Reply, RpcError> {
        let (conn, tag) = self.send(&req, timeout)?;
        self.pool.finish(conn, tag)
    }

    fn call_async(&self, req: Request) -> Result<Pending<Reply>, RpcError> {
        let (conn, tag) = self.send(&req, None)?;
        let pool = Arc::clone(&self.pool);
        let mut unread = Some(conn);
        Ok(Pending::new(move |timeout| {
            // The first wait owns the exchange; a timed-out read left
            // the connection mid-frame, so it is not read again.
            let mut conn = unread.take().ok_or(RpcError::Disconnected)?;
            conn.set_timeout(timeout)?;
            pool.finish(conn, tag)
        }))
    }

    fn reconnects(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "socket"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "drives real server threads: slow services and waits for them"
)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::frame::read_frame;
    use crate::options::CallOptions;
    use crate::Connector;
    use bytes::ByteRope;
    use nasd_crypto::Sha256;
    use nasd_proto::wire::WireEncode;
    use nasd_proto::{
        Nonce, ObjectId, PartitionId, ProtectionLevel, ReplyBody, RequestBody, RequestDigest,
        SecurityHeader,
    };

    /// A write-shaped request whose payload is `data`; `mark` lands in
    /// the object id so the echo service can key behavior off it.
    fn request(mark: u64, data: Vec<u8>) -> Request {
        let len = u64::try_from(data.len()).unwrap_or(u64::MAX);
        Request {
            header: SecurityHeader {
                protection: ProtectionLevel::ArgsIntegrity,
                nonce: Nonce::new(1, mark),
            },
            capability: None,
            body: RequestBody::Write {
                partition: PartitionId(1),
                object: ObjectId(mark),
                offset: 0,
                len,
            },
            digest: RequestDigest(Sha256::digest(b"socket-test")),
            data: Bytes::from(data),
        }
    }

    /// Echo service: replies with the request payload as shared bytes.
    fn echo(req: Request) -> Reply {
        Reply::ok(ReplyBody::Data(ByteRope::from(req.data)))
    }

    fn reply_data(reply: &Reply) -> Vec<u8> {
        match &reply.body {
            ReplyBody::Data(rope) => rope.to_vec(),
            other => panic!("expected data reply, got {other:?}"),
        }
    }

    /// `req` staged as a frame under `tag`, for raw-socket peers.
    fn request_frame(tag: u64, req: &Request) -> FrameBuf {
        frame(tag, request_segments(req), |h, s| req.encode_frame(h, s)).unwrap()
    }

    fn uds_path(addr: &BindAddr) -> PathBuf {
        match addr {
            BindAddr::Uds(p) => p.clone(),
            BindAddr::Tcp(_) => panic!("expected UDS"),
        }
    }

    #[test]
    fn uds_roundtrip_echoes_payload() {
        let server = serve(&BindAddr::uds_temp("echo"), 2, echo).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        let reply = client
            .attempt(request(1, vec![0xa5; 4096]), Some(Duration::from_secs(5)))
            .unwrap();
        assert!(reply.status.is_ok());
        assert_eq!(reply_data(&reply), vec![0xa5; 4096]);
        assert_eq!(server.stats().frames_in.value(), 1);
        assert_eq!(server.stats().frames_out.value(), 1);
        server.shutdown();
    }

    #[test]
    fn tcp_roundtrip_echoes_payload() {
        let server = serve(&BindAddr::tcp_ephemeral(), 2, echo).unwrap();
        // Port 0 must have been resolved to a real port.
        match server.addr() {
            BindAddr::Tcp(a) => assert_ne!(a.port(), 0),
            BindAddr::Uds(_) => panic!("bound TCP, resolved UDS"),
        }
        let client = SocketClient::dial(server.addr(), 2).unwrap();
        for i in 0..4u64 {
            let reply = client
                .attempt(request(i, vec![0x5a; 1024]), Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(reply_data(&reply), vec![0x5a; 1024]);
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_complete_out_of_order() {
        // The service stalls requests marked `1`; others return at once.
        // Both in flight from ONE client ride two connections, and the
        // fast one must come back first — out-of-order completion.
        let service = |req: Request| {
            if req.body.object() == Some(ObjectId(1)) {
                std::thread::sleep(Duration::from_millis(150));
            }
            echo(req)
        };
        let server = serve(&BindAddr::uds_temp("pipeline"), 2, service).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        let slow = client.call_async(request(1, vec![1; 8])).unwrap();
        let fast = client.call_async(request(2, vec![2; 8])).unwrap();
        // The fast reply lands while the slow request is still parked in
        // the service; a blocked pipeline would time this out.
        let fast_reply = fast.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(reply_data(&fast_reply), vec![2; 8]);
        let slow_reply = slow.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply_data(&slow_reply), vec![1; 8]);
        server.shutdown();
    }

    #[test]
    fn socket_reply_bytes_match_in_proc_exactly() {
        // The same service reached both ways must produce byte-identical
        // wire replies — the transports may not disturb the protocol.
        let server = serve(&BindAddr::uds_temp("parity"), 1, echo).unwrap();
        let socket = Connector::new().dial(server.addr()).unwrap();
        let (rpc, _handle) = crate::spawn_service(echo);
        let in_proc = Connector::new().in_proc(rpc);
        let opts = CallOptions::blocking();
        for i in 0..8u64 {
            let req = request(i, vec![0x11 ^ (i as u8); 2048]);
            let a = socket.call_with(req.clone(), &opts).unwrap();
            let b = in_proc.call_with(req, &opts).unwrap();
            assert_eq!(a.to_wire(), b.to_wire(), "request {i}");
        }
        server.shutdown();
    }

    #[test]
    fn malformed_payload_gets_bad_request_and_connection_survives() {
        let server = serve(&BindAddr::uds_temp("garbage"), 1, echo).unwrap();
        let BindAddr::Uds(path) = server.addr().clone() else {
            panic!("expected UDS")
        };
        let mut stream = UnixStream::connect(&path).unwrap();
        // A frame whose payload is not a decodable Request.
        let garbage = FrameBuf::new(7, vec![0xff, 0xee, 0xdd], Vec::new()).unwrap();
        write_frames(&mut stream, std::slice::from_ref(&garbage)).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.tag, 7);
        let reply = Reply::from_wire_shared(frame.payload).unwrap();
        assert_eq!(reply.status, NasdStatus::BadRequest);
        assert_eq!(server.stats().decode_errors.value(), 1);
        // Same connection still serves well-formed traffic.
        let req = request(3, vec![9; 64]);
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        req.encode_frame(&mut head, &mut segments);
        let good = FrameBuf::new(8, head.into_vec(), segments).unwrap();
        write_frames(&mut stream, std::slice::from_ref(&good)).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.tag, 8);
        let reply = Reply::from_wire_shared(frame.payload).unwrap();
        assert_eq!(reply_data(&reply), vec![9; 64]);
        server.shutdown();
    }

    #[test]
    fn client_redials_after_server_restart() {
        let addr = BindAddr::uds_temp("restart");
        let server = serve(&addr, 1, echo).unwrap();
        let channel = Connector::new().dial(&addr).unwrap();
        let opts = CallOptions::blocking();
        assert!(channel.call_with(request(1, vec![1; 16]), &opts).is_ok());
        server.shutdown();
        // Dead server: the pooled connection is gone and re-dial fails.
        assert!(channel.call_with(request(2, vec![2; 16]), &opts).is_err());
        // New server on the same address: the retry loop re-dials
        // because the socket transport reconnects.
        let server = serve(&addr, 1, echo).unwrap();
        let retry = CallOptions::retry(crate::RetryPolicy::standard());
        let reply = channel.call_with(request(3, vec![3; 16]), &retry).unwrap();
        assert_eq!(reply_data(&reply), vec![3; 16]);
        server.shutdown();
    }

    #[test]
    fn shutdown_removes_socket_file_and_joins() {
        let addr = BindAddr::uds_temp("teardown");
        let server = serve(&addr, 2, echo).unwrap();
        let client = SocketClient::dial(&addr, 1).unwrap();
        client
            .attempt(request(1, vec![4; 32]), Some(Duration::from_secs(5)))
            .unwrap();
        let BindAddr::Uds(path) = addr else {
            panic!("expected UDS")
        };
        assert!(path.exists());
        server.shutdown();
        assert!(!path.exists(), "shutdown must remove the socket file");
        // Calls after shutdown fail cleanly rather than hang.
        assert!(client
            .attempt(request(2, vec![5; 32]), Some(Duration::from_secs(1)))
            .is_err());
    }

    #[test]
    fn seeded_faults_on_socket_match_in_proc_replies() {
        // Satellite: pipelining correctness under fault injection. For
        // three seeds, a fault-wrapped socket channel and a
        // fault-wrapped in-proc channel (fresh but identically seeded
        // plans) must converge to byte-identical replies under retry.
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let server = serve(&BindAddr::uds_temp("faults"), 2, echo).unwrap();
            let config = FaultConfig {
                drop: 0.2,
                duplicate: 0.1,
                delay: 0.2,
                max_delay: Duration::from_micros(200),
                drop_reply: 0.2,
            };
            let sock_plan = FaultPlan::new(seed);
            let socket = Connector::new()
                .faults(sock_plan.channel(1, config))
                .dial(server.addr())
                .unwrap();
            let (rpc, _handle) = crate::spawn_service(echo);
            let proc_plan = FaultPlan::new(seed);
            let in_proc = Connector::new()
                .faults(proc_plan.channel(1, config))
                .in_proc(rpc);
            let opts = CallOptions::retry(crate::RetryPolicy::standard());
            for i in 0..16u64 {
                let req = request(i, vec![(i as u8) | 0x40; 512]);
                let a = socket.call_with(req.clone(), &opts).unwrap();
                let b = in_proc.call_with(req, &opts).unwrap();
                assert_eq!(a.to_wire(), b.to_wire(), "seed {seed:#x} request {i}");
            }
            // Both plans consumed the same deterministic schedule.
            assert_eq!(sock_plan.trace(), proc_plan.trace(), "seed {seed:#x}");
            server.shutdown();
        }
    }

    #[test]
    fn a_peer_that_never_reads_stalls_only_its_own_connection() {
        // Every reply is 64 KiB. A raw peer asks for 32 of them and
        // reads none, so its connection thread blocks writing once the
        // socket buffer fills — while holding no permit, so even with
        // one permit another client's calls still get through.
        let big = |_req: Request| Reply::ok(ReplyBody::Data(ByteRope::from(vec![7u8; 64 << 10])));
        let server = serve(&BindAddr::uds_temp("stalled"), 1, big).unwrap();
        let mut hog = UnixStream::connect(uds_path(server.addr())).unwrap();
        let asks: Vec<FrameBuf> = (0..32u64)
            .map(|tag| request_frame(tag, &request(tag, Vec::new())))
            .collect();
        write_frames(&mut hog, &asks).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        for i in 0..10u64 {
            let reply = client
                .attempt(request(i, Vec::new()), Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(reply_data(&reply).len(), 64 << 10, "call {i}");
        }
        drop(hog);
        server.shutdown();
    }

    #[test]
    fn a_duplicate_never_overtakes_its_original() {
        // Every message is duplicated. The first copy of a message into
        // the service holds it for up to 200 ms waiting for the other: if
        // the copy were sent before the original's reply is read, it
        // would arrive on its own connection and both would be inside
        // together.
        type Copies = HashMap<ObjectId, (u32, u32)>; // (arrived, inside)
        let copies = Arc::new(Mutex::new(Copies::new()));
        let overlapped = Arc::new(AtomicBool::new(false));
        let service = {
            let (copies, overlapped) = (Arc::clone(&copies), Arc::clone(&overlapped));
            move |req: Request| {
                let mark = req.body.object().unwrap();
                let first = {
                    let mut copies = copies.lock();
                    let (arrived, inside) = copies.entry(mark).or_default();
                    *arrived += 1;
                    *inside += 1;
                    if *inside > 1 {
                        overlapped.store(true, Ordering::SeqCst);
                    }
                    *arrived == 1
                };
                for _ in 0..200 {
                    if !first || copies.lock()[&mark].0 > 1 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                copies.lock().entry(mark).or_default().1 -= 1;
                echo(req)
            }
        };
        let server = serve(&BindAddr::uds_temp("dup-order"), 2, service).unwrap();
        let config = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none()
        };
        let ch = Connector::new()
            .faults(FaultPlan::new(1).channel(1, config))
            .dial(server.addr())
            .unwrap();
        let timeout = Duration::from_secs(5);
        let reply = ch.call_with(request(1, vec![1; 8]), &CallOptions::once(timeout));
        assert_eq!(reply.map(|r| reply_data(&r)), Ok(vec![1; 8]));
        let pending = ch.call_async(request(2, vec![2; 8])).unwrap();
        assert_eq!(
            pending.wait(Some(timeout)).map(|r| reply_data(&r)),
            Ok(vec![2; 8])
        );
        // Both copies of each message arrive.
        let arrived = |mark| copies.lock().get(&ObjectId(mark)).map_or(0, |c| c.0);
        for _ in 0..500 {
            if arrived(1) == 2 && arrived(2) == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!((arrived(1), arrived(2)), (2, 2));
        assert!(
            !overlapped.load(Ordering::SeqCst),
            "a copy ran beside its original"
        );
        server.shutdown();
    }

    #[test]
    fn a_panicking_call_closes_only_its_own_connection() {
        // One permit. The call for object 1 panics: its caller must read
        // the closed connection at once, the next call must be served,
        // and shutdown must return — each wait bounded, nothing asserted
        // until the server is shut down, so a failure never hangs.
        let service = |req: Request| {
            assert_ne!(req.body.object(), Some(ObjectId(1)), "service bug");
            echo(req)
        };
        let server = serve(&BindAddr::uds_temp("panicky"), 1, service).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        let timeout = Some(Duration::from_secs(2));
        let bad = client.attempt(request(1, vec![1; 8]), timeout);
        let next = client.attempt(request(2, vec![2; 8]), timeout);
        let (done_tx, done_rx) = bounded(1);
        std::thread::spawn(move || {
            server.shutdown();
            done_tx.send(()).unwrap();
        });
        let shut_down = done_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        assert_eq!(bad.map(|r| reply_data(&r)), Err(RpcError::Disconnected));
        assert_eq!(next.map(|r| reply_data(&r)), Ok(vec![2; 8]));
        assert!(shut_down, "shutdown did not return within 5 s");
    }

    #[test]
    fn a_late_reply_never_answers_the_next_call() {
        // Request `1` outlives its attempt's timeout. The connection it
        // went out on is closed, so its reply — when the service
        // finishes — cannot be read as the answer to request `2`.
        let service = |req: Request| {
            if req.body.object() == Some(ObjectId(1)) {
                std::thread::sleep(Duration::from_millis(200));
            }
            echo(req)
        };
        let server = serve(&BindAddr::uds_temp("late"), 2, service).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        assert_eq!(
            client
                .attempt(request(1, vec![1; 8]), Some(Duration::from_millis(20)))
                .map(|r| reply_data(&r)),
            Err(RpcError::TimedOut)
        );
        let reply = client
            .attempt(request(2, vec![2; 8]), Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(reply_data(&reply), vec![2; 8]);
        server.shutdown();
    }

    #[test]
    fn a_reply_under_another_tag_is_refused() {
        // A fake server answers each request under its tag plus one.
        let addr = BindAddr::uds_temp("mistagged");
        let listener = UnixListener::bind(uds_path(&addr)).unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let asked = read_frame(&mut stream).unwrap();
            let reply = Reply::ok(ReplyBody::Data(ByteRope::from(vec![3u8; 8])));
            let out = frame(asked.tag + 1, reply_segments(&reply), |h, s| {
                reply.encode_frame(h, s)
            })
            .unwrap();
            write_frames(&mut stream, std::slice::from_ref(&out)).unwrap();
        });
        let client = SocketClient::dial(&addr, 1).unwrap();
        assert_eq!(
            client
                .attempt(request(1, vec![1; 8]), Some(Duration::from_secs(5)))
                .map(|r| reply_data(&r)),
            Err(RpcError::Disconnected)
        );
        fake.join().unwrap();
        std::fs::remove_file(uds_path(&addr)).unwrap();
    }

    #[test]
    fn sequential_calls_reuse_one_pooled_connection() {
        let server = serve(&BindAddr::uds_temp("reuse"), 1, echo).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        for i in 0..100u64 {
            client
                .attempt(request(i, vec![1; 16]), Some(Duration::from_secs(5)))
                .unwrap();
        }
        assert_eq!(server.stats().connections.value(), 1);
        server.shutdown();
    }

    #[test]
    fn a_shorter_timeout_on_a_reused_connection_takes_effect() {
        // Requests marked `1` stall well past the second call's timeout.
        let service = |req: Request| {
            if req.body.object() == Some(ObjectId(1)) {
                std::thread::sleep(Duration::from_millis(500));
            }
            echo(req)
        };
        let server = serve(&BindAddr::uds_temp("retimeout"), 1, service).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        client
            .attempt(request(2, vec![2; 16]), Some(Duration::from_secs(5)))
            .unwrap();
        let stalled = client.attempt(request(1, vec![1; 16]), Some(Duration::from_millis(50)));
        assert_eq!(stalled.map(|r| reply_data(&r)), Err(RpcError::TimedOut));
        // Both calls rode the one connection dialed up front.
        assert_eq!(server.stats().connections.value(), 1);
        server.shutdown();
    }

    #[test]
    fn frames_pipelined_on_one_connection_are_answered_in_order() {
        let server = serve(&BindAddr::uds_temp("in-order"), 2, echo).unwrap();
        let mut stream = UnixStream::connect(uds_path(server.addr())).unwrap();
        let tags = [90u64, 12, 55, 7, 31];
        let asks: Vec<FrameBuf> = tags
            .iter()
            .map(|&tag| request_frame(tag, &request(tag, vec![tag as u8; 100])))
            .collect();
        write_frames(&mut stream, &asks).unwrap();
        for tag in tags {
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(frame.tag, tag);
            let reply = Reply::from_wire_shared(frame.payload).unwrap();
            assert_eq!(reply_data(&reply), vec![tag as u8; 100]);
        }
        server.shutdown();
    }
}
