//! [`Connector`]: the one way clients obtain a [`Channel`].
//!
//! Mirrors the PR 3 `DriveBuilder` pattern: configuration accumulates
//! on the builder (pool size, fault plan), then a terminal method
//! produces the endpoint — [`Connector::in_proc`] for a channel over an
//! in-process service, [`Connector::dial`] for one over a real
//! TCP/UDS socket. Higher layers add their own terminal methods via
//! extension traits (`FmConnect::nfs/afs`, `CheopsConnect::cheops`, …)
//! so every client in the stack is constructed the same way and none of
//! them holds a raw transport.

use crate::fault::ChannelFaults;
use crate::rpc::Rpc;
use crate::socket::{BindAddr, SocketClient};
use crate::transport::Channel;
use nasd_proto::{Reply, Request};
use std::io;
use std::sync::Arc;

/// Builder for transport endpoints. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Connector {
    faults: Option<Arc<ChannelFaults>>,
    pool: usize,
}

impl Connector {
    /// A connector with defaults: no fault injection, one idle
    /// connection kept.
    #[must_use]
    pub fn new() -> Self {
        Connector::default()
    }

    /// Idle connections a socket endpoint keeps for reuse (clamped to at
    /// least one; calls beyond them dial their own; in-proc endpoints
    /// ignore it).
    #[must_use]
    pub fn pool(mut self, connections: usize) -> Self {
        self.pool = connections;
        self
    }

    /// Subject every endpoint built from this connector to seeded
    /// connection-level fault injection (drop/dup/delay per the plan's
    /// deterministic schedule) — the chaos suite's hook into both
    /// transports.
    #[must_use]
    pub fn faults(mut self, faults: Arc<ChannelFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Apply the configured fault decorator, if any.
    fn wrap<Req: Send + Clone + 'static, Resp: Send + 'static>(
        &self,
        ch: Channel<Req, Resp>,
    ) -> Channel<Req, Resp> {
        match &self.faults {
            Some(f) => ch.with_faults(Arc::clone(f)),
            None => ch,
        }
    }

    /// A channel over an in-process [`Rpc`] service handle.
    #[must_use]
    pub fn in_proc<Req: Send + Clone + 'static, Resp: Send + 'static>(
        &self,
        rpc: Rpc<Req, Resp>,
    ) -> Channel<Req, Resp> {
        self.wrap(Channel::in_proc(rpc))
    }

    /// A channel over a real socket to a wire server speaking drive
    /// traffic — the only message family with a wire codec.
    ///
    /// # Errors
    ///
    /// The dial failure, verbatim.
    pub fn dial(&self, addr: &BindAddr) -> io::Result<Channel<Request, Reply>> {
        let client = SocketClient::dial(addr, self.pool.max(1))?;
        Ok(self.wrap(Channel::new(Arc::new(client))))
    }
}
