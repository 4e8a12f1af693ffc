//! Network substrate for the NASD reproduction.
//!
//! Two planes, mirroring `nasd-disk`:
//!
//! * **Timing** ([`RpcCostModel`]): the protocol CPU cost at an
//!   endpoint, reproducing the paper's observation that "DCE RPC cannot
//!   push more than 80 Mb/s through a 155 Mb/s ATM link before the
//!   receiving client saturates" (§4.3). Link contention is modeled by
//!   `nasd_sim::BandwidthShare`, one per endpoint link — the switch has
//!   "sufficient bisection bandwidth" (§7) — composed by the `nasd-bench`
//!   testbed.
//! * **Functional**: a unified [`Transport`] abstraction behind the
//!   [`Channel`] handle every client holds — with two implementations:
//!   the in-process [`Rpc`] ([`spawn_service`]), whose concurrent calls
//!   run the service on each caller's thread, and a real TCP/UDS socket
//!   transport ([`serve`], [`SocketClient`]) speaking the length-prefixed wire
//!   protocol with tagged frames, one request per connection at a time
//!   and pipelining across pooled connections. [`Connector`] is how
//!   endpoints are built; `call_with` ([`CallOptions`]) is the single
//!   call surface on both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connect;
mod fault;
mod frame;
mod model;
mod options;
mod pacing;
mod rpc;
mod socket;
mod transport;

pub use connect::Connector;
pub use fault::{ChannelFaults, FaultAction, FaultConfig, FaultEvent, FaultPlan, RetryPolicy};
pub use frame::{
    classify_io, read_frame, write_frames, Frame, FrameBuf, FrameError, HEADER_LEN, MAX_FRAME_LEN,
};
pub use model::RpcCostModel;
pub use options::{CallOptions, CallStats};
pub use pacing::{pace, RatePacer};
pub use rpc::{spawn_service, Rpc, RpcError, ServiceHandle};
pub use socket::{serve, BindAddr, ServerStats, SocketClient, WireServer};
pub use transport::{Channel, Pending, Transport};
