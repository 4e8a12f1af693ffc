//! File managers for NASD (§5.1).
//!
//! "In a NASD-adapted filesystem, files and directories are stored in
//! NASD objects... each file and each directory occupies exactly one NASD
//! object, and offsets in files are the same as offsets in objects."
//!
//! This crate implements one file-manager core (`core.rs`: the
//! namespace in directory objects and policy attributes) and, over it:
//!
//! * [`NasdNfs`] — the NFS personality: stateless, weak cache
//!   consistency; `lookup` resolves a whole path in one call and
//!   piggybacks capabilities; data-moving operations go client → drive
//!   directly; directory parsing stays at the file manager.
//! * [`NfsClient`] — the client library pairing with [`NasdNfs`]: one
//!   manager call per open, a capability cache keyed by path.
//! * [`NasdAfs`] — the AFS personality: explicit capability
//!   fetch/relinquish RPCs, callbacks broken when a write capability is
//!   issued, and per-volume quota enforced by byte-range escrow.
//!
//! All managers and drives run as in-process services over the
//! `nasd-net` transport — a call runs the service on the caller's
//! thread, so none owns a thread; a drive locks itself, and a manager's
//! concurrent calls are ordered by its own locks (the core's stripes).
//! Every data byte a NASD client reads flows drive → client without
//! touching the file manager. The core is the only writer of directory
//! objects (no client is granted write rights on one), so it answers
//! lookups from a write-through cache of the directories it wrote.
//!
//! Objects, capabilities and revocation belong to the [`DriveFleet`]:
//! every manager over it (each NFS or AFS core, Cheops, storage
//! management) creates, mints and revokes through its one version
//! table, so a revocation by any manager holds for all. A mint is one
//! HMAC: each [`DriveEndpoint`] derives a partition's working key once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afs;
mod capcache;
mod connect;
mod core;
mod dirfmt;
mod drives;
mod handle;
mod link;
mod nfs;
mod stripes;

pub use afs::{AfsClient, AfsRequest, AfsResponse, CallbackEvent, NasdAfs};
pub use capcache::{CapCacheStats, LeaseCache, CAP_CACHE_CAPACITY};
pub use connect::FmConnect;
pub use dirfmt::{decode_dir, encode_dir, DirRecord};
pub use drives::{serve_drive_socket, spawn_drive, DriveEndpoint, DriveFleet, Started};
pub use handle::{FileHandle, FileType, FmAttrs, FmError};
pub use link::ManagerLink;
pub use nfs::{NasdNfs, NfsClient, NfsFile, NfsRequest, NfsResponse};
