//! The NASD wire protocol.
//!
//! This crate defines everything that crosses the network in a NASD system
//! (§4.1 and Figure 5 of the paper): object naming, access rights,
//! per-object attributes, cryptographic capabilities, and the request /
//! reply messages of the drive interface — "less than 20 requests
//! including: read and write object data; read and write object attributes;
//! create and remove object; create, resize, and remove partition;
//! construct a copy-on-write object version; and set security key".
//!
//! All messages have a canonical byte encoding ([`wire`]) so that request
//! digests are well-defined and the network model can account for real
//! message sizes.
//!
//! # Example
//!
//! ```
//! use nasd_proto::{ObjectId, PartitionId, Rights, ByteRange};
//!
//! let rights = Rights::READ | Rights::GETATTR;
//! assert!(rights.allows(Rights::READ));
//! assert!(!rights.allows(Rights::WRITE));
//!
//! let region = ByteRange::new(0, 1 << 20);
//! assert!(region.contains_range(4096, 8192));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

mod attr;
mod capability;
mod ids;
mod message;
mod rights;
mod route;
mod status;
pub mod wire;

pub use attr::{ObjectAttributes, SetAttrMask, FS_SPECIFIC_ATTR_LEN};
pub use capability::{
    Capability, CapabilityPublic, ProtectionLevel, RequestDigest, SecurityHeader,
};
pub use ids::{ByteRange, DriveId, Nonce, ObjectId, PartitionId, Version};
pub use message::{
    Authority, Reply, ReplyBody, Request, RequestBody, Scope, Span, WELL_KNOWN_OBJECT_LIST,
};
pub use rights::Rights;
pub use route::{route_hash, shard_index};
pub use status::{NasdStatus, RetryClass};
