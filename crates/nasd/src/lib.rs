//! # NASD — Network-Attached Secure Disks
//!
//! A from-scratch Rust reproduction of *A Cost-Effective, High-Bandwidth
//! Storage Architecture* (Gibson et al., ASPLOS 1998): the NASD drive
//! object system with cryptographic capabilities, NFS- and AFS-style file
//! managers, the Cheops storage manager, a parallel filesystem, the
//! parallel data-mining workload, the Active Disks extension, and the
//! simulation substrate that stands in for the paper's 1998 testbed.
//!
//! This facade re-exports every subsystem under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`crypto`] | SHA-256 / HMAC (from spec) and the four-level key hierarchy |
//! | [`proto`] | wire protocol: objects, rights, capabilities, requests |
//! | [`object`] | **the NASD drive**: object store, security, cost meter |
//! | [`disk`] | mechanical disk models and block devices |
//! | [`net`] | switched-network model; in-process (caller's-thread) and socket transports |
//! | [`sim`] | deterministic discrete-event simulation kernel |
//! | [`obs`] | sim-clock metrics registry, trace sink and bench reports |
//! | [`fm`] | NASD-NFS and NASD-AFS file managers over one drive fleet |
//! | [`cheops`] | striped/mirrored logical objects over drive fleets |
//! | [`mgmt`] | storage management: failure detection, hot spares, rebuild, scrub |
//! | [`pfs`] | the SIO-style parallel filesystem |
//! | [`mining`] | frequent-sets mining and the transaction generator |
//! | [`active`] | Active Disks: on-drive functions |
//! | [`cost`] | Figure 4 server-cost and Figure 3 ASIC models |
//! | [`dedup`] | content-addressed chunk store, backup/restore, prune and GC |
//! | [`workload`] | seeded zipf / open- and closed-loop workload generation |
//!
//! # Quickstart
//!
//! ```
//! use nasd::object::NasdDrive;
//! use nasd::proto::{PartitionId, Rights};
//!
//! // A drive, a partition, an object, a capability, and secured I/O.
//! let mut drive = NasdDrive::builder(1).build();
//! let p = PartitionId(1);
//! drive.admin_create_partition(p, 1 << 20)?;
//! let obj = drive.admin_create_object(p, 0)?;
//! let cap = drive.issue_capability(p, obj, Rights::READ | Rights::WRITE, 3600);
//! let client = drive.client(cap);
//! client.write(&mut drive, 0, b"hello, nasd")?;
//! assert_eq!(client.read(&mut drive, 0, 11)?, b"hello, nasd");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nasd_active as active;
pub use nasd_cheops as cheops;
pub use nasd_cost as cost;
pub use nasd_crypto as crypto;
pub use nasd_dedup as dedup;
pub use nasd_disk as disk;
pub use nasd_fm as fm;
pub use nasd_mgmt as mgmt;
pub use nasd_mining as mining;
pub use nasd_net as net;
pub use nasd_object as object;
pub use nasd_obs as obs;
pub use nasd_pfs as pfs;
pub use nasd_proto as proto;
pub use nasd_sim as sim;
pub use nasd_workload as workload;
