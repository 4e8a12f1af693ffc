//! NASD PFS — the parallel filesystem of §5.2.
//!
//! "To provide support for parallel applications, we implemented a simple
//! parallel filesystem, NASD PFS, which offers the SIO low-level parallel
//! filesystem interface \[Corbett96\] and employs Cheops as its storage
//! management layer."
//!
//! The filesystem itself is thin by design: the name service, directory
//! hierarchy and access controls are inherited, as in the paper, from
//! the filesystem layer — a PFS name is a regular file in the
//! [`nasd_fm::NasdNfs`] namespace whose data is the 8-byte id of a
//! logical object — and the logical objects are ones whose striping
//! Cheops manages and whose data clients move themselves, drive-direct
//! and in parallel.
//!
//! # Example
//!
//! ```no_run
//! use nasd_pfs::PfsCluster;
//!
//! // 8 drives, as in the paper's Figure 9 testbed.
//! let cluster = PfsCluster::spawn(8, 512 * 1024).unwrap();
//! let client = cluster.client(0);
//! let f = client.create("/sales.db", 8).unwrap();
//! client.write_at(&f, 0, &vec![0u8; 4 << 20]).unwrap();
//! assert_eq!(client.size(&f).unwrap(), 4 << 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod sio;

pub use cluster::PfsCluster;
pub use sio::{PfsClient, PfsError, PfsFile};
