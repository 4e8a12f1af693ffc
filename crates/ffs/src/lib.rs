//! Empty: the FFS-like local filesystem that used to live here is gone.
//!
//! Every server-attached baseline number (Figure 6's FFS curves,
//! Figure 9's NFS server, the Andrew NFS column) comes from a cost
//! model in `nasd-bench`, so no code read this crate's functional
//! filesystem. The package stays, empty, only because the frozen
//! benchmark package's lock file records `nasd → nasd-ffs` and
//! `nasd-fm → nasd-ffs`; the change that next opens `benchmark/`
//! removes the package and both dependency edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
