//! nasd-dedup — a content-addressed backup store on NASD objects.
//!
//! The paper's thesis is that new storage workloads can bind directly
//! to smart drives without a file-server bottleneck (§1, §4); this
//! crate is such a workload: backup/archival in the shape of a modern
//! deduplicating backup datastore, rebuilt on raw NASD objects. The
//! TeraScale-SneakerNet line of work (PAPERS.md) motivates the
//! scenario — inexpensive disks as the archival tier — and NASD's
//! capability-secured object interface is all it needs:
//!
//! - [`DynamicChunker`] cuts data at content-defined boundaries with a
//!   rolling Buzhash, so an insertion near the front of a stream moves
//!   only O(1) chunk boundaries; [`FixedChunker`] covers block images,
//! - every chunk is framed as a checksummed, optionally compressed
//!   [`blob`] and stored once in a [`ChunkStore`]: a
//!   content-addressed map from SHA-256 digest to an extent of an
//!   append-only *pack object* on some drive (the drive-side `Append`
//!   request serializes concurrent writers),
//! - archives are described by [`FixedIndex`]/[`DynamicIndex`] digest
//!   lists, bundled into versioned [`SnapshotManifest`]s with canonical
//!   wire codecs (the `nasd-proto` conventions),
//! - [`prune`] implements keep-last/keep-daily retention
//!   and [`ChunkStore::gc`] is a mark-and-sweep collector that is safe
//!   against concurrent backups (sessions pin their chunks), idempotent
//!   and restartable after a drive crash,
//! - [`BackupClient`] drives full and incremental backup sessions and
//!   byte-identical restores; `cargo run -p nasd-bench -- backup`
//!   measures them.

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
#![warn(missing_docs)]

pub mod blob;
mod checksum;
mod chunker;
mod client;
mod error;
mod gc;
mod index;
mod manifest;
pub mod prune;
mod store;

pub use checksum::{ChecksumReader, ChecksumWriter};
pub use chunker::{ChunkerParams, DynamicChunker, FixedChunker};
pub use client::{ArchiveSource, BackupClient, BackupStats, RestoredArchive};
pub use error::DedupError;
pub use gc::GcReport;
pub use index::{ArchiveIndex, ChunkDigest, DynamicIndex, FixedIndex};
pub use manifest::{ArchiveEntry, SnapshotManifest, MANIFEST_VERSION};
pub use prune::{PruneDecision, PruneOptions};
pub use store::{ChunkStore, InsertOutcome, PinGuard, StoreConfig, StoreStats};
