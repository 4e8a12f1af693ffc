//! The content-addressed chunk store.
//!
//! A [`ChunkStore`] maps SHA-256 digests to extents of *pack objects* —
//! plain NASD objects that grow append-only via the drive-side `Append`
//! op (the drive chooses the landing offset, so concurrent writers
//! sharing a pack never collide). Chunks are placed across the fleet by
//! digest, manifests and the persisted index are ordinary tagged
//! objects, and everything the store needs to reopen after a crash is
//! discoverable from the drives themselves:
//!
//! - each store object carries a magic + role + generation tag in its
//!   `fs_specific` attribute block,
//! - the index object (role `index`) snapshots the digest map plus how
//!   many bytes of each pack it covers; on open the store loads the
//!   newest valid index and *rescans* pack bytes beyond its coverage,
//!   re-adopting chunks whose frames landed after the last flush,
//! - a torn append (crash mid-frame) fails the frame checksum and ends
//!   the rescan for that pack; the dead tail is overwritten-around by
//!   placing the next pack generation in a fresh object.
//!
//! Concurrency contract with GC: a backup session holds a [`PinGuard`];
//! [`ChunkStore::insert`] pins the digest *before* reporting it
//! deduplicated, and the sweep in [`ChunkStore::gc`](crate::GcReport)
//! skips pinned digests — so a chunk can never be collected between the
//! moment a backup decides to rely on it and the moment the snapshot
//! manifest referencing it lands.

use crate::blob;
use crate::error::DedupError;
use crate::index::ChunkDigest;
use crate::manifest::SnapshotManifest;
use bytes::Bytes;
use nasd_crypto::Sha256;
use nasd_fm::{DriveEndpoint, DriveFleet, FileHandle};
use nasd_obs::Registry;
use nasd_proto::wire::{DecodeError, WireReader, WireWriter};
use nasd_proto::{ByteRange, Capability, ObjectId, Rights, FS_SPECIFIC_ATTR_LEN};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store-object tag magic in `fs_specific[..8]`.
const TAG_MAGIC: &[u8; 8] = b"NASDDUP\0";
/// Tag roles.
const ROLE_PACK: u8 = 1;
const ROLE_INDEX: u8 = 2;
const ROLE_MANIFEST: u8 = 3;

/// Persisted-index magic (`DIDX`).
const INDEX_MAGIC: u32 = 0x4449_4458;
/// Sanity bounds for index decode.
const MAX_INDEX_CHUNKS: u32 = 1 << 24;
const MAX_PACKS: u32 = 1 << 16;

/// Store layout and behaviour knobs. Store objects live in the fleet's
/// partition, under capabilities the fleet mints.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Roll to a fresh pack object once the current one covers this
    /// many bytes.
    pub pack_target_bytes: u64,
    /// RLE-compress chunk payloads when that is smaller.
    pub compress: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            pack_target_bytes: 8 << 20,
            compress: true,
        }
    }
}

/// Where one chunk lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkLoc {
    /// Fleet index of the drive.
    pub(crate) drive: u32,
    /// Pack object on that drive.
    pub(crate) object: ObjectId,
    /// Frame start within the pack.
    pub(crate) offset: u64,
    /// Whole frame length (header + encoded payload).
    pub(crate) frame_len: u32,
    /// Uncompressed chunk length.
    pub(crate) unc_len: u32,
}

/// One pack object and how many of its bytes the in-memory index covers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackState {
    pub(crate) object: ObjectId,
    pub(crate) covered: u64,
}

/// Mutable store state, all under one lock: the digest map, per-drive
/// pack lists, pin refcounts and the snapshot catalog share a lock so
/// "is this chunk present?" and "pin it" are one atomic step.
#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) index: BTreeMap<ChunkDigest, ChunkLoc>,
    /// Per fleet-drive: pack objects in creation order; the last is the
    /// open pack new chunks append to.
    pub(crate) packs: Vec<Vec<PackState>>,
    /// Pin refcounts held by live [`PinGuard`]s.
    pub(crate) pins: BTreeMap<ChunkDigest, u32>,
    /// Snapshot catalog: name → (drive, manifest object, parsed).
    pub(crate) manifests: BTreeMap<String, (u32, ObjectId, SnapshotManifest)>,
    /// In-flight append refcounts per `(drive, pack object id)`. An
    /// insert (or compaction move) registers here, under the same lock
    /// acquisition that picks the pack, before its frame has an index
    /// entry; GC's reap spares registered packs, so a racing roll +
    /// sweep can never remove the object a frame just landed in.
    pub(crate) inflight: BTreeMap<(u32, u64), u32>,
    /// Persisted-index generation (the newest flushed, or loaded).
    pub(crate) generation: u64,
    /// Index objects currently on drives: `(drive, object, generation)`.
    pub(crate) index_objects: Vec<(u32, ObjectId, u64)>,
    /// Logical bytes ingested and physical frame bytes stored, feeding
    /// the dedup-ratio gauge. `stored` is rebuilt from the index on
    /// open; `ingested` counts this process's inserts.
    pub(crate) ingested: u64,
    pub(crate) stored: u64,
}

/// Counters the store maintains (see DESIGN.md §14).
struct Metrics {
    chunks_stored: Arc<nasd_obs::Counter>,
    chunks_deduped: Arc<nasd_obs::Counter>,
    bytes_ingested: Arc<nasd_obs::Counter>,
    bytes_stored: Arc<nasd_obs::Counter>,
    dedup_ratio: Arc<nasd_obs::Gauge>,
    pub(crate) gc_runs: Arc<nasd_obs::Counter>,
    pub(crate) gc_marked: Arc<nasd_obs::Counter>,
    pub(crate) gc_swept: Arc<nasd_obs::Counter>,
    pub(crate) gc_reclaimed: Arc<nasd_obs::Counter>,
}

/// Outcome of an insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The chunk was new and its frame was written.
    Stored,
    /// The chunk was already present (or won a write race); no new
    /// bytes are referenced.
    Deduped,
}

/// Point-in-time store statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct chunks indexed.
    pub chunks: u64,
    /// Logical bytes ingested through [`ChunkStore::insert`].
    pub ingested_bytes: u64,
    /// Physical frame bytes written for stored chunks.
    pub stored_bytes: u64,
    /// Pack objects across the fleet.
    pub packs: u64,
    /// Snapshots in the catalog.
    pub snapshots: u64,
}

impl StoreStats {
    /// Logical/physical dedup ratio (1.0 when nothing dedups).
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.ingested_bytes as f64 / self.stored_bytes as f64
    }
}

/// RAII pin over the chunks one backup session relies on. Digests
/// recorded here are immune to GC until the guard drops; drop it only
/// after the snapshot manifest referencing them is in the catalog.
pub struct PinGuard {
    inner: Arc<Mutex<Inner>>,
    digests: Vec<ChunkDigest>,
}

impl PinGuard {
    fn record(&mut self, digest: ChunkDigest) {
        self.digests.push(digest);
    }

    /// Number of pinned digests (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether nothing is pinned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        for d in &self.digests {
            if let Some(count) = inner.pins.get_mut(d) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    inner.pins.remove(d);
                }
            }
        }
    }
}

/// RAII registration of one in-flight append against a pack object.
/// While any guard on a pack is live, [`ChunkStore::gc`](crate::GcReport)
/// will not reap that pack: the appended frame may not have its index
/// entry yet, and removing the object would strand it. Hold the guard
/// until the frame's index entry is settled (inserted, or deliberately
/// abandoned).
pub(crate) struct AppendGuard<'a> {
    store: &'a ChunkStore,
    drive: u32,
    pub(crate) object: ObjectId,
}

impl Drop for AppendGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.store.inner.lock();
        if let Some(count) = inner.inflight.get_mut(&(self.drive, self.object.0)) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                inner.inflight.remove(&(self.drive, self.object.0));
            }
        }
    }
}

/// The content-addressed chunk store (see module docs).
pub struct ChunkStore {
    fleet: Arc<DriveFleet>,
    config: StoreConfig,
    inner: Arc<Mutex<Inner>>,
    metrics: Metrics,
}

impl std::fmt::Debug for ChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkStore")
            .field("drives", &self.fleet.len())
            .field("partition", &self.fleet.partition())
            .finish_non_exhaustive()
    }
}

impl ChunkStore {
    /// Open (or create) the store on `fleet`: discover tagged objects,
    /// load the newest valid persisted index, rescan pack bytes beyond
    /// its coverage and load the snapshot catalog. On a fresh fleet
    /// this finds nothing and yields an empty store — creation and
    /// crash recovery are the same code path, which is what makes
    /// reopening after a crash trivially correct.
    pub fn open(
        fleet: Arc<DriveFleet>,
        config: StoreConfig,
        registry: &Registry,
    ) -> Result<Self, DedupError> {
        let metrics = Metrics {
            chunks_stored: registry.counter("dedup/chunks-stored"),
            chunks_deduped: registry.counter("dedup/chunks-deduped"),
            bytes_ingested: registry.counter("dedup/bytes-ingested"),
            bytes_stored: registry.counter("dedup/bytes-stored"),
            dedup_ratio: registry.gauge("dedup/ratio-milli"),
            gc_runs: registry.counter("dedup/gc/runs"),
            gc_marked: registry.counter("dedup/gc/marked"),
            gc_swept: registry.counter("dedup/gc/swept"),
            gc_reclaimed: registry.counter("dedup/gc/reclaimed-bytes"),
        };
        let store = ChunkStore {
            fleet,
            config,
            inner: Arc::new(Mutex::new(Inner::default())),
            metrics,
        };
        store.discover()?;
        Ok(store)
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The fleet the store runs on.
    #[must_use]
    pub fn fleet(&self) -> &Arc<DriveFleet> {
        &self.fleet
    }

    /// Start a pin session for a backup. Chunks inserted (or found
    /// deduplicated) through this guard survive any concurrent GC.
    #[must_use]
    pub fn pin_session(&self) -> PinGuard {
        PinGuard {
            inner: Arc::clone(&self.inner),
            digests: Vec::new(),
        }
    }

    /// Insert one chunk, pinning it in `session`. Returns its digest
    /// and whether new bytes were written.
    ///
    /// The fast path — digest already indexed — takes the lock once:
    /// present-check and pin are atomic, so GC can never reap a chunk
    /// this call just reported [`InsertOutcome::Deduped`]. The slow
    /// path appends a frame *outside* the lock (drive `Append`
    /// serializes racing writers) and re-checks on completion; a lost
    /// race leaves a harmless orphan frame for GC.
    pub fn insert(
        &self,
        session: &mut PinGuard,
        data: &[u8],
    ) -> Result<(ChunkDigest, InsertOutcome), DedupError> {
        let digest = Sha256::digest(data).into_bytes();
        self.metrics.bytes_ingested.add(data.len() as u64);
        {
            let mut inner = self.inner.lock();
            inner.ingested = inner.ingested.saturating_add(data.len() as u64);
            *inner.pins.entry(digest).or_insert(0) += 1;
            if inner.index.contains_key(&digest) {
                session.record(digest);
                self.metrics.chunks_deduped.inc();
                self.update_ratio(&inner);
                return Ok((digest, InsertOutcome::Deduped));
            }
            session.record(digest);
        }
        let frame = blob::encode(&digest, data, self.config.compress);
        let frame_len = frame.len() as u32;
        let drive = self.place(&digest);
        // The guard lives past the index insertion below: until then the
        // pack may be rolled closed and fully swept by a concurrent GC,
        // and only the in-flight registration keeps reap off it.
        let pack = self.open_pack_for_append(drive)?;
        let object = pack.object;
        let (ep, cap) = self.access(drive, object, Rights::WRITE)?;
        let offset = ep.append(&cap, Bytes::from(frame))?;
        let loc = ChunkLoc {
            drive,
            object,
            offset,
            frame_len,
            unc_len: data.len() as u32,
        };
        let mut inner = self.inner.lock();
        let newly_stored = match inner.index.entry(digest) {
            // An occupied slot means we lost the write race; our frame
            // is orphan garbage the next GC reclaims.
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(loc);
                true
            }
        };
        let outcome = if newly_stored {
            inner.stored = inner.stored.saturating_add(u64::from(frame_len));
            self.metrics.chunks_stored.inc();
            self.metrics.bytes_stored.add(u64::from(frame_len));
            InsertOutcome::Stored
        } else {
            self.metrics.chunks_deduped.inc();
            InsertOutcome::Deduped
        };
        Self::cover(&mut inner, drive, object, offset + u64::from(frame_len));
        self.update_ratio(&inner);
        Ok((digest, outcome))
    }

    /// Read one chunk back, fully verified (frame checksum + content
    /// digest + match against the requested digest).
    pub fn read_chunk(&self, digest: &ChunkDigest) -> Result<Vec<u8>, DedupError> {
        let loc = {
            let inner = self.inner.lock();
            *inner
                .index
                .get(digest)
                .ok_or(DedupError::MissingChunk(*digest))?
        };
        let (ep, cap) = self.access(loc.drive, loc.object, Rights::READ)?;
        let rope = ep.read(&cap, loc.offset, u64::from(loc.frame_len))?;
        // nasd-lint: allow(hot-path-copy, "frame decode needs one contiguous chunk-sized buffer off the rope")
        let decoded = blob::decode(&rope.to_vec())?;
        if !nasd_crypto::ct_eq(&decoded.digest, digest) {
            return Err(DedupError::Corrupt("chunk digest does not match address"));
        }
        Ok(decoded.data)
    }

    /// Whether `digest` is currently indexed.
    #[must_use]
    pub fn contains(&self, digest: &ChunkDigest) -> bool {
        self.inner.lock().index.contains_key(digest)
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            chunks: inner.index.len() as u64,
            ingested_bytes: inner.ingested,
            stored_bytes: inner.stored,
            packs: inner.packs.iter().map(|p| p.len() as u64).sum(),
            snapshots: inner.manifests.len() as u64,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot catalog.

    /// Store `manifest` durably and add it to the catalog. Fails with
    /// [`DedupError::SnapshotExists`] on a name collision.
    pub fn insert_manifest(&self, manifest: &SnapshotManifest) -> Result<(), DedupError> {
        if self.inner.lock().manifests.contains_key(&manifest.name) {
            return Err(DedupError::SnapshotExists(manifest.name.clone()));
        }
        let wire = manifest.to_wire_checksummed();
        let drive = self.place(Sha256::digest(manifest.name.as_bytes()).as_bytes());
        let object = self.create(drive, wire.len() as u64)?;
        let (ep, cap) = self.access(drive, object, Rights::WRITE | Rights::SETATTR)?;
        ep.write(&cap, 0, Bytes::from(wire))?;
        ep.set_fs_specific(&cap, Self::tag(ROLE_MANIFEST, 0))?;
        let mut inner = self.inner.lock();
        if inner.manifests.contains_key(&manifest.name) {
            // Lost a publish race: drop our copy, keep the winner.
            drop(inner);
            let _removed = self.remove(drive, object);
            return Err(DedupError::SnapshotExists(manifest.name.clone()));
        }
        inner
            .manifests
            .insert(manifest.name.clone(), (drive, object, manifest.clone()));
        Ok(())
    }

    /// Fetch a snapshot manifest from the catalog.
    pub fn manifest(&self, name: &str) -> Result<SnapshotManifest, DedupError> {
        self.inner
            .lock()
            .manifests
            .get(name)
            .map(|(_, _, m)| m.clone())
            .ok_or_else(|| DedupError::NoSuchSnapshot(name.to_owned()))
    }

    /// Snapshot names, sorted.
    #[must_use]
    pub fn snapshots(&self) -> Vec<String> {
        self.inner.lock().manifests.keys().cloned().collect()
    }

    /// All catalogued manifests, sorted by name.
    #[must_use]
    pub fn all_manifests(&self) -> Vec<SnapshotManifest> {
        self.inner
            .lock()
            .manifests
            .values()
            .map(|(_, _, m)| m.clone())
            .collect()
    }

    /// Remove a snapshot from the catalog and the drives. The chunks it
    /// referenced become garbage for the next [`gc`](crate::GcReport).
    pub fn remove_manifest(&self, name: &str) -> Result<(), DedupError> {
        let (drive, object) = {
            let mut inner = self.inner.lock();
            let (drive, object, _) = inner
                .manifests
                .remove(name)
                .ok_or_else(|| DedupError::NoSuchSnapshot(name.to_owned()))?;
            (drive, object)
        };
        self.remove(drive, object)
    }

    // ------------------------------------------------------------------
    // Index persistence and recovery.

    /// Persist the digest map as a new generation index object, then
    /// retire older index objects. A crash between the two steps leaves
    /// two indexes; open() picks the newest valid one.
    pub fn flush(&self) -> Result<u64, DedupError> {
        let (wire, generation, stale) = {
            let mut inner = self.inner.lock();
            inner.generation += 1;
            (
                Self::encode_index(&inner),
                inner.generation,
                std::mem::take(&mut inner.index_objects),
            )
        };
        let (drive, object) = match self.write_index_object(wire, generation) {
            Ok(placed) => placed,
            Err(e) => {
                // Put the taken stale list back: those objects are
                // still on the drives, and only this list lets a later
                // successful flush retire them instead of leaking them.
                self.inner.lock().index_objects.extend(stale);
                return Err(e);
            }
        };
        self.inner
            .lock()
            .index_objects
            .push((drive, object, generation));
        for (sdrive, sobject, _) in stale {
            // Best-effort: a failure leaves a stale index object that
            // loses the generation race forever; the next successful
            // flush retries the removal.
            if self.remove(sdrive, sobject).is_err() {
                self.inner.lock().index_objects.push((sdrive, sobject, 0));
            }
        }
        Ok(generation)
    }

    /// Create, write and tag one generation-`generation` index object.
    fn write_index_object(
        &self,
        wire: Vec<u8>,
        generation: u64,
    ) -> Result<(u32, ObjectId), DedupError> {
        let drive = self.place(&generation.to_be_bytes());
        let object = self.create(drive, wire.len() as u64)?;
        let (ep, cap) = self.access(drive, object, Rights::WRITE | Rights::SETATTR)?;
        ep.write(&cap, 0, Bytes::from(wire))?;
        ep.set_fs_specific(&cap, Self::tag(ROLE_INDEX, generation))?;
        Ok((drive, object))
    }

    /// Discovery pass for [`ChunkStore::open`].
    fn discover(&self) -> Result<(), DedupError> {
        let ndrives = self.fleet.len();
        let mut packs_by_drive: Vec<Vec<ObjectId>> = vec![Vec::new(); ndrives];
        let mut indexes: Vec<(u32, ObjectId, u64)> = Vec::new();
        let mut manifest_objs: Vec<(u32, ObjectId)> = Vec::new();
        for (di, ep) in self.fleet.endpoints().iter().enumerate() {
            // A drive error aborts open: recovery must never silently
            // proceed with a partial view of the store.
            for id in self.fleet.list(ep)? {
                let (ep, cap) = self.access(di as u32, id, Rights::GETATTR)?;
                let attrs = ep.get_attr(&cap)?;
                let Some((role, generation)) = Self::parse_tag(&attrs.fs_specific) else {
                    continue;
                };
                match role {
                    ROLE_PACK => packs_by_drive.get_mut(di).map(|v| v.push(id)).unwrap_or(()),
                    ROLE_INDEX => indexes.push((di as u32, id, generation)),
                    ROLE_MANIFEST => manifest_objs.push((di as u32, id)),
                    _ => {}
                }
            }
        }
        // Newest-generation valid index wins; invalid ones (torn
        // writes) are skipped, not fatal.
        indexes.sort_by_key(|&(_, _, generation)| std::cmp::Reverse(generation));
        let mut loaded: Option<Inner> = None;
        for &(di, id, generation) in &indexes {
            match self.load_index(di, id) {
                Ok(mut inner) => {
                    inner.generation = generation;
                    loaded = Some(inner);
                    break;
                }
                Err(_) => continue,
            }
        }
        let mut inner = loaded.unwrap_or_default();
        inner.index_objects = indexes;
        inner.packs.resize(ndrives, Vec::new());
        // Adopt packs the index has never seen (created after the last
        // flush, or on a fresh store).
        for (di, ids) in packs_by_drive.iter().enumerate() {
            for &id in ids {
                let known = inner
                    .packs
                    .get(di)
                    .is_some_and(|v| v.iter().any(|p| p.object == id));
                if !known {
                    if let Some(v) = inner.packs.get_mut(di) {
                        v.push(PackState {
                            object: id,
                            covered: 0,
                        });
                    }
                }
            }
        }
        // Rescan every pack beyond its covered prefix: frames that
        // landed after the last flush are re-adopted; the first torn or
        // corrupt frame ends that pack's scan.
        for di in 0..ndrives {
            let packs = inner.packs.get(di).cloned().unwrap_or_default();
            for pack in packs {
                self.rescan_pack(&mut inner, di as u32, pack)?;
            }
        }
        // Load the snapshot catalog; a torn manifest write is skipped.
        for (di, id) in manifest_objs {
            let (ep, cap) = self.access(di, id, Rights::READ | Rights::GETATTR)?;
            let attrs = ep.get_attr(&cap)?;
            let rope = ep.read(&cap, 0, attrs.size)?;
            // nasd-lint: allow(hot-path-copy, "manifests are small and decoded once per discovery")
            match SnapshotManifest::from_wire_checksummed(&rope.to_vec()) {
                Ok(m) => {
                    inner.manifests.entry(m.name.clone()).or_insert((di, id, m));
                }
                Err(_) => continue,
            }
        }
        *self.inner.lock() = inner;
        Ok(())
    }

    /// Re-adopt frames in `pack` beyond its covered prefix. A pack the
    /// persisted index lists but the drive no longer holds was reaped
    /// by a GC that crashed (or simply exited) before the next flush:
    /// that is "pack gone", not an error — the pack and every index
    /// entry naming it are dropped, so open() converges instead of
    /// failing forever and insert() never dedups against unreadable
    /// chunks.
    fn rescan_pack(
        &self,
        inner: &mut Inner,
        drive: u32,
        pack: PackState,
    ) -> Result<(), DedupError> {
        let (ep, cap) = self.access(drive, pack.object, Rights::READ | Rights::GETATTR)?;
        let size = match ep.get_attr(&cap) {
            Ok(attrs) => attrs.size,
            Err(nasd_fm::FmError::Drive(nasd_proto::NasdStatus::NoSuchObject)) => {
                Self::forget_pack(inner, drive, pack.object);
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        if size <= pack.covered {
            return Ok(());
        }
        let tail = match ep.read(&cap, pack.covered, size - pack.covered) {
            // nasd-lint: allow(hot-path-copy, "crash rescan reads the uncovered pack tail once into a scan buffer")
            Ok(rope) => rope.to_vec(),
            Err(nasd_fm::FmError::Drive(nasd_proto::NasdStatus::NoSuchObject)) => {
                Self::forget_pack(inner, drive, pack.object);
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        let mut pos = 0usize;
        while pos < tail.len() {
            let Some(window) = tail.get(pos..) else { break };
            let Ok(decoded) = blob::decode(window) else {
                // Torn append: everything from here on is dead tail.
                break;
            };
            let offset = pack.covered + pos as u64;
            let loc = ChunkLoc {
                drive,
                object: pack.object,
                offset,
                frame_len: decoded.frame_len as u32,
                unc_len: decoded.data.len() as u32,
            };
            inner.index.entry(decoded.digest).or_insert(loc);
            pos += decoded.frame_len;
        }
        Self::cover(inner, drive, pack.object, pack.covered + pos as u64);
        Ok(())
    }

    /// Drop `(drive, object)` from the pack list and purge every index
    /// entry naming it: the object is gone from the drive, so any such
    /// entry is unreadable and must not satisfy dedup lookups.
    fn forget_pack(inner: &mut Inner, drive: u32, object: ObjectId) {
        if let Some(v) = inner.packs.get_mut(drive as usize) {
            v.retain(|p| p.object != object);
        }
        let doomed: Vec<ChunkDigest> = inner
            .index
            .iter()
            .filter(|(_, loc)| loc.drive == drive && loc.object == object)
            .map(|(d, _)| *d)
            .collect();
        for d in doomed {
            if let Some(loc) = inner.index.remove(&d) {
                inner.stored = inner.stored.saturating_sub(u64::from(loc.frame_len));
            }
        }
    }

    /// Serialize the digest map + pack coverage, checksummed.
    fn encode_index(inner: &Inner) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(INDEX_MAGIC).u64(inner.generation);
        w.u32(inner.packs.len() as u32);
        for drive_packs in &inner.packs {
            w.u32(drive_packs.len() as u32);
            for p in drive_packs {
                w.u64(p.object.0).u64(p.covered);
            }
        }
        w.u32(inner.index.len() as u32);
        for (digest, loc) in &inner.index {
            w.raw(digest);
            w.u32(loc.drive)
                .u64(loc.object.0)
                .u64(loc.offset)
                .u32(loc.frame_len)
                .u32(loc.unc_len);
        }
        let csum = {
            let d = Sha256::digest(w.as_slice()).into_bytes();
            d.iter()
                .take(8)
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        };
        w.u64(csum);
        w.into_vec()
    }

    /// Load and verify one persisted index object.
    fn load_index(&self, drive: u32, object: ObjectId) -> Result<Inner, DedupError> {
        let (ep, cap) = self.access(drive, object, Rights::READ | Rights::GETATTR)?;
        let size = ep.get_attr(&cap)?.size;
        // nasd-lint: allow(hot-path-copy, "the persisted index is decoded once per open; decode needs contiguous bytes")
        let buf = ep.read(&cap, 0, size)?.to_vec();
        let body_len =
            buf.len()
                .checked_sub(8)
                .ok_or(DedupError::Decode(DecodeError::Truncated {
                    needed: 8,
                    remaining: buf.len(),
                }))?;
        let body = buf.get(..body_len).unwrap_or_default();
        let mut tr = WireReader::new(buf.get(body_len..).unwrap_or_default());
        let want = {
            let d = Sha256::digest(body).into_bytes();
            d.iter()
                .take(8)
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        };
        if tr.u64()? != want {
            return Err(DedupError::Corrupt("index checksum mismatch"));
        }
        let mut r = WireReader::new(body);
        if r.u32()? != INDEX_MAGIC {
            return Err(DedupError::Corrupt("bad index magic"));
        }
        let generation = r.u64()?;
        let ndrives = r.u32()?;
        if ndrives > MAX_PACKS {
            return Err(DedupError::Corrupt("index drive count absurd"));
        }
        let mut packs = Vec::with_capacity(ndrives as usize);
        for _ in 0..ndrives {
            let n = r.u32()?;
            if n > MAX_PACKS {
                return Err(DedupError::Corrupt("index pack count absurd"));
            }
            let mut v = Vec::with_capacity(n as usize);
            for _ in 0..n {
                v.push(PackState {
                    object: ObjectId(r.u64()?),
                    covered: r.u64()?,
                });
            }
            packs.push(v);
        }
        let n = r.u32()?;
        if n > MAX_INDEX_CHUNKS {
            return Err(DedupError::Corrupt("index chunk count absurd"));
        }
        let mut index = BTreeMap::new();
        let mut stored = 0u64;
        for _ in 0..n {
            let mut digest = [0u8; 32];
            // nasd-lint: allow(hot-path-copy, "32-byte content address out of the persisted index, not payload")
            digest.copy_from_slice(r.raw(32)?);
            let loc = ChunkLoc {
                drive: r.u32()?,
                object: ObjectId(r.u64()?),
                offset: r.u64()?,
                frame_len: r.u32()?,
                unc_len: r.u32()?,
            };
            stored = stored.saturating_add(u64::from(loc.frame_len));
            index.insert(digest, loc);
        }
        r.finish().map_err(DedupError::Decode)?;
        Ok(Inner {
            index,
            packs,
            generation,
            stored,
            ..Inner::default()
        })
    }

    // ------------------------------------------------------------------
    // Internals shared with gc.rs.

    /// Digest-driven drive placement.
    pub(crate) fn place(&self, key: &[u8]) -> u32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.fleet.len().max(1) as u64) as u32
    }

    /// Fleet drive `drive` (an index into the fleet, as in [`ChunkLoc`]).
    fn drive(&self, drive: u32) -> Result<&DriveEndpoint, DedupError> {
        self.fleet
            .endpoints()
            .get(drive as usize)
            .map(|ep| &**ep)
            .ok_or(DedupError::Corrupt("chunk placed on unknown drive"))
    }

    /// `object` on fleet drive `drive`.
    fn handle(&self, drive: u32, object: ObjectId) -> Result<FileHandle, DedupError> {
        Ok(FileHandle {
            drive: self.drive(drive)?.id(),
            partition: self.fleet.partition(),
            object,
        })
    }

    /// A fresh object of `preallocate` bytes on fleet drive `drive`.
    fn create(&self, drive: u32, preallocate: u64) -> Result<ObjectId, DedupError> {
        let fh = self.fleet.create(self.drive(drive)?, None, preallocate)?;
        Ok(fh.object)
    }

    /// A capability for `rights` over all of `object` on fleet drive
    /// `drive`, minted by the fleet at the version it tracks, with the
    /// endpoint to use it on.
    pub(crate) fn access(
        &self,
        drive: u32,
        object: ObjectId,
        rights: Rights,
    ) -> Result<(&DriveEndpoint, Capability), DedupError> {
        let fh = self.handle(drive, object)?;
        Ok(self.fleet.mint(fh, rights, ByteRange::FULL)?)
    }

    /// Remove `object` from fleet drive `drive`, then drop the version
    /// the fleet tracks for it.
    pub(crate) fn remove(&self, drive: u32, object: ObjectId) -> Result<(), DedupError> {
        let fh = self.handle(drive, object)?;
        let (ep, cap) = self.fleet.mint(fh, Rights::REMOVE, ByteRange::FULL)?;
        ep.remove(&cap)?;
        self.fleet.forget(fh);
        Ok(())
    }

    /// The open pack on `drive`, rolling to a fresh object when the
    /// current one is past target size. The returned guard registers an
    /// in-flight append on the pack under the same lock acquisition
    /// that picks it, so GC's reap cannot remove the object between
    /// this call and the moment the appended frame is indexed.
    pub(crate) fn open_pack_for_append(&self, drive: u32) -> Result<AppendGuard<'_>, DedupError> {
        {
            let mut inner = self.inner.lock();
            let open = inner
                .packs
                .get(drive as usize)
                .and_then(|v| v.last())
                .filter(|p| p.covered < self.config.pack_target_bytes)
                .map(|p| p.object);
            if let Some(object) = open {
                *inner.inflight.entry((drive, object.0)).or_insert(0) += 1;
                return Ok(AppendGuard {
                    store: self,
                    drive,
                    object,
                });
            }
        }
        let object = self.create(drive, self.config.pack_target_bytes)?;
        let (ep, cap) = self.access(drive, object, Rights::SETATTR)?;
        ep.set_fs_specific(&cap, Self::tag(ROLE_PACK, 0))?;
        let mut inner = self.inner.lock();
        if inner.packs.len() <= drive as usize {
            inner.packs.resize(drive as usize + 1, Vec::new());
        }
        if let Some(v) = inner.packs.get_mut(drive as usize) {
            // A racing inserter may have rolled first; adopt whichever
            // open pack exists, keeping ours as an extra (it will fill
            // later or stay empty — both harmless).
            v.push(PackState { object, covered: 0 });
        }
        *inner.inflight.entry((drive, object.0)).or_insert(0) += 1;
        Ok(AppendGuard {
            store: self,
            drive,
            object,
        })
    }

    /// Raise the covered watermark of `(drive, object)` to `upto`.
    pub(crate) fn cover(inner: &mut Inner, drive: u32, object: ObjectId, upto: u64) {
        if let Some(p) = inner
            .packs
            .get_mut(drive as usize)
            .and_then(|v| v.iter_mut().find(|p| p.object == object))
        {
            p.covered = p.covered.max(upto);
        }
    }

    pub(crate) fn update_ratio(&self, inner: &Inner) {
        let milli = inner
            .ingested
            .saturating_mul(1000)
            .checked_div(inner.stored)
            .unwrap_or(1000) as i64;
        self.metrics.dedup_ratio.set(milli);
    }

    /// Build a store-object tag.
    fn tag(role: u8, generation: u64) -> [u8; FS_SPECIFIC_ATTR_LEN] {
        let mut t = [0u8; FS_SPECIFIC_ATTR_LEN];
        let mut w = WireWriter::with_capacity(17);
        w.raw(TAG_MAGIC).u8(role).u64(generation);
        for (dst, src) in t.iter_mut().zip(w.as_slice()) {
            *dst = *src;
        }
        t
    }

    /// Parse a store-object tag; `None` for foreign objects.
    fn parse_tag(fs_specific: &[u8; FS_SPECIFIC_ATTR_LEN]) -> Option<(u8, u64)> {
        let mut r = WireReader::new(fs_specific);
        if r.raw(8).ok()? != TAG_MAGIC {
            return None;
        }
        let role = r.u8().ok()?;
        let generation = r.u64().ok()?;
        Some((role, generation))
    }

    /// Borrow the metrics block (gc.rs).
    pub(crate) fn metrics_gc(
        &self,
    ) -> (
        &Arc<nasd_obs::Counter>,
        &Arc<nasd_obs::Counter>,
        &Arc<nasd_obs::Counter>,
        &Arc<nasd_obs::Counter>,
    ) {
        (
            &self.metrics.gc_runs,
            &self.metrics.gc_marked,
            &self.metrics.gc_swept,
            &self.metrics.gc_reclaimed,
        )
    }

    /// Shared mutable state (gc.rs).
    pub(crate) fn inner_for_gc(&self) -> &Arc<Mutex<Inner>> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;

    #[test]
    fn failed_flush_keeps_stale_index_objects_tracked() {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(1, DriveConfig::small().durable(), PartitionId(1), 64 << 20)
                .unwrap(),
        );
        let registry = Registry::new();
        let store =
            ChunkStore::open(Arc::clone(&fleet), StoreConfig::default(), &registry).unwrap();
        let mut session = store.pin_session();
        store.insert(&mut session, b"flush me durably").unwrap();
        store.flush().unwrap();
        let before = store.inner.lock().index_objects.clone();
        assert_eq!(before.len(), 1);

        // A flush that cannot reach the drive must fail *without*
        // forgetting the previous index object: dropping it from the
        // tracked list would leak it on the drive forever.
        fleet.crash(0);
        assert!(store.flush().is_err());
        assert_eq!(store.inner.lock().index_objects, before);

        // Once the drive is back, the next flush retires it as usual.
        fleet.restart(0).unwrap();
        let generation = store.flush().unwrap();
        let after = store.inner.lock().index_objects.clone();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].2, generation);
        assert!(generation > before[0].2);
    }
}
