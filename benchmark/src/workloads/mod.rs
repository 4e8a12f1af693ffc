//! The five workloads. Names are fixed: later issues cite them.

mod durable_write;
mod nfs;
mod sim_scale;
pub mod socket_stream;

use crate::device::{CountingDevice, DevCounters, DevSnapshot};
use crate::probe::Probe;
use nasd::disk::{BlockDevice, MemDisk};
use nasd::fm::DriveEndpoint;
use nasd::object::{DriveConfig, NasdDrive};
use nasd::obs::{Counter, Registry};
use nasd::proto::{ByteRange, Capability, ObjectId, PartitionId, RequestBody, Rights, Version};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The one partition every drive carries, its quota, and a capability
/// lifetime no run outlives.
pub const PARTITION: PartitionId = PartitionId(1);
pub const QUOTA: u64 = 48 << 20;
pub const FOREVER: u64 = 1 << 40;

/// A 64 MiB drive of 8 KiB blocks — more than any workload stores, so
/// allocation never fails — with `cache_blocks` of block cache.
pub fn drive_config(cache_blocks: usize) -> DriveConfig {
    DriveConfig {
        block_size: 8_192,
        capacity_blocks: 8_192,
        cache_blocks,
        security_enabled: true,
        durable_writes: false,
    }
}

/// What the harness can see of a drive it built itself: the device
/// wrapper's counts and the drive's own cache counters.
pub struct DriveProbes {
    dev: Arc<DevCounters>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl DriveProbes {
    pub fn counters(&self) -> LayerCounters {
        LayerCounters {
            cache_hits: self.cache_hits.value(),
            cache_misses: self.cache_misses.value(),
            dev: self.dev.snapshot(),
            ..LayerCounters::default()
        }
    }
}

/// Drive number 1 of shape `config`, formatted on `device` behind the
/// counting wrapper, with its metrics registry attached.
pub fn observed_drive<D: BlockDevice>(
    config: DriveConfig,
    device: D,
) -> (NasdDrive<CountingDevice<D>>, DriveProbes) {
    let registry = Registry::new();
    let (device, dev) = CountingDevice::new(device);
    let drive = NasdDrive::builder(1)
        .config(config)
        .metrics(Arc::clone(&registry))
        .build_on(device);
    let probes = DriveProbes {
        dev,
        cache_hits: registry.counter("drive/1/cache_hits"),
        cache_misses: registry.counter("drive/1/cache_misses"),
    };
    (drive, probes)
}

/// A fresh in-memory device of `config`'s geometry.
pub fn mem_disk(config: &DriveConfig) -> MemDisk {
    MemDisk::new(config.block_size, config.capacity_blocks)
}

/// Create [`PARTITION`] on `ep`'s drive.
pub fn create_partition(ep: &DriveEndpoint) {
    ep.admin(RequestBody::CreatePartition {
        partition: PARTITION,
        quota: QUOTA,
    })
    .expect("create partition");
}

/// Create an object preallocated to `span` bytes on `ep`'s drive and
/// mint a read/write capability for it.
pub fn object_with_cap(ep: &DriveEndpoint, span: u64) -> (ObjectId, Capability) {
    let obj = ep
        .create_object(PARTITION, span, None, FOREVER)
        .expect("create object");
    let cap = ep.mint(
        PARTITION,
        obj,
        Version(0),
        Rights::READ | Rights::WRITE,
        ByteRange::FULL,
        FOREVER,
    );
    (obj, cap)
}

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 5] = [
    "hot_read",
    "meta_mix",
    "socket_stream",
    "durable_write",
    "sim_scale",
];

/// What every workload is built from.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds the request stream and the stored content.
    pub seed: u64,
    /// Self-test hook: store one wrong byte where reads will find it,
    /// so the output checks must fire.
    pub corrupt: bool,
    /// Directory for sockets and trace files (inside the checkout).
    pub out_dir: PathBuf,
}

/// Cumulative per-layer counts a workload can observe from outside,
/// from set-up to now. The runner differences two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    /// File-manager RPCs the client made.
    pub fm_calls: u64,
    /// Capability-cache lookups answered without the file manager.
    pub cap_hits: u64,
    /// Capability-cache lookups, hits and misses.
    pub cap_lookups: u64,
    /// Drive block-cache hits and misses (drive metrics registry).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The benchmark's device wrapper.
    pub dev: DevSnapshot,
}

impl LayerCounters {
    pub fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        LayerCounters {
            fm_calls: self.fm_calls - earlier.fm_calls,
            cap_hits: self.cap_hits - earlier.cap_hits,
            cap_lookups: self.cap_lookups - earlier.cap_lookups,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            dev: self.dev.since(&earlier.dev),
        }
    }
}

/// Layer counts over one window of work, with what they are per.
#[derive(Debug, Clone, Copy)]
pub struct LayerWindow {
    pub counters: LayerCounters,
    /// Logical ops in the window.
    pub ops: u64,
    /// Payload bytes the ops read and wrote.
    pub user_bytes: u64,
    /// Wall time of the window, nanoseconds.
    pub wall_ns: u64,
}

/// Result of the checks a workload makes outside its measured loop
/// (warm-up ops, read-back after reopen).
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One built, provisioned and warmed-up system under test.
pub trait Workload {
    /// Drive the system closed-loop for `dur`; one [`Probe`] per client
    /// thread.
    fn measure(&mut self, dur: Duration, tracing: bool) -> Vec<Probe>;

    /// Layer counts observable on the system the clients drive.
    fn counters(&self) -> LayerCounters;

    /// Layer counts the end-to-end system hides (a fleet builds its own
    /// drives): replay `ops` requests of the same seeded stream against
    /// one directly-driven drive of the same shape. `None` when
    /// [`Workload::counters`] already sees every layer.
    fn replay_on_drive(&self, _ops: u64) -> Option<LayerWindow> {
        None
    }

    /// Stop every service and make the final output checks, including
    /// those of the warm-up.
    fn finish(self: Box<Self>) -> Checks;
}

/// Build workload `name` — everything before its first measured op.
pub fn build(name: &str, cfg: &Config) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hot_read" => Box::new(nfs::NfsWorkload::new(&nfs::HOT_READ, cfg)),
        "meta_mix" => Box::new(nfs::NfsWorkload::new(&nfs::META_MIX, cfg)),
        "socket_stream" => Box::new(socket_stream::SocketStream::new(cfg)),
        "durable_write" => Box::new(durable_write::DurableWrite::new(cfg)),
        "sim_scale" => Box::new(sim_scale::SimScale::new(cfg)),
        _ => return None,
    })
}
