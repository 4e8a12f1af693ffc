//! `hot_read` and `meta_mix`: one `NfsClient` in a closed loop against
//! a file manager and four memory drives, all in-process services.

use super::{
    drive_config, mem_disk, observed_drive, Checks, Config, LayerCounters, LayerWindow, Workload,
    FOREVER, PARTITION, QUOTA,
};
use crate::pattern;
use crate::probe::Probe;
use nasd::fm::{DriveFleet, FmConnect, NasdNfs, NfsClient};
use nasd::net::{CallOptions, CallStats, Connector, RetryPolicy, ServiceHandle};
use nasd::obs::Registry;
use nasd::proto::Rights;
use nasd::workload::{OpKind, OpMix, Request, RequestStream, WorkloadSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DRIVES: usize = 4;
const BLOCK: usize = 8_192;

/// The shape of one NFS workload.
#[derive(Debug)]
pub struct NfsShape {
    /// Drive block-cache size, blocks of 8 KiB.
    cache_blocks: usize,
    /// File-manager service loops; more than one also turns the
    /// client's capability cache on (`Connector::nfs_sharded`).
    fm_shards: usize,
    dirs: usize,
    files_per_dir: usize,
    file_bytes: u64,
    zipf_theta: f64,
    /// read / write / getattr weights.
    mix: (u32, u32, u32),
    /// Bytes per read or write, at a hashed offset aligned to it.
    transfer: u64,
    /// Ops run before the first measured one, inside `setup_s`.
    warmup_ops: u64,
}

/// Everything cached: 64 files x 256 KiB = 16 MiB over four drives of
/// 16 MiB cache each, zipf 0.99, reads only, capability cache on.
pub const HOT_READ: NfsShape = NfsShape {
    cache_blocks: 2_048,
    fm_shards: 2,
    dirs: 1,
    files_per_dir: 64,
    file_bytes: 256 << 10,
    zipf_theta: 0.99,
    mix: (1, 0, 0),
    transfer: 64 << 10,
    warmup_ops: 100_000,
};

/// Control path: 2048 files x 32 KiB = 16 MiB per drive against 1 MiB
/// of cache per drive, zipf 0.6, the paper's 60/15/25 mix, 8 KiB
/// transfers, no capability cache — every open asks the file manager.
pub const META_MIX: NfsShape = NfsShape {
    cache_blocks: 128,
    fm_shards: 1,
    dirs: 32,
    files_per_dir: 64,
    file_bytes: 32 << 10,
    zipf_theta: 0.6,
    mix: (60, 15, 25),
    transfer: 8 << 10,
    warmup_ops: 10_000,
};

impl NfsShape {
    fn files(&self) -> usize {
        self.dirs * self.files_per_dir
    }

    fn stream(&self, seed: u64) -> RequestStream {
        let (r, w, g) = self.mix;
        RequestStream::new(
            &WorkloadSpec {
                objects: self.files(),
                zipf_theta: self.zipf_theta,
                mix: OpMix::new(r, w, g),
                read_bytes: self.transfer,
                write_bytes: self.transfer,
            },
            seed,
        )
    }

    /// The aligned offset request number `index` touches.
    fn offset(&self, seed: u64, index: u64) -> u64 {
        pattern::mix(seed ^ index) % (self.file_bytes / self.transfer) * self.transfer
    }
}

/// Wrong byte stored with `--corrupt`: the first of every block of the
/// four most popular files, so any read of them mis-verifies.
fn corrupt_blocks(buf: &mut [u8]) {
    for block in buf.chunks_mut(BLOCK) {
        block[0] ^= 1;
    }
}

pub struct NfsWorkload {
    shape: &'static NfsShape,
    seed: u64,
    fleet: Arc<DriveFleet>,
    fm_handles: Vec<ServiceHandle>,
    client: NfsClient,
    fm_stats: CallStats,
    paths: Vec<String>,
    stream: RequestStream,
    /// Requests issued so far (warm-up included): the offset hash input.
    issued: u64,
    wbuf: Vec<u8>,
    warmup: Checks,
}

impl NfsWorkload {
    pub fn new(shape: &'static NfsShape, cfg: &Config) -> Self {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(DRIVES, drive_config(shape.cache_blocks), PARTITION, QUOTA)
                .expect("spawn drive fleet"),
        );
        let fm = NasdNfs::new(Arc::clone(&fleet)).expect("file manager");
        let (mut client, fm_handles) = if shape.fm_shards > 1 {
            let (rpcs, handles) = fm.spawn_sharded(shape.fm_shards);
            let client = Connector::new()
                .nfs_sharded(rpcs, Arc::clone(&fleet))
                .expect("connect sharded client");
            (client, handles)
        } else {
            let (rpc, handle) = fm.spawn();
            let client = Connector::new()
                .nfs(rpc, Arc::clone(&fleet))
                .expect("connect client");
            (client, vec![handle])
        };
        // Same policy the client starts with, plus call counters.
        let fm_stats = CallStats::in_registry(&Registry::new(), "fm");
        client.set_call_options(
            CallOptions::retry(RetryPolicy::control()).with_stats(fm_stats.clone()),
        );

        let mut paths = Vec::with_capacity(shape.files());
        let mut content = vec![0u8; shape.file_bytes as usize];
        for d in 0..shape.dirs {
            let dir = format!("/d{d:02}");
            client.mkdir(&dir, 0o755, 0).expect("mkdir");
            for f in 0..shape.files_per_dir {
                let rank = paths.len() as u64;
                let path = format!("{dir}/f{f:02}");
                let mut file = client.create(&path, 0o644, 0).expect("create");
                pattern::fill(pattern::key(cfg.seed, rank), 0, &mut content);
                if cfg.corrupt && rank < 4 {
                    corrupt_blocks(&mut content);
                }
                for (i, chunk) in content.chunks(64 << 10).enumerate() {
                    let off = (i * (64 << 10)) as u64;
                    let n = client.write(&mut file, off, chunk).expect("provision");
                    assert_eq!(n, chunk.len() as u64, "short provisioning write");
                }
                paths.push(path);
            }
        }

        let mut w = NfsWorkload {
            shape,
            seed: cfg.seed,
            fleet,
            fm_handles,
            client,
            fm_stats,
            paths,
            stream: shape.stream(cfg.seed),
            issued: 0,
            wbuf: vec![0u8; shape.transfer as usize],
            warmup: Checks::default(),
        };
        let mut probe = Probe::new(Instant::now(), false);
        for _ in 0..shape.warmup_ops {
            w.one_op(&mut probe);
        }
        w.warmup = Checks {
            attempted: probe.attempted,
            failed: probe.failed,
        };
        w
    }

    fn one_op(&mut self, probe: &mut Probe) {
        let req = self.stream.next_request();
        let offset = self.shape.offset(self.seed, self.issued);
        self.issued += 1;
        probe.begin_op();
        let ok = self.apply(probe, req, offset).unwrap_or(false);
        probe.end_op(ok);
    }

    /// `open` + the data or attribute call, each timed, the result
    /// verified. `None` when a call failed.
    fn apply(&mut self, probe: &mut Probe, req: Request, offset: u64) -> Option<bool> {
        let client = &self.client;
        let path = &self.paths[req.object];
        let key = pattern::key(self.seed, req.object as u64);
        let len = self.shape.transfer;
        let want_write = req.op == OpKind::Write;
        let mut file = probe.try_call("client.open", || client.open(path, want_write))?;
        Some(match req.op {
            OpKind::Read => {
                let data = probe.try_call("client.read", || client.read(&mut file, offset, len))?;
                probe.read_bytes += len;
                pattern::verify(key, offset, len, data.iter_slices())
            }
            OpKind::Write => {
                pattern::fill(key, offset, &mut self.wbuf);
                let wbuf = &self.wbuf;
                let n = probe.try_call("client.write", || client.write(&mut file, offset, wbuf))?;
                probe.write_bytes += len;
                n == len
            }
            OpKind::GetAttr => {
                let attrs = probe.try_call("client.getattr", || client.getattr(&mut file))?;
                attrs.size == self.shape.file_bytes
            }
        })
    }
}

impl Workload for NfsWorkload {
    fn measure(&mut self, dur: Duration, tracing: bool) -> Vec<Probe> {
        let start = Instant::now();
        let mut probe = Probe::new(start, tracing);
        while start.elapsed() < dur {
            self.one_op(&mut probe);
        }
        vec![probe]
    }

    fn counters(&self) -> LayerCounters {
        let cap = self.client.cap_cache_stats();
        LayerCounters {
            fm_calls: self.fm_stats.calls.value(),
            cap_hits: cap.hits,
            cap_lookups: cap.hits + cap.misses,
            ..LayerCounters::default()
        }
    }

    /// One drive of the fleet's shape holding every fourth file (the
    /// share round-robin placement gives it), driven on this thread
    /// through `ClientHandle` by the same request stream.
    fn replay_on_drive(&self, ops: u64) -> Option<LayerWindow> {
        let shape = self.shape;
        let cfg = drive_config(shape.cache_blocks);
        let device = mem_disk(&cfg);
        let (mut drive, drive_probes) = observed_drive(cfg, device);
        drive
            .admin_create_partition(PARTITION, QUOTA)
            .expect("replay partition");
        let files = shape.files() / DRIVES;
        let mut content = vec![0u8; shape.file_bytes as usize];
        let handles: Vec<_> = (0..files)
            .map(|i| {
                let obj = drive
                    .admin_create_object(PARTITION, 0)
                    .expect("replay object");
                let cap = drive.issue_capability(
                    PARTITION,
                    obj,
                    Rights::READ | Rights::WRITE | Rights::GETATTR,
                    FOREVER,
                );
                let handle = drive.client(cap);
                pattern::fill(pattern::key(self.seed, i as u64), 0, &mut content);
                handle
                    .write(&mut drive, 0, &content)
                    .expect("replay provisioning");
                handle
            })
            .collect();

        let mut stream = shape.stream(self.seed);
        let mut wbuf = vec![0u8; shape.transfer as usize];
        let read = || drive_probes.counters();
        let mut before = read();
        let mut started = Instant::now();
        let mut user_bytes = 0;
        // The first tenth warms the cache, as the end-to-end run's
        // warm-up does; counting starts after it.
        let warm = ops / 10;
        for i in 0..warm + ops {
            if i == warm {
                before = read();
                started = Instant::now();
                user_bytes = 0;
            }
            let req = stream.next_request();
            let n = req.object % files;
            let offset = shape.offset(self.seed, i);
            let handle = &handles[n];
            user_bytes += req.bytes;
            match req.op {
                OpKind::Read => {
                    handle
                        .read(&mut drive, offset, shape.transfer)
                        .expect("replay read");
                }
                OpKind::Write => {
                    pattern::fill(pattern::key(self.seed, n as u64), offset, &mut wbuf);
                    handle
                        .write(&mut drive, offset, &wbuf)
                        .expect("replay write");
                }
                OpKind::GetAttr => {
                    handle.get_attr(&mut drive).expect("replay getattr");
                }
            }
        }
        Some(LayerWindow {
            counters: read().since(&before),
            ops,
            user_bytes,
            wall_ns: started.elapsed().as_nanos() as u64,
        })
    }

    fn finish(self: Box<Self>) -> Checks {
        let NfsWorkload {
            fleet,
            fm_handles,
            client,
            warmup,
            ..
        } = *self;
        drop(client);
        for h in fm_handles {
            h.shutdown();
        }
        // The file manager's service loops held the other references.
        if let Ok(fleet) = Arc::try_unwrap(fleet) {
            fleet.shutdown();
        }
        warmup
    }
}
