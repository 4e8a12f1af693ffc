//! `durable_write`: the persistence stack. One `.durable()` drive (every
//! acked write is in the write-ahead log first) on the benchmark's
//! counting device, one client alternating a 64 KiB sequential write
//! with a 4 KiB overwrite at a hashed offset — long enough to fill the
//! log and fall back to a checkpoint many times. Afterwards the drive
//! is shut down, the same device reopened, and every acked byte read
//! back.

use super::{
    create_partition, drive_config, mem_disk, object_with_cap, observed_drive, Checks, Config,
    DriveProbes, LayerCounters, Workload, FOREVER, PARTITION,
};
use crate::pattern;
use crate::probe::Probe;
use bytes::Bytes;
use nasd::disk::SharedDisk;
use nasd::fm::{spawn_drive, DriveEndpoint};
use nasd::net::ServiceHandle;
use nasd::object::{DriveConfig, NasdDrive};
use nasd::proto::{Capability, ObjectId, Rights};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Object A: 64 KiB sequential writes wrapping this span.
const SEQ_WRITE: u64 = 64 << 10;
const SEQ_SPAN: u64 = 32 << 20;
/// Object B: 4 KiB overwrites at hashed slots of this preallocated span.
const SMALL_WRITE: u64 = 4 << 10;
const SMALL_SPAN: u64 = 4 << 20;
/// Write pairs before the first measured one.
const WARMUP_PAIRS: u64 = 1_000;

/// 64 MiB of device holds the 36 MiB of objects and the 1 MiB log.
fn durable_config() -> DriveConfig {
    drive_config(1_024).durable()
}

pub struct DurableWrite {
    seed: u64,
    corrupt: bool,
    media: SharedDisk,
    drive_probes: DriveProbes,
    ep: DriveEndpoint,
    handle: ServiceHandle,
    seq: (ObjectId, Capability),
    small: (ObjectId, Capability),
    /// Pairs issued so far, warm-up included.
    issued: u64,
    warmup: Checks,
}

impl DurableWrite {
    pub fn new(cfg: &Config) -> Self {
        let config = durable_config();
        let media = SharedDisk::new(mem_disk(&config));
        let (drive, drive_probes) = observed_drive(config, media.clone());
        let (ep, handle) = spawn_drive(drive, Arc::new(AtomicU64::new(1)));
        create_partition(&ep);
        let object = |span: u64, n: u64| {
            let (obj, cap) = object_with_cap(&ep, span);
            // Lay the whole span down once, so the measured loop only
            // ever overwrites and the read-back covers all of it.
            let key = pattern::key(cfg.seed, n);
            for off in (0..span).step_by(SEQ_WRITE as usize) {
                let data = Bytes::from(pattern::make(key, off, SEQ_WRITE as usize));
                ep.write(&cap, off, data).expect("lay down span");
            }
            (obj, cap)
        };
        let seq = object(SEQ_SPAN, 0);
        let small = object(SMALL_SPAN, 1);
        let mut w = DurableWrite {
            seed: cfg.seed,
            corrupt: cfg.corrupt,
            media,
            drive_probes,
            ep,
            handle,
            seq,
            small,
            issued: 0,
            warmup: Checks::default(),
        };
        let mut probe = Probe::new(Instant::now(), false);
        for _ in 0..WARMUP_PAIRS {
            w.one_op(&mut probe);
        }
        w.warmup = Checks {
            attempted: probe.attempted,
            failed: probe.failed,
        };
        w
    }

    /// One logical op: the 64 KiB sequential write, then the 4 KiB
    /// overwrite.
    fn one_op(&mut self, probe: &mut Probe) {
        let i = self.issued;
        self.issued += 1;
        let seq_off = i * SEQ_WRITE % SEQ_SPAN;
        let small_off = pattern::mix(self.seed ^ i) % (SMALL_SPAN / SMALL_WRITE) * SMALL_WRITE;
        let big = pattern::make(pattern::key(self.seed, 0), seq_off, SEQ_WRITE as usize);
        let mut little = pattern::make(pattern::key(self.seed, 1), small_off, SMALL_WRITE as usize);
        if self.corrupt && i.is_multiple_of(16) {
            little[0] ^= 1;
        }
        let (big, little) = (Bytes::from(big), Bytes::from(little));
        let ep = &self.ep;
        probe.begin_op();
        let a = probe.try_call("client.write", || ep.write(&self.seq.1, seq_off, big));
        let b = probe.try_call("client.write_small", || {
            ep.write(&self.small.1, small_off, little)
        });
        probe.write_bytes += SEQ_WRITE + SMALL_WRITE;
        probe.end_op(a == Some(SEQ_WRITE) && b == Some(SMALL_WRITE));
    }
}

impl Workload for DurableWrite {
    fn measure(&mut self, dur: Duration, tracing: bool) -> Vec<Probe> {
        let start = Instant::now();
        let mut probe = Probe::new(start, tracing);
        while start.elapsed() < dur {
            self.one_op(&mut probe);
        }
        vec![probe]
    }

    fn counters(&self) -> LayerCounters {
        self.drive_probes.counters()
    }

    /// Power the drive off, reopen the same media and read every acked
    /// byte back: one check per 64 KiB range of both objects.
    fn finish(self: Box<Self>) -> Checks {
        let DurableWrite {
            seed,
            media,
            ep,
            handle,
            seq,
            small,
            mut warmup,
            ..
        } = *self;
        drop(ep);
        handle.shutdown();
        let mut drive = NasdDrive::builder(1)
            .config(durable_config())
            .open(media)
            .expect("reopen the drive from its device");
        for (n, (obj, span)) in [(seq.0, SEQ_SPAN), (small.0, SMALL_SPAN)]
            .into_iter()
            .enumerate()
        {
            let cap = drive.issue_capability(PARTITION, obj, Rights::READ, FOREVER);
            let client = drive.client(cap);
            let key = pattern::key(seed, n as u64);
            for off in (0..span).step_by(SEQ_WRITE as usize) {
                warmup.attempted += 1;
                let ok = client
                    .read(&mut drive, off, SEQ_WRITE)
                    .is_ok_and(|data| pattern::verify(key, off, SEQ_WRITE, data.iter_slices()));
                if !ok {
                    warmup.failed += 1;
                }
            }
        }
        warmup
    }
}
