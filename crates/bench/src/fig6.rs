//! Figure 6: NASD prototype bandwidth vs the local filesystem (FFS) and
//! the raw device, for sequential reads (a) and writes (b).
//!
//! The prototype "drive" is two Medallists striped at 32 KB, each on its
//! own 5 MB/s SCSI bus; the host is the DEC Alpha 3000/400 (133 MHz).
//! Apparent bandwidth is measured exactly as in the paper: "response
//! timing is done by a user-level process issuing a single request for
//! the specified amount of data" — request size divided by per-request
//! latency, closed loop, no pipelining.
//!
//! Calibrated host constants (documented here because the figure's
//! absolute values depend on them):
//!
//! * `MEM_COPY_MB_S` = 96 — one memcpy pass on the Alpha;
//! * NASD's cache-hit path makes 2.4 copy-passes per byte vs FFS's 2.0
//!   ("for cached accesses, FFS benefits from doing one less data copy"),
//!   yielding the paper's ~40 vs ~48 MB/s plateau;
//! * past 384 KB both degrade as the 512 KB L2 overflows, NASD more
//!   severely ("NASD's extra copy makes this more severe");
//! * FFS misses read in 64 KB clusters whose physical discontiguity
//!   (block interleaving) forces a positioning delay per cluster — the
//!   reason "NASD is better tuned for disk access (~5 MB/s versus
//!   ~2.5 MB/s on reads that miss in the cache)".

use crate::testbed;
use nasd::disk::{specs, DiskModel, StripedModel};
use nasd::object::{CostMeter, OpKind};
use nasd::sim::{CpuModel, SimTime};

/// Memory copy bandwidth of the host, MB/s per pass.
pub const MEM_COPY_MB_S: f64 = 96.0;
/// Copy passes on NASD's cache-hit path.
pub const NASD_HIT_COPIES: f64 = 2.4;
/// Copy passes on FFS's cache-hit path (one less data copy).
pub const FFS_HIT_COPIES: f64 = 2.0;
/// L2 capacity; working sets beyond this degrade the copy rate.
pub const L2_BYTES: u64 = 512 * 1024;
/// FFS read clustering granule.
pub const FFS_CLUSTER: u64 = 64 * 1024;
/// FFS write-behind limit: "it acknowledges immediately for writes of up
/// to 64 KB (write-behind), and otherwise waits for disk media".
pub const FFS_WRITE_BEHIND_LIMIT: u64 = 64 * 1024;

/// Requests per measurement run.
const RUN_REQUESTS: u64 = 24;

fn prototype_disks() -> StripedModel {
    StripedModel::new(
        vec![
            DiskModel::new(specs::MEDALLIST.clone()),
            DiskModel::new(specs::MEDALLIST.clone()),
        ],
        32 * 1024,
    )
}

fn host_cpu() -> CpuModel {
    testbed::drive_cpu()
}

/// Copy time for `bytes` over `passes` passes, with L2 degradation when
/// the request (source + destination working set) overflows the L2.
fn copy_time(bytes: u64, passes: f64, severity: f64) -> SimTime {
    let rate = if 2 * bytes > L2_BYTES {
        MEM_COPY_MB_S * severity
    } else {
        MEM_COPY_MB_S
    };
    SimTime::from_secs_f64(bytes as f64 * passes / (rate * 1e6))
}

/// One row of Figure 6: apparent bandwidth (MB/s) per system at one
/// request size.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Request size in bytes.
    pub size: u64,
    /// Raw striped device, sequential reads.
    pub raw_read: f64,
    /// Raw striped device, sequential writes (write-behind acks).
    pub raw_write: f64,
    /// NASD reads hitting the drive's memory cache.
    pub nasd_hit: f64,
    /// NASD reads missing (from media).
    pub nasd_miss: f64,
    /// FFS reads hitting the buffer cache.
    pub ffs_hit: f64,
    /// FFS reads missing (clustered media reads).
    pub ffs_miss: f64,
    /// NASD writes (write-behind fully enabled).
    pub nasd_write: f64,
    /// FFS writes (write-behind to 64 KB, synchronous beyond).
    pub ffs_write: f64,
}

fn bandwidth(bytes: u64, elapsed: SimTime) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

fn raw_read_bw(size: u64) -> f64 {
    let mut disks = prototype_disks();
    let mut now = SimTime::ZERO;
    for i in 0..RUN_REQUESTS {
        now = disks.read(now, i * size, size);
    }
    bandwidth(RUN_REQUESTS * size, now)
}

fn raw_write_bw(size: u64) -> f64 {
    let mut disks = prototype_disks();
    let mut now = SimTime::ZERO;
    for i in 0..RUN_REQUESTS {
        now = disks.write(now, i * size, size);
    }
    bandwidth(RUN_REQUESTS * size, now)
}

/// NASD object-system CPU time for one request (no RPC: the Figure 6
/// prototype served "NASD requests from a user-level process on the same
/// machine (without the use of RPC)").
fn nasd_cpu(size: u64, cold_blocks: u64) -> SimTime {
    let meter = CostMeter::new();
    let cost = meter.estimate(OpKind::Read, size, cold_blocks);
    // Communications are out of the picture; only object-system work.
    host_cpu().time_for_instructions(cost.nasd_instructions.round() as u64)
}

fn nasd_hit_bw(size: u64) -> f64 {
    let per_request = nasd_cpu(size, 0) + copy_time(size, NASD_HIT_COPIES, 0.75);
    bandwidth(size, per_request)
}

fn ffs_hit_bw(size: u64) -> f64 {
    // FFS's lookup path is a little heavier than NASD's flat namespace,
    // but the difference is dominated by the extra copy.
    let cpu = host_cpu().time_for_instructions(4_000 + size / 10);
    let per_request = cpu + copy_time(size, FFS_HIT_COPIES, 0.85);
    bandwidth(size, per_request)
}

fn nasd_miss_bw(size: u64) -> f64 {
    let mut disks = prototype_disks();
    let meter = CostMeter::new();
    let mut now = SimTime::ZERO;
    for i in 0..RUN_REQUESTS {
        let disk_done = disks.read(now, i * size, size);
        now = disk_done + nasd_cpu(size, meter.cold_blocks_for(size)) + copy_time(size, 1.0, 0.8);
    }
    bandwidth(RUN_REQUESTS * size, now)
}

fn ffs_miss_bw(size: u64) -> f64 {
    // FFS reads the file in 64 KB clusters laid out with block
    // interleaving: physically discontiguous, so every cluster pays a
    // positioning delay in the mechanical model.
    let mut disks = prototype_disks();
    let mut now = SimTime::ZERO;
    let clusters_per_req = size.div_ceil(FFS_CLUSTER);
    let mut cluster_idx = 0u64;
    for _ in 0..RUN_REQUESTS {
        for _ in 0..clusters_per_req {
            let take = FFS_CLUSTER.min(size);
            // Interleave factor 2: logical cluster k at physical 2k.
            now = disks.read(now, cluster_idx * 2 * FFS_CLUSTER, take);
            cluster_idx += 1;
        }
        now += copy_time(size, 1.0, 0.85)
            + host_cpu().time_for_instructions(6_000 + clusters_per_req * 2_000);
    }
    bandwidth(RUN_REQUESTS * size, now)
}

fn nasd_write_bw(size: u64) -> f64 {
    // Write-behind fully enabled: the object system absorbs the write in
    // its cache (one copy) and the disks drain behind; apparent latency
    // is CPU + copy + the (back-pressured) disk ack.
    let mut disks = prototype_disks();
    let mut now = SimTime::ZERO;
    for i in 0..RUN_REQUESTS {
        let accept = disks.write(now, i * size, size);
        now = accept.max(now + nasd_cpu(size, 0) + copy_time(size, NASD_HIT_COPIES, 0.75));
    }
    bandwidth(RUN_REQUESTS * size, now)
}

fn ffs_write_bw(size: u64) -> f64 {
    if size <= FFS_WRITE_BEHIND_LIMIT {
        // Acknowledged at copy speed.
        let per_request =
            copy_time(size, FFS_HIT_COPIES, 0.85) + host_cpu().time_for_instructions(5_000);
        bandwidth(size, per_request)
    } else {
        // Waits for media.
        let mut disks = prototype_disks();
        let mut now = SimTime::ZERO;
        for i in 0..RUN_REQUESTS {
            disks.write(now, i * size, size);
            now = disks
                .flush(now)
                .max(now + copy_time(size, FFS_HIT_COPIES, 0.85));
        }
        bandwidth(RUN_REQUESTS * size, now)
    }
}

/// The request sizes swept (the paper's x-axis reaches 512 KB).
#[must_use]
pub fn sizes() -> Vec<u64> {
    vec![
        16 * 1024,
        32 * 1024,
        64 * 1024,
        128 * 1024,
        256 * 1024,
        384 * 1024,
        512 * 1024,
    ]
}

/// Run the full Figure 6 sweep.
#[must_use]
pub fn run() -> Vec<Fig6Row> {
    sizes()
        .into_iter()
        .map(|size| Fig6Row {
            size,
            raw_read: raw_read_bw(size),
            raw_write: raw_write_bw(size),
            nasd_hit: nasd_hit_bw(size),
            nasd_miss: nasd_miss_bw(size),
            ffs_hit: ffs_hit_bw(size),
            ffs_miss: ffs_miss_bw(size),
            nasd_write: nasd_write_bw(size),
            ffs_write: ffs_write_bw(size),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rows: &[Fig6Row], size: u64) -> &Fig6Row {
        rows.iter().find(|r| r.size == size).expect("size present")
    }

    #[test]
    fn cache_hits_match_paper_plateaus() {
        // "~48 MB/s versus ~40 MB/s on reads that hit in the memory cache"
        let rows = run();
        let r = at(&rows, 256 * 1024);
        assert!((38.0..50.0).contains(&r.ffs_hit), "ffs hit {}", r.ffs_hit);
        assert!(
            (32.0..44.0).contains(&r.nasd_hit),
            "nasd hit {}",
            r.nasd_hit
        );
        assert!(r.ffs_hit > r.nasd_hit, "FFS does one less copy");
    }

    #[test]
    fn l2_overflow_degrades_hits() {
        let rows = run();
        let small = at(&rows, 128 * 1024);
        let big = at(&rows, 512 * 1024);
        assert!(big.nasd_hit < small.nasd_hit);
        assert!(big.ffs_hit < small.ffs_hit);
        // NASD's extra copy makes the degradation more severe.
        let nasd_drop = small.nasd_hit / big.nasd_hit;
        let ffs_drop = small.ffs_hit / big.ffs_hit;
        assert!(nasd_drop > ffs_drop);
    }

    #[test]
    fn miss_reads_match_paper_ratio() {
        // "NASD is better tuned for disk access (~5 MB/s versus ~2.5 MB/s
        // on reads that miss in the cache)".
        let rows = run();
        let r = at(&rows, 512 * 1024);
        assert!(
            (4.0..7.0).contains(&r.nasd_miss),
            "nasd miss {}",
            r.nasd_miss
        );
        assert!((1.8..3.8).contains(&r.ffs_miss), "ffs miss {}", r.ffs_miss);
        assert!(
            r.nasd_miss / r.ffs_miss > 1.5,
            "NASD should roughly double FFS on misses: {} vs {}",
            r.nasd_miss,
            r.ffs_miss
        );
    }

    #[test]
    fn raw_write_appears_faster_than_raw_read() {
        // The write-behind measurement artifact of Figure 6's caption.
        let rows = run();
        for r in &rows {
            assert!(
                r.raw_write > r.raw_read * 0.95,
                "at {}: write {} vs read {}",
                r.size,
                r.raw_write,
                r.raw_read
            );
        }
        let r = at(&rows, 512 * 1024);
        assert!((4.0..7.5).contains(&r.raw_read), "raw read {}", r.raw_read);
        assert!(
            (4.5..10.0).contains(&r.raw_write),
            "raw write {}",
            r.raw_write
        );
    }

    #[test]
    fn ffs_write_behind_cliff_at_64k() {
        // "The strange write performance of FFS occurs because it
        // acknowledges immediately for writes of up to 64 KB."
        let rows = run();
        let below = at(&rows, 64 * 1024);
        let above = at(&rows, 128 * 1024);
        assert!(
            below.ffs_write > above.ffs_write * 3.0,
            "cliff missing: {} then {}",
            below.ffs_write,
            above.ffs_write
        );
    }

    #[test]
    fn nasd_and_raw_comparable_on_miss() {
        // NASD miss tracks the raw device (the object system adds little).
        let rows = run();
        let r = at(&rows, 512 * 1024);
        assert!(r.nasd_miss > r.raw_read * 0.75);
    }

    #[test]
    fn reads_rise_with_request_size() {
        let rows = run();
        let small = at(&rows, 16 * 1024);
        let big = at(&rows, 512 * 1024);
        assert!(
            big.raw_read > small.raw_read,
            "per-request overhead should fade"
        );
    }
}
