//! Mechanical disk timing model.
//!
//! Models the behaviours the paper's Figure 6 depends on:
//!
//! * **Seek + rotation + media rate** for cache-miss accesses;
//! * **Readahead**: the drive prefetches sequentially into a segment
//!   cache, hiding per-request turnaround gaps — "raw disk readahead is
//!   effective for requests smaller than about 128 KB";
//! * **Write-behind**: writes complete when accepted into the drive's
//!   cache ("a write's actual completion time is not measured accurately,
//!   resulting in a write throughput that appears to exceed the read
//!   throughput"), with the media draining in the background and
//!   back-pressure once the cache fills.
//!
//! Every byte delivered is charged to the media channel, so sustained
//! sequential throughput can never exceed the media rate; the readahead
//! credit only hides host turnaround time. The model is deterministic:
//! rotational latency uses the expected half rotation rather than a
//! sampled phase.

use crate::specs::DiskSpec;
use nasd_sim::SimTime;

/// Direction of a disk transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskOp {
    /// Media-to-host.
    Read,
    /// Host-to-media.
    Write,
}

/// Timing model of one disk drive.
///
/// All methods take `now` (the simulation clock) and return the completion
/// time of the operation; internal horizons track the head position, the
/// sequential read stream, and the write-behind backlog.
///
/// # Example
///
/// ```
/// use nasd_disk::{specs, DiskModel};
/// use nasd_sim::SimTime;
///
/// let mut disk = DiskModel::new(specs::BARRACUDA.clone());
/// // A far random read pays seek + rotation + media transfer.
/// let t1 = disk.read(SimTime::ZERO, 1 << 30, 512);
/// assert!(t1.as_millis_f64() > 5.0);
/// // The sequential successor is prefetched: sub-millisecond service.
/// let t2 = disk.read(t1, (1 << 30) + 512, 512);
/// assert!((t2 - t1).as_millis_f64() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    spec: DiskSpec,
    /// Byte address the head sits at after all queued media work.
    head_byte: u64,
    /// Next byte of the current sequential read stream (`u64::MAX` when
    /// no stream is active).
    stream_pos: u64,
    /// Time at which the media had read through `stream_pos`.
    media_avail: SimTime,
    /// Horizon when all queued media work (reads + write drain) is done.
    media_free: SimTime,
    /// Horizon when the command channel (controller + bus) is free.
    channel_free: SimTime,
    /// Total busy time on the media channel (for utilization reports).
    media_busy: SimTime,
}

const NO_STREAM: u64 = u64::MAX;

impl DiskModel {
    /// Create a model for `spec` with the head at byte 0 and caches empty.
    #[must_use]
    pub fn new(spec: DiskSpec) -> Self {
        DiskModel {
            spec,
            head_byte: 0,
            stream_pos: NO_STREAM,
            media_avail: SimTime::ZERO,
            media_free: SimTime::ZERO,
            channel_free: SimTime::ZERO,
            media_busy: SimTime::ZERO,
        }
    }

    /// The drive's specification.
    #[must_use]
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// When all queued media work completes (write-behind drain horizon).
    #[must_use]
    pub fn media_free(&self) -> SimTime {
        self.media_free
    }

    /// Total media busy time accumulated.
    #[must_use]
    pub fn media_busy(&self) -> SimTime {
        self.media_busy
    }

    fn positioning_ms(&self, from_byte: u64, to_byte: u64) -> f64 {
        let bpc = self.spec.bytes_per_cylinder();
        let dist = (from_byte / bpc).abs_diff(to_byte / bpc);
        if dist == 0 {
            // Same cylinder but discontiguous: charge rotational latency.
            self.spec.avg_rotational_latency_ms()
        } else {
            self.spec.seek_ms(dist) + self.spec.avg_rotational_latency_ms()
        }
    }

    fn media_transfer(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(self.spec.media_transfer_ms(bytes) / 1e3)
    }

    fn bus_transfer(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(self.spec.interface_transfer_ms(bytes) / 1e3)
    }

    /// Read `len` bytes at byte address `offset`; returns completion time.
    pub fn read(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        let overhead = SimTime::from_secs_f64(self.spec.command_overhead_ms / 1e3);
        let cmd_start = self.channel_free.max(now);
        let bus_ready = cmd_start + overhead;
        let end = offset + len;

        let data_ready = if offset == self.stream_pos {
            // Sequential continuation. While the host was turning the
            // request around, the drive prefetched up to `readahead_bytes`
            // past the stream position; credit that lead (it hides
            // turnaround gaps) but still charge the media for every byte.
            let credit = self.media_transfer(len.min(self.spec.readahead_bytes));
            let virtual_start = self
                .media_avail
                .max(bus_ready.saturating_sub(credit))
                .max(self.media_free.saturating_sub(credit));
            virtual_start + self.media_transfer(len)
        } else {
            // Random access: wait for queued media work, position, fetch.
            let start = self.media_free.max(bus_ready);
            let pos = self.positioning_ms(self.head_byte, offset);
            start + SimTime::from_secs_f64(pos / 1e3) + self.media_transfer(len)
        };

        let prev_media = self.media_free;
        self.media_free = self.media_free.max(data_ready);
        self.media_busy += self.media_free - prev_media;
        self.media_avail = data_ready;
        self.stream_pos = end;
        self.head_byte = end;

        // Bus delivery overlaps the media fetch; completion is bounded by
        // the slower of bus serialization and media availability.
        let bus_done = bus_ready + self.bus_transfer(len);
        let completion = bus_done.max(data_ready);
        self.channel_free = completion;
        completion
    }

    /// Write `len` bytes at byte address `offset`; returns the time the
    /// drive *acknowledges* the write (write-behind). Use [`Self::flush`]
    /// for media durability.
    pub fn write(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        let overhead = SimTime::from_secs_f64(self.spec.command_overhead_ms / 1e3);
        let cmd_start = self.channel_free.max(now);
        let bus_done = cmd_start + overhead + self.bus_transfer(len);

        // Queue the media work: positioning (unless appending right after
        // the previous media operation) plus the media transfer.
        let pos_ms = if offset == self.head_byte {
            0.0
        } else {
            self.positioning_ms(self.head_byte, offset)
        };
        let media_start = self.media_free.max(bus_done);
        let media_done =
            media_start + SimTime::from_secs_f64(pos_ms / 1e3) + self.media_transfer(len);
        self.media_busy += media_done - media_start;
        self.media_free = media_done;
        self.head_byte = offset + len;
        // A write interleaved into a read stream breaks the stream.
        self.stream_pos = NO_STREAM;

        // Back-pressure: the ack may not run further ahead of the media
        // than the write cache can absorb.
        let cache_lead = self.media_transfer(self.spec.write_cache_bytes);
        let completion = bus_done.max(media_done.saturating_sub(cache_lead));
        self.channel_free = completion;
        completion
    }

    /// Complete all write-behind work; returns when media is quiescent.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        self.media_free.max(now)
    }
}

/// A software striping driver over several [`DiskModel`]s — the paper's
/// prototype drive is exactly this: "two physical drives managed by a
/// software striping driver" with a 32 KB stripe unit, each on its own
/// SCSI bus.
///
/// Logical stripe unit `k` maps to disk `k % n` at local unit `k / n`, so
/// a logically sequential stream is sequential on every member disk.
#[derive(Debug, Clone)]
pub struct StripedModel {
    disks: Vec<DiskModel>,
    stripe_unit: u64,
}

impl StripedModel {
    /// Create a striping driver.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is empty or `stripe_unit` is zero.
    #[must_use]
    pub fn new(disks: Vec<DiskModel>, stripe_unit: u64) -> Self {
        assert!(!disks.is_empty(), "need at least one disk");
        assert!(stripe_unit > 0, "stripe unit must be positive");
        StripedModel { disks, stripe_unit }
    }

    /// Number of member disks.
    #[must_use]
    pub fn width(&self) -> usize {
        self.disks.len()
    }

    /// The stripe unit in bytes.
    #[must_use]
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Access the member disks (for utilization reports).
    #[must_use]
    pub fn disks(&self) -> &[DiskModel] {
        &self.disks
    }

    /// Split `[offset, offset+len)` into per-disk contiguous runs of
    /// `(disk index, local offset, length)`, coalescing adjacent units.
    fn split(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let n = self.disks.len() as u64;
        let su = self.stripe_unit;
        let mut runs: Vec<(usize, u64, u64)> = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let unit = pos / su;
            let within = pos % su;
            let take = (su - within).min(end - pos);
            let disk = (unit % n) as usize;
            let local = (unit / n) * su + within;
            if let Some(last) = runs.iter_mut().find(|r| r.0 == disk && r.1 + r.2 == local) {
                last.2 += take;
            } else {
                runs.push((disk, local, take));
            }
            pos += take;
        }
        runs
    }

    /// Read across the stripe; completion is the slowest member's.
    #[expect(
        clippy::indexing_slicing,
        reason = "split() yields member indices inside the stripe by construction"
    )]
    pub fn read(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        let mut done = now;
        for (disk, local, run_len) in self.split(offset, len) {
            done = done.max(self.disks[disk].read(now, local, run_len));
        }
        done
    }

    /// Write across the stripe; completion is the slowest member's ack.
    #[expect(
        clippy::indexing_slicing,
        reason = "split() yields member indices inside the stripe by construction"
    )]
    pub fn write(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        let mut done = now;
        for (disk, local, run_len) in self.split(offset, len) {
            done = done.max(self.disks[disk].write(now, local, run_len));
        }
        done
    }

    /// Flush all members.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        let mut done = now;
        for d in &mut self.disks {
            done = done.max(d.flush(now));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    fn barracuda() -> DiskModel {
        DiskModel::new(specs::BARRACUDA.clone())
    }

    #[test]
    fn random_single_sector_read_near_table1_caption() {
        let mut d = barracuda();
        let t0 = d.read(SimTime::ZERO, 0, 512);
        // A random read roughly a third of the stroke away: the caption's
        // "random single sector from the media in 9.4 msec" regime.
        let third = specs::BARRACUDA.capacity_bytes / 3;
        let t1 = d.read(t0, third, 512);
        let ms = (t1 - t0).as_millis_f64();
        assert!((7.0..12.0).contains(&ms), "random sector read took {ms} ms");
    }

    #[test]
    fn sequential_read_avoids_positioning() {
        let mut d = barracuda();
        let t0 = d.read(SimTime::ZERO, 0, 65_536);
        let t1 = d.read(t0, 65_536, 65_536);
        let seq_ms = (t1 - t0).as_millis_f64();
        // Sequential: media transfer only (4.4 ms at 15 MB/s), no seek.
        assert!((3.5..6.0).contains(&seq_ms), "sequential 64 KB {seq_ms} ms");

        let t2 = d.read(t1, 2_000_000_000, 65_536);
        let rnd_ms = (t2 - t1).as_millis_f64();
        assert!(rnd_ms > seq_ms + 3.0, "random 64 KB {rnd_ms} ms");
    }

    #[test]
    fn sequential_throughput_approaches_media_rate() {
        let mut d = DiskModel::new(specs::MEDALLIST.clone());
        let req = 256 * 1024u64;
        let mut now = SimTime::ZERO;
        let mut offset = 0u64;
        let total = 16u64;
        for _ in 0..total {
            now = d.read(now, offset, req);
            offset += req;
        }
        let mb_s = (total * req) as f64 / 1e6 / now.as_secs_f64();
        assert!(
            (2.4..3.21).contains(&mb_s),
            "sequential read rate {mb_s} MB/s vs media 3.2"
        );
    }

    #[test]
    fn small_sequential_reads_hide_turnaround() {
        // Readahead credit: 8 KB sequential reads should still deliver a
        // large fraction of the media rate despite per-command overhead.
        let mut d = DiskModel::new(specs::MEDALLIST.clone());
        let req = 8 * 1024u64;
        let mut now = SimTime::ZERO;
        let mut offset = 0u64;
        let total = 64u64;
        for _ in 0..total {
            now = d.read(now, offset, req);
            offset += req;
        }
        let mb_s = (total * req) as f64 / 1e6 / now.as_secs_f64();
        assert!(mb_s > 1.8, "8 KB sequential reads only {mb_s} MB/s");
    }

    #[test]
    fn write_behind_ack_faster_than_read() {
        // Figure 6's oddity: apparent write bandwidth exceeds read because
        // acks return at cache-accept time.
        let run = |write: bool| {
            let mut d = DiskModel::new(specs::MEDALLIST.clone());
            let req = 64 * 1024u64;
            let mut now = SimTime::ZERO;
            let mut off = 0;
            for _ in 0..4 {
                now = if write {
                    d.write(now, off, req)
                } else {
                    d.read(now, off, req)
                };
                off += req;
            }
            now.as_millis_f64() / 4.0
        };
        let write_ms = run(true);
        let read_ms = run(false);
        assert!(
            write_ms < read_ms,
            "write ack {write_ms} ms should beat read {read_ms} ms"
        );
    }

    #[test]
    fn write_backpressure_limits_sustained_rate() {
        let mut d = DiskModel::new(specs::MEDALLIST.clone());
        let req = 128 * 1024u64;
        let mut now = SimTime::ZERO;
        let mut off = 0u64;
        let total = 64u64;
        for _ in 0..total {
            now = d.write(now, off, req);
            off += req;
        }
        let mb_s = (total * req) as f64 / 1e6 / now.as_secs_f64();
        // Sustained writes converge to the media rate once the cache fills
        // (the finite cache only buys a transient).
        assert!(mb_s < 4.2, "sustained write rate {mb_s} MB/s too high");
        assert!(d.flush(now) >= now);
    }

    #[test]
    fn flush_is_idempotent_and_monotone() {
        let mut d = barracuda();
        let t = d.write(SimTime::ZERO, 0, 1 << 20);
        let f1 = d.flush(t);
        let f2 = d.flush(f1);
        assert!(f1 >= t);
        assert_eq!(f2, f1);
    }

    #[test]
    fn media_busy_accumulates() {
        let mut d = barracuda();
        let t = d.read(SimTime::ZERO, 0, 1 << 20);
        assert!(d.media_busy() > SimTime::ZERO);
        assert!(d.media_free() <= t);
    }

    #[test]
    fn striped_split_is_exact() {
        let disks = vec![barracuda(), barracuda()];
        let s = StripedModel::new(disks, 32 * 1024);
        let runs = s.split(16 * 1024, 128 * 1024);
        let total: u64 = runs.iter().map(|r| r.2).sum();
        assert_eq!(total, 128 * 1024);
        // Units 0..4 split across 2 disks; per-disk locals are in-order.
        for w in runs.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 + w[0].2 <= w[1].1, "per-disk runs out of order");
            }
        }
    }

    #[test]
    fn striped_sequential_is_sequential_per_disk() {
        // Reading the whole stripe sequentially must produce contiguous
        // per-disk access (the mapping property the prototype relied on).
        let s = StripedModel::new(vec![barracuda(), barracuda()], 32 * 1024);
        let mut per_disk_next = [0u64, 0u64];
        for i in 0..8u64 {
            for (disk, local, len) in s.split(i * 64 * 1024, 64 * 1024) {
                assert_eq!(local, per_disk_next[disk], "discontiguity on {disk}");
                per_disk_next[disk] = local + len;
            }
        }
    }

    #[test]
    fn striped_doubles_sequential_bandwidth() {
        let run = |n_disks: usize| {
            let disks = (0..n_disks)
                .map(|_| DiskModel::new(specs::MEDALLIST.clone()))
                .collect();
            let mut s = StripedModel::new(disks, 32 * 1024);
            let mut now = SimTime::ZERO;
            for i in 0..8u64 {
                now = s.read(now, i * 512 * 1024, 512 * 1024);
            }
            (8.0 * 512.0 * 1024.0) / 1e6 / now.as_secs_f64()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two > one * 1.6,
            "striping speedup too small: {one} -> {two} MB/s"
        );
    }

    #[test]
    fn striped_accessors() {
        let s = StripedModel::new(vec![barracuda()], 4096);
        assert_eq!(s.width(), 1);
        assert_eq!(s.stripe_unit(), 4096);
        assert_eq!(s.disks().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_stripe_panics() {
        let _ = StripedModel::new(vec![], 4096);
    }
}
