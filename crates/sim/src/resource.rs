//! Resource models: FIFO service centers, CPUs and shared serial media.
//!
//! The experiments model contention the way queueing analyses of storage
//! systems do: each contended component (a network link, a SCSI bus, a
//! drive or client CPU) is a single FIFO server. A request *reserves* the
//! resource, obtaining the interval during which it is served; the caller
//! schedules its completion event at the interval's end.

use nasd_obs::{SimTime, Utilization};
use std::fmt;
use std::sync::Arc;

/// A single-server FIFO queue.
///
/// `reserve` answers "if work arrives now needing `service` time, when does
/// it start and finish?", advancing the server's busy horizon. Total busy
/// time is tracked for utilization reporting. A resource is named by its
/// class (`"scsi"`, `"client-cpu"`), a static string, so building one
/// allocates nothing.
///
/// # Example
///
/// ```
/// use nasd_sim::{FifoResource, SimTime};
/// let mut bus = FifoResource::new("scsi0");
/// let (s1, e1) = bus.reserve(SimTime::ZERO, SimTime::from_millis(4));
/// let (s2, e2) = bus.reserve(SimTime::ZERO, SimTime::from_millis(4));
/// assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_millis(4)));
/// assert_eq!(s2, e1); // queued behind the first transfer
/// assert_eq!(e2, SimTime::from_millis(8));
/// ```
#[derive(Debug, Clone)]
pub struct FifoResource {
    name: &'static str,
    next_free: SimTime,
    busy: SimTime,
    jobs: u64,
    observer: Option<Arc<Utilization>>,
}

impl FifoResource {
    /// Create an idle resource of class `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        FifoResource {
            name,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            jobs: 0,
            observer: None,
        }
    }

    /// Resource class name (for reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Mirror every reserved service interval into `utilization`
    /// (typically `registry.utilization(name)` from `nasd-obs`), so the
    /// resource's busy timeline shows up in metric snapshots.
    pub fn observe(&mut self, utilization: Arc<Utilization>) {
        self.observer = Some(utilization);
    }

    /// Reserve `service` time starting no earlier than `now`.
    /// Returns the `(start, end)` of the service interval.
    pub fn reserve(&mut self, now: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let start = self.next_free.max(now);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.jobs += 1;
        if let Some(observer) = &self.observer {
            observer.record_busy(start, end);
        }
        (start, end)
    }

    /// When the resource next becomes idle.
    #[must_use]
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total busy time accumulated.
    #[must_use]
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Jobs served.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of `elapsed` the resource was busy (clamped to 1.0; the
    /// busy horizon may extend past the observation window).
    #[must_use]
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }
}

/// Converts instruction counts to CPU time at a clock rate and CPI.
///
/// §4.4 of the paper estimates drive-resident NASD at "a 200 MHz processor,
/// assuming a CPI of 2.2".
///
/// # Example
///
/// ```
/// use nasd_sim::CpuModel;
/// let cpu = CpuModel::new(200.0, 2.2);
/// // 38k instructions (warm 1-byte read) ≈ 0.42 ms, matching Table 1.
/// let t = cpu.time_for_instructions(38_000);
/// assert!((t.as_secs_f64() - 0.418e-3).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Clock rate in MHz.
    pub mhz: f64,
    /// Average cycles per instruction.
    pub cpi: f64,
}

impl CpuModel {
    /// Create a CPU model.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` or `cpi` is not positive.
    #[must_use]
    pub fn new(mhz: f64, cpi: f64) -> Self {
        assert!(mhz > 0.0 && cpi > 0.0, "mhz and cpi must be positive");
        CpuModel { mhz, cpi }
    }

    /// Time to execute `instructions`.
    #[must_use]
    pub fn time_for_instructions(&self, instructions: u64) -> SimTime {
        let secs = instructions as f64 * self.cpi / (self.mhz * 1e6);
        SimTime::from_secs_f64(secs)
    }

    /// Instructions retired in `time` (inverse mapping, for budget math).
    #[must_use]
    pub fn instructions_in(&self, time: SimTime) -> u64 {
        (time.as_secs_f64() * self.mhz * 1e6 / self.cpi) as u64
    }
}

/// A shared serial medium (SCSI bus, PCI bus, memory bus): a FIFO resource
/// whose service time is derived from a byte count at fixed bandwidth.
///
/// [`wire_time`](Self::wire_time) is the one bytes-to-time conversion: a
/// model that moves the same byte count many times converts it once and
/// [`reserve`](Self::reserve)s the time, which is what
/// [`transfer`](Self::transfer) does per call.
///
/// # Example
///
/// ```
/// use nasd_sim::{BandwidthShare, SimTime};
/// // 5 MB/s narrow SCSI bus shared by two disks.
/// let mut bus = BandwidthShare::new("scsi", 5.0e6);
/// let (_, e1) = bus.transfer(SimTime::ZERO, 5_000_000);
/// assert_eq!(e1.as_millis(), 1000);
/// let (s2, _) = bus.transfer(SimTime::ZERO, 1);
/// assert_eq!(s2, e1); // serialized behind the first transfer
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthShare {
    fifo: FifoResource,
    bytes_per_sec: f64,
}

impl BandwidthShare {
    /// Create a bus with `bytes_per_sec` bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    #[must_use]
    pub fn new(name: &'static str, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        BandwidthShare {
            fifo: FifoResource::new(name),
            bytes_per_sec,
        }
    }

    /// Mirror every transfer interval into `utilization` (see
    /// [`FifoResource::observe`]).
    pub fn observe(&mut self, utilization: Arc<Utilization>) {
        self.fifo.observe(utilization);
    }

    /// Reserve the bus to move `bytes`; returns the `(start, end)` of the
    /// transfer.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.reserve(now, self.wire_time(bytes))
    }

    /// How long moving `bytes` occupies the bus.
    #[must_use]
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Reserve the bus for `wire`, a [`wire_time`](Self::wire_time)
    /// computed ahead; returns the `(start, end)` of the transfer.
    pub fn reserve(&mut self, now: SimTime, wire: SimTime) -> (SimTime, SimTime) {
        self.fifo.reserve(now, wire)
    }

    /// The underlying FIFO (for utilization reports).
    #[must_use]
    pub fn fifo(&self) -> &FifoResource {
        &self.fifo
    }

    /// Bus bandwidth in bytes per second.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }
}

impl fmt::Display for BandwidthShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1} MB/s)",
            self.fifo.name(),
            self.bytes_per_sec / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_back_to_back() {
        let mut r = FifoResource::new("r");
        let (s1, e1) = r.reserve(SimTime::from_millis(10), SimTime::from_millis(5));
        assert_eq!(s1, SimTime::from_millis(10));
        assert_eq!(e1, SimTime::from_millis(15));
        // Arrives while busy: queued.
        let (s2, e2) = r.reserve(SimTime::from_millis(12), SimTime::from_millis(5));
        assert_eq!(s2, SimTime::from_millis(15));
        assert_eq!(e2, SimTime::from_millis(20));
        // Arrives after idle period: starts immediately.
        let (s3, _) = r.reserve(SimTime::from_millis(30), SimTime::from_millis(1));
        assert_eq!(s3, SimTime::from_millis(30));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_time(), SimTime::from_millis(11));
    }

    #[test]
    fn fifo_utilization() {
        let mut r = FifoResource::new("r");
        r.reserve(SimTime::ZERO, SimTime::from_millis(25));
        let u = r.utilization(SimTime::from_millis(100));
        assert!((u - 0.25).abs() < 1e-9);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        // Busy beyond the window clamps to 1.
        r.reserve(SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(r.utilization(SimTime::from_millis(100)), 1.0);
    }

    #[test]
    fn cpu_table1_calibration_points() {
        // Table 1's second column block: at 200 MHz / CPI 2.2,
        // 46k instructions → 0.51 ms (read, cold, 1 B)
        // 1,488k instructions → 16.4 ms (read, cold, 512 KB)
        let cpu = CpuModel::new(200.0, 2.2);
        assert!((cpu.time_for_instructions(46_000).as_secs_f64() - 0.51e-3).abs() < 0.01e-3);
        assert!((cpu.time_for_instructions(1_488_000).as_secs_f64() - 16.4e-3).abs() < 0.1e-3);
    }

    #[test]
    fn cpu_inverse_roundtrip() {
        let cpu = CpuModel::new(133.0, 2.2);
        let t = cpu.time_for_instructions(1_000_000);
        let n = cpu.instructions_in(t);
        assert!((n as i64 - 1_000_000i64).abs() < 10);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn cpu_rejects_zero_clock() {
        let _ = CpuModel::new(0.0, 2.0);
    }

    #[test]
    fn bus_shares_bandwidth_by_serialization() {
        let mut bus = BandwidthShare::new("pci", 133.0e6);
        let (s1, e1) = bus.transfer(SimTime::ZERO, 133_000_000);
        assert_eq!((s1.as_millis(), e1.as_millis()), (0, 1000));
        let (s2, e2) = bus.transfer(SimTime::from_millis(500), 133_000_000);
        assert_eq!((s2.as_millis(), e2.as_millis()), (1000, 2000));
        assert_eq!(bus.fifo().jobs(), 2);
    }

    #[test]
    fn observed_fifo_mirrors_intervals() {
        let mut r = FifoResource::new("arm");
        let u = Arc::new(Utilization::new());
        r.observe(Arc::clone(&u));
        r.reserve(SimTime::ZERO, SimTime::from_millis(5));
        r.reserve(SimTime::from_millis(20), SimTime::from_millis(5));
        assert_eq!(
            u.intervals(),
            vec![
                (SimTime::ZERO, SimTime::from_millis(5)),
                (SimTime::from_millis(20), SimTime::from_millis(25)),
            ]
        );
        assert_eq!(u.busy_time(), r.busy_time());
    }

    #[test]
    fn a_precomputed_wire_time_reserves_what_transfer_does() {
        // The testbed's OC-3 rate and every byte count a model moves:
        // the scale matrix's 512 B attribute message and 64 KiB
        // transfer, Figure 7's and Figure 9's 512 KiB piece, then a
        // seeded sweep of sizes up to 16 MiB.
        let bytes_per_sec = 155.0e6 / 8.0;
        let mut sizes = vec![0, 1, 512, 64 * 1024, 512 * 1024];
        sizes.extend((0..2_000).map(|i| crate::splitmix64(i) % (16 << 20)));
        let wire: Vec<SimTime> = {
            let bus = BandwidthShare::new("oc3", bytes_per_sec);
            sizes.iter().map(|&b| bus.wire_time(b)).collect()
        };
        let mut by_bytes = BandwidthShare::new("oc3", bytes_per_sec);
        let mut by_time = BandwidthShare::new("oc3", bytes_per_sec);
        for (i, (&bytes, &wire)) in sizes.iter().zip(&wire).enumerate() {
            // Arrivals both behind the busy horizon and past it.
            let now = SimTime::from_nanos(crate::splitmix64(!(i as u64)) % (1 << 40));
            assert_eq!(
                by_bytes.transfer(now, bytes),
                by_time.reserve(now, wire),
                "{bytes} bytes"
            );
        }
        assert_eq!(by_bytes.fifo().busy_time(), by_time.fifo().busy_time());
    }

    #[test]
    fn bus_display() {
        let bus = BandwidthShare::new("scsi0", 5.0e6);
        assert_eq!(bus.to_string(), "scsi0 (5.0 MB/s)");
    }
}
