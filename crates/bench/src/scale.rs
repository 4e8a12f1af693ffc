//! Scale-out saturation: Figure 7 extended 10–100× (ISSUE 10 tentpole).
//!
//! Figure 7 stops at 13 drives and 10 clients because that is all the
//! hardware the paper had. This experiment asks the question the paper
//! could only gesture at: *where does the architecture saturate when
//! the installation is production-sized?* The matrix runs 13/32/64/128
//! drives against 100/400/1000 clients — the scales §5.2 argues a
//! file-manager-per-server design cannot reach.
//!
//! The model runs on Figure 7's testbed (`crate::testbed`: the same
//! closed-loop engine, hardware and data path) and adds the two pieces
//! a scaled installation needs:
//!
//! * **File-manager shards.** Capability issue is a contended FM
//!   resource; shards scale with the fleet (one per 16 drives). A
//!   capability-cache *miss* costs a trip through the object's home
//!   shard before the drive transfer can start; a *hit* goes straight
//!   to the drive. Each client's cache is a set of object indices, one
//!   bit per object: the same policy as
//!   [`LeaseCache`](nasd::fm::LeaseCache), pinned op for op by
//!   `tests::cap_sets_answer_as_lease_caches_do`.
//! * **Generated traffic.** Each client is a closed-loop user from
//!   `nasd-workload`: zipf-popular objects (θ = 0.99), the paper's
//!   read/getattr-heavy op mix, exponential think times. Zipf skew is
//!   what makes the capability cache earn its keep — and what keeps
//!   the per-drive load uneven enough to matter.
//!
//! Per point the bench reports aggregate delivered bandwidth, the
//! kernel's wall-clock event rate, the capability-cache hit rate, and
//! the **saturating component** (the resource class with the highest
//! utilization): drives at small fleets, client links once the fleet
//! outgrows the population's demand.

use crate::fig7;
use crate::testbed::{self, DataPath};
use nasd::object::{CostMeter, OpKind as DriveOp};
use nasd::obs::bounded::CAPACITY;
use nasd::sim::{FifoResource, SimTime};
use nasd::workload::{ClosedLoop, OpKind, RequestStream, WorkloadSpec};

/// Drive-count axis of the matrix (13 = the paper's testbed).
pub const DRIVE_MATRIX: [usize; 4] = [13, 32, 64, 128];
/// Client-count axis of the matrix (the paper stops at 10).
pub const CLIENT_MATRIX: [usize; 3] = [100, 400, 1000];
/// Bytes moved per data operation (the Cheops stripe-unit sweet spot).
pub const TRANSFER: u64 = 64 * 1024;
/// Attribute-operation message size on the links.
const ATTR_BYTES: u64 = 512;
/// Distinct objects per drive in the namespace.
const OBJECTS_PER_DRIVE: usize = 64;
/// Hot ranks each client already holds capabilities for at t = 0. The
/// measurement window is seconds, not the hours a real installation
/// runs; pre-warming the head of each client's working set measures
/// steady-state behaviour instead of cold-boot warmup.
const CAP_PREWARM: usize = 128;
/// FM instructions to validate a lookup and mint one capability
/// (directory parse + policy check + HMAC, per Table 1's comm costs).
const CAP_ISSUE_INSTR: u64 = 40_000;
/// Mean client think time between operations.
fn think_mean() -> SimTime {
    SimTime::from_millis(1)
}
/// Simulated measurement window.
fn window() -> SimTime {
    SimTime::from_secs(2)
}

/// FM shards for a fleet: one per 16 drives, at least one.
#[must_use]
pub fn shards_for(ndrives: usize) -> usize {
    (ndrives / 16).max(1)
}

/// One point of the scale matrix.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Drives in the fleet.
    pub drives: usize,
    /// Closed-loop clients offered.
    pub clients: usize,
    /// File-manager shards serving capability misses.
    pub shards: usize,
    /// Aggregate delivered data bandwidth, MB/s.
    pub aggregate_mb_s: f64,
    /// Completed operations per simulated second.
    pub ops_per_sec: f64,
    /// Closed-loop events (first issues and completions) run per
    /// wall-clock second of the loop (host measure; building the world
    /// is not timed).
    pub events_per_wall_sec: f64,
    /// Capability-cache hit fraction across all clients.
    pub cap_hit_rate: f64,
    /// The resource class with the highest mean utilization.
    pub bottleneck: &'static str,
    /// That class's mean utilization, percent.
    pub bottleneck_util_pct: f64,
}

struct Client {
    stream: RequestStream,
    think: ClosedLoop,
}

/// The objects each client holds a capability for: one bit per object
/// of the namespace per client, all clients in one allocation.
///
/// The simulated capabilities never expire inside the 2 s window, so
/// this is [`LeaseCache`](nasd::fm::LeaseCache) for leases that never
/// run out: a lookup hits exactly when the object's bit is set, and a
/// `put` bounds the set by [`BoundedMap`](nasd::obs::BoundedMap)'s
/// rule.
struct CapSets {
    /// `words` words per client, client after client.
    bits: Vec<u64>,
    words: usize,
    /// Set bits per client.
    live: Vec<usize>,
    /// Lookups over every client that found their object's bit set.
    hits: u64,
    /// Lookups over every client that did not.
    misses: u64,
}

impl CapSets {
    /// Empty sets for `clients` clients over `objects` objects.
    fn new(clients: usize, objects: usize) -> Self {
        let words = objects.div_ceil(64);
        CapSets {
            bits: vec![0; clients * words],
            words,
            live: vec![0; clients],
            hits: 0,
            misses: 0,
        }
    }

    /// Whether `client` holds a capability for `object`; counts a hit
    /// or a miss.
    fn get(&mut self, client: usize, object: usize) -> bool {
        let held = self.bits[client * self.words + object / 64] & (1 << (object % 64)) != 0;
        if held {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        held
    }

    /// Give `client` a capability for `object`.
    fn put(&mut self, client: usize, object: usize) {
        let set = &mut self.bits[client * self.words..][..self.words];
        if self.live[client] >= CAPACITY {
            set.fill(0);
            self.live[client] = 0;
        }
        let (word, bit) = (&mut set[object / 64], 1 << (object % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.live[client] += 1;
        }
    }
}

struct World {
    path: DataPath,
    fm_shard: Vec<FifoResource>,
    clients: Vec<Client>,
    caps: CapSets,
    drive_service_read: SimTime,
    drive_service_write: SimTime,
    drive_service_attr: SimTime,
    client_service_data: SimTime,
    /// Link time of a read's, a write's and a getattr's message.
    wire_read: SimTime,
    wire_write: SimTime,
    wire_attr: SimTime,
    cap_issue: SimTime,
    nobjects: usize,
}

/// Spread object ranks over drives/shards without correlating the hot
/// ranks with low indices (Fibonacci-hash style multiplier).
fn place(object: usize, n: usize) -> usize {
    (object.wrapping_mul(0x9E37_79B9)) % n
}

/// Map a client's popularity rank to a concrete object.
///
/// Popularity is per *user*, not global: each client's zipf ranking is
/// over its own working set (an affine permutation of the namespace),
/// modeling many independent user populations. A single global hot
/// object would funnel the whole installation onto one drive link and
/// no fleet size could scale past it; per-user hot sets spread load
/// while keeping every client's own traffic just as skewed (which is
/// what the capability cache sees).
fn object_of(client: usize, rank: usize, nobjects: usize) -> usize {
    // 193 and 7919 are coprime to the namespace size (a multiple of 64).
    (rank * 193 + client * 7919) % nobjects
}

/// One closed-loop operation of `client`, thinking from `now`.
fn step(w: &mut World, now: SimTime, client: usize, _seq: u64) -> (SimTime, u64) {
    let (ndrives, nshards) = (w.path.serving_cpu.len(), w.fm_shard.len());
    let c = &mut w.clients[client];
    let req = c.stream.next_request();
    let now = now + c.think.think();
    let object = object_of(client, req.object, w.nobjects);

    // Capability check: a miss detours through the object's home
    // FM shard before the drive will accept the request.
    let mut start = now;
    if !w.caps.get(client, object) {
        let (_, issued) = w.fm_shard[place(object, nshards)].reserve(now, w.cap_issue);
        start = issued;
        w.caps.put(client, object);
    }

    let drive = place(object, ndrives);
    let (service, wire, client_service) = match req.op {
        OpKind::Read => (w.drive_service_read, w.wire_read, w.client_service_data),
        OpKind::Write => (w.drive_service_write, w.wire_write, w.client_service_data),
        OpKind::GetAttr => (w.drive_service_attr, w.wire_attr, SimTime::from_micros(10)),
    };
    let done = w
        .path
        .transfer(start, (drive, drive), client, service, wire, client_service);
    (done, req.bytes)
}

/// Capability sets for `clients` clients over `objects` objects, each
/// holding its [`CAP_PREWARM`] hottest ranks.
fn prewarmed(clients: usize, objects: usize) -> CapSets {
    let mut caps = CapSets::new(clients, objects);
    for c in 0..clients {
        for rank in 0..CAP_PREWARM.min(objects) {
            caps.put(c, object_of(c, rank, objects));
        }
    }
    caps
}

/// Simulate one matrix point.
#[must_use]
pub fn simulate(ndrives: usize, nclients: usize) -> ScaleRow {
    let nshards = shards_for(ndrives);
    let drive_cpu = testbed::drive_cpu();
    let meter = CostMeter::new();

    let spec = WorkloadSpec::scale_default(ndrives * OBJECTS_PER_DRIVE);
    // One popularity table for the point; each client reseeds a view.
    let streams = RequestStream::new(&spec, 0);
    let world = World {
        path: DataPath::new(ndrives, ndrives, nclients),
        fm_shard: vec![FifoResource::new("fm-shard"); nshards],
        clients: (0..nclients)
            .map(|c| Client {
                stream: streams.reseeded(0x5CA1_E000 + c as u64),
                think: ClosedLoop::new(think_mean(), 0x7417_0000 + c as u64),
            })
            .collect(),
        caps: prewarmed(nclients, spec.objects),
        drive_service_read: meter
            .estimate(DriveOp::Read, TRANSFER, 0)
            .time_on(&drive_cpu),
        drive_service_write: meter
            .estimate(DriveOp::Write, TRANSFER, 0)
            .time_on(&drive_cpu),
        drive_service_attr: meter.estimate(DriveOp::GetAttr, 0, 0).time_on(&drive_cpu),
        client_service_data: testbed::client_cpu()
            .time_for_instructions(fig7::client_rpc().instructions(TRANSFER)),
        wire_read: testbed::wire_time(spec.read_bytes),
        wire_write: testbed::wire_time(spec.write_bytes),
        wire_attr: testbed::wire_time(ATTR_BYTES),
        // Shards run on server-class silicon (§5.2's file-manager host).
        cap_issue: testbed::server_cpu().time_for_instructions(CAP_ISSUE_INSTR),
        nobjects: spec.objects,
    };

    let started = std::time::Instant::now();
    let run = testbed::closed_loop(world, nclients, window(), step);
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let w = &run.world;
    let elapsed = window();
    let classes: [(&'static str, f64); 5] = [
        (
            "drive-cpu",
            testbed::mean_utilization(&w.path.serving_cpu, elapsed),
        ),
        (
            "drive-link",
            testbed::mean_link_utilization(&w.path.serving_link, elapsed),
        ),
        (
            "client-link",
            testbed::mean_link_utilization(&w.path.client_link, elapsed),
        ),
        (
            "client-cpu",
            testbed::mean_utilization(&w.path.client_cpu, elapsed),
        ),
        ("fm-shard", testbed::mean_utilization(&w.fm_shard, elapsed)),
    ];
    let (bottleneck, util) = classes
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("five classes");
    let (cap_hits, cap_lookups) = (w.caps.hits, w.caps.hits + w.caps.misses);

    ScaleRow {
        drives: ndrives,
        clients: nclients,
        shards: nshards,
        aggregate_mb_s: run.delivered.mbytes_per_sec(elapsed),
        ops_per_sec: run.delivered.ops_per_sec(elapsed),
        events_per_wall_sec: run.events_run as f64 / wall,
        cap_hit_rate: cap_hits as f64 / cap_lookups.max(1) as f64,
        bottleneck,
        bottleneck_util_pct: util * 100.0,
    }
}

/// Run an arbitrary drives × clients matrix (the CI smoke job uses a
/// truncated one).
#[must_use]
pub fn run_matrix(drives: &[usize], clients: &[usize]) -> Vec<ScaleRow> {
    let mut rows = Vec::with_capacity(drives.len() * clients.len());
    for &d in drives {
        for &c in clients {
            rows.push(simulate(d, c));
        }
    }
    rows
}

/// Run the full 13/32/64/128 × 100/400/1000 matrix.
#[must_use]
pub fn run() -> Vec<ScaleRow> {
    run_matrix(&DRIVE_MATRIX, &CLIENT_MATRIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adding_drives_relieves_a_saturated_fleet() {
        // At 1000 clients the 13-drive testbed is drive-bound; the
        // 128-drive fleet must deliver several times its bandwidth.
        let small = simulate(13, 1000);
        let large = simulate(128, 1000);
        assert!(
            small.bottleneck.starts_with("drive"),
            "13x1000 bottleneck {}",
            small.bottleneck
        );
        assert!(
            large.aggregate_mb_s > small.aggregate_mb_s * 3.0,
            "{:.0} -> {:.0} MB/s",
            small.aggregate_mb_s,
            large.aggregate_mb_s
        );
    }

    #[test]
    fn zipf_traffic_keeps_the_cap_cache_hot() {
        let row = simulate(13, 100);
        assert!(
            row.cap_hit_rate > 0.5,
            "hit rate {:.2} too low for zipf traffic",
            row.cap_hit_rate
        );
    }

    #[test]
    fn fm_shards_never_saturate_first() {
        // §5.2's claim, quantified: capability issue scales out with
        // the shard count and is never the binding resource.
        for row in run_matrix(&[13, 64], &[400]) {
            assert_ne!(row.bottleneck, "fm-shard", "{row:?}");
            assert!(row.bottleneck_util_pct > 0.0);
        }
    }

    #[test]
    fn cap_sets_answer_as_lease_caches_do() {
        use nasd::fm::LeaseCache;
        use rand::{Rng, SeedableRng, StdRng};
        // The largest point's namespace is twice the capacity, so a set
        // fills and the clear-when-full rule runs.
        let (clients, objects) = (3, 128 * OBJECTS_PER_DRIVE);
        let mut sets = prewarmed(clients, objects);
        let caches: Vec<LeaseCache<usize, ()>> = (0..clients)
            .map(|c| {
                let cache = LeaseCache::new(None);
                for rank in 0..CAP_PREWARM {
                    cache.put(object_of(c, rank, objects), (), u64::MAX);
                }
                cache
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(41);
        let mut clears = vec![0; clients];
        for op in 0..90_000 {
            let c = rng.gen_range(0..clients);
            // Half the keys from a hot range, so hits and misses both
            // come often.
            let object = if rng.gen_bool(0.5) {
                rng.gen_range(0..256)
            } else {
                rng.gen_range(0..objects)
            };
            let live = sets.live[c];
            if rng.gen_bool(0.8) {
                // What `step` does: look up, and fill on a miss.
                let held = sets.get(c, object);
                let cached = caches[c].get(&object, 0).is_some();
                assert_eq!(held, cached, "op {op}: client {c}, object {object}");
                if held {
                    continue;
                }
            }
            // The rest are bare puts, which may repeat a held key.
            sets.put(c, object);
            caches[c].put(object, (), u64::MAX);
            if sets.live[c] < live {
                clears[c] += 1;
            }
        }
        let lease = caches.iter().fold((0, 0), |(hits, misses), cache| {
            let s = cache.stats();
            (hits + s.hits, misses + s.misses)
        });
        assert_eq!((sets.hits, sets.misses), lease);
        assert!(
            clears.iter().all(|&n| n > 0),
            "clears per client {clears:?}"
        );
    }

    #[test]
    fn matrix_point_reports_event_rate() {
        let row = simulate(13, 100);
        assert!(row.events_per_wall_sec > 0.0);
        assert!(row.ops_per_sec > 0.0);
        assert_eq!(row.shards, 1);
    }
}
