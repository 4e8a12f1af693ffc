//! Ablation studies for the design choices the paper argues in prose.
//!
//! Four sweeps, each quantifying one claim:
//!
//! 1. **RPC stack cost** (§4.3/§7): "commodity NASD drives must have a
//!    less costly RPC mechanism" — how the client-side protocol cost caps
//!    per-client bandwidth.
//! 2. **Stripe unit** (§5.2): where the 512 KB choice sits between
//!    per-request overhead (small units) and load imbalance (huge units).
//! 3. **Cryptographic protection** (§4.1): "protecting the integrity
//!    and/or privacy of the data involves cryptographic operations on all
//!    the data which is potentially very expensive... schemes based on
//!    multiple DES function blocks in hardware... operate faster than
//!    disk data rates" — software vs hardware MACs at the drive.
//! 4. **Drive controller speed** (§4.4): the 200 MHz estimate is
//!    "more than adequate" — service times across controller speeds.

use crate::testbed;
use nasd::disk::specs;
use nasd::net::RpcCostModel;
use nasd::object::{CostMeter, OpKind};
use nasd::sim::CpuModel;

// ------------------------------------------------------------- RPC cost

/// One RPC-stack configuration's consequence for a Figure 7 client.
#[derive(Clone, Debug)]
pub struct RpcAblationRow {
    /// Stack name.
    pub stack: &'static str,
    /// Client instructions per payload byte.
    pub per_byte: f64,
    /// Single-client bandwidth ceiling on the 233 MHz AlphaStation, MB/s.
    pub client_ceiling_mb_s: f64,
    /// What then limits the client: "client CPU" or "155 Mb/s link".
    pub limiter: &'static str,
}

/// Sweep RPC stacks from the measured DCE path down to a lean
/// SAN-class stack.
#[must_use]
pub fn rpc_sweep() -> Vec<RpcAblationRow> {
    let link_mb_s = 155.0 / 8.0;
    [
        ("DCE RPC (measured receive path)", 19.0),
        ("DCE RPC (spec estimate)", 10.0),
        ("tuned UDP path", 4.0),
        ("lean SAN stack", 1.0),
    ]
    .into_iter()
    .map(|(stack, per_byte)| {
        let model = RpcCostModel {
            per_message: 35_000.0,
            per_byte,
        };
        let cpu_cap = model.saturation_mb_s(233.0, 2.2, 512 * 1024);
        let ceiling = cpu_cap.min(link_mb_s);
        RpcAblationRow {
            stack,
            per_byte,
            client_ceiling_mb_s: ceiling,
            limiter: if cpu_cap < link_mb_s {
                "client CPU"
            } else {
                "155 Mb/s link"
            },
        }
    })
    .collect()
}

// ----------------------------------------------------------- stripe unit

/// Per-client-drive-pair bandwidth as a function of the stripe unit.
#[derive(Clone, Debug)]
pub struct StripeAblationRow {
    /// Stripe unit in bytes.
    pub unit: u64,
    /// Per-pair delivered bandwidth, MB/s (pipeline bottleneck analysis).
    pub per_pair_mb_s: f64,
}

/// Bottleneck analysis of the Figure 9 pipeline at different stripe
/// units: drive CPU cost is per-request (small units amplify it), the
/// disk pays a positioning gap per request stream switch.
#[must_use]
pub fn stripe_sweep() -> Vec<StripeAblationRow> {
    let meter = CostMeter::new();
    let drive_cpu = testbed::drive_cpu();
    let client_cpu_per_byte = 15.0; // receive + count, as in fig9
    let media_pair = 2.0 * specs::MEDALLIST.media_mb_s * 1e6; // bytes/s
    [64u64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .map(|kb| {
            let unit = kb * 1024;
            // Disk: media transfer plus a positioning gap per request
            // (interleaved client streams break sequentiality).
            let positioning_s = 8.0e-3;
            let disk_rate = unit as f64 / (unit as f64 / media_pair + positioning_s);
            // Drive CPU: Table-1 style cost per request.
            let service = meter.estimate(OpKind::Read, unit, 0).time_on(&drive_cpu);
            let cpu_rate = unit as f64 / service.as_secs_f64();
            // Client CPU for this drive's share.
            let client_rate = 233.0e6 / 2.2 / client_cpu_per_byte;
            let rate = disk_rate.min(cpu_rate).min(client_rate);
            StripeAblationRow {
                unit,
                per_pair_mb_s: rate / 1e6,
            }
        })
        .collect()
}

// -------------------------------------------------------------- security

/// Cost of one protection level on a 512 KB read at the drive.
#[derive(Clone, Debug)]
pub struct SecurityAblationRow {
    /// Protection configuration.
    pub config: &'static str,
    /// Added milliseconds per 512 KB request at the 200 MHz controller.
    pub added_ms: f64,
    /// Drive data rate under this configuration, MB/s.
    pub effective_mb_s: f64,
}

/// Software vs hardware cryptography at the drive (§4.1). Software MACs
/// cost ~25 instructions/byte (a block cipher or hash compression
/// function on a simple core); hardware keeps up with media rate.
#[must_use]
pub fn security_sweep() -> Vec<SecurityAblationRow> {
    let cpu = testbed::projected_drive_cpu();
    let meter = CostMeter::new();
    let piece = 512.0 * 1024.0;
    let base = meter
        .estimate(OpKind::Read, piece as u64, 0)
        .time_on(&cpu)
        .as_secs_f64();
    let hmac_fixed = 6_000.0; // two small-message MACs per request
    let sw_per_byte = 25.0;
    let rows = [
        ("no security (paper's measured mode)", 0.0),
        ("args integrity (capability MACs only)", hmac_fixed),
        (
            "data integrity, software MAC",
            hmac_fixed + sw_per_byte * piece,
        ),
        // DES function blocks in hardware run at media rate: only the
        // small fixed work remains on the controller.
        ("data integrity, hardware MAC", hmac_fixed + 2_000.0),
    ];
    rows.into_iter()
        .map(|(config, added_instr)| {
            let added_s = cpu.time_for_instructions(added_instr as u64).as_secs_f64();
            SecurityAblationRow {
                config,
                added_ms: added_s * 1e3,
                effective_mb_s: piece / (base + added_s) / 1e6,
            }
        })
        .collect()
}

// --------------------------------------------------------- controller MHz

/// Drive service rate across controller speeds.
#[derive(Clone, Debug)]
pub struct CpuAblationRow {
    /// Controller clock, MHz.
    pub mhz: f64,
    /// 512 KB cached-read service time, ms.
    pub service_ms: f64,
    /// Requests/s → drive data rate, MB/s.
    pub drive_mb_s: f64,
}

/// Sweep the drive controller clock (§4.4's feasibility argument).
#[must_use]
pub fn cpu_sweep() -> Vec<CpuAblationRow> {
    let meter = CostMeter::new();
    [66.0, 100.0, 133.0, 200.0, 300.0]
        .into_iter()
        .map(|mhz| {
            let cpu = CpuModel::new(mhz, 2.2);
            let service = meter
                .estimate(OpKind::Read, 512 * 1024, 0)
                .time_on(&cpu)
                .as_secs_f64();
            CpuAblationRow {
                mhz,
                service_ms: service * 1e3,
                drive_mb_s: 512.0 * 1024.0 / service / 1e6,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lean_rpc_moves_the_bottleneck_to_the_link() {
        let rows = rpc_sweep();
        let dce = &rows[0];
        let lean = &rows[3];
        assert_eq!(dce.limiter, "client CPU");
        assert_eq!(lean.limiter, "155 Mb/s link");
        assert!(lean.client_ceiling_mb_s > 3.0 * dce.client_ceiling_mb_s);
        // The measured DCE path caps a client near the Figure 7 value.
        assert!((4.0..7.0).contains(&dce.client_ceiling_mb_s));
    }

    #[test]
    fn stripe_unit_has_an_interior_plateau() {
        let rows = stripe_sweep();
        let small = rows.first().unwrap();
        let paper_choice = rows.iter().find(|r| r.unit == 512 * 1024).unwrap();
        // 64 KB units lose badly to per-request overheads.
        assert!(small.per_pair_mb_s < 0.8 * paper_choice.per_pair_mb_s);
        // The paper's 512 KB choice is within 10% of the best in sweep.
        let best = rows.iter().map(|r| r.per_pair_mb_s).fold(0.0f64, f64::max);
        assert!(paper_choice.per_pair_mb_s > 0.9 * best);
        // And lands near the measured 6.2 MB/s per pair.
        assert!((5.0..6.6).contains(&paper_choice.per_pair_mb_s));
    }

    #[test]
    fn software_data_crypto_cannot_keep_disk_rate() {
        // §4.1: "software implementations operating at disk rates are not
        // available with the computational resources we expect on a disk".
        let rows = security_sweep();
        let sw = rows.iter().find(|r| r.config.contains("software")).unwrap();
        let hw = rows.iter().find(|r| r.config.contains("hardware")).unwrap();
        let media = 2.0 * specs::MEDALLIST.media_mb_s;
        assert!(
            sw.effective_mb_s < media / 1.2,
            "software MAC should fall below the {media} MB/s media rate: {}",
            sw.effective_mb_s
        );
        assert!(
            hw.effective_mb_s > media,
            "hardware keeps up: {}",
            hw.effective_mb_s
        );
        // Args-only integrity is nearly free.
        let args = &rows[1];
        assert!(args.added_ms < 0.1);
    }

    #[test]
    fn two_hundred_mhz_is_adequate() {
        let rows = cpu_sweep();
        let at_200 = rows.iter().find(|r| r.mhz == 200.0).unwrap();
        // At 200 MHz the controller serves 512 KB requests faster than the
        // prototype's 10 MB/s media can source them.
        assert!(at_200.drive_mb_s > 10.0);
        // Diminishing returns past 200 MHz relative to the media rate.
        let at_300 = rows.iter().find(|r| r.mhz == 300.0).unwrap();
        assert!(at_300.drive_mb_s / at_200.drive_mb_s < 1.6);
    }
}
