//! The metric catalogue: every name the benchmark prints, with its unit
//! and which way is better. `BENCHMARK.json` lists the same names; a
//! test fails when the two drift apart.

/// Named measurements, in report order.
pub type Values = Vec<(&'static str, f64)>;

/// Reads the binary's counting allocator: `(allocations, bytes)`, every
/// thread's.
pub type AllocProbe = fn() -> (u64, u64);

/// A metric a user of the system would see, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Reported by every workload (one logical op is defined per workload).
///
/// The bounds are wide because the shared two-vCPU VM this was written
/// on drifts between a quiet regime and a noisy one within minutes. Over
/// ten seeds per workload the spread (interquartile range over median)
/// stayed under 4.2 % / 3.4 % / 6.4 % (`ops_per_s` / `op_p50_us` /
/// `setup_s`) when quiet, and reached 11 % / 8.9 % / 16 % when noisy,
/// with medians of consecutive ten-run sets up to 14 % apart (31 % for
/// `setup_s` on `socket_stream`, once). So every bound sits at the
/// ceiling the benchmark contract allows; tighten them on a quieter box.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced run and the layer rig.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate name. The `client.*` timings, `fm.calls_per_op`,
/// `client.capcache_hit_frac`, `object.cache_hit_frac` and `disk.*` are
/// taken on the workload being run (0 where the workload makes no such
/// call or has no such layer on its path); the rest come from the layer
/// rig and do not depend on the workload.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("client.op_p99_us", "us", "lower"),
    layer("client.open_p50_us", "us", "lower"),
    layer("client.read_p50_us", "us", "lower"),
    layer("client.write_p50_us", "us", "lower"),
    layer("client.write_small_p50_us", "us", "lower"),
    layer("client.getattr_p50_us", "us", "lower"),
    layer("client.read_mb_s", "MB/s", "higher"),
    layer("client.write_mb_s", "MB/s", "higher"),
    layer("client.trace_overhead_frac", "ratio", "lower"),
    layer("client.attributed_frac", "ratio", "higher"),
    layer("client.capcache_hit_frac", "ratio", "higher"),
    layer("client.sign_ns_64k_read", "ns", "lower"),
    layer("client.sign_ns_64k_write", "ns", "lower"),
    layer("fm.calls_per_op", "count", "lower"),
    layer("fm.lookup_us", "us", "lower"),
    layer("fm.getroot_us", "us", "lower"),
    layer("net.inproc_rtt_us", "us", "lower"),
    layer("net.uds_rtt_us", "us", "lower"),
    layer("net.frame_encode_ns_64k", "ns", "lower"),
    layer("net.frame_decode_ns_64k", "ns", "lower"),
    layer("net.allocs_per_read", "count", "lower"),
    layer("net.alloc_bytes_per_read", "B", "lower"),
    layer("net.allocs_per_write", "count", "lower"),
    layer("net.alloc_bytes_per_write", "B", "lower"),
    layer("net.send_copies_per_read", "B", "lower"),
    layer("proto.req_encode_ns_64k", "ns", "lower"),
    layer("proto.req_decode_ns_64k", "ns", "lower"),
    layer("proto.reply_encode_ns_64k", "ns", "lower"),
    layer("proto.reply_decode_ns_64k", "ns", "lower"),
    layer("crypto.hmac_ns_64b", "ns", "lower"),
    layer("crypto.sha256_mb_s", "MB/s", "higher"),
    layer("object.read_hit_us_64k", "us", "lower"),
    layer("object.read_miss_us_8k", "us", "lower"),
    layer("object.write_us_64k", "us", "lower"),
    layer("object.write_us_8k", "us", "lower"),
    layer("object.getattr_us", "us", "lower"),
    layer("object.write_durable_us_64k", "us", "lower"),
    layer("object.write_durable_us_4k", "us", "lower"),
    layer("object.reopen_ms", "ms", "lower"),
    layer("object.allocs_per_read_hit", "count", "lower"),
    layer("object.copied_bytes_per_read_hit", "B", "lower"),
    layer("object.allocs_per_write_64k", "count", "lower"),
    layer("object.copied_bytes_per_write_64k", "B", "lower"),
    layer("object.instr_per_read_64k", "instr", "lower"),
    layer("object.comm_pct_read_64k", "%", "lower"),
    layer("object.instr_per_write_64k", "instr", "lower"),
    layer("object.cache_hit_frac", "ratio", "higher"),
    layer("disk.dev_reads_per_op", "count", "lower"),
    layer("disk.dev_writes_per_op", "count", "lower"),
    layer("disk.dev_busy_frac", "ratio", "lower"),
    layer("disk.dev_bytes_per_user_byte", "ratio", "lower"),
    layer("sim.dispatch_ns_100k", "ns", "lower"),
    layer("sim.events_per_s_128x1000", "1/s", "higher"),
    layer("sim.aggregate_mb_s_128x1000", "MB/s", "higher"),
    layer("workload.zipf_build_us_8192", "us", "lower"),
    layer("workload.next_request_ns", "ns", "lower"),
    layer("bench.point_wall_ms_13x100", "ms", "lower"),
    layer("bench.point_wall_ms_128x1000", "ms", "lower"),
];
