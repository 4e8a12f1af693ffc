//! The layer rig: each layer's public entry point, timed on the calling
//! thread with inputs built beforehand.
//!
//! Because nothing here crosses a thread, the counting allocator and
//! the `nasd::obs::datapath` copy ledger (thread-local) are exact, and
//! each figure is one layer's self time — what an optimisation of that
//! layer can save an end-to-end op, at most.

use crate::device::CountingDevice;
use crate::metrics::{AllocProbe, Values};
use crate::pattern;
use crate::stats::median;
use crate::workloads::socket_stream;
use crate::workloads::{drive_config, mem_disk, Config, FOREVER, PARTITION as P, QUOTA};
use bytes::Bytes;
use nasd::crypto::{hmac_sha256, Sha256};
use nasd::disk::{BlockDevice, MemDisk, SharedDisk};
use nasd::fm::{DriveFleet, NasdNfs, NfsRequest, NfsResponse};
use nasd::net::{
    read_frame, serve, spawn_service, write_frames, BindAddr, CallOptions, Channel, Connector,
    FrameBuf,
};
use nasd::object::{ClientHandle, DriveConfig, NasdDrive};
use nasd::obs::datapath;
use nasd::proto::wire::{WireEncode, WireWriter};
use nasd::proto::{Reply, ReplyBody, Request, RequestBody, Rights};
use nasd::sim::{SimTime, Simulator};
use nasd::workload::{RequestStream, WorkloadSpec, Zipf};
use nasd_bench::scale;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const K64: u64 = 64 << 10;
const BATCHES: usize = 7;

/// Iteration counts scale with the run length, so `--seconds 1` smoke
/// runs stay quick; a full run uses the counts as written.
#[derive(Clone, Copy)]
struct Scale(f64);

impl Scale {
    fn n(self, full: u64) -> u64 {
        ((full as f64 * self.0) as u64).max(4)
    }
}

/// Median over [`BATCHES`] batches of the mean nanoseconds per call.
/// The first batch doubles as the warm-up the median discards.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

/// A drive driven directly through `NasdDrive::handle`, one object, one
/// full-rights client handle.
struct Direct<D: BlockDevice> {
    drive: NasdDrive<D>,
    client: ClientHandle,
}

/// What handling a batch of prepared requests cost, per request.
struct Handled {
    ns: f64,
    allocs: f64,
    copied_bytes: f64,
    instructions: f64,
    comm_pct: f64,
}

impl<D: BlockDevice> Direct<D> {
    fn new(config: DriveConfig, device: D, span: u64) -> Self {
        let mut drive = NasdDrive::builder(1).config(config).build_on(device);
        drive.admin_create_partition(P, QUOTA).expect("partition");
        let obj = drive.admin_create_object(P, 0).expect("object");
        let cap = drive.issue_capability(
            P,
            obj,
            Rights::READ | Rights::WRITE | Rights::GETATTR,
            FOREVER,
        );
        let client = drive.client(cap);
        let key = pattern::key(0, 0);
        for off in (0..span).step_by(K64 as usize) {
            client
                .write(&mut drive, off, &pattern::make(key, off, K64 as usize))
                .expect("lay down span");
        }
        Direct { drive, client }
    }

    fn body(&self, write: bool, offset: u64, len: u64) -> RequestBody {
        let cap = &self.client.capability().public;
        let (partition, object) = (cap.partition, cap.object);
        if write {
            RequestBody::Write {
                partition,
                object,
                offset,
                len,
            }
        } else {
            RequestBody::Read {
                partition,
                object,
                offset,
                len,
            }
        }
    }

    /// Sign `iters * BATCHES` requests up front (request `i` is made by
    /// `make(i)`), then time `handle` alone over them.
    fn handle_all(
        &mut self,
        iters: u64,
        alloc: AllocProbe,
        make: impl Fn(&Self, u64) -> (RequestBody, Bytes),
    ) -> Handled {
        let total = iters * BATCHES as u64;
        let reqs: Vec<Request> = (0..total)
            .map(|i| {
                let (body, data) = make(self, i);
                self.client.build(body, data)
            })
            .collect();
        let mut per_call = Vec::with_capacity(BATCHES);
        let (mut instructions, mut comm) = (0.0, 0.0);
        datapath::reset();
        let (a0, _) = alloc();
        for batch in reqs.chunks(iters as usize) {
            let t0 = Instant::now();
            for req in batch {
                let (reply, report) = self.drive.handle(req);
                assert!(
                    reply.status.is_ok(),
                    "rig request failed: {:?}",
                    reply.status
                );
                instructions += report.cost.total();
                comm += report.cost.comm_instructions;
                black_box(reply);
            }
            per_call.push(t0.elapsed().as_nanos() as f64 / batch.len() as f64);
        }
        let (a1, _) = alloc();
        Handled {
            ns: median(&mut per_call),
            allocs: (a1 - a0) as f64 / total as f64,
            copied_bytes: datapath::bytes_copied() as f64 / total as f64,
            instructions: instructions / total as f64,
            comm_pct: comm / instructions * 100.0,
        }
    }
}

/// A copy of `src`'s blocks in a fresh device.
fn snapshot(src: &SharedDisk) -> MemDisk {
    let mut dst = MemDisk::new(src.block_size(), src.num_blocks());
    let mut buf = vec![0u8; src.block_size()];
    for b in 0..src.num_blocks() {
        src.read_block(b, &mut buf).expect("snapshot read");
        if buf.iter().any(|&x| x != 0) {
            dst.write_block(b, &buf).expect("snapshot write");
        }
    }
    dst
}

fn crypto(s: Scale, out: &mut Values) {
    let key = [7u8; 32];
    let msg = [0x5Au8; 64];
    out.push((
        "crypto.hmac_ns_64b",
        time_ns(s.n(20_000), || {
            black_box(hmac_sha256(black_box(&key), black_box(&msg)));
        }),
    ));
    let block = vec![0xA5u8; K64 as usize];
    let ns = time_ns(s.n(200), || {
        black_box(Sha256::digest(black_box(&block)));
    });
    out.push(("crypto.sha256_mb_s", K64 as f64 / 1e6 / (ns / 1e9)));
}

/// Client signing, wire codecs and framing of a 64 KiB write request
/// and a 64 KiB read reply.
fn client_proto_frames(s: Scale, out: &mut Values) {
    let mut d = Direct::new(drive_config(1_024), mem_disk(&drive_config(1_024)), K64);
    let payload = Bytes::from(pattern::make(pattern::key(0, 0), 0, K64 as usize));
    let read_body = d.body(false, 0, K64);
    let write_body = d.body(true, 0, K64);
    out.push((
        "client.sign_ns_64k_read",
        time_ns(s.n(20_000), || {
            black_box(d.client.build(read_body.clone(), Bytes::new()));
        }),
    ));
    out.push((
        "client.sign_ns_64k_write",
        time_ns(s.n(20_000), || {
            black_box(d.client.build(write_body.clone(), payload.clone()));
        }),
    ));

    let request = d.client.build(write_body, payload);
    let (reply, _) = d.drive.handle(&d.client.build(read_body, Bytes::new()));
    assert!(matches!(reply.body, ReplyBody::Data(_)), "rig read failed");

    // Encode the way the socket transport does: a small head plus the
    // payload as shared segments.
    fn frame_parts(encode: impl Fn(&mut WireWriter, &mut Vec<Bytes>)) -> (Vec<u8>, Vec<Bytes>) {
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        encode(&mut head, &mut segments);
        (head.into_vec(), segments)
    }
    out.push((
        "proto.req_encode_ns_64k",
        time_ns(s.n(20_000), || {
            black_box(frame_parts(|h, seg| request.encode_frame(h, seg)));
        }),
    ));
    out.push((
        "proto.reply_encode_ns_64k",
        time_ns(s.n(20_000), || {
            black_box(frame_parts(|h, seg| reply.encode_frame(h, seg)));
        }),
    ));
    let request_wire = Bytes::from(request.to_wire());
    let reply_wire = Bytes::from(reply.to_wire());
    out.push((
        "proto.req_decode_ns_64k",
        time_ns(s.n(20_000), || {
            black_box(Request::from_wire_shared(request_wire.clone()).expect("decode request"));
        }),
    ));
    out.push((
        "proto.reply_decode_ns_64k",
        time_ns(s.n(20_000), || {
            black_box(Reply::from_wire_shared(reply_wire.clone()).expect("decode reply"));
        }),
    ));

    let (head, segments) = frame_parts(|h, seg| reply.encode_frame(h, seg));
    let mut wire = Vec::with_capacity(K64 as usize + 256);
    out.push((
        "net.frame_encode_ns_64k",
        time_ns(s.n(5_000), || {
            wire.clear();
            let frame = FrameBuf::new(1, head.clone(), segments.clone()).expect("frame");
            write_frames(&mut wire, &[frame]).expect("write frame");
        }),
    ));
    out.push((
        "net.frame_decode_ns_64k",
        time_ns(s.n(5_000), || {
            let frame = read_frame(&mut std::io::Cursor::new(&wire[..])).expect("read frame");
            black_box(frame);
        }),
    ));
}

/// One empty round trip over each transport.
fn net_round_trips(s: Scale, cfg: &Config, out: &mut Values) {
    let (rpc, handle) = spawn_service(|x: u64| x);
    let channel = Channel::in_proc(rpc);
    let opts = CallOptions::blocking();
    let ns = time_ns(s.n(20_000), || {
        black_box(channel.call_with(7, &opts).expect("echo"));
    });
    out.push(("net.inproc_rtt_us", ns / 1e3));
    drop(channel);
    handle.shutdown();

    let server = serve(
        &BindAddr::Uds(socket_stream::socket_path(cfg)),
        1,
        |_req: Request| Reply::ok(ReplyBody::Written(0)),
    )
    .expect("serve constant replies");
    let channel = Connector::new().dial(server.addr()).expect("dial");
    // A GetAttr-sized request: header, capability, digest, no payload.
    let d = Direct::new(drive_config(128), mem_disk(&drive_config(128)), K64);
    let cap = &d.client.capability().public;
    let request = d.client.build(
        RequestBody::GetAttr {
            partition: cap.partition,
            object: cap.object,
        },
        Bytes::new(),
    );
    let ns = time_ns(s.n(5_000), || {
        black_box(channel.call_with(request.clone(), &opts).expect("uds rtt"));
    });
    out.push(("net.uds_rtt_us", ns / 1e3));
    drop(channel);
    server.shutdown();
}

/// File-manager requests handled on this thread — no RPC hop to the
/// manager, though the manager still calls its drives.
fn file_manager(s: Scale, out: &mut Values) {
    let fleet =
        Arc::new(DriveFleet::spawn_memory(4, DriveConfig::small(), P, 16 << 20).expect("fleet"));
    let fm = NasdNfs::new(Arc::clone(&fleet)).expect("file manager");
    let root = fm.root();
    let NfsResponse::Handle(dir) = fm.handle(NfsRequest::Mkdir {
        dir: root,
        name: "d".into(),
        mode: 0o755,
        uid: 0,
    }) else {
        panic!("rig mkdir failed");
    };
    // As many entries as a meta_mix directory holds.
    for f in 0..64 {
        let made = fm.handle(NfsRequest::Create {
            dir,
            name: format!("f{f:02}"),
            mode: 0o644,
            uid: 0,
        });
        assert!(
            matches!(made, NfsResponse::Created(..)),
            "rig create failed"
        );
    }
    let mut i = 0u64;
    let ns = time_ns(s.n(2_000), || {
        i += 1;
        let found = fm.handle(NfsRequest::Lookup {
            dir,
            name: format!("f{:02}", pattern::mix(i) % 64),
            want_write: false,
        });
        assert!(matches!(found, NfsResponse::Entry(..)), "rig lookup failed");
    });
    out.push(("fm.lookup_us", ns / 1e3));
    let ns = time_ns(s.n(2_000), || {
        black_box(fm.handle(NfsRequest::GetRoot));
    });
    out.push(("fm.getroot_us", ns / 1e3));
    drop(fm);
    if let Ok(fleet) = Arc::try_unwrap(fleet) {
        fleet.shutdown();
    }
}

/// `NasdDrive::handle` on prepared requests: warm and cold reads,
/// writes, attribute reads, and the durable variants.
fn object_store(s: Scale, alloc: AllocProbe, out: &mut Values) {
    let span = 8u64 << 20;
    let payload =
        |len: u64, off: u64| Bytes::from(pattern::make(pattern::key(0, 0), off, len as usize));

    // Warm: the whole span fits the 8 MiB cache.
    let cfg = drive_config(1_024);
    let mut warm = Direct::new(cfg.clone(), mem_disk(&cfg), span);
    let hit = warm.handle_all(s.n(2_000), alloc, |d, i| {
        (d.body(false, i * K64 % span, K64), Bytes::new())
    });
    out.push(("object.read_hit_us_64k", hit.ns / 1e3));
    out.push(("object.allocs_per_read_hit", hit.allocs));
    out.push(("object.copied_bytes_per_read_hit", hit.copied_bytes));
    out.push(("object.instr_per_read_64k", hit.instructions));
    out.push(("object.comm_pct_read_64k", hit.comm_pct));
    let w64 = warm.handle_all(s.n(500), alloc, |d, i| {
        let off = i * K64 % span;
        (d.body(true, off, K64), payload(K64, off))
    });
    out.push(("object.write_us_64k", w64.ns / 1e3));
    out.push(("object.allocs_per_write_64k", w64.allocs));
    out.push(("object.copied_bytes_per_write_64k", w64.copied_bytes));
    out.push(("object.instr_per_write_64k", w64.instructions));
    let w8 = warm.handle_all(s.n(2_000), alloc, |d, i| {
        let off = i * 8_192 % span;
        (d.body(true, off, 8_192), payload(8_192, off))
    });
    out.push(("object.write_us_8k", w8.ns / 1e3));
    let attr = warm.handle_all(s.n(5_000), alloc, |d, _| {
        let cap = &d.client.capability().public;
        (
            RequestBody::GetAttr {
                partition: cap.partition,
                object: cap.object,
            },
            Bytes::new(),
        )
    });
    out.push(("object.getattr_us", attr.ns / 1e3));

    // Cold: a sequential scan of 16 MiB through a 1 MiB cache never hits.
    let cfg = drive_config(128);
    let cold_span = 16u64 << 20;
    let mut cold = Direct::new(cfg.clone(), mem_disk(&cfg), cold_span);
    let miss = cold.handle_all(s.n(2_000), alloc, |d, i| {
        (d.body(false, i * 8_192 % cold_span, 8_192), Bytes::new())
    });
    out.push(("object.read_miss_us_8k", miss.ns / 1e3));

    // Durable: every ack waits for its write-ahead-log commit.
    let cfg = drive_config(1_024).durable();
    let media = SharedDisk::new(mem_disk(&cfg));
    let (device, _) = CountingDevice::new(media.clone());
    let mut durable = Direct::new(cfg.clone(), device, span);
    let d64 = durable.handle_all(s.n(300), alloc, |d, i| {
        let off = i * K64 % span;
        (d.body(true, off, K64), payload(K64, off))
    });
    out.push(("object.write_durable_us_64k", d64.ns / 1e3));
    let d4 = durable.handle_all(s.n(1_000), alloc, |d, i| {
        let off = pattern::mix(i) % (span / 4_096) * 4_096;
        (d.body(true, off, 4_096), payload(4_096, off))
    });
    out.push(("object.write_durable_us_4k", d4.ns / 1e3));
    drop(durable);
    // Reopening replays the log; a copy per open keeps each replay the
    // same work.
    let mut opens: Vec<f64> = (0..11)
        .map(|_| {
            let copy = snapshot(&media);
            let t0 = Instant::now();
            let reopened = NasdDrive::builder(1).config(cfg.clone()).open(copy);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(reopened.is_ok(), "rig reopen failed");
            ms
        })
        .collect();
    out.push(("object.reopen_ms", median(&mut opens)));
}

fn simulation(s: Scale, out: &mut Values) {
    // Schedule-and-step against 100 000 parked events: the kernel's
    // dispatch cost at a production-sized pending population.
    let pending = 100_000u64;
    let mut sim = Simulator::with_capacity(pending as usize + 64);
    for i in 0..pending {
        // 7919 is coprime with the population: a scrambled, not sorted,
        // arrival order.
        sim.schedule_at(
            SimTime::from_secs(100) + SimTime::from_micros(i * 7919 % pending),
            |_s| {},
        );
    }
    out.push((
        "sim.dispatch_ns_100k",
        time_ns(s.n(100_000), || {
            sim.schedule_in(SimTime::from_nanos(100), |_s| {});
            assert!(sim.step(), "near-term event must run");
        }),
    ));

    out.push((
        "workload.zipf_build_us_8192",
        time_ns(s.n(50), || {
            black_box(Zipf::new(black_box(8_192), 0.99));
        }) / 1e3,
    ));
    let mut stream = RequestStream::new(&WorkloadSpec::scale_default(8_192), 1);
    out.push((
        "workload.next_request_ns",
        time_ns(s.n(200_000), || {
            black_box(stream.next_request());
        }),
    ));

    // The two corners of the scale matrix, three times each.
    for (name, drives, clients) in [
        ("bench.point_wall_ms_13x100", 13, 100),
        ("bench.point_wall_ms_128x1000", 128, 1000),
    ] {
        let mut wall = Vec::new();
        let mut row = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            row = Some(scale::simulate(drives, clients));
            wall.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.push((name, median(&mut wall)));
        if clients == 1000 {
            let row = row.expect("three passes ran");
            out.push(("sim.events_per_s_128x1000", row.events_per_wall_sec));
            out.push(("sim.aggregate_mb_s_128x1000", row.aggregate_mb_s));
        }
    }
}

/// Run the whole rig. `scale` is 1.0 for a full-length run.
pub fn run(scale: f64, cfg: &Config, alloc: AllocProbe) -> Values {
    let s = Scale(scale.min(1.0));
    let mut out = Values::new();
    crypto(s, &mut out);
    client_proto_frames(s, &mut out);
    net_round_trips(s, cfg, &mut out);
    socket_stream::alloc_profile(s.n(1_000), cfg, alloc, &mut out);
    file_manager(s, &mut out);
    object_store(s, alloc, &mut out);
    simulation(s, &mut out);
    out
}
