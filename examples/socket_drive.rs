//! A NASD drive served over a real Unix-domain socket, and a client
//! dialing it through the pooled wire transport — the same
//! `DriveEndpoint` API as the in-process transport, byte for byte.
//!
//! ```sh
//! cargo run --example socket_drive
//! ```

use bytes::Bytes;
use nasd::fm::serve_drive_socket;
use nasd::net::{BindAddr, Connector};
use nasd::object::NasdDrive;
use nasd::proto::{ByteRange, PartitionId, RequestBody, Rights, Version};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn main() {
    // Serve a real drive on a UDS path: an acceptor and a thread per
    // connection, at most 2 requests in the drive at once. The returned
    // endpoint is a client already dialed back to the server.
    let clock = Arc::new(AtomicU64::new(1));
    let (server, drive) = serve_drive_socket(
        NasdDrive::builder(1).build(),
        clock,
        &BindAddr::uds_temp("example"),
        2,
        &Connector::new().pool(2),
    )
    .expect("bind drive server");
    println!("drive listening on {:?}", server.addr());

    // Provision exactly as a file manager would: partition, object,
    // then a time-limited capability minted with the drive's keys.
    let p = PartitionId(1);
    drive
        .admin(RequestBody::CreatePartition {
            partition: p,
            quota: 1 << 20,
        })
        .expect("create partition");
    let obj = drive
        .create_object(p, 0, None, 3_600)
        .expect("create object");
    let cap = drive.mint(
        p,
        obj,
        Version(0),
        Rights::READ | Rights::WRITE,
        ByteRange::FULL,
        3_600,
    );

    // Every request below is framed, MACed, and sent over a pooled
    // connection; each reply must echo its request's tag.
    let wrote = drive
        .write(&cap, 0, Bytes::from_static(b"hello over the wire"))
        .expect("write");
    let back = drive.read(&cap, 0, wrote).expect("read");
    assert_eq!(back.to_vec(), b"hello over the wire");
    println!(
        "round-tripped {wrote} bytes; server framed {} requests, memcpied {} reply payload bytes",
        server.stats().frames_in.value(),
        server.stats().send_copies.value(),
    );

    server.shutdown();
    println!("server shut down cleanly");
}
