//! A long-lived server must not keep a descriptor per connection it has
//! served. In its own test binary so no concurrent test moves the
//! process's descriptor count.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "waits on the wall clock for real server threads to close their descriptors"
)]

use bytes::Bytes;
use nasd_crypto::Sha256;
use nasd_net::{serve, BindAddr, SocketClient, Transport};
use nasd_proto::{
    Nonce, ObjectId, PartitionId, ProtectionLevel, Reply, ReplyBody, Request, RequestBody,
    RequestDigest, SecurityHeader,
};
use std::time::Duration;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn request(mark: u64) -> Request {
    Request {
        header: SecurityHeader {
            protection: ProtectionLevel::ArgsIntegrity,
            nonce: Nonce::new(1, mark),
        },
        capability: None,
        body: RequestBody::GetAttr {
            partition: PartitionId(1),
            object: ObjectId(mark),
        },
        digest: RequestDigest(Sha256::digest(b"fd-leak")),
        data: Bytes::new(),
    }
}

#[test]
fn finished_connections_release_their_descriptors() {
    let server = serve(&BindAddr::uds_temp("fd-leak"), 1, |_req: Request| {
        Reply::ok(ReplyBody::Written(0))
    })
    .unwrap();
    let start = open_fds();
    for i in 0..200u64 {
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        client
            .attempt(request(i), Some(Duration::from_secs(5)))
            .unwrap();
    }
    // The server notices each close on its own connection thread; give
    // the last few a moment.
    let mut now = open_fds();
    for _ in 0..200 {
        if now <= start + 20 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        now = open_fds();
    }
    assert!(
        now <= start + 20,
        "200 finished connections left {} extra descriptors open",
        now - start
    );
    server.shutdown();
}
