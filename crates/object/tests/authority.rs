//! The drive's access policy as a loop. `RequestBody::authority()` is
//! one row per request kind; this test walks one otherwise-valid request
//! of every kind through every way of holding the wrong authority for
//! that row — a right missing, a capability naming something else, a
//! region that stops short of the span, a capability where a key is
//! required, the wrong key — and requires a security-on drive to refuse
//! each one without changing any state. A control run per kind proves
//! the same request passes under exactly the authority its row names,
//! so a refusal is the policy's doing and not a malformed example.

use bytes::Bytes;
use nasd_crypto::{KeyKind, SecretKey};
use nasd_object::{ClientHandle, NasdDrive};
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode};
use nasd_proto::{
    Authority, ByteRange, Capability, NasdStatus, ObjectId, PartitionId, ProtectionLevel, Request,
    RequestBody, Rights, Scope, SetAttrMask, Span, FS_SPECIFIC_ATTR_LEN,
};

const P: PartitionId = PartitionId(1);
/// Holds no objects, so a valid `RemovePartition` succeeds.
const EMPTY: PartitionId = PartitionId(2);
const ABSENT: PartitionId = PartitionId(3);
const SIZE: u64 = 4_096;
const TTL: u64 = 3_600;

struct World {
    drive: NasdDrive,
    target: ObjectId,
    other: ObjectId,
    /// Read capabilities minted before any request under test: a key
    /// rotation that slipped through would strand them.
    readers: Vec<ClientHandle>,
}

fn world() -> World {
    let mut drive = NasdDrive::builder(1).build();
    drive.admin_create_partition(P, 16 << 20).unwrap();
    drive.admin_create_partition(EMPTY, 1 << 20).unwrap();
    let mut readers = Vec::new();
    let mut object = |fill: u8| {
        let id = drive.admin_create_object(P, 0).unwrap();
        let cap = drive.issue_capability(P, id, Rights::READ | Rights::WRITE, TTL);
        let client = drive.client(cap);
        client
            .write(&mut drive, 0, &vec![fill; SIZE as usize])
            .unwrap();
        readers.push(client);
        id
    };
    let (target, other) = (object(0xaa), object(0xbb));
    World {
        drive,
        target,
        other,
        readers,
    }
}

/// Everything a refused request could have changed.
fn state(w: &mut World) -> String {
    let mut out = String::new();
    for reader in &w.readers {
        let data = reader.read(&mut w.drive, 0, 2 * SIZE).map(|r| r.to_vec());
        out.push_str(&format!("{data:?}\n"));
    }
    let store = w.drive.store();
    out.push_str(&format!("free blocks {}\n", store.free_blocks()));
    for p in store.partition_ids() {
        let (stats, keys) = (store.partition_stats(p), store.rotated_keys(p));
        out.push_str(&format!("{p:?} {stats:?} {keys:?}\n"));
        for o in store.list_objects(p).unwrap() {
            out.push_str(&format!("{o:?} {:?}\n", store.peek_attr(p, o)));
        }
    }
    out
}

/// One otherwise-valid request of every kind, aimed at `target`.
fn examples(w: &World) -> Vec<(RequestBody, Bytes)> {
    let (partition, object) = (P, w.target);
    let payload = || Bytes::from(vec![7u8; 512]);
    let set_key = w
        .drive
        .setkey_request(P, KeyKind::Gold, &SecretKey::from_bytes([5; 32]))
        .body;
    #[rustfmt::skip]
    let examples = vec![
        (RequestBody::Read { partition, object, offset: 1_024, len: 512 }, Bytes::new()),
        (RequestBody::Write { partition, object, offset: 1_024, len: 512 }, payload()),
        (RequestBody::Append { partition, object, len: 512 }, payload()),
        (RequestBody::GetAttr { partition, object }, Bytes::new()),
        (
            RequestBody::SetAttr {
                partition,
                object,
                mask: SetAttrMask::fs_specific_only(),
                fs_specific: Box::new([9; FS_SPECIFIC_ATTR_LEN]),
                preallocated: 0,
                cluster_with: None,
            },
            Bytes::new(),
        ),
        (RequestBody::Create { partition, preallocate: 0, cluster_with: None }, Bytes::new()),
        (RequestBody::Remove { partition, object }, Bytes::new()),
        (RequestBody::Resize { partition, object, new_size: 1_024 }, Bytes::new()),
        (RequestBody::Snapshot { partition, object }, Bytes::new()),
        (RequestBody::Flush { partition, object }, Bytes::new()),
        (RequestBody::CreatePartition { partition: ABSENT, quota: 1 << 20 }, Bytes::new()),
        (RequestBody::ResizePartition { partition, quota: 32 << 20 }, Bytes::new()),
        (RequestBody::RemovePartition { partition: EMPTY }, Bytes::new()),
        (RequestBody::ListObjects { partition }, Bytes::new()),
        (set_key, Bytes::new()),
    ];
    examples
}

/// `examples` has one request of every kind the wire format knows:
/// its tags are 0..n with none repeated, and tag n does not decode. (A
/// kind added to `RequestBody` takes the next tag, so it fails here
/// until it has an example.)
fn assert_every_kind_is_listed(examples: &[(RequestBody, Bytes)]) {
    let mut tags: Vec<u8> = examples.iter().map(|(body, _)| body.to_wire()[0]).collect();
    tags.sort_unstable();
    assert_eq!(tags, (0..examples.len() as u8).collect::<Vec<_>>());
    assert!(matches!(
        RequestBody::from_wire(&[examples.len() as u8]),
        Err(DecodeError::BadTag { .. })
    ));
}

fn signed_by_capability(
    w: &mut World,
    cap: Capability,
    body: &RequestBody,
    data: &Bytes,
) -> Request {
    w.drive.client(cap).build(body.clone(), data.clone())
}

fn signed_by_key(key: &SecretKey, body: &RequestBody) -> Request {
    let nonce = nasd_proto::Nonce::new(0xbad, 1);
    let protection = ProtectionLevel::ArgsIntegrity;
    Request::signed(
        key.as_bytes(),
        None,
        protection,
        nonce,
        body.clone(),
        Bytes::new(),
    )
}

/// The request under exactly the authority its row names.
fn rightly_signed(w: &mut World, body: &RequestBody, data: &Bytes) -> Request {
    match body.authority() {
        Authority::Capability { rights, scope, .. } => {
            let cap = w
                .drive
                .issue_capability(P, scope.capability_object(), rights, TTL);
            signed_by_capability(w, cap, body, data)
        }
        Authority::DriveKey => w.drive.admin_request(body.clone()),
        Authority::PartitionKey => {
            let keys = w.drive.hierarchy().partition_keys(body.partition().0, 0);
            signed_by_key(&keys.partition, body)
        }
    }
}

/// Every way of holding the wrong authority for `body`'s row.
fn wrongly_signed(w: &mut World, body: &RequestBody, data: &Bytes) -> Vec<(&'static str, Request)> {
    let all = |w: &World, object| w.drive.issue_capability(P, object, Rights::ALL, TTL);
    let partition_object = Scope::Partition.capability_object();
    let mut wrong = Vec::new();
    match body.authority() {
        Authority::Capability {
            rights,
            scope,
            span,
        } => {
            let named = scope.capability_object();
            let others = Rights::from_bits(Rights::ALL.bits() & !rights.bits()).unwrap();
            let lacking = w.drive.issue_capability(P, named, others, TTL);
            wrong.push(("right missing", lacking));
            match scope {
                Scope::Object(_) => {
                    wrong.push(("capability for another object", all(w, w.other)));
                    wrong.push((
                        "partition capability on an object",
                        all(w, partition_object),
                    ));
                }
                Scope::Partition => {
                    wrong.push(("object capability at partition scope", all(w, w.target)));
                }
            }
            if let Some((offset, len)) = span.resolve(SIZE) {
                assert!(len > 0, "{body:?}: an empty span proves nothing");
                let short = ByteRange::new(offset, offset + len - 1);
                let capped = w
                    .drive
                    .issue_capability_region(P, named, Rights::ALL, short, TTL);
                wrong.push(("span outside the capability's region", capped));
            } else {
                assert_eq!(span, Span::None);
            }
        }
        Authority::DriveKey | Authority::PartitionKey => {
            wrong.push(("object capability for a key's request", all(w, w.target)));
            wrong.push((
                "partition capability for a key's request",
                all(w, partition_object),
            ));
        }
    }
    let mut requests: Vec<_> = wrong
        .into_iter()
        .map(|(case, cap)| (case, signed_by_capability(w, cap, body, data)))
        .collect();
    let keys = w.drive.hierarchy().partition_keys(body.partition().0, 0);
    match body.authority() {
        Authority::Capability { .. } => {}
        Authority::DriveKey => {
            requests.push(("partition key", signed_by_key(&keys.partition, body)))
        }
        Authority::PartitionKey => {
            requests.push(("drive key", w.drive.admin_request(body.clone())));
            requests.push(("working key", signed_by_key(&keys.gold, body)));
        }
    }
    requests
}

#[test]
fn wrong_authority_is_refused_and_changes_nothing() {
    let mut w = world();
    let examples = examples(&w);
    assert_every_kind_is_listed(&examples);

    let mut cases = 0;
    for (body, data) in &examples {
        for (case, request) in wrongly_signed(&mut w, body, data) {
            let before = state(&mut w);
            let (reply, _) = w.drive.handle(&request);
            assert!(
                matches!(
                    reply.status,
                    NasdStatus::AccessDenied | NasdStatus::RangeViolation | NasdStatus::BadRequest
                ),
                "{body:?} with {case}: answered {:?}",
                reply.status
            );
            assert_eq!(state(&mut w), before, "{body:?} with {case} changed state");
            cases += 1;
        }
    }
    // 15 kinds x (3 or 4 capability mistakes, or 2 + wrong keys).
    assert!(cases >= 3 * examples.len(), "only {cases} cases ran");
}

#[test]
fn the_named_authority_is_accepted() {
    for kind in 0..examples(&world()).len() {
        // Each control mutates, so each gets an untouched drive.
        let mut w = world();
        let (body, data) = examples(&w).swap_remove(kind);
        let request = rightly_signed(&mut w, &body, &data);
        let (reply, _) = w.drive.handle(&request);
        assert!(reply.status.is_ok(), "{body:?}: {:?}", reply.status);
    }
}
