//! Adversarial tests of the NASD security architecture (§4.1): every
//! protection the paper claims, attacked end to end through the wire
//! protocol.

use bytes::Bytes;
use nasd::crypto::SecretKey;
use nasd::object::{ClientHandle, NasdDrive};
use nasd::proto::{
    ByteRange, CapabilityPublic, NasdStatus, Nonce, ObjectId, PartitionId, ProtectionLevel,
    Request, RequestBody, Rights, Version,
};

const P: PartitionId = PartitionId(1);

fn drive_with_object() -> (NasdDrive, ObjectId) {
    let mut d = NasdDrive::builder(7).build();
    d.admin_create_partition(P, 16 << 20).unwrap();
    let obj = d.admin_create_object(P, 0).unwrap();
    let cap = d.issue_capability(P, obj, Rights::WRITE, 100);
    d.client(cap)
        .write(&mut d, 0, b"protected payload")
        .unwrap();
    (d, obj)
}

/// Every public capability field is covered by the MAC: flipping any of
/// them must break verification.
#[test]
fn every_capability_field_is_tamper_proof() {
    let (mut d, obj) = drive_with_object();
    let cap = d.issue_capability(P, obj, Rights::READ, 100);

    type Mutation = Box<dyn Fn(&mut CapabilityPublic)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("rights", Box::new(|c| c.rights = Rights::ALL)),
        ("object", Box::new(|c| c.object = ObjectId(c.object.0 + 1))),
        // Shrink the region but keep it covering the probe read: only the
        // MAC can catch this one.
        ("region", Box::new(|c| c.region = ByteRange::new(0, 10))),
        ("expires", Box::new(|c| c.expires += 1_000_000)),
        ("version", Box::new(|c| c.version = Version(5))),
        ("partition", Box::new(|c| c.partition = PartitionId(2))),
    ];
    for (field, mutate) in mutations {
        let mut forged = cap.clone();
        mutate(&mut forged.public);
        let client = ClientHandle::new(666, forged);
        let err = client.read(&mut d, 0, 1).unwrap_err();
        assert!(
            err == NasdStatus::AccessDenied
                || err == NasdStatus::NoSuchPartition
                || err == NasdStatus::NoSuchObject,
            "tampered {field} produced {err:?}"
        );
    }
    // The untampered capability still works.
    let client = ClientHandle::new(667, cap);
    assert!(client.read(&mut d, 0, 1).is_ok());
}

/// Without the drive's keys an adversary cannot mint a capability, even
/// knowing the full public structure.
#[test]
fn capability_cannot_be_minted_without_keys() {
    let (mut d, obj) = drive_with_object();
    let public = CapabilityPublic {
        drive: d.id(),
        partition: P,
        object: obj,
        version: Version(0),
        rights: Rights::ALL,
        region: ByteRange::FULL,
        expires: d.clock() + 1_000,
        key_kind: nasd::crypto::KeyKind::Gold,
        min_protection: ProtectionLevel::ArgsIntegrity,
    };
    let guessed_key = SecretKey::from_bytes([0xeeu8; 32]);
    let forged = public.mint(&guessed_key);
    let client = ClientHandle::new(1, forged);
    assert_eq!(
        client.read(&mut d, 0, 1).unwrap_err(),
        NasdStatus::AccessDenied
    );
}

/// Capturing a valid request and replaying it verbatim must fail, and
/// out-of-window stale nonces must fail even unreplayed.
#[test]
fn replay_and_stale_nonce_rejected() {
    let (mut d, obj) = drive_with_object();
    let cap = d.issue_capability(P, obj, Rights::READ, 100);
    let client = d.client(cap.clone());

    // Advance the client's counter far ahead.
    for _ in 0..100 {
        client.read(&mut d, 0, 1).unwrap();
    }
    // Replay: rebuild the exact request with an already-used nonce.
    let old = ClientHandle::new(0, cap).build(
        RequestBody::Read {
            partition: P,
            object: obj,
            offset: 0,
            len: 1,
        },
        Bytes::new(),
    );
    // A brand-new client id: its first nonce (counter 1) is fresh...
    let (reply, _) = d.handle(&old);
    assert!(reply.status.is_ok());
    // ...but the identical request again is a replay.
    let (reply, _) = d.handle(&old);
    assert_eq!(reply.status, NasdStatus::Replay);
}

/// Data-integrity mode: when the capability demands it, payload
/// tampering in flight is detected, and downgrading the protection level
/// is refused.
#[test]
fn data_integrity_mode_detects_payload_tampering() {
    let mut d = NasdDrive::builder(7).build();
    d.admin_create_partition(P, 16 << 20).unwrap();
    let obj = d.admin_create_object(P, 0).unwrap();

    // Mint a capability that demands data integrity.
    let ep_cap = {
        let mut cap = d.issue_capability(P, obj, Rights::READ | Rights::WRITE, 100);
        cap.public.min_protection = ProtectionLevel::DataIntegrity;
        // Re-mint with the correct private field for the edited public.
        let key = d.hierarchy().partition_keys(P.0, 0).gold;
        cap.public.clone().mint(&key)
    };

    let mut client = ClientHandle::new(50, ep_cap.clone());

    // Downgrade attempt: args-only protection is refused outright.
    client.set_protection(ProtectionLevel::ArgsIntegrity);
    assert_eq!(
        client.write(&mut d, 0, b"downgraded").unwrap_err(),
        NasdStatus::AccessDenied
    );

    // Proper mode works.
    client.set_protection(ProtectionLevel::DataIntegrity);
    assert_eq!(client.write(&mut d, 0, b"covered!").unwrap(), 8);

    // A man-in-the-middle flips payload bytes after signing: caught.
    let body = RequestBody::Write {
        partition: P,
        object: obj,
        offset: 0,
        len: 8,
    };
    let mut tampered = Request::signed(
        ep_cap.private.as_bytes(),
        Some(ep_cap.public.clone()),
        ProtectionLevel::DataIntegrity,
        Nonce::new(51, 1),
        body,
        Bytes::from_static(b"original"),
    );
    // Same length as the signed payload, so only the MAC can object.
    tampered.data = Bytes::from_static(b"evilbyte");
    let (reply, _) = d.handle(&tampered);
    assert_eq!(reply.status, NasdStatus::AccessDenied);
}

/// Partition-scoped requests (`ListObjects`, `Create`) name no object, so
/// an *object* capability — however broad its rights — must not
/// authorize them: only a capability for the partition itself does.
#[test]
fn object_capability_cannot_act_on_the_partition() {
    let (mut d, obj) = drive_with_object();

    // What an NFS lookup grants for one file.
    let lookup = d.issue_capability(P, obj, Rights::READ | Rights::GETATTR, 100);
    let list = d
        .client(lookup)
        .build(RequestBody::ListObjects { partition: P }, Bytes::new());
    assert_eq!(d.handle(&list).0.status, NasdStatus::AccessDenied);

    // Every right there is, over one object.
    let all = d.issue_capability(P, obj, Rights::ALL, 100);
    let create = d.client(all).build(
        RequestBody::Create {
            partition: P,
            preallocate: 0,
            cluster_with: None,
        },
        Bytes::new(),
    );
    assert_eq!(d.handle(&create).0.status, NasdStatus::AccessDenied);
    assert_eq!(d.store().partition_stats(P).unwrap().objects, 1);

    // The partition's own capability still works.
    let part = d.issue_partition_capability(P, Rights::GETATTR, 100);
    let list = d
        .client(part)
        .build(RequestBody::ListObjects { partition: P }, Bytes::new());
    assert!(d.handle(&list).0.status.is_ok());
}

/// Working-key rotation revokes every capability minted under the old
/// key while leaving the other working key's capabilities intact.
#[test]
fn key_rotation_is_scoped_to_one_working_key() {
    let (mut d, obj) = drive_with_object();
    let gold_cap = d.issue_capability(P, obj, Rights::READ, 100);
    // Mint a black-key capability by hand.
    let black_cap = {
        let mut public = gold_cap.public.clone();
        public.key_kind = nasd::crypto::KeyKind::Black;
        let key = d.hierarchy().partition_keys(P.0, 0).black;
        public.mint(&key)
    };
    let gold_client = d.client(gold_cap);
    let black_client = d.client(black_cap);
    assert!(gold_client.read(&mut d, 0, 1).is_ok());
    assert!(black_client.read(&mut d, 0, 1).is_ok());

    // Rotate gold only.
    let req = d.setkey_request(
        P,
        nasd::crypto::KeyKind::Gold,
        &SecretKey::random_from(b"rot", 9),
    );
    let (reply, _) = d.handle(&req);
    assert!(reply.status.is_ok());

    assert_eq!(
        gold_client.read(&mut d, 0, 1).unwrap_err(),
        NasdStatus::AccessDenied
    );
    assert!(
        black_client.read(&mut d, 0, 1).is_ok(),
        "black key unaffected"
    );
}

/// A capability for one drive is worthless at another drive, even with
/// identical partitions and object names.
#[test]
fn capabilities_do_not_transfer_between_drives() {
    let mut d1 = NasdDrive::builder(1).build();
    let mut d2 = NasdDrive::builder(2).build();
    d1.admin_create_partition(P, 1 << 20).unwrap();
    d2.admin_create_partition(P, 1 << 20).unwrap();
    let o1 = d1.admin_create_object(P, 0).unwrap();
    let o2 = d2.admin_create_object(P, 0).unwrap();
    assert_eq!(o1, o2, "same name on both drives");

    let cap = d1.issue_capability(P, o1, Rights::READ, 100);
    let client = ClientHandle::new(9, cap);
    assert!(client.read(&mut d1, 0, 0).is_ok());
    assert_eq!(
        client.read(&mut d2, 0, 0).unwrap_err(),
        NasdStatus::AccessDenied
    );
}

/// The byte-range restriction holds at the edges (the AFS escrow
/// mechanism depends on exact enforcement).
#[test]
fn region_edges_enforced_exactly() {
    let (mut d, obj) = drive_with_object();
    let cap = d.issue_capability_region(
        P,
        obj,
        Rights::READ | Rights::WRITE,
        ByteRange::new(8, 16),
        100,
    );
    let c = d.client(cap);
    assert!(c.read(&mut d, 8, 8).is_ok());
    assert_eq!(
        c.read(&mut d, 7, 1).unwrap_err(),
        NasdStatus::RangeViolation
    );
    assert_eq!(
        c.read(&mut d, 8, 9).unwrap_err(),
        NasdStatus::RangeViolation
    );
    assert!(c.write(&mut d, 8, &[0u8; 8]).is_ok());
    assert_eq!(
        c.write(&mut d, 15, &[0u8; 2]).unwrap_err(),
        NasdStatus::RangeViolation
    );
}
