//! Property tests: every protocol message round-trips through the
//! canonical wire encoding, and capabilities sign/verify consistently.

use bytes::Bytes;
use nasd_crypto::{Digest, HmacKey, KeyKind, SecretKey};
use nasd_proto::wire::{WireDecode, WireEncode};
use nasd_proto::{
    ByteRange, CapabilityPublic, DriveId, NasdStatus, Nonce, ObjectAttributes, ObjectId,
    PartitionId, ProtectionLevel, Reply, ReplyBody, Request, RequestBody, RequestDigest, Rights,
    SecurityHeader, SetAttrMask, Version, FS_SPECIFIC_ATTR_LEN,
};
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = Rights> {
    (0u16..=0xff).prop_map(|b| Rights::from_bits(b).expect("valid bits"))
}

fn arb_range() -> impl Strategy<Value = ByteRange> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| ByteRange::new(a.min(b), a.max(b)))
}

fn arb_body() -> impl Strategy<Value = RequestBody> {
    let p = any::<u16>().prop_map(PartitionId);
    let o = any::<u64>().prop_map(ObjectId);
    prop_oneof![
        (p.clone(), o.clone(), any::<u64>(), any::<u64>()).prop_map(
            |(partition, object, offset, len)| {
                RequestBody::Read {
                    partition,
                    object,
                    offset,
                    len,
                }
            }
        ),
        (p.clone(), o.clone(), any::<u64>(), any::<u64>()).prop_map(
            |(partition, object, offset, len)| {
                RequestBody::Write {
                    partition,
                    object,
                    offset,
                    len,
                }
            }
        ),
        (p.clone(), o.clone(), any::<u64>()).prop_map(|(partition, object, len)| {
            RequestBody::Append {
                partition,
                object,
                len,
            }
        }),
        (p.clone(), o.clone())
            .prop_map(|(partition, object)| RequestBody::GetAttr { partition, object }),
        (p.clone(), o.clone())
            .prop_map(|(partition, object)| RequestBody::Remove { partition, object }),
        (p.clone(), o.clone())
            .prop_map(|(partition, object)| RequestBody::Snapshot { partition, object }),
        (p.clone(), o.clone())
            .prop_map(|(partition, object)| RequestBody::Flush { partition, object }),
        (p.clone(), any::<u64>(), proptest::option::of(any::<u64>())).prop_map(
            |(partition, preallocate, cluster)| RequestBody::Create {
                partition,
                preallocate,
                cluster_with: cluster.map(ObjectId),
            }
        ),
        (p.clone(), o.clone(), any::<u64>()).prop_map(|(partition, object, new_size)| {
            RequestBody::Resize {
                partition,
                object,
                new_size,
            }
        }),
        (p.clone(), any::<u64>())
            .prop_map(|(partition, quota)| RequestBody::CreatePartition { partition, quota }),
        (p.clone(), any::<u64>())
            .prop_map(|(partition, quota)| RequestBody::ResizePartition { partition, quota }),
        p.clone()
            .prop_map(|partition| RequestBody::RemovePartition { partition }),
        p.clone()
            .prop_map(|partition| RequestBody::ListObjects { partition }),
        (
            p.clone(),
            o,
            (0u8..16).prop_map(|b| SetAttrMask {
                fs_specific: b & 1 != 0,
                preallocated: b & 2 != 0,
                cluster_with: b & 4 != 0,
                bump_version: b & 8 != 0,
            }),
            any::<u8>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
        )
            .prop_map(|(partition, object, mask, fill, preallocated, cluster)| {
                RequestBody::SetAttr {
                    partition,
                    object,
                    mask,
                    fs_specific: Box::new([fill; FS_SPECIFIC_ATTR_LEN]),
                    preallocated,
                    cluster_with: cluster.map(ObjectId),
                }
            }),
        (p, proptest::collection::vec(any::<u8>(), 32..33)).prop_map(|(partition, key)| {
            RequestBody::SetKey {
                partition,
                kind: KeyKind::Black,
                wrapped_key: key,
            }
        }),
    ]
}

fn arb_capability() -> impl Strategy<Value = CapabilityPublic> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        arb_rights(),
        arb_range(),
        any::<u64>(),
        any::<bool>(),
        0u8..3,
    )
        .prop_map(
            |(drive, partition, object, version, rights, region, expires, gold, prot)| {
                CapabilityPublic {
                    drive: DriveId(drive),
                    partition: PartitionId(partition),
                    object: ObjectId(object),
                    version: Version(version),
                    rights,
                    region,
                    expires,
                    key_kind: if gold { KeyKind::Gold } else { KeyKind::Black },
                    min_protection: match prot {
                        0 => ProtectionLevel::ArgsIntegrity,
                        1 => ProtectionLevel::DataIntegrity,
                        _ => ProtectionLevel::Privacy,
                    },
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..3,
        (any::<u64>(), any::<u64>()),
        proptest::option::of(arb_capability()),
        arb_body(),
        any::<[u8; 32]>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(prot, nonce, capability, body, digest, data)| Request {
            header: SecurityHeader {
                protection: match prot {
                    0 => ProtectionLevel::ArgsIntegrity,
                    1 => ProtectionLevel::DataIntegrity,
                    _ => ProtectionLevel::Privacy,
                },
                nonce: Nonce::new(nonce.0, nonce.1),
            },
            capability,
            body,
            digest: RequestDigest(Digest::from(digest)),
            data: Bytes::from(data),
        })
}

fn arb_attrs() -> impl Strategy<Value = ObjectAttributes> {
    (
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u8>(),
    )
        .prop_map(
            |(size, preallocated, times, version, cluster, fill)| ObjectAttributes {
                size,
                preallocated,
                create_time: times.0,
                data_modify_time: times.1,
                attr_modify_time: times.2,
                access_time: times.3,
                version: Version(version),
                cluster_with: cluster.map(ObjectId),
                fs_specific: Box::new([fill; FS_SPECIFIC_ATTR_LEN]),
            },
        )
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    let status = (0u8..11).prop_map(|b| NasdStatus::from_wire(&[b]).expect("valid status byte"));
    let body = prop_oneof![
        Just(ReplyBody::Empty),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|v| ReplyBody::Data(bytes::ByteRope::from(v))),
        arb_attrs().prop_map(ReplyBody::Attr),
        any::<u64>().prop_map(|o| ReplyBody::Created(ObjectId(o))),
        any::<u64>().prop_map(ReplyBody::Written),
        proptest::collection::vec(any::<u64>(), 0..20)
            .prop_map(|v| ReplyBody::Objects(v.into_iter().map(ObjectId).collect())),
    ];
    (status, body).prop_map(|(status, body)| Reply { status, body })
}

proptest! {
    #[test]
    fn request_bodies_roundtrip(body in arb_body()) {
        let decoded = RequestBody::from_wire(&body.to_wire()).unwrap();
        prop_assert_eq!(decoded, body);
    }

    #[test]
    fn capabilities_roundtrip(cap in arb_capability()) {
        let decoded = CapabilityPublic::from_wire(&cap.to_wire()).unwrap();
        prop_assert_eq!(decoded, cap);
    }

    /// Sign/verify consistency: the digest a holder computes matches the
    /// digest the validator recomputes, for any capability and message —
    /// and differs for any other nonce.
    #[test]
    fn sign_verify_consistency(
        cap in arb_capability(),
        key: [u8; 32],
        args in proptest::collection::vec(any::<u8>(), 0..128),
        nonce in (any::<u64>(), any::<u64>()),
    ) {
        let secret = SecretKey::from_bytes(key);
        let minted = cap.clone().mint(&secret);
        let n = Nonce::new(nonce.0, nonce.1);
        let protection = ProtectionLevel::ArgsIntegrity;
        let d1 = RequestDigest::compute(minted.hmac_key(), n, &args, &[], protection);

        // Validator side: recompute the private field from the public
        // portion that crossed the wire.
        let wired = CapabilityPublic::from_wire(&cap.to_wire()).unwrap();
        let revalidated = HmacKey::new(wired.private_under(&secret).as_bytes());
        prop_assert!(d1.verify(&RequestDigest::compute(&revalidated, n, &args, &[], protection)));

        let other = Nonce::new(nonce.0, nonce.1.wrapping_add(1));
        prop_assert!(!d1.verify(&RequestDigest::compute(&revalidated, other, &args, &[], protection)));
    }

    /// Full request messages round-trip, and every strict prefix of the
    /// encoding fails to decode — cleanly, never by panicking.
    #[test]
    fn truncated_requests_error_cleanly(req in arb_request(), cut in any::<u64>()) {
        let wire = req.to_wire();
        prop_assert_eq!(Request::from_wire_shared(Bytes::from(wire.clone())).unwrap(), req);
        let cut = (cut % wire.len() as u64) as usize;
        prop_assert!(Request::from_wire_shared(Bytes::copy_from_slice(&wire[..cut])).is_err());
    }

    /// Same for replies: round-trip plus clean truncation failures.
    #[test]
    fn truncated_replies_error_cleanly(reply in arb_reply(), cut in any::<u64>()) {
        let wire = reply.to_wire();
        prop_assert_eq!(Reply::from_wire_shared(Bytes::from(wire.clone())).unwrap(), reply);
        let cut = (cut % wire.len() as u64) as usize;
        prop_assert!(Reply::from_wire_shared(Bytes::copy_from_slice(&wire[..cut])).is_err());
    }

    /// The shared-buffer decoders — the ones the sockets run — hand out
    /// Data payloads as O(1) views of the receive buffer, never copies.
    #[test]
    fn shared_decode_copies_no_payload(req in arb_request(), reply in arb_reply()) {
        let req_buf = Bytes::from(req.to_wire());
        prop_assert_eq!(Request::from_wire_shared(req_buf).unwrap(), req);

        let reply_buf = Bytes::from(reply.to_wire());
        let before = bytes::stats::bytes_copied();
        let decoded = Reply::from_wire_shared(reply_buf).unwrap();
        prop_assert_eq!(
            bytes::stats::bytes_copied(), before,
            "shared reply decode must not copy payload bytes"
        );
        prop_assert_eq!(decoded, reply);
    }

    /// A single flipped bit anywhere in a request either fails to decode
    /// or decodes to a message that re-encodes to exactly the corrupted
    /// bytes (every byte is load-bearing; nothing is silently ignored).
    /// Either way, no panic.
    #[test]
    fn bitflipped_requests_never_panic(
        req in arb_request(),
        byte in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut wire = req.to_wire();
        let i = (byte % wire.len() as u64) as usize;
        wire[i] ^= 1 << bit;
        if let Ok(decoded) = Request::from_wire_shared(Bytes::from(wire.clone())) {
            prop_assert_eq!(decoded.to_wire(), wire);
        }
    }

    /// Same single-bit-flip contract for replies.
    #[test]
    fn bitflipped_replies_never_panic(
        reply in arb_reply(),
        byte in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut wire = reply.to_wire();
        let i = (byte % wire.len() as u64) as usize;
        wire[i] ^= 1 << bit;
        if let Ok(decoded) = Reply::from_wire_shared(Bytes::from(wire.clone())) {
            prop_assert_eq!(decoded.to_wire(), wire);
        }
    }

    /// Arbitrary garbage fed to the decoders must error, not panic (and
    /// corrupt length prefixes must not force huge allocations).
    #[test]
    fn garbage_bytes_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::from_wire_shared(Bytes::from(buf.clone()));
        let _ = Reply::from_wire_shared(Bytes::from(buf.clone()));
        let _ = RequestBody::from_wire(&buf);
        let _ = CapabilityPublic::from_wire(&buf);
    }
}
