//! Request and reply messages of the NASD drive interface (§4.1).
//!
//! The interface is deliberately small — under 20 requests. Bulk data is
//! carried separately from the request arguments so the *request digest*
//! (always required) covers the arguments and nonce, while covering the
//! data is the optional, more expensive `DataIntegrity` mode (Figure 5).

use crate::attr::{ObjectAttributes, SetAttrMask, FS_SPECIFIC_ATTR_LEN};
use crate::capability::{CapabilityPublic, ProtectionLevel, RequestDigest, SecurityHeader};
use crate::ids::{Nonce, ObjectId, PartitionId};
use crate::rights::Rights;
use crate::status::NasdStatus;
use crate::wire::{DecodeError, OwnedReader, WireDecode, WireEncode, WireReader, WireWriter};
use bytes::{ByteRope, Bytes};
use nasd_crypto::{HmacKey, KeyKind};

/// Object id of the well-known per-partition object listing all allocated
/// object names ("a complete list of allocated object names", §4.1).
pub const WELL_KNOWN_OBJECT_LIST: ObjectId = ObjectId(1);

/// Arguments of a drive request (everything except bulk data).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestBody {
    /// Read `len` bytes of object data at `offset`.
    Read {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to read.
        object: ObjectId,
        /// Starting byte offset.
        offset: u64,
        /// Number of bytes to read.
        len: u64,
    },
    /// Write the accompanying data at `offset` (length is the data length).
    Write {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to write.
        object: ObjectId,
        /// Starting byte offset.
        offset: u64,
        /// Length of the bulk data that accompanies this request.
        len: u64,
    },
    /// Append the accompanying data at the object's current end of data
    /// (length is the data length). The drive chooses the offset, so
    /// concurrent appenders never race a read-modify-write cycle — the
    /// primitive a shared append-only log (e.g. a dedup chunk pack)
    /// needs. The reply reports the offset where the data landed.
    Append {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to append to.
        object: ObjectId,
        /// Length of the bulk data that accompanies this request.
        len: u64,
    },
    /// Read object attributes.
    GetAttr {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object whose attributes to read.
        object: ObjectId,
    },
    /// Write client-settable attributes selected by `mask`.
    SetAttr {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object whose attributes to update.
        object: ObjectId,
        /// Which fields to update.
        mask: SetAttrMask,
        /// New filesystem-specific block (used when `mask.fs_specific`).
        fs_specific: Box<[u8; FS_SPECIFIC_ATTR_LEN]>,
        /// New preallocation reservation (when `mask.preallocated`).
        preallocated: u64,
        /// New clustering hint (when `mask.cluster_with`).
        cluster_with: Option<ObjectId>,
    },
    /// Create a new object; the drive assigns the name.
    Create {
        /// Partition to create in.
        partition: PartitionId,
        /// Capacity to reserve up front (bytes).
        preallocate: u64,
        /// Optional clustering hint.
        cluster_with: Option<ObjectId>,
    },
    /// Remove an object and free its space.
    Remove {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to remove.
        object: ObjectId,
    },
    /// Truncate or extend object data to `new_size`.
    Resize {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to resize.
        object: ObjectId,
        /// New logical size in bytes.
        new_size: u64,
    },
    /// Construct a copy-on-write version of the object (§4.1).
    Snapshot {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to version.
        object: ObjectId,
    },
    /// Flush write-behind data for an object to media.
    Flush {
        /// Partition holding the object.
        partition: PartitionId,
        /// Object to flush.
        object: ObjectId,
    },
    /// Create a soft partition with a capacity quota.
    CreatePartition {
        /// New partition id.
        partition: PartitionId,
        /// Capacity quota in bytes.
        quota: u64,
    },
    /// Change a partition's quota (may not shrink below usage).
    ResizePartition {
        /// Partition to resize.
        partition: PartitionId,
        /// New capacity quota in bytes.
        quota: u64,
    },
    /// Remove an empty partition.
    RemovePartition {
        /// Partition to remove.
        partition: PartitionId,
    },
    /// List allocated object names in a partition (reads the well-known
    /// object-list object).
    ListObjects {
        /// Partition to list.
        partition: PartitionId,
    },
    /// Replace a working key for a partition. Authorized by the partition
    /// key, not a capability; `wrapped_key` is the new key protected under
    /// the parent key.
    SetKey {
        /// Partition whose working key changes.
        partition: PartitionId,
        /// Which working key to replace.
        kind: KeyKind,
        /// New key material (32 bytes, wrapped by the secure channel).
        wrapped_key: Vec<u8>,
    },
}

/// Who must authorize a request: one row of the drive's access policy
/// (§4.1 — every request proves its rights, object version and byte
/// region before the drive acts). [`RequestBody::authority`] is the
/// whole table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Authority {
    /// A capability granting `rights` over `scope` whose byte region
    /// covers `span`.
    Capability {
        /// Rights the capability must carry.
        rights: Rights,
        /// What the capability must name.
        scope: Scope,
        /// Bytes the capability's region must cover.
        span: Span,
    },
    /// The drive key (level 2): partition administration. The request
    /// carries no capability.
    DriveKey,
    /// The addressed partition's key (level 3): working-key rotation.
    /// The request carries no capability.
    PartitionKey,
}

impl Authority {
    /// The object the request addresses, if it names one.
    #[must_use]
    pub fn object(self) -> Option<ObjectId> {
        match self {
            Authority::Capability {
                scope: Scope::Object(object),
                ..
            } => Some(object),
            _ => None,
        }
    }
}

/// What a capability must name to authorize a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// This object, at its current logical version.
    Object(ObjectId),
    /// The request's partition as a whole (create, list).
    Partition,
}

impl Scope {
    /// The object id a capability of this scope carries: the object
    /// itself, or for a whole partition the never-allocated
    /// `ObjectId(0)` (hence always version 0) by convention.
    #[must_use]
    pub fn capability_object(self) -> ObjectId {
        match self {
            Scope::Object(object) => object,
            Scope::Partition => ObjectId(0),
        }
    }
}

/// The bytes of the object a request touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// No byte range (attributes, namespace).
    None,
    /// `len` bytes at `offset`.
    At {
        /// First byte touched.
        offset: u64,
        /// Number of bytes touched.
        len: u64,
    },
    /// `len` bytes at the object's current end of data, which only the
    /// drive knows.
    AtEnd {
        /// Number of bytes appended.
        len: u64,
    },
}

impl Span {
    /// The `(offset, len)` a capability's region must cover, given the
    /// object's current end of data.
    #[must_use]
    pub fn resolve(self, end_of_data: u64) -> Option<(u64, u64)> {
        match self {
            Span::None => None,
            Span::At { offset, len } => Some((offset, len)),
            Span::AtEnd { len } => Some((end_of_data, len)),
        }
    }
}

impl RequestBody {
    /// Read `len` bytes at `offset` of the object `cap` names.
    #[must_use]
    pub fn read(cap: &CapabilityPublic, offset: u64, len: u64) -> Self {
        RequestBody::Read {
            partition: cap.partition,
            object: cap.object,
            offset,
            len,
        }
    }

    /// Write the accompanying `len` bytes at `offset` of the object
    /// `cap` names.
    #[must_use]
    pub fn write(cap: &CapabilityPublic, offset: u64, len: u64) -> Self {
        RequestBody::Write {
            partition: cap.partition,
            object: cap.object,
            offset,
            len,
        }
    }

    /// Read the attributes of the object `cap` names.
    #[must_use]
    pub fn get_attr(cap: &CapabilityPublic) -> Self {
        RequestBody::GetAttr {
            partition: cap.partition,
            object: cap.object,
        }
    }

    /// Partition the request addresses.
    #[must_use]
    pub fn partition(&self) -> PartitionId {
        match self {
            RequestBody::Read { partition, .. }
            | RequestBody::Write { partition, .. }
            | RequestBody::Append { partition, .. }
            | RequestBody::GetAttr { partition, .. }
            | RequestBody::SetAttr { partition, .. }
            | RequestBody::Create { partition, .. }
            | RequestBody::Remove { partition, .. }
            | RequestBody::Resize { partition, .. }
            | RequestBody::Snapshot { partition, .. }
            | RequestBody::Flush { partition, .. }
            | RequestBody::CreatePartition { partition, .. }
            | RequestBody::ResizePartition { partition, .. }
            | RequestBody::RemovePartition { partition }
            | RequestBody::ListObjects { partition }
            | RequestBody::SetKey { partition, .. } => *partition,
        }
    }

    /// Object the request addresses, if it names one.
    #[must_use]
    pub fn object(&self) -> Option<ObjectId> {
        self.authority().object()
    }

    /// Who must authorize the request — the drive's access policy, one
    /// row per request kind, and the only place a request kind is tied
    /// to a [`Rights`] constant. The drive checks the row against the
    /// request's capability (or key), the object's current version and
    /// end of data before it touches anything. nasd-lint (rule W1)
    /// verifies every variant is listed here, so a new request kind
    /// cannot reach the drive without a declared authority.
    #[must_use]
    pub fn authority(&self) -> Authority {
        let on_object = |rights, object: &ObjectId, span| Authority::Capability {
            rights,
            scope: Scope::Object(*object),
            span,
        };
        let on_partition = |rights| Authority::Capability {
            rights,
            scope: Scope::Partition,
            span: Span::None,
        };
        let at = |offset: u64, len: u64| Span::At { offset, len };
        match self {
            RequestBody::Read {
                object,
                offset,
                len,
                ..
            } => on_object(Rights::READ, object, at(*offset, *len)),
            RequestBody::Write {
                object,
                offset,
                len,
                ..
            } => on_object(Rights::WRITE, object, at(*offset, *len)),
            // The drive chooses the offset; the capability's region must
            // still cover the landing range, so an append-authorized
            // client cannot exceed its window.
            RequestBody::Append { object, len, .. } => {
                on_object(Rights::WRITE, object, Span::AtEnd { len: *len })
            }
            RequestBody::GetAttr { object, .. } => on_object(Rights::GETATTR, object, Span::None),
            RequestBody::SetAttr { object, .. } => on_object(Rights::SETATTR, object, Span::None),
            RequestBody::Remove { object, .. } => on_object(Rights::REMOVE, object, Span::None),
            RequestBody::Resize {
                object, new_size, ..
            } => on_object(Rights::RESIZE, object, at(0, *new_size)),
            RequestBody::Snapshot { object, .. } => on_object(Rights::SNAPSHOT, object, Span::None),
            RequestBody::Flush { object, .. } => on_object(Rights::WRITE, object, Span::None),
            RequestBody::Create { .. } => on_partition(Rights::CREATE),
            RequestBody::ListObjects { .. } => on_partition(Rights::GETATTR),
            RequestBody::CreatePartition { .. }
            | RequestBody::ResizePartition { .. }
            | RequestBody::RemovePartition { .. } => Authority::DriveKey,
            RequestBody::SetKey { .. } => Authority::PartitionKey,
        }
    }

    /// Whether the request mutates drive state.
    ///
    /// This is the mutation matrix the fault-injection layer keys on: a
    /// mutating request that was acknowledged must survive a crash
    /// (durable write-behind), while a non-mutating one may always be
    /// re-issued. nasd-lint (rule W1) verifies every variant is listed
    /// here, so a new request kind cannot silently default to either
    /// behaviour.
    #[must_use]
    pub fn mutates(&self) -> bool {
        match self {
            RequestBody::Read { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::ListObjects { .. } => false,
            RequestBody::Write { .. }
            | RequestBody::Append { .. }
            | RequestBody::SetAttr { .. }
            | RequestBody::Create { .. }
            | RequestBody::Remove { .. }
            | RequestBody::Resize { .. }
            | RequestBody::Snapshot { .. }
            | RequestBody::Flush { .. }
            | RequestBody::CreatePartition { .. }
            | RequestBody::ResizePartition { .. }
            | RequestBody::RemovePartition { .. }
            | RequestBody::SetKey { .. } => true,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            RequestBody::Read { .. } => 0,
            RequestBody::Write { .. } => 1,
            RequestBody::GetAttr { .. } => 2,
            RequestBody::SetAttr { .. } => 3,
            RequestBody::Create { .. } => 4,
            RequestBody::Remove { .. } => 5,
            RequestBody::Resize { .. } => 6,
            RequestBody::Snapshot { .. } => 7,
            RequestBody::Flush { .. } => 8,
            RequestBody::CreatePartition { .. } => 9,
            RequestBody::ResizePartition { .. } => 10,
            RequestBody::RemovePartition { .. } => 11,
            RequestBody::ListObjects { .. } => 12,
            RequestBody::SetKey { .. } => 13,
            RequestBody::Append { .. } => 14,
        }
    }
}

/// The optional clustering hint of `SetAttr` and `Create`: a presence
/// byte, then the object id.
fn encode_cluster_with(hint: Option<ObjectId>, w: &mut WireWriter) {
    match hint {
        Some(id) => {
            w.u8(1);
            id.encode(w);
        }
        None => {
            w.u8(0);
        }
    }
}

fn decode_cluster_with(r: &mut WireReader<'_>) -> Result<Option<ObjectId>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(ObjectId::decode(r)?)),
        v => Err(DecodeError::BadTag {
            context: "cluster_with option",
            value: u64::from(v),
        }),
    }
}

impl WireEncode for RequestBody {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(self.tag());
        match self {
            RequestBody::Read {
                partition,
                object,
                offset,
                len,
            }
            | RequestBody::Write {
                partition,
                object,
                offset,
                len,
            } => {
                partition.encode(w);
                object.encode(w);
                w.u64(*offset).u64(*len);
            }
            RequestBody::GetAttr { partition, object }
            | RequestBody::Remove { partition, object }
            | RequestBody::Snapshot { partition, object }
            | RequestBody::Flush { partition, object } => {
                partition.encode(w);
                object.encode(w);
            }
            RequestBody::SetAttr {
                partition,
                object,
                mask,
                fs_specific,
                preallocated,
                cluster_with,
            } => {
                partition.encode(w);
                object.encode(w);
                mask.encode(w);
                w.raw(fs_specific.as_slice());
                w.u64(*preallocated);
                encode_cluster_with(*cluster_with, w);
            }
            RequestBody::Create {
                partition,
                preallocate,
                cluster_with,
            } => {
                partition.encode(w);
                w.u64(*preallocate);
                encode_cluster_with(*cluster_with, w);
            }
            RequestBody::Resize {
                partition,
                object,
                new_size,
            } => {
                partition.encode(w);
                object.encode(w);
                w.u64(*new_size);
            }
            RequestBody::CreatePartition { partition, quota }
            | RequestBody::ResizePartition { partition, quota } => {
                partition.encode(w);
                w.u64(*quota);
            }
            RequestBody::RemovePartition { partition } | RequestBody::ListObjects { partition } => {
                partition.encode(w);
            }
            RequestBody::SetKey {
                partition,
                kind,
                wrapped_key,
            } => {
                partition.encode(w);
                w.u8(kind.to_byte());
                w.bytes(wrapped_key);
            }
            RequestBody::Append {
                partition,
                object,
                len,
            } => {
                partition.encode(w);
                object.encode(w);
                w.u64(*len);
            }
        }
    }
}

impl WireDecode for RequestBody {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let tag = r.u8()?;
        let body = match tag {
            0 | 1 => {
                let partition = PartitionId::decode(r)?;
                let object = ObjectId::decode(r)?;
                let offset = r.u64()?;
                let len = r.u64()?;
                if tag == 0 {
                    RequestBody::Read {
                        partition,
                        object,
                        offset,
                        len,
                    }
                } else {
                    RequestBody::Write {
                        partition,
                        object,
                        offset,
                        len,
                    }
                }
            }
            2 | 5 | 7 | 8 => {
                let partition = PartitionId::decode(r)?;
                let object = ObjectId::decode(r)?;
                match tag {
                    2 => RequestBody::GetAttr { partition, object },
                    5 => RequestBody::Remove { partition, object },
                    7 => RequestBody::Snapshot { partition, object },
                    _ => RequestBody::Flush { partition, object },
                }
            }
            3 => {
                let partition = PartitionId::decode(r)?;
                let object = ObjectId::decode(r)?;
                let mask = SetAttrMask::decode(r)?;
                let raw = r.raw(FS_SPECIFIC_ATTR_LEN)?;
                let mut fs_specific = Box::new([0u8; FS_SPECIFIC_ATTR_LEN]);
                // nasd-lint: allow(hot-path-copy, "fixed-size fs-specific attribute block, not payload")
                fs_specific.copy_from_slice(raw);
                let preallocated = r.u64()?;
                let cluster_with = decode_cluster_with(r)?;
                RequestBody::SetAttr {
                    partition,
                    object,
                    mask,
                    fs_specific,
                    preallocated,
                    cluster_with,
                }
            }
            4 => {
                let partition = PartitionId::decode(r)?;
                let preallocate = r.u64()?;
                let cluster_with = decode_cluster_with(r)?;
                RequestBody::Create {
                    partition,
                    preallocate,
                    cluster_with,
                }
            }
            6 => RequestBody::Resize {
                partition: PartitionId::decode(r)?,
                object: ObjectId::decode(r)?,
                new_size: r.u64()?,
            },
            9 => RequestBody::CreatePartition {
                partition: PartitionId::decode(r)?,
                quota: r.u64()?,
            },
            10 => RequestBody::ResizePartition {
                partition: PartitionId::decode(r)?,
                quota: r.u64()?,
            },
            11 => RequestBody::RemovePartition {
                partition: PartitionId::decode(r)?,
            },
            12 => RequestBody::ListObjects {
                partition: PartitionId::decode(r)?,
            },
            13 => {
                let partition = PartitionId::decode(r)?;
                let kb = r.u8()?;
                let kind = KeyKind::from_byte(kb).ok_or(DecodeError::BadTag {
                    context: "key kind",
                    value: u64::from(kb),
                })?;
                // nasd-lint: allow(hot-path-copy, "wrapped key material: small control-path field")
                let wrapped_key = r.bytes()?.to_vec();
                RequestBody::SetKey {
                    partition,
                    kind,
                    wrapped_key,
                }
            }
            14 => RequestBody::Append {
                partition: PartitionId::decode(r)?,
                object: ObjectId::decode(r)?,
                len: r.u64()?,
            },
            t => {
                return Err(DecodeError::BadTag {
                    context: "request",
                    value: u64::from(t),
                })
            }
        };
        Ok(body)
    }
}

/// A complete request as it crosses the network (Figure 5): security
/// header, capability public portion, arguments, digest, and bulk data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Security header (protection level + nonce).
    pub header: SecurityHeader,
    /// The capability authorizing this request, if one is required.
    /// Control requests authorized by partition/drive keys carry `None`.
    pub capability: Option<CapabilityPublic>,
    /// Request arguments.
    pub body: RequestBody,
    /// MAC over nonce and arguments keyed by the capability private field
    /// (or the partition key for `SetKey`).
    pub digest: RequestDigest,
    /// Bulk data (writes). Empty for all other requests.
    pub data: Bytes,
}

impl Request {
    /// Sign and assemble a request under raw key bytes: derives the key
    /// schedule, then [`Self::signed_by`].
    #[must_use]
    pub fn signed(
        key: &[u8],
        capability: Option<CapabilityPublic>,
        protection: ProtectionLevel,
        nonce: Nonce,
        body: RequestBody,
        data: Bytes,
    ) -> Self {
        Self::signed_by(
            &HmacKey::new(key),
            capability,
            protection,
            nonce,
            body,
            data,
        )
    }

    /// Sign and assemble a request — the one place a [`SecurityHeader`],
    /// digest and [`Request`] are put together. `key` is the schedule of
    /// the capability's private field ([`Capability::hmac_key`]) when
    /// `capability` is given, of the drive or partition key
    /// ([`SecretKey::hmac_key`]) for administrative requests that carry
    /// none.
    ///
    /// [`Capability::hmac_key`]: crate::Capability::hmac_key
    /// [`SecretKey::hmac_key`]: nasd_crypto::SecretKey::hmac_key
    #[must_use]
    pub fn signed_by(
        key: &HmacKey,
        capability: Option<CapabilityPublic>,
        protection: ProtectionLevel,
        nonce: Nonce,
        body: RequestBody,
        data: Bytes,
    ) -> Self {
        let digest =
            body.with_wire(|args| RequestDigest::compute(key, nonce, args, &data, protection));
        Request {
            header: SecurityHeader { protection, nonce },
            capability,
            body,
            digest,
            data,
        }
    }

    /// Decode a complete request from a shared receive buffer, rejecting
    /// trailing bytes. The bulk `data` field comes out as an O(1)
    /// [`Bytes::slice`] view of `buf` — no payload copy.
    pub fn from_wire_shared(buf: Bytes) -> Result<Self, DecodeError> {
        let mut r = OwnedReader::new(buf);
        let header = r.decode::<SecurityHeader>()?;
        let capability = match r.u8()? {
            0 => None,
            1 => Some(r.decode::<CapabilityPublic>()?),
            v => {
                return Err(DecodeError::BadTag {
                    context: "capability option",
                    value: u64::from(v),
                })
            }
        };
        let body = r.decode::<RequestBody>()?;
        let digest = r.decode::<RequestDigest>()?;
        let data = r.bytes_shared()?;
        r.finish()?;
        Ok(Request {
            header,
            capability,
            body,
            digest,
            data,
        })
    }

    /// Everything ahead of the bulk payload's length prefix: security
    /// header, capability option, arguments, digest.
    fn encode_head(&self, w: &mut WireWriter) {
        self.header.encode(w);
        match &self.capability {
            Some(c) => {
                w.u8(1);
                c.encode(w);
            }
            None => {
                w.u8(0);
            }
        }
        self.body.encode(w);
        self.digest.encode(w);
    }

    /// Total bytes this request occupies on the wire, including headers
    /// and bulk data — what the network model charges.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        let mut w = WireWriter::new();
        self.encode_head(&mut w);
        w.len() + self.data.len()
    }

    /// Encode for scatter-gather transmission: everything except the bulk
    /// payload (including the payload's length prefix) goes into `head`,
    /// while the payload itself is appended to `segments` as an O(1)
    /// shared handle — no copy. Concatenating `head` and `segments` in
    /// order yields exactly [`WireEncode::to_wire`], so the socket
    /// transport can `writev` the pieces without gluing them first.
    // nasd-lint: allow(transitive-panic, "encode-side length guard: a >4 GiB field is a local caller bug, never network input")
    pub fn encode_frame(&self, head: &mut WireWriter, segments: &mut Vec<Bytes>) {
        self.encode_head(head);
        head.u32(u32::try_from(self.data.len()).expect("field under 4 GiB"));
        if !self.data.is_empty() {
            segments.push(self.data.clone());
        }
    }
}

impl WireEncode for Request {
    fn encode(&self, w: &mut WireWriter) {
        self.encode_head(w);
        w.bytes(&self.data);
    }
}

/// Result payload of a drive operation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplyBody {
    /// No payload.
    Empty,
    /// Object data (reads), carried as a scatter-gather rope whose
    /// segments are views of the drive's cache blocks — never a flat
    /// copy of them.
    Data(ByteRope),
    /// Object attributes.
    Attr(ObjectAttributes),
    /// Name of a newly created object or snapshot.
    Created(ObjectId),
    /// Bytes written.
    Written(u64),
    /// Allocated object names.
    Objects(Vec<ObjectId>),
    /// Offset at which an [`RequestBody::Append`] landed its data.
    Appended(u64),
}

/// A complete reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Outcome status.
    pub status: NasdStatus,
    /// Payload (meaningful only when `status.is_ok()`).
    pub body: ReplyBody,
}

impl Reply {
    /// A failure reply with no payload.
    #[must_use]
    pub fn error(status: NasdStatus) -> Self {
        Reply {
            status,
            body: ReplyBody::Empty,
        }
    }

    /// A success reply.
    #[must_use]
    pub fn ok(body: ReplyBody) -> Self {
        Reply {
            status: NasdStatus::Ok,
            body,
        }
    }

    /// Total bytes this reply occupies on the wire.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        // status byte + small body header + payload
        let payload = match &self.body {
            ReplyBody::Empty => 0,
            ReplyBody::Data(d) => d.len(),
            ReplyBody::Attr(_) => 321, // fixed encoding size of attributes
            ReplyBody::Created(_) | ReplyBody::Written(_) | ReplyBody::Appended(_) => 8,
            ReplyBody::Objects(v) => 4 + v.len() * 8,
        };
        // status byte + body tag + payload
        2usize.saturating_add(payload)
    }
}

impl WireEncode for ReplyBody {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ReplyBody::Empty => {
                w.u8(0);
            }
            ReplyBody::Data(d) => {
                w.u8(1);
                w.rope(d);
            }
            ReplyBody::Attr(a) => {
                w.u8(2);
                a.encode(w);
            }
            ReplyBody::Created(id) => {
                w.u8(3);
                id.encode(w);
            }
            ReplyBody::Written(n) => {
                w.u8(4);
                w.u64(*n);
            }
            ReplyBody::Objects(ids) => {
                w.u8(5);
                // nasd-lint: allow(cast, "encode direction: in-memory object list is far below u32::MAX")
                w.u32(ids.len() as u32);
                for id in ids {
                    id.encode(w);
                }
            }
            ReplyBody::Appended(offset) => {
                w.u8(6);
                w.u64(*offset);
            }
        }
    }
}

impl ReplyBody {
    /// The read payload; any other shape is a drive protocol error.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::DriveError`] when the body is not `Data`.
    pub fn into_data(self) -> Result<ByteRope, NasdStatus> {
        match self {
            ReplyBody::Data(data) => Ok(data),
            _ => Err(NasdStatus::DriveError),
        }
    }

    /// The written byte count; any other shape is a drive protocol
    /// error.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::DriveError`] when the body is not `Written`.
    pub fn into_written(self) -> Result<u64, NasdStatus> {
        match self {
            ReplyBody::Written(n) => Ok(n),
            _ => Err(NasdStatus::DriveError),
        }
    }

    /// The object attributes; any other shape is a drive protocol
    /// error.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::DriveError`] when the body is not `Attr`.
    pub fn into_attr(self) -> Result<ObjectAttributes, NasdStatus> {
        match self {
            ReplyBody::Attr(attrs) => Ok(attrs),
            _ => Err(NasdStatus::DriveError),
        }
    }

    /// The new object's (or snapshot's) name; any other shape is a
    /// drive protocol error.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::DriveError`] when the body is not `Created`.
    pub fn into_created(self) -> Result<ObjectId, NasdStatus> {
        match self {
            ReplyBody::Created(id) => Ok(id),
            _ => Err(NasdStatus::DriveError),
        }
    }

    /// The reply-body decode arms (nasd-lint W1 checks them for
    /// variant coverage under this name).
    fn decode_owned(r: &mut OwnedReader) -> Result<Self, DecodeError> {
        let body = match r.u8()? {
            0 => ReplyBody::Empty,
            1 => ReplyBody::Data(ByteRope::from(r.bytes_shared()?)),
            2 => ReplyBody::Attr(r.decode::<ObjectAttributes>()?),
            3 => ReplyBody::Created(r.decode::<ObjectId>()?),
            4 => ReplyBody::Written(r.with_borrowed(|r| r.u64())?),
            5 => ReplyBody::Objects(r.with_borrowed(decode_object_list)?),
            6 => ReplyBody::Appended(r.with_borrowed(|r| r.u64())?),
            t => {
                return Err(DecodeError::BadTag {
                    context: "reply body",
                    value: u64::from(t),
                })
            }
        };
        Ok(body)
    }
}

fn decode_object_list(r: &mut WireReader<'_>) -> Result<Vec<ObjectId>, DecodeError> {
    let count = usize::try_from(r.u32()?).unwrap_or(usize::MAX);
    // Each id occupies 8 bytes: reject impossible counts before
    // allocating, so a corrupt length prefix cannot force a huge
    // allocation. Saturated arithmetic only strengthens the rejection.
    if r.remaining() < count.saturating_mul(8) {
        return Err(DecodeError::Truncated {
            needed: count.saturating_mul(8),
            remaining: r.remaining(),
        });
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(ObjectId::decode(r)?);
    }
    Ok(ids)
}

impl WireEncode for Reply {
    fn encode(&self, w: &mut WireWriter) {
        self.status.encode(w);
        self.body.encode(w);
    }
}

impl Reply {
    /// Encode for scatter-gather transmission: status, body tag and the
    /// payload's length prefix go into `head`; a `Data` rope's segments
    /// are appended to `segments` as O(1) shared handles — no copy.
    /// Concatenating `head` and `segments` in order yields exactly
    /// [`WireEncode::to_wire`], so the socket transport can `writev` a
    /// cached-read reply without ever flattening the rope.
    // nasd-lint: allow(transitive-panic, "encode-side length guard: a >4 GiB field is a local caller bug, never network input")
    pub fn encode_frame(&self, head: &mut WireWriter, segments: &mut Vec<Bytes>) {
        self.status.encode(head);
        if let ReplyBody::Data(d) = &self.body {
            head.u8(1);
            head.u32(u32::try_from(d.len()).expect("field under 4 GiB"));
            for seg in d.segments() {
                if !seg.is_empty() {
                    segments.push(seg.clone());
                }
            }
        } else {
            self.body.encode(head);
        }
    }

    /// Decode a complete reply from a shared receive buffer, rejecting
    /// trailing bytes. A `Data` payload comes out as an O(1)
    /// [`Bytes::slice`] view of `buf` — no payload copy.
    pub fn from_wire_shared(buf: Bytes) -> Result<Self, DecodeError> {
        let mut r = OwnedReader::new(buf);
        let reply = Reply {
            status: r.decode::<NasdStatus>()?,
            body: ReplyBody::decode_owned(&mut r)?,
        };
        r.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bodies() -> Vec<RequestBody> {
        let p = PartitionId(1);
        let o = ObjectId(9);
        vec![
            RequestBody::Read {
                partition: p,
                object: o,
                offset: 0,
                len: 4096,
            },
            RequestBody::Write {
                partition: p,
                object: o,
                offset: 512,
                len: 1024,
            },
            RequestBody::Append {
                partition: p,
                object: o,
                len: 2048,
            },
            RequestBody::GetAttr {
                partition: p,
                object: o,
            },
            RequestBody::SetAttr {
                partition: p,
                object: o,
                mask: SetAttrMask::fs_specific_only(),
                fs_specific: Box::new([3u8; FS_SPECIFIC_ATTR_LEN]),
                preallocated: 0,
                cluster_with: Some(ObjectId(4)),
            },
            RequestBody::Create {
                partition: p,
                preallocate: 65536,
                cluster_with: None,
            },
            RequestBody::Remove {
                partition: p,
                object: o,
            },
            RequestBody::Resize {
                partition: p,
                object: o,
                new_size: 100,
            },
            RequestBody::Snapshot {
                partition: p,
                object: o,
            },
            RequestBody::Flush {
                partition: p,
                object: o,
            },
            RequestBody::CreatePartition {
                partition: p,
                quota: 1 << 30,
            },
            RequestBody::ResizePartition {
                partition: p,
                quota: 1 << 31,
            },
            RequestBody::RemovePartition { partition: p },
            RequestBody::ListObjects { partition: p },
            RequestBody::SetKey {
                partition: p,
                kind: KeyKind::Black,
                wrapped_key: vec![0xaa; 32],
            },
        ]
    }

    #[test]
    fn interface_is_under_20_requests() {
        // The paper: "this interface contains less than 20 requests".
        assert!(all_bodies().len() < 20);
    }

    #[test]
    fn every_request_declares_its_authority() {
        for body in all_bodies() {
            match body.authority() {
                Authority::Capability { rights, scope, .. } => {
                    assert!(!rights.is_empty(), "{body:?} demands no right");
                    // A capability that only lets its holder look must
                    // never be enough to change drive state.
                    assert!(
                        !body.mutates() || !(Rights::READ | Rights::GETATTR).allows(rights),
                        "{body:?} mutates on look-only rights"
                    );
                    assert_eq!(body.object().is_some(), scope != Scope::Partition);
                }
                Authority::DriveKey => assert!(matches!(
                    body,
                    RequestBody::CreatePartition { .. }
                        | RequestBody::ResizePartition { .. }
                        | RequestBody::RemovePartition { .. }
                )),
                Authority::PartitionKey => assert!(matches!(body, RequestBody::SetKey { .. })),
            }
        }
        let keyed = |b: &RequestBody| !matches!(b.authority(), Authority::Capability { .. });
        assert_eq!(all_bodies().iter().filter(|b| keyed(b)).count(), 4);
    }

    #[test]
    fn typed_constructors_address_the_capability_target() {
        let cap = CapabilityPublic::gold(
            crate::ids::DriveId(1),
            PartitionId(3),
            ObjectId(7),
            crate::ids::Version(0),
            Rights::ALL,
            crate::ids::ByteRange::FULL,
            10,
        );
        for body in [
            RequestBody::read(&cap, 1, 2),
            RequestBody::write(&cap, 1, 2),
            RequestBody::get_attr(&cap),
        ] {
            assert_eq!(body.partition(), cap.partition);
            assert_eq!(body.object(), Some(cap.object));
        }
        assert_eq!(
            RequestBody::read(&cap, 1, 2).authority(),
            Authority::Capability {
                rights: Rights::READ,
                scope: Scope::Object(ObjectId(7)),
                span: Span::At { offset: 1, len: 2 },
            }
        );
        // Shape checks: the expected body comes out, anything else is a
        // protocol error.
        assert_eq!(ReplyBody::Written(5).into_written(), Ok(5));
        assert_eq!(
            ReplyBody::Created(ObjectId(9)).into_created(),
            Ok(ObjectId(9))
        );
        assert_eq!(ReplyBody::Empty.into_data(), Err(NasdStatus::DriveError));
        assert_eq!(
            ReplyBody::Written(5).into_attr(),
            Err(NasdStatus::DriveError)
        );
    }

    #[test]
    fn all_request_bodies_roundtrip() {
        for body in all_bodies() {
            let decoded = RequestBody::from_wire(&body.to_wire())
                .unwrap_or_else(|e| panic!("decode {body:?}: {e}"));
            assert_eq!(decoded, body);
        }
    }

    #[test]
    fn bad_request_tag_rejected() {
        assert!(matches!(
            RequestBody::from_wire(&[200]),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn partition_and_object_accessors() {
        for body in all_bodies() {
            assert_eq!(body.partition(), PartitionId(1));
        }
        assert_eq!(
            RequestBody::Read {
                partition: PartitionId(1),
                object: ObjectId(9),
                offset: 0,
                len: 1
            }
            .object(),
            Some(ObjectId(9))
        );
        assert_eq!(
            RequestBody::ListObjects {
                partition: PartitionId(1)
            }
            .object(),
            None
        );
    }

    #[test]
    fn request_wire_size_counts_data() {
        let body = RequestBody::Write {
            partition: PartitionId(0),
            object: ObjectId(2),
            offset: 0,
            len: 100,
        };
        let base = Request::signed(
            b"x",
            None,
            ProtectionLevel::ArgsIntegrity,
            Nonce::new(1, 1),
            body.clone(),
            Bytes::new(),
        );
        let with_data = Request {
            data: Bytes::from(vec![0u8; 100]),
            ..base.clone()
        };
        assert_eq!(with_data.wire_size(), base.wire_size() + 100);
    }

    #[test]
    fn reply_wire_size() {
        assert_eq!(Reply::error(NasdStatus::NoSpace).wire_size(), 2);
        let r = Reply::ok(ReplyBody::Data(ByteRope::from(vec![0u8; 50])));
        assert_eq!(r.wire_size(), 52);
    }

    #[test]
    fn reply_constructors() {
        assert!(Reply::ok(ReplyBody::Empty).status.is_ok());
        assert!(!Reply::error(NasdStatus::Replay).status.is_ok());
    }

    fn glue(head: &WireWriter, segments: &[Bytes]) -> Vec<u8> {
        let mut flat = head.as_slice().to_vec();
        for seg in segments {
            flat.extend_from_slice(seg);
        }
        flat
    }

    #[test]
    fn request_frame_matches_to_wire_and_copies_nothing() {
        let req = Request::signed(
            b"frame",
            None,
            ProtectionLevel::ArgsIntegrity,
            Nonce::new(4, 9),
            RequestBody::Write {
                partition: PartitionId(1),
                object: ObjectId(2),
                offset: 0,
                len: 64,
            },
            Bytes::from(vec![0xabu8; 64]),
        );
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        let before = bytes::stats::bytes_copied();
        req.encode_frame(&mut head, &mut segments);
        assert_eq!(
            bytes::stats::bytes_copied(),
            before,
            "encode_frame must not copy the bulk payload"
        );
        assert_eq!(glue(&head, &segments), req.to_wire());
        // The segment is the caller's buffer, not a copy of it.
        assert_eq!(segments.len(), 1);
        assert_eq!(
            segments.first().map(|s| s.as_ref().as_ptr()),
            Some(req.data.as_ref().as_ptr())
        );
    }

    #[test]
    fn empty_data_request_frame_matches_to_wire() {
        let req = Request::signed(
            b"x",
            None,
            ProtectionLevel::ArgsIntegrity,
            Nonce::new(1, 1),
            RequestBody::GetAttr {
                partition: PartitionId(1),
                object: ObjectId(2),
            },
            Bytes::new(),
        );
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        req.encode_frame(&mut head, &mut segments);
        assert!(segments.is_empty());
        assert_eq!(glue(&head, &segments), req.to_wire());
    }

    #[test]
    fn reply_frames_match_to_wire_for_every_body() {
        let mut rope = ByteRope::new();
        rope.push(Bytes::from(vec![1u8; 10]));
        rope.push(Bytes::from(vec![2u8; 20]));
        let replies = vec![
            Reply::ok(ReplyBody::Empty),
            Reply::ok(ReplyBody::Data(rope)),
            Reply::ok(ReplyBody::Created(ObjectId(77))),
            Reply::ok(ReplyBody::Written(4096)),
            Reply::ok(ReplyBody::Appended(8192)),
            Reply::ok(ReplyBody::Objects(vec![ObjectId(1), ObjectId(2)])),
            Reply::error(NasdStatus::NoSpace),
        ];
        for reply in replies {
            let mut head = WireWriter::new();
            let mut segments = Vec::new();
            reply.encode_frame(&mut head, &mut segments);
            assert_eq!(glue(&head, &segments), reply.to_wire(), "{reply:?}");
        }
    }

    #[test]
    fn data_reply_frame_shares_rope_segments() {
        let seg = Bytes::from(vec![9u8; 128]);
        let reply = Reply::ok(ReplyBody::Data(ByteRope::from(seg.clone())));
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        let before = bytes::stats::bytes_copied();
        reply.encode_frame(&mut head, &mut segments);
        assert_eq!(
            bytes::stats::bytes_copied(),
            before,
            "encode_frame must not copy rope segments"
        );
        assert_eq!(
            segments.first().map(|s| s.as_ref().as_ptr()),
            Some(seg.as_ref().as_ptr())
        );
    }
}
