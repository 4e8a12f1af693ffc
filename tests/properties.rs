//! Property-based tests (proptest) of the core data structures and
//! invariants: wire-format roundtrips, allocator conservation, object
//! store vs a reference model, striping address math, and the replay
//! window vs a naive oracle.

use nasd::disk::MemDisk;
use nasd::object::{Allocator, Extent, ObjectStore, ReplayWindow};
use nasd::proto::wire::{WireDecode, WireEncode};
use nasd::proto::{ByteRange, Nonce, ObjectAttributes, ObjectId, PartitionId, Rights, Version};
use proptest::prelude::*;
use std::collections::HashSet;

// ----------------------------------------------------------------- wire

proptest! {
    #[test]
    fn byte_range_roundtrips(start in 0u64..1_000_000, len in 0u64..1_000_000) {
        let r = ByteRange::new(start, start + len);
        prop_assert_eq!(ByteRange::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn nonce_roundtrips(client: u64, counter: u64) {
        let n = Nonce::new(client, counter);
        prop_assert_eq!(Nonce::from_wire(&n.to_wire()).unwrap(), n);
    }

    #[test]
    fn rights_roundtrip(bits in 0u16..=0xff) {
        let r = Rights::from_bits(bits).unwrap();
        prop_assert_eq!(Rights::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn attributes_roundtrip(
        size: u64,
        prealloc: u64,
        times in proptest::array::uniform4(0u64..1 << 40),
        version: u64,
        cluster in proptest::option::of(0u64..1 << 30),
        fill: u8,
    ) {
        let mut a = ObjectAttributes {
            size,
            preallocated: prealloc,
            create_time: times[0],
            data_modify_time: times[1],
            attr_modify_time: times[2],
            access_time: times[3],
            version: Version(version),
            cluster_with: cluster.map(ObjectId),
            ..ObjectAttributes::default()
        };
        a.fs_specific.fill(fill);
        prop_assert_eq!(ObjectAttributes::from_wire(&a.to_wire()).unwrap(), a);
    }

    /// Arbitrary bytes never panic the decoders — they error cleanly.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ObjectAttributes::from_wire(&bytes);
        let _ = ByteRange::from_wire(&bytes);
        let _ = nasd::proto::RequestBody::from_wire(&bytes);
        let _ = nasd::proto::CapabilityPublic::from_wire(&bytes);
    }
}

// ------------------------------------------------------------ allocator

proptest! {
    /// Any sequence of allocations and frees conserves blocks, never
    /// hands out overlapping extents, and coalescing restores a single
    /// run when everything is freed.
    #[test]
    fn allocator_conserves_and_never_overlaps(
        ops in proptest::collection::vec((1u64..64, any::<bool>()), 1..120)
    ) {
        let total = 4_096u64;
        let mut a = Allocator::new(total);
        let mut live: Vec<Extent> = Vec::new();
        for (len, free_one) in ops {
            if free_one && !live.is_empty() {
                let e = live.swap_remove(0);
                a.free(e);
            } else if let Some(e) = a.allocate(len, None) {
                prop_assert_eq!(e.len, len);
                // No overlap with any live extent.
                for other in &live {
                    prop_assert!(e.end() <= other.start || other.end() <= e.start,
                        "overlap: {:?} vs {:?}", e, other);
                }
                live.push(e);
            }
            let held: u64 = live.iter().map(|e| e.len).sum();
            prop_assert_eq!(a.free_blocks() + held, total);
        }
        for e in live.drain(..) {
            a.free(e);
        }
        prop_assert_eq!(a.free_blocks(), total);
        prop_assert_eq!(a.free_runs(), 1, "full coalescing");
    }
}

// ---------------------------------------------------------- object store

// The object store behaves like a flat byte array: arbitrary writes and
// reads agree with a `Vec<u8>` reference model.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn object_store_matches_reference_model(
        writes in proptest::collection::vec(
            (0u64..200_000, 1usize..30_000, any::<u8>()),
            1..20
        )
    ) {
        let mut store = ObjectStore::new(MemDisk::new(8_192, 8_192), 64);
        let p = PartitionId(1);
        store.create_partition(p, 1 << 30).unwrap();
        let obj = store.create_object(p, 0, None, 0).unwrap();

        let mut model: Vec<u8> = Vec::new();
        for (offset, len, byte) in writes {
            let data = vec![byte; len];
            store.write(p, obj, offset, &data, 0).unwrap();
            let end = offset as usize + len;
            if model.len() < end {
                model.resize(end, 0);
            }
            model[offset as usize..end].fill(byte);
        }
        // Whole-object read matches.
        let got = store.read(p, obj, 0, model.len() as u64, 0).unwrap();
        prop_assert_eq!(got.to_vec(), model.clone());
        // Size matches.
        prop_assert_eq!(
            store.get_attr(p, obj, 0).unwrap().size,
            model.len() as u64
        );
    }

    /// Snapshots are immutable under subsequent writes to the original.
    #[test]
    fn snapshot_isolation(
        base in proptest::collection::vec(any::<u8>(), 1..40_000),
        overwrites in proptest::collection::vec((0u64..40_000, 1usize..5_000), 1..6)
    ) {
        let mut store = ObjectStore::new(MemDisk::new(8_192, 8_192), 64);
        let p = PartitionId(1);
        store.create_partition(p, 1 << 30).unwrap();
        let obj = store.create_object(p, 0, None, 0).unwrap();
        store.write(p, obj, 0, &base, 0).unwrap();
        let snap = store.snapshot(p, obj, 1).unwrap();

        for (offset, len) in overwrites {
            store.write(p, obj, offset, &vec![0xEE; len], 2).unwrap();
        }
        let frozen = store.read(p, snap, 0, base.len() as u64, 3).unwrap();
        prop_assert_eq!(frozen.to_vec(), base);
    }
}

// ------------------------------------------------------------- striping

proptest! {
    /// Cheops address math: scattering a buffer through `split` and
    /// gathering it back is the identity, for any geometry.
    #[test]
    fn cheops_split_gather_identity(
        width in 1usize..9,
        su in 1u64..100_000,
        offset in 0u64..1_000_000,
        len in 1usize..200_000,
    ) {
        use nasd::cheops::{Column, Component, Layout, Redundancy};
        use nasd::proto::DriveId;
        let layout = Layout {
            stripe_unit: su,
            columns: (0..width).map(|i| Column {
                primary: Component {
                    drive: DriveId(i as u64),
                    partition: PartitionId(1),
                    object: ObjectId(1),
                },
                mirror: None,
            }).collect(),
            redundancy: Redundancy::None,
            parity: None,
        };
        let runs = layout.split(offset, len as u64);
        // Exactly covers the request in buffer space.
        let total: u64 = runs.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, len as u64);
        let mut covered: Vec<(u64, u64)> = runs.iter()
            .map(|r| (r.buf_offset, r.buf_offset + r.len)).collect();
        covered.sort_unstable();
        let mut expect = 0;
        for (s, e) in covered {
            prop_assert_eq!(s, expect);
            expect = e;
        }
        // No two runs on the same column overlap in local space.
        for (i, a) in runs.iter().enumerate() {
            for b in runs.iter().skip(i + 1) {
                if a.column == b.column {
                    prop_assert!(
                        a.local_offset + a.len <= b.local_offset
                            || b.local_offset + b.len <= a.local_offset
                    );
                }
            }
        }
    }
}

// -------------------------------------------------------- replay window

proptest! {
    /// The sliding replay window never accepts a duplicate, and accepts
    /// everything a naive infinite-memory oracle accepts within the
    /// window width.
    #[test]
    fn replay_window_sound(counters in proptest::collection::vec(1u64..500, 1..200)) {
        let mut w = ReplayWindow::default();
        let mut seen = HashSet::new();
        let mut highest = 0u64;
        for c in counters {
            let accepted = w.accept(c);
            if accepted {
                prop_assert!(!seen.contains(&c), "duplicate {c} accepted");
                seen.insert(c);
            } else {
                // Rejections are either duplicates or out of window.
                let out_of_window = highest >= ReplayWindow::WIDTH
                    && c <= highest - ReplayWindow::WIDTH;
                prop_assert!(
                    seen.contains(&c) || out_of_window,
                    "fresh in-window counter {c} rejected (highest {highest})"
                );
            }
            highest = highest.max(c);
        }
    }
}
