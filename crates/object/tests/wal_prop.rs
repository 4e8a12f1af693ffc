//! Property tests for write-ahead-log replay.
//!
//! The three contracts the recovery path promises, proven across random
//! operation sequences:
//!
//! * **prefix durability** — after any number of committed operations,
//!   remounting the media reproduces exactly the model state of those
//!   operations, with no checkpoint in between;
//! * **idempotence** — replaying the same log prefix twice (a crash
//!   during recovery, before the next checkpoint) yields the same state
//!   as replaying it once;
//! * **torn tails roll back cleanly** — corrupting or truncating the
//!   tail of the log never breaks `open`; the recovered state is the
//!   model state at some operation prefix (never an invented state, and
//!   never a loss of records before the damage).

use nasd_crypto::KeyKind;
use nasd_disk::{BlockDevice, MemDisk, SharedDisk};
use nasd_object::{ObjectStore, FIRST_DYNAMIC_OBJECT};
use nasd_proto::{ObjectId, PartitionId};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BS: usize = 512;
const BLOCKS: u64 = 2_048;
const P: PartitionId = PartitionId(1);

/// A workload step, with everything needed to apply it to both the
/// store and the flat model.
#[derive(Clone, Debug)]
enum Op {
    /// Bytes of capacity to preallocate.
    Create(u64),
    Write {
        slot: usize,
        offset: u64,
        len: usize,
        fill: u8,
    },
    Resize {
        slot: usize,
        new_size: u64,
    },
    Remove {
        slot: usize,
    },
    Snapshot {
        slot: usize,
    },
    SetKey {
        kind: KeyKind,
        fill: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..=3).prop_map(|blocks| Op::Create(blocks * BS as u64)),
        (0usize..8, 0u64..2_500, 1usize..1_200, any::<u8>()).prop_map(
            |(slot, offset, len, fill)| Op::Write {
                slot,
                offset,
                len,
                fill
            }
        ),
        (0usize..8, 0u64..2_500, 1usize..1_200, any::<u8>()).prop_map(
            |(slot, offset, len, fill)| Op::Write {
                slot,
                offset,
                len,
                fill
            }
        ),
        (0usize..8, 0u64..3_000).prop_map(|(slot, new_size)| Op::Resize { slot, new_size }),
        (0usize..8).prop_map(|slot| Op::Remove { slot }),
        (0usize..8).prop_map(|slot| Op::Snapshot { slot }),
        (any::<bool>(), any::<u8>()).prop_map(|(black, fill)| Op::SetKey {
            kind: if black { KeyKind::Black } else { KeyKind::Gold },
            fill
        }),
    ]
}

/// Object contents by name — plus the partition's rotated working keys,
/// modelled under the reserved (never allocated) names below
/// [`FIRST_DYNAMIC_OBJECT`].
type Model = BTreeMap<ObjectId, Vec<u8>>;

fn key_slot(kind: KeyKind) -> ObjectId {
    ObjectId(u64::from(kind.to_byte()))
}

/// Apply one op to the store and the model. Slot indices pick among
/// live objects; ops against an empty store fall back to Create.
fn step(store: &mut ObjectStore<SharedDisk>, model: &mut Model, op: &Op) {
    let live: Vec<ObjectId> = model
        .keys()
        .copied()
        .filter(|o| o.0 >= FIRST_DYNAMIC_OBJECT)
        .collect();
    let pick = |slot: usize| live[slot % live.len()];
    match (op, live.is_empty()) {
        (Op::SetKey { kind, fill }, _) => {
            store.set_working_key(P, *kind, [*fill; 32]).unwrap();
            model.insert(key_slot(*kind), vec![*fill; 32]);
        }
        (Op::Create(preallocate), _) => {
            let id = store.create_object(P, *preallocate, None, 0).unwrap();
            model.insert(id, Vec::new());
        }
        (_, true) => {
            let id = store.create_object(P, 0, None, 0).unwrap();
            model.insert(id, Vec::new());
        }
        (
            Op::Write {
                slot,
                offset,
                len,
                fill,
            },
            _,
        ) => {
            let o = pick(*slot);
            store.write(P, o, *offset, &vec![*fill; *len], 0).unwrap();
            let data = model.get_mut(&o).unwrap();
            let end = *offset as usize + len;
            if data.len() < end {
                data.resize(end, 0);
            }
            data[*offset as usize..end].fill(*fill);
        }
        (Op::Resize { slot, new_size }, _) => {
            let o = pick(*slot);
            store.resize(P, o, *new_size, 0).unwrap();
            model.get_mut(&o).unwrap().resize(*new_size as usize, 0);
        }
        (Op::Remove { slot }, _) => {
            let o = pick(*slot);
            store.remove_object(P, o).unwrap();
            model.remove(&o);
        }
        (Op::Snapshot { slot }, _) => {
            let o = pick(*slot);
            let id = store.snapshot(P, o, 0).unwrap();
            let data = model[&o].clone();
            model.insert(id, data);
        }
    }
}

/// Build a durable store on shared media, run `committed` ops (each one
/// logged and group-committed), then `uncommitted` more ops that are
/// logged but never committed. Returns the media, the model after the
/// committed prefix, and the model snapshots after every committed op
/// (index k = state after k ops).
fn seeded_run(ops: &[Op], committed: usize) -> (SharedDisk, Vec<Model>, u64) {
    let media = SharedDisk::new(MemDisk::new(BS, BLOCKS));
    let mut store = ObjectStore::new(media.clone(), 32);
    store.enable_wal(true);
    store.create_partition(P, 1 << 20).unwrap();
    // First commit formats the device (superblock + checkpoint), so even
    // a zero-op run has durable state to remount.
    store.wal_commit().unwrap();
    let mut model = Model::new();
    let mut prefixes = vec![model.clone()];
    for (i, op) in ops.iter().enumerate() {
        step(&mut store, &mut model, op);
        if i < committed {
            store.wal_commit().unwrap();
            prefixes.push(model.clone());
        }
    }
    let durable = store.wal_durable_bytes();
    drop(store);
    (media, prefixes, durable)
}

/// Read a store's full logical state back into a model.
fn observed(store: &mut ObjectStore<SharedDisk>) -> Model {
    let mut out = Model::new();
    for o in store.list_objects(P).unwrap() {
        let len = store.get_attr(P, o, 0).unwrap().size;
        let data = store.read(P, o, 0, len, 0).unwrap().to_vec();
        out.insert(o, data);
    }
    for (kind, key) in store.rotated_keys(P) {
        out.insert(key_slot(*kind), key.to_vec());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every committed operation survives a power cut with no checkpoint:
    /// the remounted state is exactly the model — and a second remount
    /// (replaying the identical log prefix again) changes nothing.
    #[test]
    fn committed_prefix_is_durable_and_replay_is_idempotent(
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let n = ops.len();
        let (media, prefixes, _) = seeded_run(&ops, n);
        let mut once = ObjectStore::open(media.clone(), 32).unwrap();
        prop_assert_eq!(&observed(&mut once), prefixes.last().unwrap());
        drop(once);
        // Replay the same prefix a second time: byte-identical state.
        let mut twice = ObjectStore::open(media, 32).unwrap();
        prop_assert_eq!(&observed(&mut twice), prefixes.last().unwrap());
    }

    /// A store that never logs runs the same write path: it reads back
    /// the model after every op, and after a checkpoint and a remount.
    #[test]
    fn an_unlogged_store_reads_back_the_model(
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let media = SharedDisk::new(MemDisk::new(BS, BLOCKS));
        let mut store = ObjectStore::new(media.clone(), 32);
        store.create_partition(P, 1 << 20).unwrap();
        let mut model = Model::new();
        for op in &ops {
            step(&mut store, &mut model, op);
            prop_assert_eq!(&observed(&mut store), &model);
        }
        store.checkpoint().unwrap();
        drop(store);
        let mut reopened = ObjectStore::open(media, 32).unwrap();
        prop_assert_eq!(&observed(&mut reopened), &model);
    }

    /// Operations logged but never committed are invisible after a
    /// crash: recovery yields exactly the committed prefix.
    #[test]
    fn uncommitted_tail_is_invisible(
        ops in proptest::collection::vec(arb_op(), 2..16),
        keep_pct in 0u64..100,
    ) {
        let committed = (ops.len() * keep_pct as usize) / 100;
        let (media, prefixes, _) = seeded_run(&ops, committed);
        let mut store = ObjectStore::open(media, 32).unwrap();
        prop_assert_eq!(&observed(&mut store), &prefixes[committed]);
    }

    /// Flipping any byte of the committed log makes recovery roll back
    /// to *some* operation prefix — `open` never fails, never panics,
    /// and never invents state that no prefix produced. Bytes before the
    /// flip survive because replay stops exactly at the first record
    /// whose checksum breaks.
    #[test]
    fn corrupt_log_tail_recovers_a_clean_prefix(
        ops in proptest::collection::vec(arb_op(), 1..12),
        pos_pct in 0u64..100,
        bit in 0usize..8,
    ) {
        let n = ops.len();
        let (media, prefixes, durable) = seeded_run(&ops, n);
        prop_assert!(durable > 0, "a committed op must append log bytes");

        // Flip one bit somewhere in the committed log bytes.
        let layout = nasd_object::Layout::compute(BS, BLOCKS);
        let byte = durable * pos_pct / 100;
        let block = layout.log_start + byte / BS as u64;
        let mut media = media;
        let mut buf = vec![0u8; BS];
        media.read_block(block, &mut buf).unwrap();
        buf[(byte % BS as u64) as usize] ^= 1 << bit;
        media.write_block(block, &buf).unwrap();

        let mut store = ObjectStore::open(media, 32).unwrap();
        let got = observed(&mut store);
        prop_assert!(
            prefixes.contains(&got),
            "recovered state matches no operation prefix (flipped log byte {})",
            byte
        );
    }

    /// Zeroing the tail of the log (a truncated final write) likewise
    /// recovers a clean prefix.
    #[test]
    fn truncated_log_tail_recovers_a_clean_prefix(
        ops in proptest::collection::vec(arb_op(), 1..12),
        cut_pct in 0u64..100,
    ) {
        let n = ops.len();
        let (media, prefixes, durable) = seeded_run(&ops, n);
        prop_assert!(durable > 0, "a committed op must append log bytes");

        // Zero everything from `cut` to the end of the committed log.
        let layout = nasd_object::Layout::compute(BS, BLOCKS);
        let cut = durable * cut_pct / 100;
        let mut media = media;
        let mut buf = vec![0u8; BS];
        for block in layout.log_start..layout.log_start + layout.log_blocks {
            let block_start = (block - layout.log_start) * BS as u64;
            if block_start + BS as u64 <= cut {
                continue;
            }
            media.read_block(block, &mut buf).unwrap();
            for (i, b) in buf.iter_mut().enumerate() {
                if block_start + i as u64 >= cut {
                    *b = 0;
                }
            }
            media.write_block(block, &buf).unwrap();
        }

        let mut store = ObjectStore::open(media, 32).unwrap();
        let got = observed(&mut store);
        prop_assert!(
            prefixes.contains(&got),
            "recovered state matches no operation prefix (cut at byte {})",
            cut
        );
    }
}
