//! Property test: the block cache's replacement is exact LRU.
//!
//! Random sequences of `read` / `read_shared` / `write` / `write_partial`
//! / `discard` / `flush` drive a [`BlockCache`] over a device that logs
//! every block write, and a reference model whose victim is found the
//! slow, obvious way: the resident block with the smallest last-use
//! stamp. Both must agree on every read, on the [`CacheStats`], and on
//! the device's write log (block and bytes, in order). Views handed out
//! by `read_shared` are held for the rest of the run and must keep the
//! bytes they were read with, whatever the cache reuses later.

use bytes::Bytes;
use nasd_disk::{BlockDevice, DiskError, MemDisk};
use nasd_object::{BlockCache, CacheStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BS: usize = 16;
const BLOCKS: u64 = 24;

/// A [`MemDisk`] that logs every block write, bytes included.
struct Logged {
    disk: MemDisk,
    log: Vec<(u64, Vec<u8>)>,
}

impl BlockDevice for Logged {
    fn block_size(&self) -> usize {
        self.disk.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.disk.num_blocks()
    }
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.disk.read_block(block, buf)
    }
    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.log.push((block, data.to_vec()));
        self.disk.write_block(block, data)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(u64),
    ReadShared(u64),
    Write(u64, u8),
    WritePartial(u64, usize, usize, u8),
    Discard(u64),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..BLOCKS).prop_map(Op::Read),
        (0..BLOCKS).prop_map(Op::ReadShared),
        (0..BLOCKS, any::<u8>()).prop_map(|(b, fill)| Op::Write(b, fill)),
        (0..BLOCKS, 0..BS, 1..BS, any::<u8>()).prop_map(|(b, off, len, fill)| {
            let len = len.min(BS - off);
            Op::WritePartial(b, off, len, fill)
        }),
        (0..BLOCKS).prop_map(Op::Discard),
        Just(Op::Flush),
    ]
}

/// The reference: every resident block with its last-use stamp; the
/// victim is the minimum stamp.
struct Model {
    capacity: usize,
    /// block -> (contents, dirty, last use)
    resident: BTreeMap<u64, (Vec<u8>, bool, u64)>,
    clock: u64,
    media: BTreeMap<u64, Vec<u8>>,
    log: Vec<(u64, Vec<u8>)>,
    stats: CacheStats,
}

impl Model {
    fn evict_if_full(&mut self) {
        while self.resident.len() >= self.capacity {
            let (&victim, _) = self.resident.iter().min_by_key(|(_, e)| e.2).unwrap();
            let (data, dirty, _) = self.resident.remove(&victim).unwrap();
            self.stats.evictions += 1;
            if dirty {
                self.write_back(victim, data);
            }
        }
    }

    fn write_back(&mut self, block: u64, data: Vec<u8>) {
        self.log.push((block, data.clone()));
        self.media.insert(block, data);
        self.stats.writebacks += 1;
    }

    /// Bring `block` in (a hit or a miss) and return its entry.
    fn fill(&mut self, block: u64) -> &mut (Vec<u8>, bool, u64) {
        self.clock += 1;
        if self.resident.contains_key(&block) {
            self.stats.hits += 1;
        } else {
            self.evict_if_full();
            self.stats.misses += 1;
            let data = self.media.get(&block).cloned().unwrap_or(vec![0; BS]);
            self.resident.insert(block, (data, false, 0));
        }
        let e = self.resident.get_mut(&block).unwrap();
        e.2 = self.clock;
        e
    }

    fn write(&mut self, block: u64, data: Vec<u8>) {
        self.clock += 1;
        if !self.resident.contains_key(&block) {
            self.evict_if_full();
        }
        self.stats.hits += 1;
        self.resident.insert(block, (data, true, self.clock));
    }

    fn flush(&mut self) {
        let dirty: Vec<u64> = self
            .resident
            .iter()
            .filter(|(_, e)| e.1)
            .map(|(&b, _)| b)
            .collect();
        for b in dirty {
            let e = self.resident.get_mut(&b).unwrap();
            e.1 = false;
            let data = e.0.clone();
            self.write_back(b, data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_is_exact_lru(
        capacity in 2usize..9,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let device = Logged { disk: MemDisk::new(BS, BLOCKS), log: Vec::new() };
        let mut cache = BlockCache::new(device, capacity);
        let mut model = Model {
            capacity,
            resident: BTreeMap::new(),
            clock: 0,
            media: BTreeMap::new(),
            log: Vec::new(),
            stats: CacheStats::default(),
        };
        let mut views: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Read(b) => {
                    let got = cache.read(b).unwrap().to_vec();
                    prop_assert_eq!(got, model.fill(b).0.clone(), "read {}", b);
                }
                Op::ReadShared(b) => {
                    let view = cache.read_shared(b).unwrap();
                    let want = model.fill(b).0.clone();
                    prop_assert_eq!(&view[..], &want[..], "read_shared {}", b);
                    views.push((view, want));
                }
                Op::Write(b, fill) => {
                    cache.write(b, &[fill; BS]).unwrap();
                    model.write(b, vec![fill; BS]);
                }
                Op::WritePartial(b, off, len, fill) => {
                    cache.write_partial(b, off, &vec![fill; len]).unwrap();
                    let e = model.fill(b);
                    e.0[off..off + len].fill(fill);
                    e.1 = true;
                }
                Op::Discard(b) => {
                    cache.discard(b);
                    model.resident.remove(&b);
                }
                Op::Flush => {
                    cache.flush().unwrap();
                    model.flush();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "after {:?}", op);
            prop_assert_eq!(&cache.device().log, &model.log, "after {:?}", op);
            prop_assert_eq!(cache.resident(), model.resident.len());
        }
        for (view, want) in &views {
            prop_assert_eq!(&view[..], &want[..], "a held view changed");
        }
    }
}
