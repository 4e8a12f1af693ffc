//! Deterministic file/object content.
//!
//! Every byte any workload stores is a pure function of `(key, offset)`,
//! where `key` names the file or object. Writes rewrite that same
//! function, so every read in every workload can be verified without
//! knowing which writes preceded it.

/// Step between consecutive 8-byte words (odd, so the low bits cycle).
const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: spreads small integers over the word space.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(STEP);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content key of object number `n` under workload seed `seed`.
pub fn key(seed: u64, n: u64) -> u64 {
    mix(seed ^ mix(n))
}

fn word(key: u64, index: u64) -> u64 {
    key.wrapping_add(index.wrapping_mul(STEP))
}

fn byte_at(key: u64, offset: u64) -> u8 {
    word(key, offset / 8).to_le_bytes()[(offset % 8) as usize]
}

/// Fill `buf` with the content of `key` starting at byte `offset`.
pub fn fill(key: u64, offset: u64, buf: &mut [u8]) {
    let mut pos = offset;
    let mut rest = buf;
    while !pos.is_multiple_of(8) && !rest.is_empty() {
        rest[0] = byte_at(key, pos);
        rest = &mut rest[1..];
        pos += 1;
    }
    let mut w = word(key, pos / 8);
    let mut chunks = rest.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(STEP);
        pos += 8;
    }
    for b in chunks.into_remainder() {
        *b = byte_at(key, pos);
        pos += 1;
    }
}

/// The content of `key` over `[offset, offset + len)`.
pub fn make(key: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(key, offset, &mut buf);
    buf
}

/// Whether `slices`, concatenated, are exactly `len` bytes of `key`'s
/// content starting at `offset`.
pub fn verify<'a>(key: u64, offset: u64, len: u64, slices: impl Iterator<Item = &'a [u8]>) -> bool {
    let mut pos = offset;
    for s in slices {
        let mut rest = s;
        while !pos.is_multiple_of(8) && !rest.is_empty() {
            if rest[0] != byte_at(key, pos) {
                return false;
            }
            rest = &rest[1..];
            pos += 1;
        }
        let mut w = word(key, pos / 8);
        let chunks = rest.chunks_exact(8);
        let tail = chunks.remainder();
        let mut ok = true;
        for c in chunks {
            // Accumulate instead of returning early: the loop stays
            // branch-free, and a mismatch is the rare case.
            ok &= c == w.to_le_bytes();
            w = w.wrapping_add(STEP);
        }
        if !ok {
            return false;
        }
        pos += (rest.len() - tail.len()) as u64;
        for &b in tail {
            if b != byte_at(key, pos) {
                return false;
            }
            pos += 1;
        }
    }
    pos == offset + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_verify_agree_at_any_alignment_and_split() {
        let k = key(7, 3);
        for offset in [0u64, 3, 8, 13, 4096] {
            let buf = make(k, offset, 1000);
            assert!(verify(k, offset, 1000, [&buf[..]].into_iter()));
            // Split at an unaligned point: same bytes, two slices.
            let (a, b) = buf.split_at(333);
            assert!(verify(k, offset, 1000, [a, b].into_iter()));
            // Wrong length, wrong key, one flipped byte: all rejected.
            assert!(!verify(k, offset, 999, [&buf[..]].into_iter()));
            assert!(!verify(key(7, 4), offset, 1000, [&buf[..]].into_iter()));
            for flip in [0usize, 500, 999] {
                let mut bad = buf.clone();
                bad[flip] ^= 1;
                assert!(!verify(k, offset, 1000, [&bad[..]].into_iter()));
            }
        }
    }
}
