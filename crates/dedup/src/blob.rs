//! The on-drive chunk frame ("data blob") format.
//!
//! Every chunk lives inside a pack object as one self-describing frame:
//!
//! ```text
//! magic     u32   0xDA7A_B10B
//! flags     u32   bit 0: payload is RLE-compressed
//! digest    [u8; 32]  SHA-256 of the *uncompressed* chunk (its address)
//! unc_len   u32   uncompressed payload length
//! enc_len   u32   encoded (stored) payload length
//! csum      u64   first 8 bytes of SHA-256 over the encoded payload
//! payload   [u8; enc_len]
//! ```
//!
//! The header is fixed-size so a rescan after a crash can walk a pack
//! frame-by-frame: read [`HEADER_LEN`] bytes, validate, skip `enc_len`,
//! repeat, and stop at the first hole or garbage (an append that died
//! mid-frame). Decoding verifies the payload checksum *and* re-derives
//! the content digest, so every chunk read is integrity-checked
//! end-to-end before it reaches a restore.

#![deny(clippy::cast_possible_truncation)]

use crate::error::DedupError;
use nasd_crypto::Sha256;
use nasd_proto::wire::{DecodeError, WireReader, WireWriter};

/// Frame magic: `DA7A B10B` ("data blob").
pub const MAGIC: u32 = 0xDA7A_B10B;

/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 4 + 4 + 32 + 4 + 4 + 8;

/// Flag bit: payload is RLE-compressed.
pub const FLAG_RLE: u32 = 1;

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedBlob {
    /// Content address of the chunk (verified against the payload).
    pub digest: [u8; 32],
    /// The uncompressed chunk bytes.
    pub data: Vec<u8>,
    /// Total frame length (header + encoded payload) — how far to
    /// advance when scanning a pack.
    pub frame_len: usize,
}

/// Encode `payload` (whose SHA-256 is `digest`) into a frame. With
/// `try_compress`, the payload is RLE-compressed when that is actually
/// smaller; incompressible chunks are stored raw.
#[must_use]
pub fn encode(digest: &[u8; 32], payload: &[u8], try_compress: bool) -> Vec<u8> {
    let (flags, body) = if try_compress {
        match rle_compress(payload) {
            Some(c) => (FLAG_RLE, c),
            // nasd-lint: allow(hot-path-copy, "the frame owns its payload; one copy builds the on-drive representation")
            None => (0, payload.to_vec()),
        }
    } else {
        // nasd-lint: allow(hot-path-copy, "the frame owns its payload; one copy builds the on-drive representation")
        (0, payload.to_vec())
    };
    let csum = payload_csum(&body);
    let mut w = WireWriter::with_capacity(HEADER_LEN + body.len());
    #[expect(
        clippy::cast_possible_truncation,
        reason = "chunk length is bounded by the chunker's max size (4 MiB), far below \
                  u32::MAX, and the encoded length never exceeds it (compression is only \
                  kept when smaller)"
    )]
    w.u32(MAGIC)
        .u32(flags)
        .raw(digest)
        .u32(payload.len() as u32)
        .u32(body.len() as u32)
        .u64(csum)
        .raw(&body);
    w.into_vec()
}

/// Parse the frame starting at the front of `bytes`, verifying the
/// payload checksum and the content digest. Trailing bytes beyond the
/// frame are ignored (packs hold many frames back-to-back).
pub fn decode(bytes: &[u8]) -> Result<DecodedBlob, DedupError> {
    let header = bytes
        .get(..HEADER_LEN)
        .ok_or(DedupError::Decode(DecodeError::Truncated {
            needed: HEADER_LEN,
            remaining: bytes.len(),
        }))?;
    let mut r = WireReader::new(header);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(DedupError::Corrupt("bad blob magic"));
    }
    let flags = r.u32()?;
    // The header is not covered by the payload checksum; rejecting
    // undefined flag bits keeps a flipped header bit from slipping by.
    if flags & !FLAG_RLE != 0 {
        return Err(DedupError::Corrupt("unknown blob flags"));
    }
    let mut digest = [0u8; 32];
    // nasd-lint: allow(hot-path-copy, "32-byte content address, not chunk payload")
    digest.copy_from_slice(r.raw(32)?);
    let unc_len = usize::try_from(r.u32()?)
        .map_err(|_| DedupError::Corrupt("blob length exceeds address space"))?;
    let enc_len = usize::try_from(r.u32()?)
        .map_err(|_| DedupError::Corrupt("blob length exceeds address space"))?;
    let csum = r.u64()?;
    let frame_len = HEADER_LEN
        .checked_add(enc_len)
        .ok_or(DedupError::Corrupt("blob frame length overflow"))?;
    let encoded =
        bytes
            .get(HEADER_LEN..frame_len)
            .ok_or(DedupError::Decode(DecodeError::Truncated {
                needed: frame_len,
                remaining: bytes.len(),
            }))?;
    if payload_csum(encoded) != csum {
        return Err(DedupError::Corrupt("blob payload checksum mismatch"));
    }
    let data = if flags & FLAG_RLE != 0 {
        rle_decompress(encoded, unc_len)?
    } else {
        // nasd-lint: allow(hot-path-copy, "the frame payload becomes the owned chunk handed to restore")
        encoded.to_vec()
    };
    if data.len() != unc_len {
        return Err(DedupError::Corrupt("blob length mismatch"));
    }
    if !nasd_crypto::ct_eq(Sha256::digest(&data).as_bytes(), &digest) {
        return Err(DedupError::Corrupt("blob content digest mismatch"));
    }
    Ok(DecodedBlob {
        digest,
        data,
        frame_len,
    })
}

/// Checksum over the encoded payload: the first 8 bytes of its SHA-256,
/// big-endian. Cheap to recompute on a rescan and strong enough to
/// reject torn appends.
fn payload_csum(encoded: &[u8]) -> u64 {
    let d = Sha256::digest(encoded).into_bytes();
    d.iter()
        .take(8)
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Run-length encode as (run_len u8 >= 1, byte) pairs. Returns `None`
/// unless the result is strictly smaller than the input — callers then
/// store raw, so pathological inputs never expand.
fn rle_compress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut run = 0u8;
    let mut cur = 0u8;
    for &b in data {
        if run > 0 && b == cur && run < u8::MAX {
            run += 1;
            continue;
        }
        if run > 0 {
            out.push(run);
            out.push(cur);
            if out.len() >= data.len() {
                return None;
            }
        }
        cur = b;
        run = 1;
    }
    if run > 0 {
        out.push(run);
        out.push(cur);
    }
    (out.len() < data.len()).then_some(out)
}

/// Inverse of [`rle_compress`]. `expect_len` bounds the output so a
/// corrupt frame cannot balloon memory.
fn rle_decompress(encoded: &[u8], expect_len: usize) -> Result<Vec<u8>, DedupError> {
    let mut out = Vec::with_capacity(expect_len);
    let mut pairs = encoded.chunks_exact(2);
    for pair in pairs.by_ref() {
        let &[run_b, byte] = pair else {
            return Err(DedupError::Corrupt("rle stream has odd length"));
        };
        let run = usize::from(run_b);
        if run == 0 {
            return Err(DedupError::Corrupt("rle run of zero"));
        }
        if out.len().saturating_add(run) > expect_len {
            return Err(DedupError::Corrupt("rle output exceeds declared length"));
        }
        out.extend(std::iter::repeat_n(byte, run));
    }
    if !pairs.remainder().is_empty() {
        return Err(DedupError::Corrupt("rle stream has odd length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(data: &[u8]) -> [u8; 32] {
        Sha256::digest(data).into_bytes()
    }

    #[test]
    fn raw_round_trip() {
        let payload = b"incompressible-ish payload 1234567890".to_vec();
        let d = digest_of(&payload);
        let frame = encode(&d, &payload, false);
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let got = decode(&frame).unwrap();
        assert_eq!(got.data, payload);
        assert_eq!(got.digest, d);
        assert_eq!(got.frame_len, frame.len());
    }

    #[test]
    fn compressed_round_trip_and_is_smaller() {
        let payload = vec![0u8; 8192];
        let d = digest_of(&payload);
        let frame = encode(&d, &payload, true);
        assert!(frame.len() < HEADER_LEN + payload.len());
        let got = decode(&frame).unwrap();
        assert_eq!(got.data, payload);
    }

    #[test]
    fn incompressible_stays_raw_under_compress_flag() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let d = digest_of(&payload);
        let frame = encode(&d, &payload, true);
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        assert_eq!(decode(&frame).unwrap().data, payload);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let payload = b"abc".to_vec();
        let mut frame = encode(&digest_of(&payload), &payload, false);
        let frame_len = frame.len();
        frame.extend_from_slice(b"next frame starts here");
        let got = decode(&frame).unwrap();
        assert_eq!(got.frame_len, frame_len);
        assert_eq!(got.data, payload);
    }

    #[test]
    fn corruption_is_detected() {
        let payload = vec![9u8; 300];
        let d = digest_of(&payload);
        let frame = encode(&d, &payload, true);
        // Truncation.
        assert!(decode(&frame[..frame.len() - 1]).is_err());
        assert!(decode(&frame[..HEADER_LEN - 1]).is_err());
        // Any single flipped bit must be caught.
        for pos in [0, 5, 20, 40, HEADER_LEN + 1] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {pos} not caught");
        }
        // Wrong declared digest (payload intact, address lies).
        let frame2 = encode(&[0xEE; 32], &payload, false);
        assert!(matches!(
            decode(&frame2),
            Err(DedupError::Corrupt("blob content digest mismatch"))
        ));
    }

    #[test]
    fn empty_payload_frames() {
        let d = digest_of(b"");
        let frame = encode(&d, b"", false);
        let got = decode(&frame).unwrap();
        assert!(got.data.is_empty());
        assert_eq!(got.frame_len, HEADER_LEN);
    }
}
