//! SHA-256 implemented from FIPS 180-4.

use std::fmt;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// A 256-bit message digest.
///
/// # Example
///
/// ```
/// use nasd_crypto::Sha256;
/// let d = Sha256::digest(b"hello");
/// assert_eq!(d.as_bytes().len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest([u8; 32]);

impl Digest {
    /// View the digest as raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consume the digest, returning the raw bytes.
    #[must_use]
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Render the digest as lowercase hex.
    ///
    /// # Example
    ///
    /// ```
    /// use nasd_crypto::Sha256;
    /// let hex = Sha256::digest(b"").to_hex();
    /// assert!(hex.starts_with("e3b0c442"));
    /// ```
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Fold the digest down to a `u64` (used for cheap fingerprints in
    /// tests and replay caches; not a security boundary).
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest is 32 bytes"))
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use nasd_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far, excluding what is buffered.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("bytes_hashed", &(self.len + self.buf_len as u64))
            .finish()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data` into the hash state.
    // nasd-lint: allow(transitive-panic, "FIPS 180-4 fixed-block math: every slice is bounded by the 64-byte block invariant (buf_len < 64, data.len() >= 64 guards)")
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.len += 64;
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().expect("sliced 64 bytes");
            self.compress(&block);
            self.len += 64;
            data = &data[64..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Resume hashing from a midstate: `state` is the chaining value
    /// after absorbing `len` bytes, a whole number of blocks.
    pub(crate) fn resume(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % 64, 0, "a midstate sits on a block boundary");
        Sha256 {
            state,
            len,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// The chaining value after absorbing the one block `block` from the
    /// initial value: the midstate [`Self::resume`] continues from.
    pub(crate) fn block_midstate(block: &[u8; 64]) -> [u32; 8] {
        let mut h = Sha256::new();
        h.compress(block);
        h.state
    }

    /// Finish hashing and produce the digest.
    #[must_use]
    // nasd-lint: allow(transitive-panic, "FIPS 180-4 fixed-block math: buf_len < 64 bounds the pad byte, the length fills bytes 56..64 and the 8 state words fill exactly 32 bytes")
    pub fn finalize(mut self) -> Digest {
        let bit_len = (self.len + self.buf_len as u64) * 8;
        // Padding: 0x80, zeros, 64-bit big-endian length — written into
        // the block in place, spilling into a second block when the
        // length no longer fits behind the tail.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        crate::stats::record_compression();
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST CAVP known-answer vectors.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Sha256::digest(input).to_hex(), *want);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::digest(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 63, 64, 65, 127, 4096] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn digest_display_and_u64() {
        let d = Sha256::digest(b"abc");
        assert_eq!(format!("{d}").len(), 64);
        assert_eq!(d.to_u64(), 0xba7816bf8f01cfea);
    }

    /// The one-write padding equals FIPS 180-4 §5.1.1 spelled out: the
    /// message, `0x80`, zeros to 56 mod 64, the 64-bit bit length —
    /// hashed as whole blocks — for every tail length on both sides of
    /// the one-block/two-block split.
    #[test]
    fn finalize_matches_explicit_padding() {
        for len in 0usize..=200 {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut padded = data.clone();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&((len as u64) * 8).to_be_bytes());
            let mut h = Sha256::new();
            h.update(&padded);
            assert_eq!(h.buf_len, 0);
            let want: Vec<u8> = h.state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(Sha256::digest(&data).as_bytes()[..], want[..], "len {len}");
        }
    }

    proptest::proptest! {
        /// Resuming from the midstate after whole blocks equals hashing
        /// the prefix and the rest in one pass.
        #[test]
        fn resume_from_midstate_equals_one_pass(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
            blocks in 0usize..7,
        ) {
            let cut = (blocks * 64).min(data.len() / 64 * 64);
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            let mut resumed = Sha256::resume(h.state, cut as u64);
            resumed.update(&data[cut..]);
            proptest::prop_assert_eq!(resumed.finalize(), Sha256::digest(&data));
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding logic around the 55/56/64-byte boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }
}
