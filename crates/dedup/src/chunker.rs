//! Content-defined and fixed-size chunking.
//!
//! The dynamic chunker slides a Buzhash (cyclic-polynomial rolling
//! hash) over a byte window and cuts wherever the low bits of the hash
//! hit a fixed pattern. Because the decision at a position depends only
//! on the [`WINDOW`]-byte suffix ending there, boundaries are
//! *shift-invariant*: inserting or deleting bytes near the front of a
//! stream disturbs only the chunks around the edit, and the cut points
//! downstream re-synchronize — the property that makes incremental
//! re-backups dedup against the previous run. The property suite in
//! `tests/props.rs` pins it.
//!
//! Block-image archives use [`FixedChunker`] instead: equal-size chunks
//! aligned to the image's block grid dedup in-place updates without any
//! boundary search.

/// Rolling-hash window: the number of trailing bytes a boundary
/// decision looks at.
pub const WINDOW: usize = 48;

/// Per-byte random values for the Buzhash. Generated deterministically
/// (splitmix64 from a fixed seed) so every build, platform and replay
/// chunks identically.
const TABLE: [u64; 256] = buzhash_table();

const fn buzhash_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut i = 0;
    while i < 256 {
        // splitmix64 step.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        // nasd-lint: allow(panic, "const-eval table fill; `i < 256` is the loop bound of this 256-entry array")
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// The Buzhash value for one byte.
#[inline]
fn tbl(b: u8) -> u64 {
    // nasd-lint: allow(panic, "TABLE has 256 entries; a u8 index is always in range")
    TABLE[usize::from(b)]
}

/// Size bounds for the dynamic chunker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkerParams {
    /// No boundary before this many bytes.
    pub min_size: usize,
    /// Target average chunk size; must be a power of two (it becomes
    /// the boundary mask).
    pub avg_size: usize,
    /// A boundary is forced at this many bytes.
    pub max_size: usize,
}

impl ChunkerParams {
    /// The bench/production default: 16 KiB..4 MiB around a 64 KiB
    /// average (the shape proxmox-style backup stores use, scaled to
    /// the simulated drives).
    #[must_use]
    pub fn standard() -> Self {
        ChunkerParams {
            min_size: 16 << 10,
            avg_size: 64 << 10,
            max_size: 4 << 20,
        }
    }

    /// Small chunks for tests: 256 B..16 KiB around a 1 KiB average.
    #[must_use]
    pub fn small() -> Self {
        ChunkerParams {
            min_size: 256,
            avg_size: 1 << 10,
            max_size: 16 << 10,
        }
    }

    /// Clamp the fields into a usable shape: `avg` is rounded down to a
    /// power of two and the bounds are ordered `min <= avg <= max`,
    /// with `min` at least the window size (a boundary decision needs a
    /// full window). Because `min` can never go below `WINDOW`, `avg`
    /// is floored at the next power of two above it — a sub-window
    /// average would force `min > avg`.
    #[must_use]
    pub fn normalized(self) -> Self {
        let avg = self.avg_size.max(2).next_power_of_two();
        let avg = if avg > self.avg_size { avg / 2 } else { avg };
        let avg = avg.max(WINDOW.next_power_of_two());
        let min = self.min_size.clamp(WINDOW, avg);
        let max = self.max_size.max(avg);
        ChunkerParams {
            min_size: min,
            avg_size: avg,
            max_size: max,
        }
    }
}

/// Content-defined chunker over a byte slice.
#[derive(Clone, Debug)]
pub struct DynamicChunker {
    params: ChunkerParams,
    /// Boundary mask: low bits of the rolling hash that must all be set.
    mask: u64,
}

impl DynamicChunker {
    /// A chunker with `params` (normalized; see
    /// [`ChunkerParams::normalized`]).
    #[must_use]
    pub fn new(params: ChunkerParams) -> Self {
        let params = params.normalized();
        DynamicChunker {
            params,
            mask: (params.avg_size as u64).saturating_sub(1),
        }
    }

    /// The normalized parameters in use.
    #[must_use]
    pub fn params(&self) -> ChunkerParams {
        self.params
    }

    /// Cut `data` into chunk ranges. Every byte lands in exactly one
    /// range; ranges are contiguous and in order. An empty input yields
    /// no chunks.
    #[must_use]
    pub fn boundaries(&self, data: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let end = self.next_cut(data, start);
            out.push((start, end));
            start = end;
        }
        out
    }

    /// The end of the chunk starting at `start`: the first position at
    /// or after `min_size` whose window hash matches the mask, capped
    /// at `max_size` and the end of the data.
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        let remaining = data.len() - start;
        if remaining <= self.params.min_size {
            return data.len();
        }
        let limit = remaining.min(self.params.max_size);
        // Seed the hash with the WINDOW bytes ending at min_size, then
        // roll forward. min_size >= WINDOW by normalization.
        let mut hash: u64 = 0;
        let warm_from = start + self.params.min_size - WINDOW;
        for i in 0..WINDOW {
            let b = data.get(warm_from + i).copied().unwrap_or(0);
            hash = hash.rotate_left(1) ^ tbl(b);
        }
        let mut pos = self.params.min_size;
        loop {
            if hash & self.mask == self.mask {
                return start + pos;
            }
            if pos >= limit {
                return start + limit;
            }
            // Roll: the byte entering is data[start+pos], the byte
            // leaving entered WINDOW steps ago.
            let entering = data.get(start + pos).copied().unwrap_or(0);
            let leaving = data.get(start + pos - WINDOW).copied().unwrap_or(0);
            hash =
                hash.rotate_left(1) ^ tbl(leaving).rotate_left(WINDOW as u32 % 64) ^ tbl(entering);
            pos += 1;
        }
    }
}

/// Fixed-size chunker for block images: equal chunks on a fixed grid,
/// with a final partial chunk.
#[derive(Clone, Copy, Debug)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// A chunker cutting every `size` bytes (clamped to at least 1).
    #[must_use]
    pub fn new(size: usize) -> Self {
        FixedChunker { size: size.max(1) }
    }

    /// The chunk size.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Cut `data` into chunk ranges.
    #[must_use]
    pub fn boundaries(&self, data: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(data.len() / self.size + 1);
        let mut start = 0;
        while start < data.len() {
            let end = (start + self.size).min(data.len());
            out.push((start, end));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let data = pseudo_random(200_000, 7);
        let c = DynamicChunker::new(ChunkerParams::small());
        let ranges = c.boundaries(&data);
        let mut pos = 0;
        for &(s, e) in &ranges {
            assert_eq!(s, pos);
            assert!(e > s);
            pos = e;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn bounds_are_respected_and_average_is_sane() {
        let data = pseudo_random(1 << 20, 42);
        let params = ChunkerParams::small();
        let c = DynamicChunker::new(params);
        let ranges = c.boundaries(&data);
        for &(s, e) in ranges.iter().take(ranges.len() - 1) {
            assert!(e - s >= params.min_size, "chunk under min");
            assert!(e - s <= params.max_size, "chunk over max");
        }
        let avg = data.len() / ranges.len();
        assert!(
            avg >= params.avg_size / 4 && avg <= params.avg_size * 4,
            "average {avg} far from target {}",
            params.avg_size
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let c = DynamicChunker::new(ChunkerParams::small());
        assert!(c.boundaries(&[]).is_empty());
        assert_eq!(c.boundaries(&[1, 2, 3]), vec![(0, 3)]);
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = pseudo_random(300_000, 9);
        let c = DynamicChunker::new(ChunkerParams::small());
        assert_eq!(c.boundaries(&data), c.boundaries(&data));
    }

    #[test]
    fn fixed_chunker_grid() {
        let f = FixedChunker::new(4096);
        let ranges = f.boundaries(&[0u8; 10_000]);
        assert_eq!(ranges, vec![(0, 4096), (4096, 8192), (8192, 10_000)]);
        assert!(FixedChunker::new(0).size() == 1);
    }

    #[test]
    fn sub_window_average_is_clamped_and_does_not_underflow() {
        let p = ChunkerParams {
            min_size: 0,
            avg_size: 8,
            max_size: 0,
        }
        .normalized();
        assert!(p.avg_size >= WINDOW && p.avg_size.is_power_of_two());
        assert!(p.min_size >= WINDOW && p.min_size <= p.avg_size);
        assert!(p.max_size >= p.avg_size);
        // Regression: with avg < WINDOW the old normalization produced
        // min < WINDOW, and next_cut's `start + min - WINDOW` warm-up
        // offset underflowed usize (a panic in debug builds).
        let c = DynamicChunker::new(ChunkerParams {
            min_size: 1,
            avg_size: 8,
            max_size: 64,
        });
        let data = pseudo_random(10_000, 3);
        let ranges = c.boundaries(&data);
        assert_eq!(ranges.last().map(|r| r.1), Some(data.len()));
    }

    #[test]
    fn normalization_orders_bounds() {
        let p = ChunkerParams {
            min_size: 0,
            avg_size: 3000,
            max_size: 10,
        }
        .normalized();
        assert_eq!(p.avg_size, 2048);
        assert!(p.min_size >= WINDOW && p.min_size <= p.avg_size);
        assert!(p.max_size >= p.avg_size);
    }
}
