//! Stream compaction by parallel prefix scan.
//!
//! SPADE extracts query results from the Map operator's output canvas with a
//! GPU parallel scan (§5.1, citing Harris et al.'s CUDA scan). This module
//! implements the same work-efficient chunked algorithm on the persistent
//! worker pool: per-chunk reduction, a serial scan over chunk totals, then a
//! parallel down-sweep that places elements at their scanned offsets.

use crate::pool::WorkerPool;
use crate::texture::{PixelValue, Texture, NULL_PIXEL};

/// A compacted canvas entry: pixel coordinates plus the pixel value.
pub type CompactEntry = (u32, u32, PixelValue);

/// Compact the non-null pixels of a texture into a dense row-major list —
/// "removing the null elements of the list" after the Map pass (§5.1).
pub fn compact_non_null(tex: &Texture, pool: &WorkerPool) -> Vec<CompactEntry> {
    let pixels = tex.pixels();
    if pixels.is_empty() {
        return Vec::new();
    }
    let ranges = crate::pool::chunk_ranges(pixels.len(), pool.workers());
    // Up-sweep: non-null count per chunk.
    let counts = pool.parallel_map_chunks(pixels, |_, chunk| {
        chunk.iter().filter(|p| **p != NULL_PIXEL).count()
    });
    let total: usize = counts.iter().sum();
    let mut out: Vec<CompactEntry> = vec![(0, 0, NULL_PIXEL); total];
    // Carve the output into per-chunk windows at scanned offsets.
    let mut out_slices: Vec<&mut [CompactEntry]> = Vec::with_capacity(counts.len());
    {
        let mut rest: &mut [CompactEntry] = &mut out;
        for c in &counts {
            let (head, tail) = rest.split_at_mut(*c);
            out_slices.push(head);
            rest = tail;
        }
    }
    let w = tex.width() as usize;
    pool.for_each_mut(&mut out_slices, |chunk_idx, slice| {
        let range = &ranges[chunk_idx];
        let base = range.start;
        let chunk = &pixels[range.clone()];
        let mut k = 0;
        for (i, &v) in chunk.iter().enumerate() {
            if v != NULL_PIXEL {
                let flat = base + i;
                slice[k] = ((flat % w) as u32, (flat / w) as u32, v);
                k += 1;
            }
        }
        debug_assert_eq!(k, slice.len());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_preserves_row_major_order() {
        let mut tex = Texture::new(8, 8);
        tex.put(3, 1, [10, 0, 0, 0]);
        tex.put(0, 0, [5, 0, 0, 0]);
        tex.put(7, 7, [20, 0, 0, 0]);
        tex.put(2, 1, [9, 0, 0, 0]);
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let out = compact_non_null(&tex, &pool);
            assert_eq!(
                out,
                vec![
                    (0, 0, [5, 0, 0, 0]),
                    (2, 1, [9, 0, 0, 0]),
                    (3, 1, [10, 0, 0, 0]),
                    (7, 7, [20, 0, 0, 0]),
                ],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn compact_empty_and_full() {
        let pool = WorkerPool::new(4);
        let tex = Texture::new(4, 4);
        assert!(compact_non_null(&tex, &pool).is_empty());
        let mut full = Texture::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                full.put(x, y, [1, 0, 0, 0]);
            }
        }
        let pool3 = WorkerPool::new(3);
        assert_eq!(compact_non_null(&full, &pool3).len(), 16);
    }

    #[test]
    fn compact_count_matches_texture() {
        let mut tex = Texture::new(32, 32);
        let mut seed = 42u64;
        for _ in 0..300 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((seed >> 20) % 32) as u32;
            let y = ((seed >> 40) % 32) as u32;
            tex.put(x, y, [1, 2, 3, 4]);
        }
        let pool = WorkerPool::new(8);
        let out = compact_non_null(&tex, &pool);
        assert_eq!(out.len(), tex.count_non_null());
    }
}
