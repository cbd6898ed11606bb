//! Post-fragment blending.
//!
//! The final pipeline stage merges fragment outputs into the framebuffer
//! (§2.2 "Post Fragment Processing"). SPADE uses fixed-function blends
//! where one suffices and programmable fragment-shader blending for
//! everything else (§5.1 "Multiway Blend"); the modes here are the
//! fixed-function ones its passes draw with. The paper's additive blend
//! counted points per pixel for its aggregation plan, which this engine
//! replaces with the join's probe and a count fold (DESIGN.md §2).

use crate::texture::{PixelValue, NULL_PIXEL};

/// Fixed-function blend modes applied when a fragment lands on a pixel.
///
/// `Replace`, `KeepFirst` and `Classified` depend on the order fragments
/// arrive in, and only `Max` is commutative. A draw is deterministic for
/// every mode because each row band of the target blends its fragments in
/// primitive order (see [`crate::pipeline`]), which is GL's ordered
/// semantics: under `Replace` the last primitive wins, under `KeepFirst` the
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlendMode {
    /// Source overwrites destination (respecting primitive order).
    Replace,
    /// Source overwrites only null destination pixels ("first writer wins").
    KeepFirst,
    /// Per-channel maximum. The layer-index construction blends with "keep
    /// the object with the higher identifier" (§5.5 Pass 1).
    Max,
    /// The distance canvases' classified blend (§4.2): a certain source
    /// (channel 3, the boundary pointer, is 0) overwrites the destination,
    /// an uncertain one (channel 3 set) fills only a null pixel. On a fresh
    /// target one pass of it equals a `Replace` pass of the certain values
    /// followed by a `KeepFirst` pass of the uncertain ones, as long as no
    /// certain value is null: the last certain fragment wins, and otherwise
    /// the first uncertain one does.
    Classified,
}

impl BlendMode {
    /// Blend fragment output `src` into destination pixel `dst`.
    #[inline]
    pub fn apply(self, dst: PixelValue, src: PixelValue) -> PixelValue {
        match self {
            BlendMode::Replace => src,
            BlendMode::KeepFirst => {
                if dst == NULL_PIXEL {
                    src
                } else {
                    dst
                }
            }
            BlendMode::Max => [
                dst[0].max(src[0]),
                dst[1].max(src[1]),
                dst[2].max(src[2]),
                dst[3].max(src[3]),
            ],
            BlendMode::Classified => {
                if src[3] == 0 {
                    BlendMode::Replace.apply(dst, src)
                } else {
                    BlendMode::KeepFirst.apply(dst, src)
                }
            }
        }
    }

    /// [`BlendMode::apply`] of one `src` over every pixel of `dst`: a
    /// primitive's covered run on one row. `Replace` is a fill; the other
    /// modes apply pixel by pixel over the slice.
    #[inline]
    pub fn blend_run(self, dst: &mut [PixelValue], src: PixelValue) {
        match self {
            BlendMode::Replace => dst.fill(src),
            mode => dst.iter_mut().for_each(|d| *d = mode.apply(*d, src)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_takes_source() {
        assert_eq!(
            BlendMode::Replace.apply([1, 1, 1, 1], [2, 3, 4, 5]),
            [2, 3, 4, 5]
        );
    }

    #[test]
    fn keep_first_only_fills_null() {
        assert_eq!(
            BlendMode::KeepFirst.apply(NULL_PIXEL, [2, 3, 4, 5]),
            [2, 3, 4, 5]
        );
        assert_eq!(
            BlendMode::KeepFirst.apply([1, 1, 1, 1], [2, 3, 4, 5]),
            [1, 1, 1, 1]
        );
    }

    #[test]
    fn max_and_min() {
        assert_eq!(
            BlendMode::Max.apply([5, 1, 9, 0], [3, 7, 2, 1]),
            [5, 7, 9, 1]
        );
    }

    #[test]
    fn max_is_commutative_property() {
        let a = [5, 1, 9, 0];
        let b = [3, 7, 2, 1];
        assert_eq!(BlendMode::Max.apply(a, b), BlendMode::Max.apply(b, a));
    }

    const MODES: [BlendMode; 4] = [
        BlendMode::Replace,
        BlendMode::KeepFirst,
        BlendMode::Max,
        BlendMode::Classified,
    ];

    /// u32 edge cases: zero (every channel zero is `NULL_PIXEL`, the "no
    /// data" sentinel), small values, values near the top of the range,
    /// and `u32::MAX` itself.
    const EDGES: [u32; 7] = [0, 1, 2, 7, u32::MAX / 2, u32::MAX - 1, u32::MAX];

    /// Exhaustive property test over the u32 edge cases: for every mode and
    /// every edge pair, the scalar `apply` and the run `blend_run` must be
    /// bit-identical — including the `u32::MAX` boundary and the
    /// null-destination modes.
    #[test]
    fn batched_blends_bit_identical_to_scalar_over_edge_cases() {
        for mode in MODES {
            for &a in &EDGES {
                for &b in &EDGES {
                    // Mixed channels exercise per-channel independence.
                    let d: PixelValue = [a, b, a, b];
                    let s: PixelValue = [b, a, u32::MAX - (a / 2), b.wrapping_add(1)];
                    let want = mode.apply(d, s);

                    let mut run_dst = [d; 3];
                    mode.blend_run(&mut run_dst, s);
                    assert_eq!(run_dst, [want; 3], "{mode:?} run d={d:?} s={s:?}");
                }
            }
        }
    }

    /// One `Classified` pass over a fresh target equals a `Replace` pass of
    /// its certain values (channel 3 zero, never null) followed by a
    /// `KeepFirst` pass of its uncertain ones, on random fragment sequences
    /// over a few pixels.
    #[test]
    fn classified_equals_replace_then_keep_first() {
        let mut seed = 0xc1a5_u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for case in 0..500 {
            let frags: Vec<(usize, PixelValue)> = (0..next(24))
                .map(|_| {
                    let id = 1 + next(5) as u32;
                    let bound = if next(2) == 0 { 0 } else { 1 + next(4) as u32 };
                    (next(4) as usize, [id, 0, 1 + next(2) as u32, bound])
                })
                .collect();
            let (mut one, mut two) = ([NULL_PIXEL; 4], [NULL_PIXEL; 4]);
            for &(px, v) in &frags {
                one[px] = BlendMode::Classified.apply(one[px], v);
            }
            for &(px, v) in frags.iter().filter(|f| f.1[3] == 0) {
                two[px] = BlendMode::Replace.apply(two[px], v);
            }
            for &(px, v) in frags.iter().filter(|f| f.1[3] != 0) {
                two[px] = BlendMode::KeepFirst.apply(two[px], v);
            }
            assert_eq!(one, two, "case={case} {frags:?}");
        }
    }
}
