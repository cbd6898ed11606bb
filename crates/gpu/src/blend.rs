//! Post-fragment blending.
//!
//! The final pipeline stage merges fragment outputs into the framebuffer
//! (§2.2 "Post Fragment Processing"). SPADE uses fixed-function blends
//! where one suffices and programmable fragment-shader blending for
//! everything else (§5.1 "Multiway Blend"); the modes here are the
//! fixed-function ones its passes draw with. The paper's additive blend
//! counted points per pixel for its aggregation plan, which this engine
//! replaces with the join's probe and a count fold (DESIGN.md §2).

use crate::fragments::FragmentBuffer;
use crate::texture::{PixelValue, NULL_PIXEL};

/// Fixed-function blend modes applied when a fragment lands on a pixel.
///
/// All modes except [`BlendMode::Replace`] are commutative, so parallel
/// banded blending is order-independent; `Replace` is resolved in primitive
/// order (last primitive wins), matching GL's ordered semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlendMode {
    /// Source overwrites destination (respecting primitive order).
    Replace,
    /// Source overwrites only null destination pixels ("first writer wins").
    KeepFirst,
    /// Per-channel maximum. The layer-index construction blends with "keep
    /// the object with the higher identifier" (§5.5 Pass 1).
    Max,
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

    /// Scatter batched form of [`BlendMode::apply`] over an SoA fragment
    /// buffer: each fragment blends into `dst[(y − y0)·width + x]`.
    /// Fragments are applied in buffer order, preserving primitive-ordered
    /// `Replace`/`KeepFirst` semantics.
    pub fn blend_soa(self, dst: &mut [PixelValue], y0: u32, width: usize, fb: &FragmentBuffer) {
        match self {
            BlendMode::Replace => {
                scatter(dst, y0, width, fb, |d, s| BlendMode::Replace.apply(d, s))
            }
            BlendMode::KeepFirst => {
                scatter(dst, y0, width, fb, |d, s| BlendMode::KeepFirst.apply(d, s))
            }
            BlendMode::Max => scatter(dst, y0, width, fb, |d, s| BlendMode::Max.apply(d, s)),
        }
    }
}

/// Monomorphized SoA scatter loop: no per-fragment mode dispatch.
#[inline]
fn scatter(
    dst: &mut [PixelValue],
    y0: u32,
    width: usize,
    fb: &FragmentBuffer,
    f: impl Fn(PixelValue, PixelValue) -> PixelValue,
) {
    for k in 0..fb.len() {
        let i = (fb.ys[k] - y0) as usize * width + fb.xs[k] as usize;
        dst[i] = f(dst[i], fb.vals[k]);
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

    const MODES: [BlendMode; 3] = [BlendMode::Replace, BlendMode::KeepFirst, BlendMode::Max];

    /// u32 edge cases: zero (every channel zero is `NULL_PIXEL`, the "no
    /// data" sentinel), small values, values near the top of the range,
    /// and `u32::MAX` itself.
    const EDGES: [u32; 7] = [0, 1, 2, 7, u32::MAX / 2, u32::MAX - 1, u32::MAX];

    /// Exhaustive property test over the u32 edge cases: for every mode and
    /// every edge pair, the scalar `apply`, the SoA `blend_soa` and the run
    /// `blend_run` must be bit-identical — including the `u32::MAX` boundary
    /// and the null-destination modes.
    #[test]
    fn batched_blends_bit_identical_to_scalar_over_edge_cases() {
        for mode in MODES {
            for &a in &EDGES {
                for &b in &EDGES {
                    // Mixed channels exercise per-channel independence.
                    let d: PixelValue = [a, b, a, b];
                    let s: PixelValue = [b, a, u32::MAX - (a / 2), b.wrapping_add(1)];
                    let want = mode.apply(d, s);

                    let mut fb = FragmentBuffer::new();
                    fb.push(0, 0, s);
                    let mut soa_dst = [d];
                    mode.blend_soa(&mut soa_dst, 0, 1, &fb);
                    assert_eq!(soa_dst[0], want, "{mode:?} soa d={d:?} s={s:?}");

                    let mut run_dst = [d; 3];
                    mode.blend_run(&mut run_dst, s);
                    assert_eq!(run_dst, [want; 3], "{mode:?} run d={d:?} s={s:?}");
                }
            }
        }
    }

    /// Scatter indexing: fragments land at `(y − y0)·width + x` and apply
    /// in buffer order (primitive order for `Replace`).
    #[test]
    fn blend_soa_scatter_indexing_and_order() {
        let mut fb = FragmentBuffer::new();
        fb.push(1, 5, [10, 0, 0, 0]);
        fb.push(2, 6, [20, 0, 0, 0]);
        fb.push(1, 5, [30, 0, 0, 0]); // later fragment wins under Replace
        let mut dst = [NULL_PIXEL; 8]; // 4 wide × 2 rows, band starts at y0=5
        BlendMode::Replace.blend_soa(&mut dst, 5, 4, &fb);
        assert_eq!(dst[1], [30, 0, 0, 0]);
        assert_eq!(dst[4 + 2], [20, 0, 0, 0]);
        assert_eq!(dst.iter().filter(|&&p| p != NULL_PIXEL).count(), 2);
    }
}
