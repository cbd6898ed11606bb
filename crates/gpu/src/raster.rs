//! Rasterization: converting primitives into fragments.
//!
//! Hardware rasterizers offer two rules that SPADE depends on (§4.2):
//!
//! * **default** — a pixel is covered when its center satisfies the
//!   primitive's coverage test (point sampling);
//! * **conservative** — a pixel is covered when the primitive *touches* the
//!   pixel's cell at all. SPADE renders polygon boundaries conservatively so
//!   every boundary pixel is identified, which is what makes the boundary
//!   index exact.
//!
//! Rasterization also performs clipping: fragments are only generated inside
//! the viewport, mirroring the fixed-function vertex post-processing stage
//! (§2.2).
//!
//! [`rasterize`] tests every pixel of the bounding box and is the oracle;
//! [`rasterize_with`], which the Map pass uses, emits the same fragments in
//! the same order from 8-pixel blocks (default rule) and per-row runs
//! (conservative triangles), tested with the oracle's exact predicates.
//! [`triangle_runs`] hands a triangle's coverage under either rule to a
//! draw or a counting pass as runs of each row, clipped to the rows asked
//! for.

use crate::primitive::Primitive;
use crate::viewport::Viewport;
use spade_geometry::{BBox, Point, Triangle};
use std::ops::Range;

/// Width of the batched edge-function kernel: one coverage block is eight
/// consecutive pixels of a scanline.
pub const LANES: usize = 8;

/// Bitmask selecting the low `n` lanes of a coverage block.
#[inline]
pub fn lane_mask(n: usize) -> u8 {
    debug_assert!((1..=LANES).contains(&n));
    (((1u16 << n) - 1) & 0xff) as u8
}

/// Row-hoisted evaluator for the default (pixel-center) triangle coverage
/// rule.
///
/// The per-pixel test of [`rasterize`] computes, per edge `(u, v)`,
/// `e = (v − u) × (p − u) = (v.x−u.x)·(p.y−u.y) − (v.y−u.y)·(p.x−u.x)`.
/// The first product is constant along a scanline, so this kernel computes
/// it once per row ([`TriRowKernel::begin_row`]) and leaves one multiply
/// and one subtract per pixel per edge. Each per-pixel value runs the
/// *same* fp operations on the *same* operands as the naive loop (Rust
/// never contracts the multiply-subtract into an FMA), so [`inside`] and
/// [`coverage_mask`] are bit-identical to the enumerating rasterizer — the
/// scalar oracle — by construction, not by tolerance.
///
/// [`inside`]: TriRowKernel::inside
/// [`coverage_mask`]: TriRowKernel::coverage_mask
pub struct TriRowKernel {
    /// Per-edge `v − u` deltas and `u` anchors, edges in oracle order
    /// `(a,b) (b,c) (c,a)` after CCW winding normalization.
    dx: [f64; 3],
    dy: [f64; 3],
    ux: [f64; 3],
    uy: [f64; 3],
    /// Row-constant edge terms `dx·(py − uy)`, set by `begin_row`.
    t: [f64; 3],
    /// Pixel-center x is `minx + (x + 0.5)·psx` — the exact
    /// `Viewport::pixel_center` expression with its x-invariant parts
    /// hoisted (`pixel_size` is a deterministic division, so hoisting it
    /// cannot change the value).
    minx: f64,
    psx: f64,
    /// 4-wide AVX lanes available (detected once per kernel; AVX arithmetic
    /// is IEEE-exact, so lane width never changes a single bit).
    use_avx: bool,
}

#[cfg(target_arch = "x86_64")]
fn have_avx() -> bool {
    std::is_x86_feature_detected!("avx")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx() -> bool {
    false
}

impl TriRowKernel {
    pub fn new(tri: &Triangle, vp: &Viewport) -> TriRowKernel {
        // Same winding normalization as the enumerating rasterizer.
        let (a, b, c) = if tri.signed_area() >= 0.0 {
            (tri.a, tri.b, tri.c)
        } else {
            (tri.a, tri.c, tri.b)
        };
        let mut k = TriRowKernel {
            dx: [0.0; 3],
            dy: [0.0; 3],
            ux: [0.0; 3],
            uy: [0.0; 3],
            t: [0.0; 3],
            minx: vp.world.min.x,
            psx: vp.pixel_size().x,
            use_avx: have_avx(),
        };
        for (i, (u, v)) in [(a, b), (b, c), (c, a)].into_iter().enumerate() {
            k.dx[i] = v.x - u.x;
            k.dy[i] = v.y - u.y;
            k.ux[i] = u.x;
            k.uy[i] = u.y;
        }
        k
    }

    /// Load the row-constant edge terms for the scanline whose pixel-center
    /// y is `py` (callers pass `vp.pixel_center(_, y).y`).
    pub fn begin_row(&mut self, py: f64) {
        for k in 0..3 {
            self.t[k] = self.dx[k] * (py - self.uy[k]);
        }
    }

    /// Exact scalar coverage test for pixel column `x` of the current row.
    #[inline]
    pub fn inside(&self, x: u32) -> bool {
        let px = self.minx + (x as f64 + 0.5) * self.psx;
        let e0 = self.t[0] - self.dy[0] * (px - self.ux[0]);
        let e1 = self.t[1] - self.dy[1] * (px - self.ux[1]);
        let e2 = self.t[2] - self.dy[2] * (px - self.ux[2]);
        e0 >= 0.0 && e1 >= 0.0 && e2 >= 0.0
    }

    /// Coverage bits for the `n` pixels starting at column `x0` (bit `i` =
    /// column `x0 + i`; bits at and above `n` are zero). On x86_64 the
    /// eight lanes run through explicit SSE2 (baseline) or AVX (detected)
    /// intrinsics; elsewhere through a branch-free fixed-array loop LLVM
    /// autovectorizes. Every variant performs the identical IEEE operation
    /// sequence as [`inside`], so the bits agree exactly.
    ///
    /// [`inside`]: TriRowKernel::inside
    #[inline]
    pub fn coverage_mask(&self, x0: u32, n: usize) -> u8 {
        #[cfg(target_arch = "x86_64")]
        {
            if self.use_avx {
                // SAFETY: AVX support was detected at kernel construction.
                unsafe { x86::coverage_mask_avx(self, x0, n) }
            } else {
                x86::coverage_mask_sse2(self, x0, n)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.coverage_mask_portable(x0, n)
        }
    }

    /// Portable block kernel: the non-x86_64 implementation of
    /// [`coverage_mask`], and the oracle the intrinsic paths are verified
    /// against in tests.
    ///
    /// [`coverage_mask`]: TriRowKernel::coverage_mask
    #[cfg(any(not(target_arch = "x86_64"), test))]
    fn coverage_mask_portable(&self, x0: u32, n: usize) -> u8 {
        let mut px = [0.0f64; LANES];
        for (i, p) in px.iter_mut().enumerate() {
            *p = self.minx + ((x0 as u64 + i as u64) as f64 + 0.5) * self.psx;
        }
        let mut ok = [true; LANES];
        for k in 0..3 {
            let (t, dy, ux) = (self.t[k], self.dy[k], self.ux[k]);
            for (i, o) in ok.iter_mut().enumerate() {
                *o &= t - dy * (px[i] - ux) >= 0.0;
            }
        }
        let mut m = 0u8;
        for (i, o) in ok.iter().enumerate() {
            m |= u8::from(*o) << i;
        }
        m & lane_mask(n)
    }

    /// One of the two monotone halves of [`inside`] along the row: with
    /// `rising`, the edges whose value rises with x (`dy < 0`: false, then
    /// true), otherwise those whose value falls (`dy > 0`: true, then
    /// false). An edge with `dy == ±0` (or NaN) is a row constant and sits
    /// in both. `inside(x)` is `half(x, true) && half(x, false)`, tested
    /// with the same operations.
    ///
    /// [`inside`]: TriRowKernel::inside
    #[inline]
    fn half(&self, x: u32, rising: bool) -> bool {
        let px = self.minx + (x as f64 + 0.5) * self.psx;
        (0..3).all(|k| {
            let other = if rising {
                self.dy[k] > 0.0
            } else {
                self.dy[k] < 0.0
            };
            other || self.t[k] - self.dy[k] * (px - self.ux[k]) >= 0.0
        })
    }

    /// Guesses at the first and the last covered column of the row whose
    /// pixel-center y is `py` under the default rule, clamped to `[x0, x1]`;
    /// `None` when the row is provably empty.
    ///
    /// The three half-plane constraints `e = (v-u)×(p-u) ≥ 0` are rewritten
    /// as `s·px ≤ t` with `s = v.y-u.y` and `t = (v.x-u.x)·(py-u.y) +
    /// s·u.x`, and the guesses are the first column whose center is at or
    /// right of the largest lower bound (`ceil`) and the last at or left of
    /// the smallest upper bound (`floor`). Approximate — they only seed the
    /// exact search — except the `s == 0` case: there the per-pixel edge
    /// value is exactly the row constant `(v.x-u.x)·(py-u.y)` (the px term is
    /// ±0), so `t < 0` proves the whole row uncovered.
    fn analytic_run(&self, vp: &Viewport, py: f64, x0: u32, x1: u32) -> Option<[Option<u32>; 2]> {
        let (mut wlo, mut whi) = (f64::NEG_INFINITY, f64::INFINITY);
        for (s, t) in (0..3).map(|i| (self.dy[i], self.t[i] + self.dy[i] * self.ux[i])) {
            if s > 0.0 {
                whi = whi.min(t / s);
            } else if s < 0.0 {
                wlo = wlo.max(t / s);
            } else if t < 0.0 {
                return None;
            }
        }
        let column = |w: f64, round: fn(f64) -> f64| {
            let g = round(vp.world_to_pixel_f(Point::new(w, py)).x - 0.5);
            g.is_finite()
                .then(|| (g as i64).clamp(x0.into(), x1.into()) as u32)
        };
        Some([column(wlo, f64::ceil), column(whi, f64::floor)])
    }

    /// Hand `block(x, mask)` the coverage of each block of up to [`LANES`]
    /// pixels of the row on `[x0, x1]`, left to right.
    fn row_blocks(&self, x0: u32, x1: u32, mut block: impl FnMut(u32, u8)) {
        let mut x = x0;
        loop {
            let n = ((x1 - x) as usize + 1).min(LANES);
            block(x, self.coverage_mask(x, n));
            if n < LANES {
                return;
            }
            match x.checked_add(LANES as u32) {
                Some(nx) if nx <= x1 => x = nx,
                _ => return,
            }
        }
    }
}

/// Explicit x86_64 lane kernels for [`TriRowKernel::coverage_mask`].
///
/// Pixel-center x for lane `i` is `minx + ((x0 + i) as f64 + 0.5)·psx`.
/// Here it is computed as `minx + ((x0 as f64 + (i as f64 + 0.5))·psx)`:
/// `x0 as f64` is exact (x0 < 2³²), `i as f64 + 0.5` is a compile-time
/// constant, and their sum `x0 + i + 0.5` needs at most 34 significand
/// bits — exact in f64 — so it equals the scalar `(x0+i) as f64 + 0.5`
/// bit-for-bit, and the subsequent multiply/add round identically.
/// `cmpge` returns false on unordered operands, matching scalar `>=`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_mask, TriRowKernel, LANES};
    use std::arch::x86_64::*;

    /// Lane offsets `i as f64 + 0.5`.
    const OFF: [f64; LANES] = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];

    /// SSE2 (x86_64 baseline): two lanes per 128-bit op, four pairs.
    pub(super) fn coverage_mask_sse2(k: &TriRowKernel, x0: u32, n: usize) -> u8 {
        // SAFETY: SSE2 is part of the x86_64 baseline feature set.
        unsafe {
            let minx = _mm_set1_pd(k.minx);
            let psx = _mm_set1_pd(k.psx);
            let x0v = _mm_set1_pd(x0 as f64);
            let zero = _mm_setzero_pd();
            let mut m = 0u32;
            for pair in 0..LANES / 2 {
                let off = _mm_loadu_pd(OFF.as_ptr().add(pair * 2));
                let px = _mm_add_pd(minx, _mm_mul_pd(_mm_add_pd(x0v, off), psx));
                let mut ok = _mm_castsi128_pd(_mm_set1_epi64x(-1));
                for e in 0..3 {
                    let t = _mm_set1_pd(k.t[e]);
                    let dy = _mm_set1_pd(k.dy[e]);
                    let ux = _mm_set1_pd(k.ux[e]);
                    let v = _mm_sub_pd(t, _mm_mul_pd(dy, _mm_sub_pd(px, ux)));
                    ok = _mm_and_pd(ok, _mm_cmpge_pd(v, zero));
                }
                m |= (_mm_movemask_pd(ok) as u32) << (pair * 2);
            }
            (m as u8) & lane_mask(n)
        }
    }

    /// AVX: four lanes per 256-bit op, two halves.
    ///
    /// # Safety
    /// Caller must have verified AVX support (`TriRowKernel::use_avx`).
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn coverage_mask_avx(k: &TriRowKernel, x0: u32, n: usize) -> u8 {
        let minx = _mm256_set1_pd(k.minx);
        let psx = _mm256_set1_pd(k.psx);
        let x0v = _mm256_set1_pd(x0 as f64);
        let zero = _mm256_setzero_pd();
        let mut m = 0u32;
        for half in 0..LANES / 4 {
            let off = _mm256_loadu_pd(OFF.as_ptr().add(half * 4));
            let px = _mm256_add_pd(minx, _mm256_mul_pd(_mm256_add_pd(x0v, off), psx));
            let mut ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            for e in 0..3 {
                let t = _mm256_set1_pd(k.t[e]);
                let dy = _mm256_set1_pd(k.dy[e]);
                let ux = _mm256_set1_pd(k.ux[e]);
                let v = _mm256_sub_pd(t, _mm256_mul_pd(dy, _mm256_sub_pd(px, ux)));
                ok = _mm256_and_pd(ok, _mm256_cmp_pd::<_CMP_GE_OQ>(v, zero));
            }
            m |= (_mm256_movemask_pd(ok) as u32) << (half * 4);
        }
        (m as u8) & lane_mask(n)
    }
}

/// Enumerate the pixels covered by a primitive, invoking `emit(x, y)` for
/// each covered pixel inside the viewport. Pixels are emitted in a
/// deterministic order (row-major for areal primitives, start-to-end for
/// lines).
pub fn rasterize(
    prim: &Primitive,
    vp: &Viewport,
    conservative: bool,
    emit: &mut impl FnMut(u32, u32),
) {
    match prim {
        Primitive::Point { p, .. } => {
            if let Some((x, y)) = vp.world_to_pixel(*p) {
                emit(x, y);
            }
        }
        Primitive::Line { a, b, .. } => {
            if conservative {
                raster_line_conservative(*a, *b, vp, emit);
            } else {
                raster_line_default(*a, *b, vp, emit);
            }
        }
        Primitive::Triangle { a, b, c, .. } => {
            let tri = Triangle::new(*a, *b, *c);
            if conservative {
                raster_tri_conservative(&tri, vp, emit);
            } else {
                raster_tri_default(&tri, vp, emit);
            }
        }
    }
}

/// [`rasterize`] through the batched kernels, the form every pass uses:
/// default-rule triangles run through the 8-wide block kernel (each mask
/// decoded in ascending-bit order); conservative triangles emit each row's
/// covered run `first..=last` in ascending x (see [`triangle_runs`]);
/// points and lines take the scalar path. The fragment sequence, order
/// included, is [`rasterize`]'s, which stays the oracle.
pub fn rasterize_with(
    prim: &Primitive,
    vp: &Viewport,
    conservative: bool,
    emit: &mut impl FnMut(u32, u32),
) {
    if let (Primitive::Triangle { a, b, c, .. }, true) = (prim, conservative) {
        return raster_tri_runs(&Triangle::new(*a, *b, *c), vp, emit);
    }
    let done = rasterize_blocks(prim, vp, conservative, &mut |x, y, _n, mut m| {
        while m != 0 {
            emit(x + m.trailing_zeros(), y);
            m &= m - 1;
        }
    });
    if !done {
        rasterize(prim, vp, conservative, emit);
    }
}

/// The block form behind [`rasterize_with`]. Invokes `block(x, y, n, mask)`
/// for every non-empty coverage block (`n ≤` [`LANES`] pixels starting at
/// column `x`, bit `i` of `mask` = column `x + i` covered), row-major /
/// left-to-right — the same pixel order as [`rasterize`]. Returns `true`
/// when the primitive was rasterized in block form (default-rule
/// triangles); `false` — without emitting anything — when it has no block
/// form (points, lines, and conservative triangles, which run as rows).
fn rasterize_blocks(
    prim: &Primitive,
    vp: &Viewport,
    conservative: bool,
    block: &mut impl FnMut(u32, u32, u32, u8),
) -> bool {
    match prim {
        Primitive::Triangle { a, b, c, .. } if !conservative => {
            raster_tri_blocks(&Triangle::new(*a, *b, *c), vp, block);
            true
        }
        _ => false,
    }
}

/// Default-rule triangle rasterization in coverage blocks: per scanline,
/// evaluate all three edge functions for up to [`LANES`] pixels at once
/// through [`TriRowKernel::coverage_mask`] and hand each non-empty block to
/// `block`.
fn raster_tri_blocks(tri: &Triangle, vp: &Viewport, block: &mut impl FnMut(u32, u32, u32, u8)) {
    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
        return;
    };
    let mut ev = TriRowKernel::new(tri, vp);
    for y in y0..=y1 {
        ev.begin_row(vp.pixel_center(x0, y).y);
        ev.row_blocks(x0, x1, |x, m| {
            if m != 0 {
                block(x, y, (x1 - x + 1).min(LANES as u32), m);
            }
        });
    }
}

/// The coverage of `tri` under one rule on the rows `rows` as runs: `run(y,
/// first, last)` for covered pixels `first..=last`, in ascending y and then
/// x, so a draw can blend a whole run as one slice. The pixels are exactly
/// [`rasterize`]'s on those rows.
///
/// Within one row the rule's per-pixel predicate splits into two
/// conjunctions of comparisons, each monotone in x even under floating
/// point: one that holds from some column on (false, then true) and one
/// that holds up to some column (true, then false); a comparison that does
/// not depend on x sits in both (`TriRowKernel::half`,
/// [`TriBoxTest::half`]). So a row's covered pixels are the run from
/// `first`, the smallest column of the triangle's pixel range where the
/// first half holds, to `last`, the largest where the second does, or
/// nothing when `first > last`. Each end is searched with its exact half
/// from a guess, outward in doubling steps and then by bisection
/// (`first_from`, `last_from`): a guess `d` columns off costs about
/// 2·log₂(d) tests and no guess about log₂(w), whether the run lies inside
/// the viewport or wholly beside it. Under the default rule the guesses are
/// the analytic interval's ends, the run's ends up to rounding, and a row an
/// edge parallel to it excludes is skipped; under the conservative rule
/// they are the previous row's run.
pub fn triangle_runs(
    tri: &Triangle,
    vp: &Viewport,
    conservative: bool,
    rows: Range<u32>,
    run: &mut impl FnMut(u32, u32, u32),
) {
    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
        return;
    };
    let rows = y0.max(rows.start)..(y1 + 1).min(rows.end);
    if conservative {
        let boxes = TriBoxTest::new(tri);
        // The guesses: the run of the row before.
        let mut guess = [None; 2];
        for y in rows {
            let half = |x: u32, rising: bool| boxes.half(&vp.pixel_box(x, y), rising);
            guess = match row_run(x0, x1, guess, half) {
                Some((first, last)) => {
                    run(y, first, last);
                    [Some(first), Some(last)]
                }
                None => [None; 2],
            };
        }
    } else {
        let mut edges = TriRowKernel::new(tri, vp);
        for y in rows {
            // Row-constant pixel-center y, exactly as `pixel_center` has it.
            let py = vp.pixel_center(x0, y).y;
            edges.begin_row(py);
            let Some(guess) = edges.analytic_run(vp, py, x0, x1) else {
                continue;
            };
            if let Some((first, last)) = row_run(x0, x1, guess, |x, rising| edges.half(x, rising)) {
                run(y, first, last);
            }
        }
    }
}

/// A row's run `first..=last` on `[x0, x1]` from the two monotone halves
/// of its predicate, `half(x, true)` (false, then true) and `half(x,
/// false)` (true, then false), each end searched from its guess; `None`
/// when the row is empty.
#[inline]
fn row_run(
    x0: u32,
    x1: u32,
    guess: [Option<u32>; 2],
    half: impl Fn(u32, bool) -> bool,
) -> Option<(u32, u32)> {
    let first = first_from(x0, x1, guess[0], &|x| half(x, true))?;
    let last = last_from(first, x1, guess[1].map(|g| g.max(first)), &|x| {
        half(x, false)
    })?;
    Some((first, last))
}

/// Conservative triangle rasterization as the covered runs of each row
/// ([`triangle_runs`]). The fragments and their order are
/// [`raster_tri_conservative`]'s.
fn raster_tri_runs(tri: &Triangle, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    triangle_runs(tri, vp, true, 0..vp.height, &mut |y, first, last| {
        (first..=last).for_each(|x| emit(x, y))
    });
}

/// The smallest x in `[lo, hi]` where `holds` (false, then true on that
/// range) is true, or `None` when it holds nowhere there. From a guess `g ∈
/// [lo, hi]` the search steps outward in doubling steps until `holds`
/// flips, then bisects the last step, so a guess `d` columns off costs about
/// 2·log₂(d) tests (two when it or its neighbour is the answer); without a
/// guess the whole range is bisected. The search for one end of a row run
/// whose predicate is monotone along the row: [`triangle_runs`]' halves,
/// and the distance canvases' circle rows.
pub fn first_from(lo: u32, hi: u32, g: Option<u32>, holds: &impl Fn(u32) -> bool) -> Option<u32> {
    let Some(mut g) = g else {
        return holds(hi).then(|| bisect_first(lo, hi, holds));
    };
    let mut step = 1u32;
    if holds(g) {
        // The answer is in `[lo, g]`.
        while g > lo {
            let x = g.saturating_sub(step).max(lo);
            if !holds(x) {
                return Some(bisect_first(x + 1, g, holds));
            }
            (g, step) = (x, step.saturating_mul(2));
        }
        Some(lo)
    } else {
        // The answer, if any, is in `(g, hi]`.
        while g < hi {
            let x = g.saturating_add(step).min(hi);
            if holds(x) {
                return Some(bisect_first(g + 1, x, holds));
            }
            (g, step) = (x, step.saturating_mul(2));
        }
        None
    }
}

/// The largest x in `[lo, hi]` where `holds` (true, then false on that
/// range) is true, or `None`: [`first_from`] on the range mirrored.
pub fn last_from(lo: u32, hi: u32, g: Option<u32>, holds: &impl Fn(u32) -> bool) -> Option<u32> {
    let mirror = |x: u32| lo + (hi - x);
    first_from(lo, hi, g.map(mirror), &|x| holds(mirror(x))).map(mirror)
}

/// Smallest x in `[lo, s]` where `holds`; requires `holds(s)` and a
/// false-then-true predicate on that range.
fn bisect_first(lo: u32, s: u32, holds: &impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (lo, s);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Liang–Barsky segment clipping against a box. Returns the clipped
/// endpoints, or `None` when the segment misses the box entirely.
pub fn clip_segment(a: Point, b: Point, clip: &BBox) -> Option<(Point, Point)> {
    let d = b - a;
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    let checks = [
        (-d.x, a.x - clip.min.x),
        (d.x, clip.max.x - a.x),
        (-d.y, a.y - clip.min.y),
        (d.y, clip.max.y - a.y),
    ];
    for (p, q) in checks {
        if p.abs() < 1e-300 {
            if q < 0.0 {
                return None; // parallel and outside
            }
        } else {
            let r = q / p;
            if p < 0.0 {
                if r > t1 {
                    return None;
                }
                if r > t0 {
                    t0 = r;
                }
            } else {
                if r < t0 {
                    return None;
                }
                if r < t1 {
                    t1 = r;
                }
            }
        }
    }
    Some((a + d * t0, a + d * t1))
}

/// Default line rasterization: Bresenham between the endpoint pixels of the
/// viewport-clipped segment.
fn raster_line_default(a: Point, b: Point, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    let Some((ca, cb)) = clip_segment(a, b, &vp.world) else {
        return;
    };
    let pa = vp.world_to_pixel_f(ca);
    let pb = vp.world_to_pixel_f(cb);
    let clampx = |v: f64| (v as i64).clamp(0, vp.width as i64 - 1);
    let clampy = |v: f64| (v as i64).clamp(0, vp.height as i64 - 1);
    let (mut x0, mut y0) = (clampx(pa.x), clampy(pa.y));
    let (x1, y1) = (clampx(pb.x), clampy(pb.y));

    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        emit(x0 as u32, y0 as u32);
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x0 += sx;
        }
        if e2 <= dx {
            err += dx;
            y0 += sy;
        }
    }
}

/// Conservative line rasterization: every cell the segment touches
/// (Amanatides–Woo grid traversal on the clipped segment).
fn raster_line_conservative(a: Point, b: Point, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    let Some((ca, cb)) = clip_segment(a, b, &vp.world) else {
        return;
    };
    let pa = vp.world_to_pixel_f(ca);
    let pb = vp.world_to_pixel_f(cb);

    let w = vp.width as i64;
    let h = vp.height as i64;
    let clamp_cell = |px: f64, lim: i64| -> i64 { (px.floor() as i64).clamp(0, lim - 1) };

    let mut cx = clamp_cell(pa.x, w);
    let mut cy = clamp_cell(pa.y, h);
    let ex = clamp_cell(pb.x, w);
    let ey = clamp_cell(pb.y, h);

    let d = pb - pa;
    let step_x: i64 = if d.x > 0.0 { 1 } else { -1 };
    let step_y: i64 = if d.y > 0.0 { 1 } else { -1 };

    // Parametric distance (in t along the segment) to the next vertical /
    // horizontal cell boundary, and per-cell increments.
    let (mut t_max_x, t_delta_x) = if d.x.abs() < 1e-300 {
        (f64::INFINITY, f64::INFINITY)
    } else {
        let next_bx = if step_x > 0 {
            cx as f64 + 1.0
        } else {
            cx as f64
        };
        ((next_bx - pa.x) / d.x, (1.0 / d.x).abs())
    };
    let (mut t_max_y, t_delta_y) = if d.y.abs() < 1e-300 {
        (f64::INFINITY, f64::INFINITY)
    } else {
        let next_by = if step_y > 0 {
            cy as f64 + 1.0
        } else {
            cy as f64
        };
        ((next_by - pa.y) / d.y, (1.0 / d.y).abs())
    };

    // Bound iterations defensively: a segment can touch at most w+h cells.
    let max_steps = (w + h + 4) as usize;
    for _ in 0..max_steps {
        emit(cx as u32, cy as u32);
        if cx == ex && cy == ey {
            return;
        }
        if t_max_x < t_max_y {
            t_max_x += t_delta_x;
            cx += step_x;
        } else if t_max_y < t_max_x {
            t_max_y += t_delta_y;
            cy += step_y;
        } else {
            // Exactly through a cell corner: conservative rasterization
            // touches both neighbours of the corner.
            let nx = cx + step_x;
            if nx >= 0 && nx < w {
                emit(nx as u32, cy as u32);
            }
            let ny = cy + step_y;
            if ny >= 0 && ny < h {
                emit(cx as u32, ny as u32);
            }
            t_max_x += t_delta_x;
            t_max_y += t_delta_y;
            cx += step_x;
            cy += step_y;
        }
        if cx < 0 || cx >= w || cy < 0 || cy >= h {
            return;
        }
    }
}

/// Default triangle rasterization: pixel-center coverage (inclusive edges).
fn raster_tri_default(tri: &Triangle, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
        return;
    };
    // Edge functions with inclusive boundary: the same sign convention for
    // either winding (normalize to CCW).
    let (a, b, c) = if tri.signed_area() >= 0.0 {
        (tri.a, tri.b, tri.c)
    } else {
        (tri.a, tri.c, tri.b)
    };
    for y in y0..=y1 {
        for x in x0..=x1 {
            let p = vp.pixel_center(x, y);
            let e0 = (b - a).cross(p - a);
            let e1 = (c - b).cross(p - b);
            let e2 = (a - c).cross(p - c);
            if e0 >= 0.0 && e1 >= 0.0 && e2 >= 0.0 {
                emit(x, y);
            }
        }
    }
}

/// Conservative triangle rasterization: every cell whose box overlaps the
/// triangle (separating-axis test).
fn raster_tri_conservative(tri: &Triangle, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
        return;
    };
    for y in y0..=y1 {
        for x in x0..=x1 {
            if triangle_overlaps_box(tri, &vp.pixel_box(x, y)) {
                emit(x, y);
            }
        }
    }
}

/// Separating-axis triangle/AABB overlap (boundary inclusive).
pub fn triangle_overlaps_box(tri: &Triangle, b: &BBox) -> bool {
    TriBoxTest::new(tri).overlaps(b)
}

/// [`triangle_overlaps_box`] with the triangle's side hoisted: its bbox and
/// its projection range on each edge normal are computed once, so a box
/// costs only its four corner projections. The fp operations and operands
/// are the one-shot test's, so every answer is the same bit for bit.
pub struct TriBoxTest {
    bbox: BBox,
    /// Per edge `(i, i+1)`: its normal and the triangle's range on it.
    axes: [(Point, (f64, f64)); 3],
}

impl TriBoxTest {
    pub fn new(tri: &Triangle) -> TriBoxTest {
        let (verts, bbox) = (tri.vertices(), tri.bbox());
        let axes = std::array::from_fn(|i| {
            let n = (verts[(i + 1) % 3] - verts[i]).perp();
            (n, project_range(&verts, n))
        });
        TriBoxTest { bbox, axes }
    }

    /// Separating-axis overlap of the triangle and `b` (boundary inclusive).
    #[inline]
    pub fn overlaps(&self, b: &BBox) -> bool {
        if !self.bbox.intersects(b) {
            return false;
        }
        let corners = b.corners();
        for &(n, (tmin, tmax)) in &self.axes {
            let (bmin, bmax) = project_range(&corners, n);
            if tmax < bmin || bmax < tmin {
                return false;
            }
        }
        true
    }

    /// One of the two monotone halves of [`overlaps`] along a row of pixel
    /// boxes, whose `min.x` and `max.x` do not decrease with the column:
    /// with `rising`, the tests that turn true as `b` moves right, otherwise
    /// those that turn false. On the bbox, `tri.min.x ≤ b.max.x` rises and
    /// `b.min.x ≤ tri.max.x` falls. On an edge normal `n`, every corner
    /// projection is `c.x·n.x` plus a row constant, so both `bmin` and
    /// `bmax` rise with the column when `n.x > 0` and fall when `n.x < 0`:
    /// `bmax ≥ tmin` and `bmin ≤ tmax` go to opposite halves by the sign of
    /// `n.x`. The y tests and an axis with `n.x == ±0` do not depend on the
    /// column and sit in both. `overlaps(b)` is `half(b, true) && half(b,
    /// false)`: the same operations and comparisons (`project_range`'s
    /// min/max never yield NaN, so `bmax ≥ tmin` is `!(bmax < tmin)`).
    ///
    /// [`overlaps`]: TriBoxTest::overlaps
    #[inline]
    pub fn half(&self, b: &BBox, rising: bool) -> bool {
        let t = &self.bbox;
        let x = if rising {
            t.min.x <= b.max.x
        } else {
            b.min.x <= t.max.x
        };
        if !(x && !t.is_empty() && !b.is_empty() && t.min.y <= b.max.y && b.min.y <= t.max.y) {
            return false;
        }
        let corners = b.corners();
        self.axes.iter().all(|&(n, (tmin, tmax))| {
            let (bmin, bmax) = project_range(&corners, n);
            let (above_min, below_max) = (bmax >= tmin, bmin <= tmax);
            match (n.x > 0.0, n.x < 0.0) {
                (true, _) if rising => above_min,
                (true, _) => below_max,
                (_, true) if rising => below_max,
                (_, true) => above_min,
                _ => above_min && below_max,
            }
        })
    }
}

fn project_range(pts: &[Point], axis: Point) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for p in pts {
        let v = p.dot(axis);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlendMode, DrawCall, Pipeline};
    use std::collections::BTreeSet;

    fn vp10() -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 10, 10)
    }

    fn collect(prim: &Primitive, vp: &Viewport, cons: bool) -> BTreeSet<(u32, u32)> {
        let mut s = BTreeSet::new();
        rasterize(prim, vp, cons, &mut |x, y| {
            s.insert((x, y));
        });
        s
    }

    #[test]
    fn point_inside_and_outside() {
        let vp = vp10();
        let inside = Primitive::point(Point::new(2.5, 3.5), [0; 4]);
        assert_eq!(collect(&inside, &vp, false), BTreeSet::from([(2, 3)]));
        let outside = Primitive::point(Point::new(12.0, 3.0), [0; 4]);
        assert!(collect(&outside, &vp, false).is_empty());
    }

    #[test]
    fn horizontal_line_covers_row() {
        let vp = vp10();
        let l = Primitive::line(Point::new(0.5, 4.5), Point::new(9.5, 4.5), [0; 4]);
        let px = collect(&l, &vp, false);
        assert_eq!(px.len(), 10);
        assert!(px.iter().all(|&(_, y)| y == 4));
    }

    #[test]
    fn diagonal_line_default_vs_conservative() {
        let vp = vp10();
        let l = Primitive::line(Point::new(0.5, 0.5), Point::new(9.5, 9.5), [0; 4]);
        let std = collect(&l, &vp, false);
        let cons = collect(&l, &vp, true);
        // Conservative must be a superset of the default rule.
        assert!(std.is_subset(&cons), "std={std:?} cons={cons:?}");
        // The diagonal touches all 10 diagonal cells.
        for i in 0..10 {
            assert!(cons.contains(&(i, i)));
        }
    }

    #[test]
    fn line_clipped_to_viewport() {
        let vp = vp10();
        let l = Primitive::line(Point::new(-5.0, 5.5), Point::new(15.0, 5.5), [0; 4]);
        let px = collect(&l, &vp, true);
        assert_eq!(px.len(), 10);
        let miss = Primitive::line(Point::new(-5.0, 20.0), Point::new(15.0, 20.0), [0; 4]);
        assert!(collect(&miss, &vp, true).is_empty());
    }

    #[test]
    fn steep_line_is_connected() {
        let vp = vp10();
        let l = Primitive::line(Point::new(2.5, 0.5), Point::new(3.5, 9.5), [0; 4]);
        let px = collect(&l, &vp, true);
        // Every row from 0..=9 must be present (the traversal never skips).
        let rows: BTreeSet<u32> = px.iter().map(|&(_, y)| y).collect();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn triangle_default_covers_centers_only() {
        let vp = vp10();
        let t = Primitive::triangle(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            [0; 4],
        );
        let px = collect(&t, &vp, false);
        // Pixel centers (x+0.5, y+0.5) strictly below the diagonal x+y=10.
        assert!(px.contains(&(0, 0)));
        assert!(px.contains(&(4, 4)));
        assert!(!px.contains(&(9, 9)));
        // 55 pixel centers lie on or under the diagonal: rows 10,9,...,1.
        assert_eq!(px.len(), 55);
    }

    #[test]
    fn triangle_conservative_superset_of_default() {
        let vp = vp10();
        let t = Primitive::triangle(
            Point::new(1.2, 1.3),
            Point::new(8.7, 2.4),
            Point::new(4.1, 9.2),
            [0; 4],
        );
        let std = collect(&t, &vp, false);
        let cons = collect(&t, &vp, true);
        assert!(std.is_subset(&cons));
        assert!(cons.len() > std.len());
    }

    #[test]
    fn sliver_triangle_visible_conservatively() {
        let vp = vp10();
        // A sliver thinner than a pixel that crosses several cells but may
        // miss every pixel center.
        let t = Primitive::triangle(
            Point::new(1.0, 1.01),
            Point::new(9.0, 1.02),
            Point::new(9.0, 1.03),
            [0; 4],
        );
        let cons = collect(&t, &vp, true);
        assert!(!cons.is_empty());
        assert!(
            cons.len() >= 8,
            "sliver should touch its whole row: {cons:?}"
        );
    }

    #[test]
    fn triangle_outside_viewport_clipped() {
        let vp = vp10();
        let t = Primitive::triangle(
            Point::new(20.0, 20.0),
            Point::new(30.0, 20.0),
            Point::new(20.0, 30.0),
            [0; 4],
        );
        assert!(collect(&t, &vp, true).is_empty());
        // Partially outside: only inside pixels drawn.
        let t2 = Primitive::triangle(
            Point::new(8.0, 8.0),
            Point::new(15.0, 8.0),
            Point::new(8.0, 15.0),
            [0; 4],
        );
        let px = collect(&t2, &vp, true);
        assert!(px.iter().all(|&(x, y)| x < 10 && y < 10));
        assert!(px.contains(&(8, 8)));
    }

    #[test]
    fn clip_segment_cases() {
        let b = BBox::new(Point::ZERO, Point::new(10.0, 10.0));
        let (a, c) = clip_segment(Point::new(-5.0, 5.0), Point::new(15.0, 5.0), &b).unwrap();
        assert_eq!(a, Point::new(0.0, 5.0));
        assert_eq!(c, Point::new(10.0, 5.0));
        assert!(clip_segment(Point::new(-5.0, -5.0), Point::new(-1.0, -1.0), &b).is_none());
        // Fully inside unchanged.
        let (a, c) = clip_segment(Point::new(1.0, 1.0), Point::new(2.0, 2.0), &b).unwrap();
        assert_eq!((a, c), (Point::new(1.0, 1.0), Point::new(2.0, 2.0)));
        // Vertical segment parallel to x-clip planes, outside.
        assert!(clip_segment(Point::new(-1.0, 0.0), Point::new(-1.0, 10.0), &b).is_none());
    }

    #[test]
    fn triangle_box_sat_cases() {
        let t = Triangle::new(Point::ZERO, Point::new(4.0, 0.0), Point::new(0.0, 4.0));
        assert!(triangle_overlaps_box(
            &t,
            &BBox::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0))
        ));
        // Box beyond the hypotenuse but within the bbox of the triangle.
        assert!(!triangle_overlaps_box(
            &t,
            &BBox::new(Point::new(3.5, 3.5), Point::new(4.0, 4.0))
        ));
        // Touching at a corner counts.
        assert!(triangle_overlaps_box(
            &t,
            &BBox::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0))
        ));
        // Box containing the whole triangle.
        assert!(triangle_overlaps_box(
            &t,
            &BBox::new(Point::new(-1.0, -1.0), Point::new(5.0, 5.0))
        ));
    }

    /// A triangle's fragment count as the counting pass takes it: its
    /// `triangle_runs` over every row, summed.
    fn run_count(prim: &Primitive, vp: &Viewport, cons: bool) -> usize {
        let &Primitive::Triangle { a, b, c, .. } = prim else {
            unreachable!("triangles only")
        };
        let mut n = 0;
        triangle_runs(
            &Triangle::new(a, b, c),
            vp,
            cons,
            0..vp.height,
            &mut |_, first, last| n += (last - first + 1) as usize,
        );
        n
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Three vertices on `vp`'s pixel grid, up to two pixels beyond the
    /// viewport: each coordinate is a pixel boundary (computed as
    /// `Viewport::pixel_box` does) two times in three and free otherwise, so
    /// vertices land on pixel corners and pixel edges; every third triangle
    /// also has a vertical edge.
    fn grid_aligned(vp: &Viewport, seed: &mut u64, case: u32) -> [Point; 3] {
        let ps = vp.pixel_size();
        let mut coord = |min: f64, size: f64, n: u32| {
            let k = (lcg(seed) * f64::from(n + 5)).floor() - 2.0;
            let off = if lcg(seed) < 2.0 / 3.0 {
                0.0
            } else {
                lcg(seed)
            };
            min + (k + off) * size
        };
        let mut pts = [Point::ZERO; 3];
        for p in &mut pts {
            let x = coord(vp.world.min.x, ps.x, vp.width);
            *p = Point::new(x, coord(vp.world.min.y, ps.y, vp.height));
        }
        if case.is_multiple_of(3) {
            pts[1].x = pts[0].x;
        }
        pts
    }

    #[test]
    fn run_count_matches_enumeration_randomized() {
        // The scanline fast path must agree with pixel enumeration exactly,
        // for both rules, across random triangles including slivers,
        // degenerates, pixel-grid-aligned shapes and shapes spilling outside
        // the viewport — at resolutions whose pixel sizes are not powers of
        // two, and high enough that the binary search actually runs.
        let world = BBox::new(Point::ZERO, Point::new(10.0, 10.0));
        let vps = [
            vp10(),
            Viewport::new(world, 256, 256),
            Viewport::new(world, 7, 7),
            Viewport::new(world, 100, 100),
        ];
        let mut seed = 12345u64;
        for case in 0..200u32 {
            let mut pts = [Point::ZERO; 3];
            for p in &mut pts {
                *p = Point::new(lcg(&mut seed) * 14.0 - 2.0, lcg(&mut seed) * 14.0 - 2.0);
            }
            if case % 4 == 0 {
                // Sliver thinner than a pixel.
                pts[1].y = pts[0].y + 0.013;
                pts[2].y = pts[0].y + 0.021;
            }
            if case % 7 == 0 {
                // Collinear (zero-area) triangle.
                pts[2] = Point::new((pts[0].x + pts[1].x) * 0.5, (pts[0].y + pts[1].y) * 0.5);
            }
            for vp in &vps {
                if case % 5 == 2 {
                    pts = grid_aligned(vp, &mut seed, case);
                }
                let t = Primitive::triangle(pts[0], pts[1], pts[2], [0; 4]);
                for cons in [false, true] {
                    let mut n = 0usize;
                    rasterize(&t, vp, cons, &mut |_, _| n += 1);
                    assert_eq!(
                        run_count(&t, vp, cons),
                        n,
                        "case={case} cons={cons} pts={pts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn conservative_runs_match_scalar_oracle() {
        // The run form of the conservative rule must emit the oracle's
        // fragment sequence exactly — order included — for random, sliver,
        // collinear and pixel-grid-aligned triangles, many spilling out of
        // the viewport, on square and non-square viewports whose pixel sizes
        // are not powers of two. Counting shares the row runs, so it must
        // agree too. The shallow-apex kind puts a vertex just above a row's
        // lower boundary with one nearly flat edge: the analytic hint of
        // that row lands far from its covered run, so the per-row scan
        // fallback is exercised with pixels to find.
        let mut seed = 2022u64;
        for n in [7u32, 64, 100, 256] {
            let vps = [
                Viewport::new(BBox::new(Point::new(-1.3, 0.7), Point::new(8.9, 7.1)), n, n),
                Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), n, n * 3 / 5),
            ];
            for vp in &vps {
                let (lo, w, h) = (vp.world.min, vp.world.width(), vp.world.height());
                for case in 0..60u32 {
                    let mut pts = [Point::ZERO; 3];
                    for p in &mut pts {
                        let (fx, fy) = (lcg(&mut seed) * 1.4 - 0.2, lcg(&mut seed) * 1.4 - 0.2);
                        *p = Point::new(lo.x + fx * w, lo.y + fy * h);
                    }
                    let ps = vp.pixel_size();
                    match case % 5 {
                        // Sliver thinner than a pixel, slanted across rows.
                        1 => {
                            let d = ps.y * 0.3;
                            pts[1] = Point::new(pts[0].x + 0.4 * w, pts[0].y + 0.3 * h);
                            pts[2] = Point::new(pts[1].x + d, pts[1].y + d);
                        }
                        // Collinear (zero-area).
                        2 => pts[2] = pts[0].lerp(pts[1], 0.375),
                        3 => pts = grid_aligned(vp, &mut seed, case),
                        // Shallow apex.
                        4 => {
                            let k = (lcg(&mut seed) * f64::from(vp.height)).floor();
                            let ay = lo.y + (k + 0.1 + 0.2 * lcg(&mut seed)) * ps.y;
                            let a = Point::new(pts[0].x, ay);
                            let l = (0.1 + 0.3 * lcg(&mut seed)) * w;
                            let slope = 0.002 + 0.02 * lcg(&mut seed);
                            pts[1] = Point::new(a.x + l, a.y - l * slope);
                            pts[2] = Point::new(a.x - 0.02 * w, a.y - 0.3 * h);
                            pts[0] = a;
                        }
                        _ => {}
                    }
                    let t = Primitive::triangle(pts[0], pts[1], pts[2], [0; 4]);
                    let mut oracle = Vec::new();
                    rasterize(&t, vp, true, &mut |x, y| oracle.push((x, y)));
                    let mut runs = Vec::new();
                    rasterize_with(&t, vp, true, &mut |x, y| runs.push((x, y)));
                    let at = format!("n={n} vp={:?} case={case} pts={pts:?}", vp.world);
                    assert_eq!(runs, oracle, "{at}");
                    assert_eq!(run_count(&t, vp, true), oracle.len(), "{at}");
                }
            }
        }
    }

    #[test]
    fn batched_kernels_match_scalar_oracle_randomized() {
        // The 8-wide block kernel must reproduce the scalar rasterizer's
        // fragment sequence exactly — order included — and the batched
        // coverage fallback must count identically, across random
        // triangles including slivers, degenerates and out-of-viewport
        // shapes on two resolutions.
        let vps = [
            vp10(),
            Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 256, 256),
        ];
        let mut seed = 987654321u64;
        for case in 0..200u32 {
            let mut pts = [Point::ZERO; 3];
            for p in &mut pts {
                *p = Point::new(lcg(&mut seed) * 14.0 - 2.0, lcg(&mut seed) * 14.0 - 2.0);
            }
            if case % 4 == 0 {
                pts[1].y = pts[0].y + 0.013;
                pts[2].y = pts[0].y + 0.021;
            }
            if case % 7 == 0 {
                pts[2] = Point::new((pts[0].x + pts[1].x) * 0.5, (pts[0].y + pts[1].y) * 0.5);
            }
            let t = Primitive::triangle(pts[0], pts[1], pts[2], [0; 4]);
            for vp in &vps {
                let mut scalar = Vec::new();
                rasterize(&t, vp, false, &mut |x, y| scalar.push((x, y)));
                let mut batched = Vec::new();
                rasterize_with(&t, vp, false, &mut |x, y| batched.push((x, y)));
                assert_eq!(batched, scalar, "case={case} pts={pts:?}");
                assert_eq!(
                    run_count(&t, vp, false),
                    scalar.len(),
                    "case={case} pts={pts:?}"
                );
            }
        }
    }

    #[test]
    fn lane_kernel_variants_agree_with_portable_oracle() {
        // The intrinsic paths (SSE2/AVX on x86_64) must produce the exact
        // bits of the portable fixed-array kernel, which in turn matches
        // the scalar `inside` probe — across random triangles, rows, and
        // ragged block widths.
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 512, 512);
        let mut seed = 31415926u64;
        for case in 0..100u32 {
            let mut pts = [Point::ZERO; 3];
            for p in &mut pts {
                *p = Point::new(lcg(&mut seed) * 14.0 - 2.0, lcg(&mut seed) * 14.0 - 2.0);
            }
            let tri = Triangle::new(pts[0], pts[1], pts[2]);
            let mut ev = TriRowKernel::new(&tri, &vp);
            for _ in 0..8 {
                let y = (lcg(&mut seed) * 511.0) as u32;
                let x0 = (lcg(&mut seed) * 500.0) as u32;
                let n = 1 + (lcg(&mut seed) * 7.99) as usize;
                ev.begin_row(vp.pixel_center(0, y).y);
                let want = ev.coverage_mask_portable(x0, n);
                assert_eq!(
                    ev.coverage_mask(x0, n),
                    want,
                    "case={case} y={y} x0={x0} n={n}"
                );
                let mut scalar = 0u8;
                for i in 0..n {
                    scalar |= u8::from(ev.inside(x0 + i as u32)) << i;
                }
                assert_eq!(want, scalar, "portable vs inside: case={case}");
            }
        }
    }

    /// The x extent of `pts`' triangle on the horizontal line at `y`, or
    /// `None` when the line misses it.
    fn section(pts: &[Point; 3], y: f64) -> Option<(f64, f64)> {
        let mut xs = Vec::new();
        for i in 0..3 {
            let (u, v) = (pts[i], pts[(i + 1) % 3]);
            if u.y == y {
                xs.push(u.x);
            }
            if (u.y < y) != (v.y < y) && u.y != y && v.y != y {
                xs.push(u.x + (v.x - u.x) * ((y - u.y) / (v.y - u.y)));
            }
        }
        let lo = xs.iter().copied().reduce(f64::min)?;
        Some((lo, xs.into_iter().fold(lo, f64::max)))
    }

    #[test]
    fn bisected_runs_match_scalar_oracle() {
        // Every row's run is bisected from the two monotone halves of the
        // rule's predicate, so the runs must be the oracle's fragments,
        // order included, and each half must really be monotone along the
        // row with its conjunction the oracle's test. Triangles reach
        // 10–10⁶× the viewport (so many rows' intervals lie wholly left or
        // right of it), with slivers, zero-area triangles, horizontal edges
        // (`dy == 0`, a normal with `n.x` of −0, and of +0 when one vertex
        // sits at y = −0.0) and vertical ones; the rows asked for are random
        // band ranges, at heights 7, 61 and 256.
        let mut seed = 0x5ca7_u64;
        let mut beside = [0usize; 2];
        for h in [7u32, 61, 256] {
            let vp = Viewport::new(
                BBox::new(Point::new(-0.7, -1.3), Point::new(2.3, 1.1)),
                h * 3 / 2 + 1,
                h,
            );
            let (lo, w, ht) = (vp.world.min, vp.world.width(), vp.world.height());
            for case in 0..120u32 {
                let scale = 10f64.powf(1.0 + 5.0 * lcg(&mut seed));
                // One vertex near the viewport, two far out.
                let near = Point::new(
                    lo.x + (lcg(&mut seed) * 3.0 - 1.0) * w,
                    lo.y + (lcg(&mut seed) * 3.0 - 1.0) * ht,
                );
                let mut far = || {
                    let a = lcg(&mut seed) * std::f64::consts::TAU;
                    near + Point::new(w * a.cos(), ht * a.sin()) * scale
                };
                let mut pts = [near, far(), far()];
                match case % 6 {
                    // Sliver: the far vertices a fraction of a pixel apart.
                    1 => {
                        pts[2] =
                            pts[1] + Point::new(0.3, 0.7) * (vp.pixel_size().y * lcg(&mut seed))
                    }
                    // Zero-area.
                    2 => pts[2] = pts[0].lerp(pts[1], 0.375),
                    // A horizontal edge through the viewport, on y = ±0.
                    3 => {
                        pts[0].y = -0.0;
                        pts[1].y = 0.0;
                    }
                    // A horizontal and a vertical edge.
                    4 => {
                        pts[1].y = pts[0].y;
                        pts[2].x = pts[0].x;
                    }
                    _ => {}
                }
                let t = Primitive::triangle(pts[0], pts[1], pts[2], [0; 4]);
                let tri = Triangle::new(pts[0], pts[1], pts[2]);
                let at = |what: &str| format!("{what}: h={h} case={case} pts={pts:?}");
                for cons in [false, true] {
                    let mut oracle = Vec::new();
                    rasterize(&t, &vp, cons, &mut |x, y| oracle.push((x, y)));
                    assert_eq!(run_count(&t, &vp, cons), oracle.len(), "{}", at("count"));
                    let (a, b) = (
                        (lcg(&mut seed) * f64::from(h + 1)) as u32,
                        (lcg(&mut seed) * f64::from(h + 1)) as u32,
                    );
                    let rows = a.min(b)..a.max(b) + 1;
                    let mut runs = Vec::new();
                    triangle_runs(&tri, &vp, cons, rows.clone(), &mut |y, first, last| {
                        runs.extend((first..=last).map(|x| (x, y)))
                    });
                    oracle.retain(|&(_, y)| rows.contains(&y));
                    assert_eq!(
                        runs,
                        oracle,
                        "{}",
                        at(&format!("runs cons={cons} rows={rows:?}"))
                    );
                    // Each half is monotone along every row of the pixel
                    // range, and their conjunction is the oracle's test.
                    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
                        continue;
                    };
                    let (mut edges, boxes) = (TriRowKernel::new(&tri, &vp), TriBoxTest::new(&tri));
                    for y in y0..=y1 {
                        edges.begin_row(vp.pixel_center(x0, y).y);
                        let halves: Vec<[bool; 2]> = (x0..=x1)
                            .map(|x| {
                                [true, false].map(|rising| match cons {
                                    true => boxes.half(&vp.pixel_box(x, y), rising),
                                    false => edges.half(x, rising),
                                })
                            })
                            .collect();
                        for (x, h) in (x0..).zip(&halves) {
                            let want = if cons {
                                boxes.overlaps(&vp.pixel_box(x, y))
                            } else {
                                edges.inside(x)
                            };
                            assert_eq!(
                                h[0] && h[1],
                                want,
                                "{}",
                                at(&format!("conjunction x={x} y={y}"))
                            );
                        }
                        for pair in halves.windows(2) {
                            assert!(
                                pair[1][0] >= pair[0][0] && pair[1][1] <= pair[0][1],
                                "{}",
                                at(&format!("monotone y={y}"))
                            );
                        }
                        // A covered interval wholly beside the viewport.
                        if !cons && !halves.iter().any(|h| h[0] && h[1]) {
                            if let Some((l, r)) = section(&pts, vp.pixel_center(x0, y).y) {
                                beside[0] += usize::from(r < vp.world.min.x);
                                beside[1] += usize::from(l > vp.world.max.x);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            beside.iter().all(|&n| n > 100),
            "rows beside the viewport (left, right): {beside:?}"
        );
    }

    #[test]
    fn coverage_blocks_respect_lane_bounds() {
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 100, 100);
        let t = Primitive::triangle(
            Point::new(0.31, 0.27),
            Point::new(9.83, 1.12),
            Point::new(4.77, 9.41),
            [0; 4],
        );
        let mut decoded = BTreeSet::new();
        let used = rasterize_blocks(&t, &vp, false, &mut |x, y, n, m| {
            assert!((1..=LANES as u32).contains(&n));
            assert_ne!(m, 0, "empty blocks must be skipped");
            assert_eq!(m & !lane_mask(n as usize), 0, "mask bits beyond n");
            let mut m = m;
            while m != 0 {
                let px = x + m.trailing_zeros();
                assert!(px < vp.width && y < vp.height);
                decoded.insert((px, y));
                m &= m - 1;
            }
        });
        assert!(used, "default-rule triangle must take the block form");
        assert_eq!(decoded, collect(&t, &vp, false));
        // No block form for the conservative rule or non-areal primitives:
        // the caller must be told to fall back without any emission.
        let mut emitted = false;
        assert!(!rasterize_blocks(&t, &vp, true, &mut |_, _, _, _| {
            emitted = true
        }));
        let l = Primitive::line(Point::new(0.5, 0.5), Point::new(9.5, 9.5), [0; 4]);
        assert!(!rasterize_blocks(&l, &vp, false, &mut |_, _, _, _| {
            emitted = true
        }));
        assert!(!emitted);
    }

    #[test]
    fn hoisted_fallback_matches_enumeration_on_degenerate_slivers() {
        // Degenerate rows (zero-area, collinear, sub-pixel slivers) are the
        // ones whose analytic seed fails, forcing the block-popcount linear
        // fallback. It must agree with full enumeration exactly.
        let vps = [
            vp10(),
            Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 512, 512),
        ];
        let mut seed = 55667788u64;
        for case in 0..150u32 {
            let x = lcg(&mut seed) * 9.0;
            let y = lcg(&mut seed) * 9.0;
            let w = lcg(&mut seed) * 8.0;
            let pts = match case % 3 {
                // Zero-area: exactly horizontal degenerate segment.
                0 => [
                    Point::new(x, y),
                    Point::new(x + w, y),
                    Point::new(x + 0.5 * w, y),
                ],
                // Collinear along a random slope.
                1 => {
                    let dx = lcg(&mut seed) * 4.0 - 2.0;
                    let dy = lcg(&mut seed) * 4.0 - 2.0;
                    [
                        Point::new(x, y),
                        Point::new(x + dx, y + dy),
                        Point::new(x + 0.5 * dx, y + 0.5 * dy),
                    ]
                }
                // Sub-pixel sliver: thinner than a 10×10-grid pixel.
                _ => [
                    Point::new(x, y),
                    Point::new(x + w, y + 0.004),
                    Point::new(x + w, y + 0.009),
                ],
            };
            let t = Primitive::triangle(pts[0], pts[1], pts[2], [0; 4]);
            for vp in &vps {
                let mut n = 0usize;
                rasterize(&t, vp, false, &mut |_, _| n += 1);
                assert_eq!(run_count(&t, vp, false), n, "case={case} pts={pts:?}");
            }
        }
    }

    #[test]
    fn run_count_axis_aligned_rect_halves() {
        // Axis-aligned rectangles reach the rasterizer as right-triangle
        // pairs; the scanline path must count both halves exactly,
        // including edges landing on pixel boundaries.
        let vp = vp10();
        let (lo, hi) = (Point::new(2.0, 3.0), Point::new(7.0, 6.0));
        let t1 = Primitive::triangle(lo, Point::new(hi.x, lo.y), hi, [0; 4]);
        let t2 = Primitive::triangle(lo, hi, Point::new(lo.x, hi.y), [0; 4]);
        for cons in [false, true] {
            for t in [&t1, &t2] {
                let mut n = 0usize;
                rasterize(t, &vp, cons, &mut |_, _| n += 1);
                assert_eq!(run_count(t, &vp, cons), n, "cons={cons}");
            }
        }
    }

    #[test]
    fn count_pass_counts_point_and_line() {
        let vp = vp10();
        let pl = Pipeline::with_workers(2);
        let count = |prim: Primitive, cons: bool| {
            let call = DrawCall::simple(vp, BlendMode::Replace, cons);
            pl.count_pass(&[prim], &call) as usize
        };
        assert_eq!(
            count(Primitive::point(Point::new(2.5, 3.5), [0; 4]), false),
            1
        );
        assert_eq!(
            count(Primitive::point(Point::new(12.0, 3.0), [0; 4]), true),
            0
        );
        let l = Primitive::line(Point::new(0.5, 0.5), Point::new(9.5, 9.5), [0; 4]);
        for cons in [false, true] {
            let mut n = 0usize;
            rasterize(&l, &vp, cons, &mut |_, _| n += 1);
            assert_eq!(count(l, cons), n);
        }
    }

    #[test]
    fn run_count_matches_rasterize() {
        let vp = vp10();
        let t = Primitive::triangle(
            Point::new(1.0, 1.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 8.0),
            [0; 4],
        );
        assert_eq!(run_count(&t, &vp, false), collect(&t, &vp, false).len());
        assert_eq!(run_count(&t, &vp, true), collect(&t, &vp, true).len());
    }
}
