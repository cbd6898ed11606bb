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
//! [`rasterize_with`], which the counting and Map passes use, emits the same
//! fragments in the same order from 8-pixel blocks (default rule) and
//! per-row runs (conservative triangles), tested with the oracle's exact
//! predicates. [`triangle_runs`] hands a triangle's coverage under either
//! rule to a draw as runs of each row, clipped to the rows the draw asks for.

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

    /// Popcount of the row's coverage on `[x0, x1]`, one block at a time —
    /// the batched form of the linear-scan fallback.
    fn count_row(&self, x0: u32, x1: u32) -> usize {
        let mut total = 0usize;
        self.row_blocks(x0, x1, |_, m| total += m.count_ones() as usize);
        total
    }

    /// The first and the last covered column of the row on `[x0, x1]`, one
    /// block at a time; `None` when no pixel of it is covered.
    fn scan_row(&self, x0: u32, x1: u32) -> Option<(u32, u32)> {
        let mut ends: Option<(u32, u32)> = None;
        self.row_blocks(x0, x1, |x, m| {
            if m != 0 {
                let last = x + 7 - m.leading_zeros();
                let first = ends.map_or(x + m.trailing_zeros(), |(first, _)| first);
                ends = Some((first, last));
            }
        });
        ends
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
/// covered run `first..=last` in ascending x (see `tri_row_runs`);
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
/// [`rasterize`]'s on those rows. A seeded row's run comes from
/// `tri_row_runs`; a row without a seed is scanned with the exact predicate:
/// block by block under the default rule, whose covered pixels form one run
/// by the same monotonicity argument that lets the seeded rows bisect, and
/// pixel by pixel under the conservative rule, one run per covered pixel.
pub fn triangle_runs(
    tri: &Triangle,
    vp: &Viewport,
    conservative: bool,
    rows: Range<u32>,
    run: &mut impl FnMut(u32, u32, u32),
) {
    tri_row_runs(
        tri,
        vp,
        conservative,
        rows,
        &mut |test, y, x0, x1, seeded| match seeded {
            Some((first, last)) => run(y, first, last),
            None if conservative => {
                for x in (x0..=x1).filter(|&x| test.inside(x, y)) {
                    run(y, x, x);
                }
            }
            None => {
                if let Some((first, last)) = test.edges.scan_row(x0, x1) {
                    run(y, first, last);
                }
            }
        },
    );
}

/// Count covered pixels without materializing them (the 2-pass Map
/// operator's counting pass).
///
/// Points are O(1) and triangles add up the per-row covered runs of
/// `tri_row_runs` instead of enumerating every pixel of the bounding box;
/// when a default-rule row has no seed, its linear rescan runs as block
/// popcounts. The counts are guaranteed identical to [`rasterize`]'s
/// emission count because every pixel that decides the count is tested with
/// the exact same floating-point predicate the enumerating rasterizer uses.
pub fn coverage_count(prim: &Primitive, vp: &Viewport, conservative: bool) -> usize {
    match prim {
        Primitive::Point { p, .. } => usize::from(vp.world_to_pixel(*p).is_some()),
        Primitive::Line { .. } => {
            let mut n = 0usize;
            rasterize(prim, vp, conservative, &mut |_, _| n += 1);
            n
        }
        Primitive::Triangle { a, b, c, .. } => {
            let mut total = 0usize;
            let tri = Triangle::new(*a, *b, *c);
            tri_row_runs(
                &tri,
                vp,
                conservative,
                0..vp.height,
                &mut |test, y, x0, x1, run| {
                    total += match run {
                        Some((first, last)) => (last - first + 1) as usize,
                        None if !conservative => test.edges.count_row(x0, x1),
                        None => (x0..=x1).filter(|&x| test.inside(x, y)).count(),
                    }
                },
            );
            total
        }
    }
}

/// Conservative triangle rasterization as the covered runs of each row
/// ([`triangle_runs`]). The fragments and their order are
/// [`raster_tri_conservative`]'s.
fn raster_tri_runs(tri: &Triangle, vp: &Viewport, emit: &mut impl FnMut(u32, u32)) {
    triangle_runs(tri, vp, true, 0..vp.height, &mut |y, first, last| {
        (first..=last).for_each(|x| emit(x, y))
    });
}

/// A triangle's exact per-pixel predicate under one rule: pixel centers of
/// the row `edges` was last aimed at, or, with `boxes` (the conservative
/// rule), pixel boxes through the hoisted overlap test.
struct RowTest<'a> {
    edges: TriRowKernel,
    boxes: Option<(TriBoxTest, &'a Viewport)>,
}

impl RowTest<'_> {
    #[inline]
    fn inside(&self, x: u32, y: u32) -> bool {
        match &self.boxes {
            Some((t, vp)) => t.overlaps(&vp.pixel_box(x, y)),
            None => self.edges.inside(x),
        }
    }
}

/// Walk the rows of a triangle's pixel range under one coverage rule and
/// hand each to `row(test, y, x0, x1, run)`: `run` is the row's covered run
/// `first..=last`, or `None` when the row must be scanned with `test`.
///
/// Within one row, each coverage rule is an *interval* in x: every
/// individual comparison in the per-pixel predicate is monotone in x even
/// under floating point (pixel coordinates are monotone in x, fp
/// multiplication by a row-constant and fp addition are monotone, and
/// min/max/comparison preserve monotonicity), and a conjunction of monotone
/// threshold tests is a contiguous run. So per row we probe an analytic hint
/// and its two neighbours for a covered pixel, then find both ends of the
/// run with the exact per-pixel predicate: under the default rule the
/// analytic interval's ends are tried first (they are the run's ends up to
/// rounding), and a binary search settles whatever they do not. A row with
/// no seed is left to the caller's scan, which can never be wrong. Rows the
/// default rule proves empty are skipped.
fn tri_row_runs<'a>(
    tri: &Triangle,
    vp: &'a Viewport,
    conservative: bool,
    rows: Range<u32>,
    row: &mut impl FnMut(&RowTest<'a>, u32, u32, u32, Option<(u32, u32)>),
) {
    let Some((x0, y0, x1, y1)) = vp.pixel_range(&tri.bbox()) else {
        return;
    };
    let rows = y0.max(rows.start)..(y1 + 1).min(rows.end);
    if rows.is_empty() {
        return;
    }
    let mut test = RowTest {
        edges: TriRowKernel::new(tri, vp),
        boxes: conservative.then(|| (TriBoxTest::new(tri), vp)),
    };
    for y in rows {
        // Row-constant pixel-center y, exactly as `pixel_center` has it.
        let py = vp.pixel_center(x0, y).y;
        test.edges.begin_row(py);
        // Analytic row interval in world-x from the three half-plane
        // constraints e = (v-u)×(p-u) ≥ 0 (the kernel's CCW edges),
        // rewritten as s·px ≤ t with s = v.y-u.y and t = (v.x-u.x)·(py-u.y)
        // + s·u.x. Approximate — it only seeds the exact search below —
        // except the s == 0 case: there the per-pixel edge value is exactly
        // the row constant (v.x-u.x)·(py-u.y) (the px term is ±0), so t < 0
        // proves the whole row uncovered under the default rule.
        let mut wlo = f64::NEG_INFINITY;
        let mut whi = f64::INFINITY;
        let mut row_empty = false;
        let k = &test.edges;
        for (s, t) in (0..3).map(|i| (k.dy[i], k.t[i] + k.dy[i] * k.ux[i])) {
            if s > 0.0 {
                whi = whi.min(t / s);
            } else if s < 0.0 {
                wlo = wlo.max(t / s);
            } else if t < 0.0 {
                row_empty = true;
            }
        }
        if row_empty && !conservative {
            continue;
        }
        let wmid = match (wlo.is_finite(), whi.is_finite()) {
            (true, true) => 0.5 * (wlo + whi),
            (true, false) => wlo,
            (false, true) => whi,
            (false, false) => vp.pixel_center((x0 + x1) / 2, y).x,
        };
        let hx = vp.world_to_pixel_f(Point::new(wmid, py)).x;
        let h = if hx.is_finite() {
            (hx.floor() as i64).clamp(x0 as i64, x1 as i64) as u32
        } else {
            (x0 + x1) / 2
        };
        let inside = |x: u32| test.inside(x, y);
        let probes = [h, h.wrapping_sub(1), h + 1];
        let seed = probes
            .into_iter()
            .find(|&s| (x0..=x1).contains(&s) && inside(s));
        // Under the default rule: the first column whose center is at or
        // right of `wlo` (`round` = ceil), or the last at or left of `whi`
        // (floor), clamped to `[lo, hi]`.
        let guess = |w: f64, round: fn(f64) -> f64, lo: u32, hi: u32| {
            let g = round(vp.world_to_pixel_f(Point::new(w, py)).x - 0.5);
            (!conservative && g.is_finite()).then(|| (g as i64).clamp(lo.into(), hi.into()) as u32)
        };
        let run = seed.map(|s| {
            let first = first_from(x0, s, guess(wlo, f64::ceil, x0, s), &inside);
            (
                first,
                last_from(s, x1, guess(whi, f64::floor, s, x1), &inside),
            )
        });
        row(&test, y, x0, x1, run);
    }
}

/// Smallest covered x in `[lo, s]` (requires `inside(s)` and a
/// false-then-true predicate on that range), trying the guess `g ∈ [lo, s]`
/// and its neighbour before bisecting what is left.
fn first_from(lo: u32, s: u32, g: Option<u32>, inside: &impl Fn(u32) -> bool) -> u32 {
    let Some(g) = g else {
        return bisect_first(lo, s, inside);
    };
    if inside(g) {
        if g == lo || !inside(g - 1) {
            g
        } else {
            bisect_first(lo, g - 1, inside)
        }
    } else if inside(g + 1) {
        // `g < s`, since `inside(s)`.
        g + 1
    } else {
        bisect_first(g + 2, s, inside)
    }
}

/// Largest covered x in `[s, hi]` (requires `inside(s)` and a
/// true-then-false predicate on that range), trying the guess `g ∈ [s, hi]`
/// and its neighbour before bisecting what is left.
fn last_from(s: u32, hi: u32, g: Option<u32>, inside: &impl Fn(u32) -> bool) -> u32 {
    let Some(g) = g else {
        return bisect_last(s, hi, inside);
    };
    if inside(g) {
        if g == hi || !inside(g + 1) {
            g
        } else {
            bisect_last(g + 1, hi, inside)
        }
    } else if inside(g - 1) {
        // `g > s`, since `inside(s)`.
        g - 1
    } else {
        bisect_last(s, g - 2, inside)
    }
}

/// Smallest covered x in `[lo, s]`; requires `inside(s)` and a
/// false-then-true predicate on that range.
fn bisect_first(lo: u32, s: u32, inside: &impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (lo, s);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if inside(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Largest covered x in `[s, hi]`; requires `inside(s)` and a
/// true-then-false predicate on that range.
fn bisect_last(s: u32, hi: u32, inside: &impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (s, hi);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if inside(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
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
    fn coverage_count_matches_enumeration_randomized() {
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
                        coverage_count(&t, vp, cons),
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
                    assert_eq!(coverage_count(&t, vp, true), oracle.len(), "{at}");
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
                    coverage_count(&t, vp, false),
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

    #[test]
    fn seedless_row_scan_matches_scalar() {
        // A default-rule row whose probes find no seed is scanned block by
        // block for its first and last covered column. Such rows are rare
        // (the analytic hint is exact up to rounding), so the scan is
        // checked directly: on random rows of random, sliver and zero-area
        // triangles over ragged row widths, it must name the first and the
        // last column the scalar `inside` covers, or `None` for an empty row.
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 93, 61);
        let mut seed = 0x5ca7_u64;
        let mut covered_rows = 0;
        for case in 0..300u32 {
            let mut pts = [Point::ZERO; 3];
            for p in &mut pts {
                *p = Point::new(lcg(&mut seed) * 12.0 - 1.0, lcg(&mut seed) * 12.0 - 1.0);
            }
            match case % 3 {
                1 => {
                    pts[1].y = pts[0].y + 0.01;
                    pts[2].y = pts[0].y + 0.03;
                }
                2 => pts[2] = pts[0].lerp(pts[1], 0.625),
                _ => {}
            }
            let mut ev = TriRowKernel::new(&Triangle::new(pts[0], pts[1], pts[2]), &vp);
            for _ in 0..8 {
                let y = (lcg(&mut seed) * 61.0) as u32;
                let x0 = (lcg(&mut seed) * 92.0) as u32;
                let x1 = x0 + ((lcg(&mut seed) * f64::from(92 - x0)) as u32);
                ev.begin_row(vp.pixel_center(0, y).y);
                let inside: Vec<u32> = (x0..=x1).filter(|&x| ev.inside(x)).collect();
                let want = inside
                    .first()
                    .map(|&first| (first, *inside.last().unwrap()));
                covered_rows += usize::from(want.is_some());
                assert_eq!(
                    ev.scan_row(x0, x1),
                    want,
                    "case={case} y={y} x0={x0} x1={x1}"
                );
            }
        }
        assert!(covered_rows > 100, "only {covered_rows} covered rows");
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
                assert_eq!(coverage_count(&t, vp, false), n, "case={case} pts={pts:?}");
            }
        }
    }

    #[test]
    fn coverage_count_axis_aligned_rect_halves() {
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
                assert_eq!(coverage_count(t, &vp, cons), n, "cons={cons}");
            }
        }
    }

    #[test]
    fn coverage_count_point_and_line() {
        let vp = vp10();
        assert_eq!(
            coverage_count(&Primitive::point(Point::new(2.5, 3.5), [0; 4]), &vp, false),
            1
        );
        assert_eq!(
            coverage_count(&Primitive::point(Point::new(12.0, 3.0), [0; 4]), &vp, true),
            0
        );
        let l = Primitive::line(Point::new(0.5, 0.5), Point::new(9.5, 9.5), [0; 4]);
        for cons in [false, true] {
            let mut n = 0usize;
            rasterize(&l, &vp, cons, &mut |_, _| n += 1);
            assert_eq!(coverage_count(&l, &vp, cons), n);
        }
    }

    #[test]
    fn coverage_count_matches_rasterize() {
        let vp = vp10();
        let t = Primitive::triangle(
            Point::new(1.0, 1.0),
            Point::new(8.0, 1.0),
            Point::new(4.0, 8.0),
            [0; 4],
        );
        assert_eq!(
            coverage_count(&t, &vp, false),
            collect(&t, &vp, false).len()
        );
        assert_eq!(coverage_count(&t, &vp, true), collect(&t, &vp, true).len());
    }
}
