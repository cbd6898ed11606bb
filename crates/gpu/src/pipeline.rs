//! The pass driver: assemble → clip → rasterize → fragment → blend,
//! executed data-parallel.
//!
//! A [`DrawCall`] bundles the programmable stage and fixed-function state
//! of one rendering pass, mirroring a GL pipeline state object. [`Pipeline`]
//! executes passes of three kinds — a draw into a target [`Texture`], the
//! counting pass, and a Map pass that folds fragments into per-chunk state
//! instead of blending (§5.1) — and every one runs through the same stages:
//!
//! 1. each input element assembles into its primitive ([`Assemble`]), in
//!    world space (in parallel),
//! 2. clipping drops primitives whose bounds miss the viewport,
//! 3. the rasterizer enumerates covered pixels (default or conservative)
//!    through the batched kernels,
//! 4. the fragment shader computes each fragment's output (or discards it),
//! 5. a draw blends fragments into the target in primitive order.
//!
//! There is no geometry stage: the one source a canvas expands (a distance
//! constraint's square or capsule, §4.2) is built as its triangles before
//! the draw.
//!
//! A draw is *band-direct*, the sort-middle form of a parallel rasterizer:
//! one chunk-parallel pass runs assemble → clip over the stream once and
//! bins each visible primitive into the row bands of the target that its
//! bounding box meets, a few bands per worker, chunk after chunk so each
//! band's list stays in primitive order. Each band is then one pool task
//! that rasterizes only its own list on its own rows, under the call's
//! rule, as row runs: a triangle's covered run on each row, a point's or
//! line's fragment as a run of one pixel. The shader shades a primitive's
//! runs in one call ([`FragmentShader::shade_runs`]) and each sub-run it
//! keeps is blended as one slice. Every pixel sees its fragments in
//! primitive order, so results are deterministic for *every* blend mode and
//! any worker count. The counting pass shades the same runs without a
//! target, and it and the Map pass run the chunked stage alone, rasterizing
//! each primitive where it is assembled; the Map hands each fragment to its
//! fold. The driver is also the one place a pass is timed, recorded on the
//! calling query's frame ([`crate::record`]) and traced.
//!
//! Every stage runs on a persistent [`WorkerPool`] owned by the pipeline —
//! launching a pass costs a queue push, not thread spawns — and transient
//! framebuffers are checked out of the pipeline's [`TexturePool`] arena.

use crate::arena::TexturePool;
use crate::blend::BlendMode;
use crate::pool::{self, WorkerPool};
use crate::primitive::{Assemble, Primitive};
use crate::raster;
use crate::record;
use crate::shader::{Fragment, FragmentShader, Run, WriteAttrs};
use crate::texture::{PixelValue, Texture};
use crate::viewport::Viewport;
use spade_geometry::{Point, Triangle};
use std::ops::Range;
use std::time::Instant;

/// Row bands per worker of a draw: enough tasks that a worker whose bands
/// held little coverage takes more, few enough that a primitive tall enough
/// to span many rows is binned, and its row walk set up, in few of them.
pub const BANDS_PER_WORKER: usize = 4;

/// The state of one rendering pass.
pub struct DrawCall<'a> {
    pub viewport: Viewport,
    pub fragment: &'a dyn FragmentShader,
    pub blend: BlendMode,
    /// Use conservative rasterization (§4.2) for this pass.
    pub conservative: bool,
}

impl<'a> DrawCall<'a> {
    /// A minimal pass: the fragment shader writes the primitive attributes
    /// (canvas creation).
    pub fn simple(viewport: Viewport, blend: BlendMode, conservative: bool) -> DrawCall<'static> {
        DrawCall {
            viewport,
            fragment: &WriteAttrs,
            blend,
            conservative,
        }
    }
}

/// The pipeline executor: a persistent render executor ([`WorkerPool`])
/// and a framebuffer arena ([`TexturePool`]); shared by reference between
/// operators and across concurrent queries.
pub struct Pipeline {
    pool: WorkerPool,
    arena: TexturePool,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    pub fn new() -> Self {
        Self::with_workers(pool::default_workers())
    }

    pub fn with_workers(workers: usize) -> Self {
        Pipeline {
            pool: WorkerPool::new(workers),
            arena: TexturePool::new(),
        }
    }

    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The persistent executor every pass of this pipeline dispatches to.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The framebuffer arena transient render targets come from.
    pub fn arena(&self) -> &TexturePool {
        &self.arena
    }

    /// Execute one rendering pass against `target`, returning how many
    /// fragments it rasterized (discarded ones included). The stream is
    /// binned once into the target's row bands (`Pipeline::stream`), then
    /// each band draws its list (`draw_band`).
    pub fn draw(&self, target: &mut Texture, prims: &[impl Assemble], call: &DrawCall<'_>) -> u64 {
        let width = target.width() as usize;
        let mut bands: Vec<_> = (target.band_slices(BANDS_PER_WORKER * self.workers()))
            .into_iter()
            .map(|(y0, slice)| (y0, slice, 0u64))
            .collect();
        // Every band but the last holds the first band's row count.
        let rows_per_band = bands.get(1).map_or(u32::MAX, |band| band.0);
        let last = bands.len().saturating_sub(1) as u32;
        let vp = call.viewport;
        self.pass("gpu.draw", || {
            let (bins, mut counts) = self.stream(
                prims,
                call,
                || vec![Vec::new(); bands.len()],
                |bins: &mut Vec<Vec<Primitive>>, prim| {
                    // The rows of the bbox, a pixel wider on each side: a
                    // primitive has no fragment on a band they miss.
                    let bbox = prim.bbox();
                    let band = |wy: f64, pad: f64| {
                        let y = (vp.world_to_pixel_f(Point::new(bbox.min.x, wy)).y.floor() + pad)
                            .clamp(0.0, f64::from(vp.height.saturating_sub(1)));
                        (y as u32 / rows_per_band).min(last) as usize
                    };
                    for list in &mut bins[band(bbox.min.y, -1.0)..=band(bbox.max.y, 1.0)] {
                        list.push(*prim);
                    }
                    0
                },
            );
            self.pool
                .for_each_mut(&mut bands, |i, (y0, slice, fragments)| {
                    let list = bins.iter().flat_map(|chunk| &chunk[i]);
                    *fragments = draw_band(list, call, *y0, width, slice);
                });
            counts[2] = bands.iter().map(|band| band.2).sum();
            (counts[2], counts)
        })
    }

    /// Run a pass that only counts shaded (non-discarded) fragments without
    /// writing any pixels — the "simulated Map" first step of the 2-pass Map
    /// implementation (§5.1). It shades the runs a draw would (`shade`) and
    /// counts the pixels of the sub-runs the shader keeps.
    pub fn count_pass(&self, prims: &[impl Assemble], call: &DrawCall<'_>) -> u64 {
        let rows = 0..call.viewport.height;
        self.pass("gpu.count_pass", || {
            let (counts, totals) = self.stream(
                prims,
                call,
                || (0u64, Vec::new(), Vec::new()),
                |(n, runs, kept), prim| {
                    let covered = shade(prim, call, rows.clone(), runs, kept);
                    *n += pixels(kept.iter().map(|(run, _)| run));
                    covered
                },
            );
            (counts.into_iter().map(|(n, ..)| n).sum(), totals)
        })
    }

    /// Run a Map pass (§5.1): rasterize `prims` as [`Pipeline::draw`] does,
    /// but instead of blending, hand every fragment to `emit` with its
    /// worker chunk's state from `init` (the equivalent of shader
    /// workgroup-local memory), which folds it in: appends values to a
    /// list, buckets it, counts it. Returns the chunk states in chunk order.
    /// The chunks are contiguous runs of `prims` and each sees its
    /// fragments in (primitive, fragment) order, so folding the states in
    /// the order returned is deterministic at any worker count, and a state
    /// that appends per key holds each key's entries in primitive order.
    pub fn map<S: Send>(
        &self,
        prims: &[impl Assemble],
        call: &DrawCall<'_>,
        init: impl Fn() -> S + Sync,
        emit: impl Fn(&mut S, &Fragment) + Sync,
    ) -> Vec<S> {
        let vp = call.viewport;
        self.pass("gpu.map", || {
            self.stream(prims, call, init, |state, prim| {
                let (attrs, mut n) = (prim.attrs(), 0);
                raster::rasterize_with(prim, &vp, call.conservative, &mut |x, y| {
                    n += 1;
                    emit(state, &Fragment { x, y, attrs });
                });
                n
            })
        })
    }

    /// The one place a pass is timed, recorded and traced: `run` executes
    /// the pass and returns its output with the pass's primitive, visible
    /// and fragment counts. The pass is recorded once on the calling
    /// thread's frame ([`record`]) and once as a `name` span.
    fn pass<R>(&self, name: &'static str, run: impl FnOnce() -> (R, [u64; 3])) -> R {
        let mut span = crate::trace::span(name);
        let start = Instant::now();
        let (out, counts) = run();
        record::add_pass(start.elapsed());
        for (key, value) in ["primitives", "visible", "fragments"]
            .into_iter()
            .zip(counts)
        {
            span.attr(key, value);
        }
        out
    }

    /// The chunked stage: every worker chunk of the input stream runs the
    /// fused assemble → clip stage — no primitive list is
    /// materialized — and hands each visible primitive to `raster` with the
    /// chunk's state; `raster` rasterizes and shades it and returns its
    /// fragment count. Returns the chunk states in primitive order and the
    /// stream's primitive, visible and fragment counts.
    fn stream<S: Send>(
        &self,
        prims: &[impl Assemble],
        call: &DrawCall<'_>,
        init: impl Fn() -> S + Sync,
        raster: impl Fn(&mut S, &Primitive) -> u64 + Sync,
    ) -> (Vec<S>, [u64; 3]) {
        let chunks = self.pool.parallel_map_chunks(prims, |first, chunk| {
            let mut state = init();
            let counts = assemble_clip(chunk, first, call, |prim| raster(&mut state, prim));
            (state, counts)
        });
        let mut counts = [0u64; 3];
        let states = (chunks.into_iter())
            .map(|(state, chunk)| {
                counts.iter_mut().zip(chunk).for_each(|(t, c)| *t += c);
                state
            })
            .collect();
        (states, counts)
    }
}

/// The fused assemble → clip stage over `items`, the part of a pass's input
/// list that starts at index `first`: every visible primitive goes to
/// `raster`, which returns its fragment count. Returns the primitives, the
/// visible ones and their fragments. The assembly contract of every pass:
/// `prims[i]` assembles as `prims[i].assemble(i)`, `i` counted over the
/// whole list.
fn assemble_clip(
    items: &[impl Assemble],
    first: usize,
    call: &DrawCall<'_>,
    mut raster: impl FnMut(&Primitive) -> u64,
) -> [u64; 3] {
    let world = call.viewport.world;
    let mut counts = [items.len() as u64, 0, 0];
    for (index, item) in (first as u32..).zip(items) {
        let prim = item.assemble(index);
        if prim.bbox().intersects(&world) {
            counts[1] += 1;
            counts[2] += raster(&prim);
        }
    }
    counts
}

/// One band of a draw: `band` holds the target's rows from `y0` on, `width`
/// pixels each, and `prims` are the primitives binned to it, in primitive
/// order. Each is rasterized on the band's rows and shaded (`shade`), and
/// each sub-run its shader keeps is blended as one slice. Returns the band's
/// fragment count, discarded fragments included.
fn draw_band<'p>(
    prims: impl Iterator<Item = &'p Primitive>,
    call: &DrawCall<'_>,
    y0: u32,
    width: usize,
    band: &mut [PixelValue],
) -> u64 {
    let rows = y0..y0 + (band.len() / width) as u32;
    let at = |x: u32, y: u32| (y - y0) as usize * width + x as usize;
    let (mut n, mut runs, mut kept) = (0, Vec::new(), Vec::new());
    for prim in prims {
        n += shade(prim, call, rows.clone(), &mut runs, &mut kept);
        for &((y, x0, x1), v) in &kept {
            call.blend.blend_run(&mut band[at(x0, y)..=at(x1, y)], v);
        }
    }
    n
}

/// Rasterize `prim` on the rows `rows` under the call's rule as row runs
/// into `runs` — each triangle row's covered run
/// ([`raster::triangle_runs`]), each point or line fragment as a run of one
/// pixel, in rasterization order — and have the call's shader shade them
/// all at once: `kept` then holds the sub-runs it keeps, with their values.
/// Returns how many pixels the runs cover.
fn shade(
    prim: &Primitive,
    call: &DrawCall<'_>,
    rows: Range<u32>,
    runs: &mut Vec<Run>,
    kept: &mut Vec<(Run, PixelValue)>,
) -> u64 {
    let (vp, conservative) = (&call.viewport, call.conservative);
    runs.clear();
    match *prim {
        Primitive::Triangle { a, b, c, .. } => {
            let tri = Triangle::new(a, b, c);
            raster::triangle_runs(&tri, vp, conservative, rows, &mut |y, x0, x1| {
                runs.push((y, x0, x1))
            });
        }
        _ => raster::rasterize_with(prim, vp, conservative, &mut |x, y| {
            if rows.contains(&y) {
                runs.push((y, x, x));
            }
        }),
    }
    kept.clear();
    call.fragment.shade_runs(prim.attrs(), runs, kept);
    pixels(runs.iter())
}

/// How many pixels `runs` hold.
fn pixels<'r>(runs: impl Iterator<Item = &'r Run>) -> u64 {
    runs.map(|&(_, x0, x1)| u64::from(x1 - x0 + 1)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shader::FnFragment;
    use spade_geometry::{BBox, Point};

    fn vp10() -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 10, 10)
    }

    #[test]
    fn draw_points_writes_ids() {
        let pl = Pipeline::with_workers(4);
        let mut tex = Texture::new(10, 10);
        let prims: Vec<Primitive> = (0..5)
            .map(|i| Primitive::point(Point::new(i as f64 + 0.5, 0.5), [i + 1, 0, 0, 0]))
            .collect();
        pl.draw(
            &mut tex,
            &prims,
            &DrawCall::simple(vp10(), BlendMode::Replace, false),
        );
        for i in 0..5u32 {
            assert_eq!(tex.get(i, 0), [i + 1, 0, 0, 0]);
        }
        assert_eq!(tex.count_non_null(), 5);
    }

    #[test]
    fn clipping_drops_outside_prims() {
        let pl = Pipeline::with_workers(2);
        let mut tex = Texture::new(10, 10);
        let prims = vec![
            Primitive::point(Point::new(0.5, 0.5), [1, 0, 0, 0]),
            Primitive::point(Point::new(50.0, 50.0), [2, 0, 0, 0]),
        ];
        pl.draw(
            &mut tex,
            &prims,
            &DrawCall::simple(vp10(), BlendMode::Replace, false),
        );
        assert_eq!(tex.count_non_null(), 1);
    }

    #[test]
    fn replace_blend_is_primitive_ordered() {
        // The last primitive in submission order must win regardless of the
        // worker count.
        for workers in [1, 2, 4, 8] {
            let pl = Pipeline::with_workers(workers);
            let mut tex = Texture::new(4, 4);
            let prims: Vec<Primitive> = (0..64)
                .map(|i| Primitive::point(Point::new(1.5, 1.5), [i + 1, 0, 0, 0]))
                .collect();
            let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(4.0, 4.0)), 4, 4);
            pl.draw(
                &mut tex,
                &prims,
                &DrawCall::simple(vp, BlendMode::Replace, false),
            );
            assert_eq!(tex.get(1, 1)[0], 64, "workers={workers}");
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let vp = vp10();
        let prims: Vec<Primitive> = (0..50)
            .map(|i| {
                let x = (i as f64 * 0.37) % 10.0;
                let y = (i as f64 * 0.71) % 10.0;
                Primitive::triangle(
                    Point::new(x, y),
                    Point::new(x + 2.0, y),
                    Point::new(x, y + 2.0),
                    [i + 1, 0, 0, 0],
                )
            })
            .collect();
        let mut reference: Option<Texture> = None;
        for workers in [1, 3, 8] {
            let pl = Pipeline::with_workers(workers);
            let mut tex = Texture::new(10, 10);
            pl.draw(
                &mut tex,
                &prims,
                &DrawCall::simple(vp, BlendMode::Max, true),
            );
            match &reference {
                None => reference = Some(tex),
                Some(r) => assert_eq!(&tex, r, "workers={workers}"),
            }
        }
    }

    #[test]
    fn fragment_shader_discard_counted() {
        let pl = Pipeline::with_workers(2);
        let mut tex = Texture::new(10, 10);
        let frag = FnFragment(|f: &Fragment| {
            if f.x.is_multiple_of(2) {
                Some(f.attrs)
            } else {
                None
            }
        });
        let prims = vec![Primitive::line(
            Point::new(0.5, 5.5),
            Point::new(9.5, 5.5),
            [1, 0, 0, 0],
        )];
        let call = DrawCall {
            fragment: &frag,
            ..DrawCall::simple(vp10(), BlendMode::Replace, false)
        };
        pl.draw(&mut tex, &prims, &call);
        assert_eq!(tex.count_non_null(), 5); // x = 0, 2, 4, 6, 8
    }

    #[test]
    fn geometry_shader_expansion() {
        // A point expanded into a plus-shape of 5 points before the draw —
        // the expansion a geometry shader made — draws all five.
        let p = Point::new(5.5, 5.5);
        let prims: Vec<Primitive> = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
            .map(|(dx, dy)| Primitive::point(p + Point::new(dx, dy), [9, 0, 0, 0]))
            .into();
        let pl = Pipeline::with_workers(2);
        let mut tex = Texture::new(10, 10);
        let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
        pl.draw(&mut tex, &prims, &call);
        assert_eq!(tex.count_non_null(), 5);
    }

    #[test]
    fn count_pass_counts_without_writing() {
        let pl = Pipeline::with_workers(4);
        let prims = vec![Primitive::triangle(
            Point::new(1.0, 1.0),
            Point::new(5.0, 1.0),
            Point::new(1.0, 5.0),
            [1, 0, 0, 0],
        )];
        let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
        let n = pl.count_pass(&prims, &call);
        // Cross-check against an actual draw.
        let mut tex = Texture::new(10, 10);
        pl.draw(&mut tex, &prims, &call);
        assert_eq!(n as usize, tex.count_non_null());
    }

    #[test]
    fn draw_returns_fragment_count() {
        // Under both rules, `WriteAttrs`' draw (each triangle row's run
        // blended as one slice) returns the counting pass's count and the
        // oracle rasterizer's.
        let pl = Pipeline::with_workers(4);
        let prims = scattered_triangles(20);
        for conservative in [false, true] {
            let call = DrawCall::simple(vp10(), BlendMode::Replace, conservative);
            let mut want = 0u64;
            for p in &prims {
                raster::rasterize(p, &vp10(), conservative, &mut |_, _| want += 1);
            }
            let mut tex = Texture::new(10, 10);
            let drawn = pl.draw(&mut tex, &prims, &call);
            assert!(drawn > 0);
            assert_eq!(
                drawn,
                pl.count_pass(&prims, &call),
                "conservative={conservative}"
            );
            assert_eq!(drawn, want, "conservative={conservative}");
        }
    }

    /// Triangles of every orientation scattered over a 64×64 canvas.
    fn scattered_triangles(n: u32) -> Vec<Primitive> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37) % 9.0;
                let y = (i as f64 * 0.71) % 9.0;
                Primitive::triangle(
                    Point::new(x, y),
                    Point::new(x + 2.3, y + 0.4),
                    Point::new(x + 0.6, y + 2.1),
                    [i + 1, i, 0, 1],
                )
            })
            .collect()
    }

    #[test]
    fn band_draw_matches_per_fragment_path() {
        // `WriteAttrs` on default-rule triangles keeps each row's run whole;
        // a closure shader writing the same attrs takes the provided run
        // form and is shaded per fragment. Both must produce
        // bit-identical textures for every blend mode at several worker
        // counts.
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 64, 64);
        let prims = scattered_triangles(40);
        let per_fragment = FnFragment(|f: &Fragment| Some(f.attrs));
        for blend in [BlendMode::Replace, BlendMode::KeepFirst, BlendMode::Max] {
            for workers in [1, 2, 8] {
                let pl = Pipeline::with_workers(workers);
                let blocks = DrawCall::simple(vp, blend, false);
                let shaded = DrawCall {
                    fragment: &per_fragment,
                    ..DrawCall::simple(vp, blend, false)
                };
                let mut ta = Texture::new(64, 64);
                let mut tb = Texture::new(64, 64);
                pl.draw(&mut ta, &prims, &blocks);
                pl.draw(&mut tb, &prims, &shaded);
                assert!(ta.count_non_null() > 0);
                assert_eq!(ta, tb, "blend={blend:?} workers={workers}");
            }
        }
    }

    #[test]
    fn simd_count_pass_matches_scalar() {
        // The counting pass — each row run counted whole for `WriteAttrs`,
        // its fragments shaded one by one otherwise — equals the oracle
        // rasterizer's emission count, summed.
        let prims: Vec<Primitive> = (0..20)
            .map(|i| {
                let x = (i as f64 * 0.53) % 8.0;
                Primitive::triangle(
                    Point::new(x, x * 0.5),
                    Point::new(x + 2.0, x * 0.5 + 0.2),
                    Point::new(x + 0.5, x * 0.5 + 1.7),
                    [i + 1, 0, 0, 0],
                )
            })
            .collect();
        let pl = Pipeline::with_workers(4);
        let per_fragment = FnFragment(|f: &Fragment| Some(f.attrs));
        for conservative in [false, true] {
            let mut want = 0usize;
            for p in &prims {
                raster::rasterize(p, &vp10(), conservative, &mut |_, _| want += 1);
            }
            let call = DrawCall::simple(vp10(), BlendMode::Replace, conservative);
            let shaded = DrawCall {
                fragment: &per_fragment,
                ..DrawCall::simple(vp10(), BlendMode::Replace, conservative)
            };
            assert_eq!(pl.count_pass(&prims, &call), want as u64);
            assert_eq!(pl.count_pass(&prims, &shaded), want as u64);
        }
    }

    #[test]
    fn discarding_shader_matches_scalar_oracle() {
        // A shader that can discard is shaded pixel by pixel in its band;
        // its texture must equal the scalar oracle's: every fragment of the
        // scalar rasterizer, shaded, written in primitive order.
        let discard = |f: &Fragment| {
            if (f.x + f.y).is_multiple_of(3) {
                None
            } else {
                Some(f.attrs)
            }
        };
        let frag = FnFragment(discard);
        let prims = scattered_triangles(12);
        let vp = vp10();
        let call = DrawCall {
            fragment: &frag,
            ..DrawCall::simple(vp, BlendMode::Replace, false)
        };
        let pl = Pipeline::with_workers(2);
        let mut got = Texture::new(10, 10);
        pl.draw(&mut got, &prims, &call);

        let mut want = Texture::new(10, 10);
        let mut discarded = 0;
        for prim in &prims {
            raster::rasterize(prim, &vp, false, &mut |x, y| {
                let f = Fragment {
                    x,
                    y,
                    attrs: prim.attrs(),
                };
                match discard(&f) {
                    Some(v) => want.put(x, y, v),
                    None => discarded += 1,
                }
            });
        }
        assert!(discarded > 0);
        assert_eq!(got, want);
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// The scalar oracle of a draw: every primitive through
    /// `raster::rasterize` under the call's rule, each fragment shaded and
    /// blended with `apply` in primitive order. Returns the texture and the
    /// fragment count, discarded ones included.
    fn oracle(prims: &[Primitive], call: &DrawCall<'_>) -> (Texture, u64) {
        let vp = call.viewport;
        let mut tex = Texture::new(vp.width, vp.height);
        let mut n = 0;
        for p in prims {
            raster::rasterize(p, &vp, call.conservative, &mut |x, y| {
                n += 1;
                let frag = Fragment {
                    x,
                    y,
                    attrs: p.attrs(),
                };
                if let Some(v) = call.fragment.shade(&frag) {
                    tex.put(x, y, call.blend.apply(tex.get(x, y), v));
                }
            });
        }
        (tex, n)
    }

    /// Each point as the two triangles of a 1.5-unit square around it, as
    /// the distance canvases build their squares.
    fn squares(points: &[Primitive]) -> Vec<Primitive> {
        (points.iter())
            .flat_map(|prim| {
                let &Primitive::Point { p, attrs } = prim else {
                    unreachable!("points only")
                };
                let (lo, hi) = (p - Point::new(0.75, 0.75), p + Point::new(0.75, 0.75));
                let (lr, ul) = (Point::new(hi.x, lo.y), Point::new(lo.x, hi.y));
                [
                    Primitive::triangle(lo, lr, hi, attrs),
                    Primitive::triangle(lo, hi, ul, attrs),
                ]
            })
            .collect()
    }

    /// Random triangles over and around a 10×10 world: slivers thinner than
    /// a pixel, zero-area ones, vertices on pixel corners and edges, and
    /// many spilling out of the viewport; the attrs overlap and conflict.
    fn random_triangles(vp: &Viewport, seed: &mut u64) -> Vec<Primitive> {
        let ps = vp.pixel_size();
        (0..60u32)
            .map(|i| {
                let mut pts = [Point::ZERO; 3];
                for p in &mut pts {
                    *p = Point::new(lcg(seed) * 14.0 - 2.0, lcg(seed) * 14.0 - 2.0);
                }
                match i % 5 {
                    // Sliver thinner than a pixel.
                    1 => {
                        pts[1].y = pts[0].y + 0.3 * ps.y;
                        pts[2].y = pts[0].y + 0.5 * ps.y;
                    }
                    // Zero-area.
                    2 => pts[2] = pts[0].lerp(pts[1], 0.375),
                    // On the pixel grid, with a vertical edge.
                    3 => {
                        for p in &mut pts {
                            p.x = ((p.x / ps.x).round()) * ps.x;
                            p.y = ((p.y / ps.y).round()) * ps.y;
                        }
                        pts[1].x = pts[0].x;
                    }
                    _ => {}
                }
                let attrs = [1 + (lcg(seed) * 5.0) as u32, i, (lcg(seed) * 3.0) as u32, 1];
                Primitive::triangle(pts[0], pts[1], pts[2], attrs)
            })
            .collect()
    }

    #[test]
    fn band_draw_matches_scalar_oracle() {
        // The draw must write the oracle's texture and return its fragment
        // count for every blend mode, under both rules, at worker counts and
        // heights that split primitives across bands unevenly (one row per
        // band at height 7 and eight workers), for triangles, points, lines
        // and squares built as two triangles per point, with a shader that
        // writes its attributes (runs kept whole), one that discards and
        // one that computes its value from the fragment's world position
        // (both shaded pixel by pixel). The computed value is certain
        // (channel 3 zero) on half of each unit row, so `Classified` sees
        // both kinds. (Triangles far larger than the viewport, whose rows can
        // lie wholly beside it, are `raster`'s
        // `bisected_runs_match_scalar_oracle`.)
        let world = BBox::new(Point::ZERO, Point::new(10.0, 10.0));
        let pipes: Vec<Pipeline> = [1, 2, 3, 8].map(Pipeline::with_workers).into();
        let discard =
            FnFragment(|f: &Fragment| (!(f.x + 2 * f.y).is_multiple_of(3)).then_some(f.attrs));
        let from_world = |vp: Viewport| {
            FnFragment(move |f: &Fragment| {
                let world = vp.pixel_center(f.x, f.y);
                let bound = if world.y.fract() < 0.5 {
                    0
                } else {
                    f.attrs[1] + 1
                };
                Some([f.attrs[0], f.attrs[1], (world.x * 3.0) as u32, bound])
            })
        };
        let modes = [
            BlendMode::Replace,
            BlendMode::KeepFirst,
            BlendMode::Max,
            BlendMode::Classified,
        ];
        let mut seed = 0xba4d_u64;
        for height in [7, 100] {
            let vp = Viewport::new(world, 64, height);
            let from_world = from_world(vp);
            let shaders: [(&str, &dyn FragmentShader); 3] = [
                ("attrs", &WriteAttrs),
                ("discard", &discard),
                ("world", &from_world),
            ];
            let tris = random_triangles(&vp, &mut seed);
            let mut pt = || Point::new(lcg(&mut seed) * 12.0 - 1.0, lcg(&mut seed) * 12.0 - 1.0);
            let points: Vec<Primitive> = (0..80u32)
                .map(|i| Primitive::point(pt(), [1 + i % 3, i, 0, 1]))
                .collect();
            let lines: Vec<Primitive> = (0..30u32)
                .map(|i| Primitive::line(pt(), pt(), [1 + i % 4, i, 0, 1]))
                .collect();
            let squares = squares(&points);
            let inputs: [(&str, &[Primitive]); 4] = [
                ("triangles", &tris),
                ("points", &points),
                ("lines", &lines),
                ("squares", &squares),
            ];
            for ((name, prims), conservative) in
                (inputs.into_iter()).flat_map(|input| [(input, false), (input, true)])
            {
                for ((shader, fragment), blend) in
                    (shaders.into_iter()).flat_map(|s| modes.map(|blend| (s, blend)))
                {
                    let call = DrawCall {
                        viewport: vp,
                        fragment,
                        blend,
                        conservative,
                    };
                    let (want, count) = oracle(prims, &call);
                    let at = format!(
                        "{name} conservative={conservative} {shader} {blend:?} height={height}"
                    );
                    assert!(want.count_non_null() > 0, "{at}");
                    for pl in &pipes {
                        let mut got = Texture::new(vp.width, vp.height);
                        let drawn = pl.draw(&mut got, prims, &call);
                        let at = format!("{at} workers={}", pl.workers());
                        assert_eq!(got, want, "{at}");
                        assert_eq!(drawn, count, "{at}");
                    }
                }
            }
        }
    }
}
