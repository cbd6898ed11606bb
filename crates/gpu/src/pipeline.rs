//! The pass driver: assemble → geometry → clip → rasterize → fragment →
//! blend, executed data-parallel.
//!
//! A [`DrawCall`] bundles the programmable stages and fixed-function state
//! of one rendering pass, mirroring a GL pipeline state object. [`Pipeline`]
//! executes passes of three kinds — a draw into a target [`Texture`], the
//! counting pass, and a Map pass that emits values instead of blending
//! (§5.1) — and every one runs through the same stages:
//!
//! 1. each input element assembles into its primitive ([`Assemble`]), in
//!    world space (in parallel),
//! 2. the geometry shader optionally expands primitives,
//! 3. clipping drops primitives whose bounds miss the viewport,
//! 4. the rasterizer enumerates covered pixels (default or conservative)
//!    through the batched kernels,
//! 5. the fragment shader computes each fragment's output (or discards it),
//! 6. a draw blends fragments into the target in primitive order.
//!
//! A draw is *band-direct*, the sort-middle form of a parallel rasterizer:
//! one chunk-parallel pass runs assemble → geometry → clip over the stream
//! once and bins each visible primitive into the row bands of the target
//! that its bounding box meets, a few bands per worker, chunk after chunk so
//! each band's list stays in primitive order. Each band is then one pool
//! task that rasterizes only its own list on its own rows, under the call's
//! rule: a triangle's covered run on each row is blended as one slice when
//! the shader writes its attributes verbatim (`writes_attrs`), and shaded
//! pixel by pixel otherwise; points and lines are shaded per pixel. Every
//! pixel sees its fragments in primitive order, so results are deterministic
//! for *every* blend mode and any worker count. The counting and Map passes
//! run the chunked stage alone, rasterizing each primitive where it is
//! assembled. The driver is also the one place a pass is timed, recorded on
//! the calling query's frame ([`crate::record`]) and traced.
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
use crate::shader::{Fragment, FragmentShader, GeometryShader, WriteAttrs};
use crate::texture::{PixelValue, Texture};
use crate::viewport::Viewport;
use spade_geometry::{Point, Triangle};
use std::time::Instant;

/// Row bands per worker of a draw: enough tasks that a worker whose bands
/// held little coverage takes more, few enough that a primitive tall enough
/// to span many rows is binned, and its row walk set up, in few of them.
const BANDS_PER_WORKER: usize = 4;

/// The state of one rendering pass.
pub struct DrawCall<'a> {
    pub viewport: Viewport,
    pub geometry: Option<&'a dyn GeometryShader>,
    pub fragment: &'a dyn FragmentShader,
    pub blend: BlendMode,
    /// Use conservative rasterization (§4.2) for this pass.
    pub conservative: bool,
}

impl<'a> DrawCall<'a> {
    /// A minimal pass: no geometry shader, fragment shader that writes the
    /// primitive attributes (canvas creation).
    pub fn simple(viewport: Viewport, blend: BlendMode, conservative: bool) -> DrawCall<'static> {
        DrawCall {
            viewport,
            geometry: None,
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
    /// binned once into the target's row bands ([`Pipeline::stream`]), then
    /// each band draws its list ([`draw_band`]).
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
    /// implementation (§5.1).
    pub fn count_pass(&self, prims: &[impl Assemble], call: &DrawCall<'_>) -> u64 {
        let vp = call.viewport;
        // Shaders that write their attrs for every fragment (`WriteAttrs`)
        // let the counting pass count coverage directly — the rasterizer's
        // scanline fast path — instead of enumerating every pixel.
        let coverage = call.fragment.writes_attrs();
        self.pass("gpu.count_pass", || {
            let (counts, totals) = self.stream(
                prims,
                call,
                || 0u64,
                |n, prim| {
                    if coverage {
                        let covered = raster::coverage_count(prim, &vp, call.conservative) as u64;
                        *n += covered;
                        return covered;
                    }
                    fragments(prim, &vp, call.conservative, |frag| {
                        *n += u64::from(call.fragment.shade(&frag).is_some());
                    })
                },
            );
            (counts.into_iter().sum(), totals)
        })
    }

    /// Run a Map pass (§5.1): rasterize `prims` as [`Pipeline::draw`] does,
    /// but instead of blending, hand every fragment to `emit`, which may
    /// append any number of values to its worker chunk's output and keeps
    /// per-chunk scratch state from `init` (the equivalent of shader
    /// workgroup-local memory). Returns each chunk's values in primitive
    /// order, so their concatenation is in deterministic (primitive,
    /// fragment, emission) order.
    pub fn map<S: Send>(
        &self,
        prims: &[impl Assemble],
        call: &DrawCall<'_>,
        init: impl Fn() -> S + Sync,
        emit: impl Fn(&mut S, &Fragment, &mut Vec<PixelValue>) + Sync,
    ) -> Vec<Vec<PixelValue>> {
        let vp = call.viewport;
        self.pass("gpu.map", || {
            let (chunks, counts) = self.stream(
                prims,
                call,
                || (init(), Vec::new()),
                |(state, out), prim| {
                    fragments(prim, &vp, call.conservative, |frag| emit(state, &frag, out))
                },
            );
            (chunks.into_iter().map(|(_, out)| out).collect(), counts)
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
    /// fused assemble → geometry → clip stage — no primitive list is
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

/// The fused assemble → geometry → clip stage over `items`, the part of a
/// pass's input list that starts at index `first`: every visible primitive
/// goes to `raster`, which returns its fragment count. Returns the
/// primitives after expansion, the visible ones and their fragments. The
/// assembly contract of every pass: `prims[i]` assembles as
/// `prims[i].assemble(i)`, `i` counted over the whole list.
fn assemble_clip(
    items: &[impl Assemble],
    first: usize,
    call: &DrawCall<'_>,
    mut raster: impl FnMut(&Primitive) -> u64,
) -> [u64; 3] {
    let world = call.viewport.world;
    let mut counts = [0u64; 3];
    let mut expand_buf = Vec::new();
    for (index, item) in (first as u32..).zip(items) {
        let prim = item.assemble(index);
        let expanded: &[Primitive] = match call.geometry {
            Some(gs) => {
                expand_buf.clear();
                gs.expand(&prim, &mut expand_buf);
                &expand_buf
            }
            None => std::slice::from_ref(&prim),
        };
        counts[0] += expanded.len() as u64;
        for prim in expanded.iter().filter(|p| p.bbox().intersects(&world)) {
            counts[1] += 1;
            counts[2] += raster(prim);
        }
    }
    counts
}

/// One band of a draw: `band` holds the target's rows from `y0` on, `width`
/// pixels each, and `prims` are the primitives binned to it, in primitive
/// order. Rasterizes each on the band's rows under the call's rule and
/// blends its fragments: a triangle row's covered run as one slice for a
/// `writes_attrs` shader and pixel by pixel, shaded, for any other; a
/// point's or line's fragments pixel by pixel. Returns the band's fragment
/// count, discarded fragments included.
fn draw_band<'p>(
    prims: impl Iterator<Item = &'p Primitive>,
    call: &DrawCall<'_>,
    y0: u32,
    width: usize,
    band: &mut [PixelValue],
) -> u64 {
    let vp = call.viewport;
    let rows = y0..y0 + (band.len() / width) as u32;
    let at = |x: u32, y: u32| (y - y0) as usize * width + x as usize;
    let writes_attrs = call.fragment.writes_attrs();
    let mut n = 0;
    for prim in prims {
        let attrs = prim.attrs();
        let blend = |band: &mut [PixelValue], x: u32, y: u32| {
            let frag = Fragment {
                x,
                y,
                world: vp.pixel_center(x, y),
                attrs,
            };
            if let Some(v) = call.fragment.shade(&frag) {
                band[at(x, y)] = call.blend.apply(band[at(x, y)], v);
            }
        };
        match *prim {
            Primitive::Triangle { a, b, c, .. } => {
                let tri = Triangle::new(a, b, c);
                raster::triangle_runs(
                    &tri,
                    &vp,
                    call.conservative,
                    rows.clone(),
                    &mut |y, x0, x1| {
                        n += u64::from(x1 - x0 + 1);
                        if writes_attrs {
                            call.blend
                                .blend_run(&mut band[at(x0, y)..=at(x1, y)], attrs);
                        } else {
                            (x0..=x1).for_each(|x| blend(band, x, y));
                        }
                    },
                );
            }
            _ => raster::rasterize_with(prim, &vp, call.conservative, &mut |x, y| {
                if rows.contains(&y) {
                    n += 1;
                    blend(band, x, y);
                }
            }),
        }
    }
    n
}

/// Rasterize `prim` and hand each of its fragments to `shade`; returns how
/// many there were.
fn fragments(
    prim: &Primitive,
    vp: &Viewport,
    conservative: bool,
    mut shade: impl FnMut(Fragment),
) -> u64 {
    let attrs = prim.attrs();
    let mut n = 0;
    raster::rasterize_with(prim, vp, conservative, &mut |x, y| {
        n += 1;
        shade(Fragment {
            x,
            y,
            world: vp.pixel_center(x, y),
            attrs,
        });
    });
    n
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
        // A geometry shader that turns one point into a plus-shape of
        // 5 points.
        struct Plus;
        impl GeometryShader for Plus {
            fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>) {
                if let Primitive::Point { p, attrs } = prim {
                    out.push(Primitive::point(*p, *attrs));
                    for d in [
                        Point::new(1.0, 0.0),
                        Point::new(-1.0, 0.0),
                        Point::new(0.0, 1.0),
                        Point::new(0.0, -1.0),
                    ] {
                        out.push(Primitive::point(*p + d, *attrs));
                    }
                }
            }
        }
        let pl = Pipeline::with_workers(2);
        let mut tex = Texture::new(10, 10);
        let gs = Plus;
        let prims = vec![Primitive::point(Point::new(5.5, 5.5), [9, 0, 0, 0])];
        let call = DrawCall {
            geometry: Some(&gs),
            ..DrawCall::simple(vp10(), BlendMode::Replace, false)
        };
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
        // `WriteAttrs` on default-rule triangles blends each row's run as
        // one slice; a closure shader writing the same attrs cannot claim
        // `writes_attrs` and is shaded per fragment. Both must produce
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
        // The counting pass — coverage counted through the batched kernel
        // for `WriteAttrs`, fragments shaded one by one
        // otherwise — equals the oracle rasterizer's emission count, summed.
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
                    world: vp.pixel_center(x, y),
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

    /// The scalar oracle of a draw: every primitive (expanded by the call's
    /// geometry shader) through `raster::rasterize` under the call's rule,
    /// each fragment shaded and blended with `apply` in primitive order.
    /// Returns the texture and the fragment count, discarded ones included.
    fn oracle(prims: &[Primitive], call: &DrawCall<'_>) -> (Texture, u64) {
        let vp = call.viewport;
        let mut tex = Texture::new(vp.width, vp.height);
        let mut n = 0;
        let mut expanded = Vec::new();
        for prim in prims {
            expanded.clear();
            match call.geometry {
                Some(gs) => gs.expand(prim, &mut expanded),
                None => expanded.push(*prim),
            }
            for p in &expanded {
                raster::rasterize(p, &vp, call.conservative, &mut |x, y| {
                    n += 1;
                    let frag = Fragment {
                        x,
                        y,
                        world: vp.pixel_center(x, y),
                        attrs: p.attrs(),
                    };
                    if let Some(v) = call.fragment.shade(&frag) {
                        tex.put(x, y, call.blend.apply(tex.get(x, y), v));
                    }
                });
            }
        }
        (tex, n)
    }

    /// A geometry shader that turns a point into the two triangles of a
    /// 1.5-unit square around it, as the distance canvases' square
    /// expansion does.
    struct Square;
    impl GeometryShader for Square {
        fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>) {
            if let Primitive::Point { p, attrs } = *prim {
                let (lo, hi) = (p - Point::new(0.75, 0.75), p + Point::new(0.75, 0.75));
                let (lr, ul) = (Point::new(hi.x, lo.y), Point::new(lo.x, hi.y));
                out.push(Primitive::triangle(lo, lr, hi, attrs));
                out.push(Primitive::triangle(lo, hi, ul, attrs));
            }
        }
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
        // and a geometry shader's expansion, with a shader that writes its
        // attributes (run blends), one that discards and one that computes
        // its value from the fragment's world position (both shaded pixel by
        // pixel). The computed value is certain (channel 3 zero) on half of
        // each unit row, so `Classified` sees both kinds. (Default-rule rows
        // whose probes find no seed are too rare to reach from here;
        // `raster`'s `seedless_row_scan_matches_scalar` checks their scan.)
        let world = BBox::new(Point::ZERO, Point::new(10.0, 10.0));
        let pipes: Vec<Pipeline> = [1, 2, 3, 8].map(Pipeline::with_workers).into();
        let discard =
            FnFragment(|f: &Fragment| (!(f.x + 2 * f.y).is_multiple_of(3)).then_some(f.attrs));
        let from_world = FnFragment(|f: &Fragment| {
            let bound = if f.world.y.fract() < 0.5 {
                0
            } else {
                f.attrs[1] + 1
            };
            Some([f.attrs[0], f.attrs[1], (f.world.x * 3.0) as u32, bound])
        });
        let shaders: [(&str, &dyn FragmentShader); 3] = [
            ("attrs", &WriteAttrs),
            ("discard", &discard),
            ("world", &from_world),
        ];
        let modes = [
            BlendMode::Replace,
            BlendMode::KeepFirst,
            BlendMode::Max,
            BlendMode::Classified,
        ];
        let mut seed = 0xba4d_u64;
        for height in [7, 100] {
            let vp = Viewport::new(world, 64, height);
            let tris = random_triangles(&vp, &mut seed);
            let mut pt = || Point::new(lcg(&mut seed) * 12.0 - 1.0, lcg(&mut seed) * 12.0 - 1.0);
            let points: Vec<Primitive> = (0..80u32)
                .map(|i| Primitive::point(pt(), [1 + i % 3, i, 0, 1]))
                .collect();
            let lines: Vec<Primitive> = (0..30u32)
                .map(|i| Primitive::line(pt(), pt(), [1 + i % 4, i, 0, 1]))
                .collect();
            let inputs: [(&str, &[Primitive], Option<&dyn GeometryShader>); 4] = [
                ("triangles", &tris, None),
                ("points", &points, None),
                ("lines", &lines, None),
                ("squares", &points, Some(&Square)),
            ];
            for ((name, prims, geometry), conservative) in
                (inputs.into_iter()).flat_map(|input| [(input, false), (input, true)])
            {
                for ((shader, fragment), blend) in
                    (shaders.into_iter()).flat_map(|s| modes.map(|blend| (s, blend)))
                {
                    let call = DrawCall {
                        viewport: vp,
                        geometry,
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
