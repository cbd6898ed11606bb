//! The GPU-friendly algebra operators (§2.1, implementations §5.1).
//!
//! The paper composes every query from five fundamental operators. The
//! engine never materializes one as a pass of its own: each is *fused* into
//! the rendering pass that needs it (DESIGN.md §1 has the table).
//!
//! * **Geometric transform** — the viewport's world-to-pixel mapping
//!   ([`spade_gpu::Viewport`]); data are projected at load, so no pass has
//!   a vertex stage.
//! * **Value transform** — the value a fragment shader returns.
//! * **Mask** — a fragment shader that discards the pixels failing the
//!   mask condition.
//! * **Blend** — the pass's [`BlendMode`].
//! * **Multiway blend** — one `Max` draw over all inputs (the layer
//!   index's first pass), instead of a chain of binary blends (§5.1).
//! * **Dissect** — the parallel scan ([`scan::compact_non_null`]), fused
//!   into the 1-pass Map's list-canvas compaction.
//! * **Map** (= dissect ∘ geometric transform) — emits one point per
//!   non-null fragment into an output *list canvas*. Two implementations
//!   exist, chosen by the query optimizer (§5.4): a 1-pass version that
//!   needs an upper bound `n_max` on the result count, and a 2-pass version
//!   that first counts (the "simulated Map") and then materializes.
//!
//! Every Map pass is a pass of the pipeline ([`Pipeline::map`],
//! [`Pipeline::count_pass`]), rasterized, recorded and traced there; this
//! module owns what the operators add around it — the list canvas, the
//! scan and the overflow check.

use spade_gpu::scan;
use spade_gpu::shader::Fragment;
use spade_gpu::{Assemble, BlendMode, DrawCall, Pipeline, PixelValue};

/// The result of a Map operation: the emitted values, in deterministic
/// (primitive, fragment) order.
#[derive(Debug, Clone, PartialEq)]
pub struct MapResult {
    pub values: Vec<PixelValue>,
    /// Number of rendering passes the operation used (1 or 2 + placement
    /// iterations), reported to the optimizer's statistics.
    pub passes: u32,
}

/// Error: the 1-pass Map overflowed its `n_max` list canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOverflow {
    pub n_max: usize,
    pub produced: usize,
}

impl std::fmt::Display for MapOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "map overflow: produced {} entries into an n_max={} list canvas",
            self.produced, self.n_max
        )
    }
}

impl std::error::Error for MapOverflow {}

/// 1-pass Map (§5.1 implementation 1): rasterize + shade the primitives,
/// storing each emitted value at a unique slot of an `n_max`-sized list
/// canvas, then run the parallel scan to compact out the nulls.
///
/// Fails with [`MapOverflow`] when more than `n_max` values are produced —
/// the optimizer then falls back to [`map_2pass`].
pub fn map_1pass(
    pipe: &Pipeline,
    prims: &[impl Assemble],
    call: &DrawCall<'_>,
    n_max: usize,
) -> Result<MapResult, MapOverflow> {
    let chunks = pipe.map(prims, call, Vec::new, |out, frag| {
        out.extend(call.fragment.shade(frag));
    });
    let produced = chunks.iter().map(Vec::len).sum();
    if produced > n_max {
        return Err(MapOverflow { n_max, produced });
    }
    // Materialize the list canvas: a square-ish texture of ≥ n_max slots,
    // entries placed at their scanned offsets. Checked out of the
    // framebuffer arena — queries issue one list canvas per Map call, so
    // reuse is what keeps small out-of-core passes cheap.
    let width = (n_max.max(1) as f64).sqrt().ceil() as u32;
    let height = (n_max.max(1) as u32).div_ceil(width);
    let mut list = pipe.arena().checkout(width, height);
    let mut slot = 0usize;
    for chunk in &chunks {
        for &v in chunk {
            list.put_linear(slot, v);
            slot += 1;
        }
    }
    // Scan-compact the list canvas (removes the trailing nulls).
    let compacted = scan::compact_non_null(&list, pipe.pool());
    Ok(MapResult {
        values: compacted.into_iter().map(|(_, _, v)| v).collect(),
        passes: 1,
    })
}

/// 2-pass Map (§5.1 implementation 2): a counting pass (the "simulated
/// Map") followed by an exactly-sized materialization pass.
pub fn map_2pass(pipe: &Pipeline, prims: &[impl Assemble], call: &DrawCall<'_>) -> MapResult {
    let count = pipe.count_pass(prims, call) as usize;
    match map_1pass(pipe, prims, call, count) {
        Ok(mut r) => {
            r.passes = 2;
            r
        }
        Err(_) => unreachable!("count pass bounds the production exactly"),
    }
}

/// Multi-emitting Map: like the Map operator but the per-fragment shader
/// may emit any number of values (join pair extraction emits one pair per
/// matching constraint object at an overflow pixel). On hardware this is an
/// append-buffer pattern (a shader appending to a storage buffer); here it
/// is a [`Pipeline::map`] whose chunk state carries the list, so values come
/// back in deterministic (primitive, fragment, emission) order.
pub fn map_emit(
    pipe: &Pipeline,
    prims: &[impl Assemble],
    viewport: spade_gpu::Viewport,
    conservative: bool,
    emit: impl Fn(&Fragment, &mut Vec<PixelValue>) + Sync,
) -> MapResult {
    map_emit_stateful(
        pipe,
        prims,
        viewport,
        conservative,
        || (),
        |_, frag, out| emit(frag, out),
    )
}

/// [`map_emit`] with per-worker-chunk scratch state — the equivalent of
/// shader workgroup-local memory. Used to deduplicate emissions (a
/// candidate already known to match can skip further exact tests) and to
/// reuse scratch buffers across fragments. Each chunk's values travel in
/// its [`Pipeline::map`] state next to `S`, and the chunks' lists
/// concatenate in chunk order.
pub fn map_emit_stateful<S>(
    pipe: &Pipeline,
    prims: &[impl Assemble],
    viewport: spade_gpu::Viewport,
    conservative: bool,
    init: impl Fn() -> S + Sync,
    emit: impl Fn(&mut S, &Fragment, &mut Vec<PixelValue>) + Sync,
) -> MapResult
where
    S: Send,
{
    let call = DrawCall::simple(viewport, BlendMode::Replace, conservative);
    let chunks = pipe.map(
        prims,
        &call,
        || (init(), Vec::new()),
        |(state, out), frag| emit(state, frag, out),
    );
    MapResult {
        values: chunks.into_iter().flat_map(|(_, out)| out).collect(),
        passes: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::{BBox, Point};
    use spade_gpu::{Primitive, Viewport};

    fn vp10() -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 10, 10)
    }

    #[test]
    fn map_1pass_collects_values() {
        let pipe = Pipeline::with_workers(4);
        let prims: Vec<Primitive> = (0..20)
            .map(|i| {
                Primitive::point(
                    Point::new((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5),
                    [i + 1, 0, 0, 0],
                )
            })
            .collect();
        let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
        let r = map_1pass(&pipe, &prims, &call, 64).unwrap();
        assert_eq!(r.values.len(), 20);
        assert_eq!(r.passes, 1);
        // Deterministic primitive order.
        let ids: Vec<u32> = r.values.iter().map(|v| v[0]).collect();
        assert_eq!(ids, (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn map_1pass_overflow_reported() {
        let pipe = Pipeline::with_workers(2);
        let prims: Vec<Primitive> = (0..10)
            .map(|i| Primitive::point(Point::new(i as f64 + 0.5, 0.5), [i + 1, 0, 0, 0]))
            .collect();
        let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
        let err = map_1pass(&pipe, &prims, &call, 5).unwrap_err();
        assert_eq!(err.n_max, 5);
        assert_eq!(err.produced, 10);
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn map_2pass_equals_1pass() {
        let pipe = Pipeline::with_workers(4);
        let prims: Vec<Primitive> = (0..30)
            .map(|i| {
                Primitive::point(
                    Point::new((i % 10) as f64 + 0.5, (i % 7) as f64 + 0.5),
                    [i + 1, 0, 0, 0],
                )
            })
            .collect();
        let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
        let one = map_1pass(&pipe, &prims, &call, 100).unwrap();
        let two = map_2pass(&pipe, &prims, &call);
        assert_eq!(one.values, two.values);
        assert_eq!(two.passes, 2);
    }

    #[test]
    fn map_respects_fragment_discard() {
        let pipe = Pipeline::with_workers(2);
        let frag = spade_gpu::FnFragment(|f: &Fragment| {
            if f.attrs[0].is_multiple_of(2) {
                Some(f.attrs)
            } else {
                None
            }
        });
        let prims: Vec<Primitive> = (0..10)
            .map(|i| Primitive::point(Point::new(i as f64 + 0.5, 0.5), [i, 0, 0, 0]))
            .collect();
        let call = DrawCall {
            fragment: &frag,
            ..DrawCall::simple(vp10(), BlendMode::Replace, false)
        };
        let r = map_2pass(&pipe, &prims, &call);
        // ids 0,2,4,6,8 pass — but id 0 packs to attrs[0]=0 which is the
        // null pixel and is compacted away; SPADE avoids this by storing
        // id+1, which this test mimics for the surviving check.
        assert!(r.values.iter().all(|v| v[0] % 2 == 0));
    }

    #[test]
    fn map_deterministic_across_workers() {
        let prims: Vec<Primitive> = (0..100)
            .map(|i| {
                Primitive::point(
                    Point::new((i % 10) as f64 + 0.5, ((i / 10) % 10) as f64 + 0.5),
                    [i + 1, 0, 0, 0],
                )
            })
            .collect();
        let mut reference: Option<Vec<PixelValue>> = None;
        for workers in [1, 3, 7] {
            let pipe = Pipeline::with_workers(workers);
            let call = DrawCall::simple(vp10(), BlendMode::Replace, false);
            let r = map_2pass(&pipe, &prims, &call);
            match &reference {
                None => reference = Some(r.values),
                Some(v) => assert_eq!(&r.values, v, "workers={workers}"),
            }
        }
    }
}
