//! The layer index (§4.3, construction in §5.5).
//!
//! With one canvas per object, a data set of millions of polygons would need
//! millions of rendering passes. The layer index partitions objects into
//! *layers* such that no two objects in a layer intersect — so a whole layer
//! can be drawn into a single canvas texture in one pass, dramatically
//! improving GPU occupancy for joins (§5.2).
//!
//! Construction follows the paper's iterative two-pass algorithm:
//!
//! * **Pass 1** — a multiway blend of the remaining objects where the blend
//!   keeps, per pixel, the object with the *higher* identifier (`Cmax`).
//! * **Pass 2** — a blend + mask that finds which objects were cropped in
//!   pass 1. Objects that survived intact are mutually non-overlapping (any
//!   overlap would have cropped the lower id), so they form the layer; the
//!   cropped objects continue to the next iteration.
//!
//! Overlap is decided at pixel granularity with conservative rasterization,
//! which over-approximates geometric intersection — layers therefore remain
//! valid under exact intersection (verified by property tests), and objects
//! in one layer never even share a canvas pixel at the construction
//! resolution.

use crate::create::PreparedPolygon;
use spade_gpu::{BlendMode, DrawCall, Pipeline, Primitive, Viewport};

/// The layer index: per layer, the positions of its objects in the list it
/// was built over, in list order; every object is in exactly one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerIndex {
    pub layers: Vec<Vec<u32>>,
}

impl LayerIndex {
    /// Number of layers (`l` in the paper's join cost analysis).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of indexed objects.
    pub fn num_objects(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Approximate byte footprint (transferred with the data, §6.3).
    pub fn byte_size(&self) -> usize {
        self.num_objects() * 4 + self.layers.len() * std::mem::size_of::<Vec<u32>>()
    }
}

/// Build a layer index over prepared polygons using the GPU operators.
///
/// `resolution` is the construction canvas resolution; coarser resolutions
/// build faster but may split non-intersecting (yet pixel-sharing) objects
/// into more layers.
pub fn build_layer_index(
    pipe: &Pipeline,
    polys: &[PreparedPolygon],
    resolution: u32,
) -> LayerIndex {
    if polys.is_empty() {
        return LayerIndex { layers: Vec::new() };
    }
    let mut bbox = spade_geometry::BBox::empty();
    for p in polys {
        bbox = bbox.union(&p.bbox);
    }
    let vp = Viewport::square_pixels(bbox, resolution);

    let mut remaining: Vec<u32> = (0..polys.len() as u32).collect();
    let mut layers = Vec::new();

    while !remaining.is_empty() {
        // Pass 1: multiway blend keeping the higher id per pixel. The
        // scratch canvas comes from the framebuffer arena: construction
        // iterates passes at one resolution, so every round after the first
        // reuses the same buffer.
        let mut cmax = pipe.arena().checkout(vp.width, vp.height);
        let prims = coverage_prims(remaining.iter().map(|&i| &polys[i as usize]));
        pipe.draw(
            &mut cmax,
            &prims,
            &DrawCall::simple(vp, BlendMode::Max, true),
        );

        // Pass 2: blend + mask — an object is intact iff every pixel it
        // covers still carries its id.
        let intact: Vec<bool> = pipe.pool().parallel_tasks(remaining.len(), |i| {
            let p = &polys[remaining[i] as usize];
            let mut ok = true;
            for prim in coverage_prims([p]) {
                if !ok {
                    break;
                }
                spade_gpu::raster::rasterize_with(&prim, &vp, true, &mut |x, y| {
                    if cmax.get(x, y)[0] != p.id + 1 {
                        ok = false;
                    }
                });
            }
            ok
        });

        let mut layer = Vec::new();
        let mut next = Vec::with_capacity(remaining.len());
        for (i, keep) in remaining.into_iter().zip(intact) {
            if keep {
                layer.push(i);
            } else {
                next.push(i);
            }
        }
        // Progress guarantee: the maximum id among remaining objects is
        // always intact, so the layer is never empty.
        debug_assert!(!layer.is_empty(), "layer construction stalled");
        if layer.is_empty() {
            // Defensive fallback for degenerate numeric cases.
            layer.push(next.pop().expect("non-empty remaining"));
        }
        layers.push(layer);
        remaining = next;
    }
    LayerIndex { layers }
}

/// The conservative coverage primitives of a polygon: its triangles plus
/// its boundary edges (so touching-only pixels are covered too).
fn coverage_prims<'a>(polys: impl IntoIterator<Item = &'a PreparedPolygon>) -> Vec<Primitive> {
    let mut prims = Vec::new();
    for p in polys {
        let attrs = [p.id + 1, 0, 0, 0];
        for t in &p.triangles {
            prims.push(Primitive::triangle(t.a, t.b, t.c, attrs));
        }
        for (e, _) in &p.edges {
            prims.push(Primitive::line(e.a, e.b, attrs));
        }
    }
    prims
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::predicates::polygons_intersect;
    use spade_geometry::{BBox, Point, Polygon};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rect(BBox::new(Point::new(x0, y0), Point::new(x1, y1)))
    }

    fn prepare(polys: &[Polygon]) -> Vec<PreparedPolygon> {
        polys
            .iter()
            .enumerate()
            .map(|(i, p)| PreparedPolygon::prepare(i as u32, p))
            .collect()
    }

    #[test]
    fn disjoint_objects_form_one_layer() {
        let pipe = Pipeline::with_workers(4);
        let polys = prepare(&[
            rect(0.0, 0.0, 10.0, 10.0),
            rect(20.0, 0.0, 30.0, 10.0),
            rect(40.0, 0.0, 50.0, 10.0),
            rect(60.0, 0.0, 70.0, 10.0),
        ]);
        let idx = build_layer_index(&pipe, &polys, 256);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.num_objects(), 4);
    }

    #[test]
    fn nested_objects_need_one_layer_each() {
        let pipe = Pipeline::with_workers(4);
        // Concentric squares: every pair intersects.
        let polys = prepare(&[
            rect(0.0, 0.0, 40.0, 40.0),
            rect(5.0, 5.0, 35.0, 35.0),
            rect(10.0, 10.0, 30.0, 30.0),
        ]);
        let idx = build_layer_index(&pipe, &polys, 128);
        assert_eq!(idx.len(), 3);
        for l in &idx.layers {
            assert_eq!(l.len(), 1);
        }
    }

    #[test]
    fn layers_never_contain_intersecting_objects() {
        let pipe = Pipeline::with_workers(4);
        // A pseudo-random mix of overlapping rectangles.
        let mut polys = Vec::new();
        let mut s = 7u64;
        for _ in 0..30 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 33) % 80) as f64;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 33) % 80) as f64;
            polys.push(rect(x, y, x + 15.0, y + 15.0));
        }
        let prepared = prepare(&polys);
        let idx = build_layer_index(&pipe, &prepared, 256);
        assert_eq!(idx.num_objects(), 30);
        for layer in &idx.layers {
            for (i, &a) in layer.iter().enumerate() {
                for &b in &layer[i + 1..] {
                    assert!(
                        !polygons_intersect(&polys[a as usize], &polys[b as usize]),
                        "objects {a} and {b} share a layer but intersect"
                    );
                }
            }
        }
    }

    #[test]
    fn every_object_lands_in_exactly_one_layer() {
        let pipe = Pipeline::with_workers(2);
        let polys = prepare(&[
            rect(0.0, 0.0, 10.0, 10.0),
            rect(5.0, 5.0, 15.0, 15.0),
            rect(20.0, 20.0, 30.0, 30.0),
        ]);
        let idx = build_layer_index(&pipe, &polys, 128);
        let mut seen = std::collections::BTreeSet::new();
        for l in &idx.layers {
            for &id in l {
                assert!(seen.insert(id), "object {id} in two layers");
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn empty_input() {
        let pipe = Pipeline::with_workers(2);
        let idx = build_layer_index(&pipe, &[], 64);
        assert!(idx.is_empty());
        assert_eq!(idx.num_objects(), 0);
    }

    #[test]
    fn higher_ids_win_the_first_layer() {
        let pipe = Pipeline::with_workers(2);
        // Two overlapping squares: the higher id survives pass 1 intact.
        let polys = prepare(&[rect(0.0, 0.0, 10.0, 10.0), rect(5.0, 5.0, 15.0, 15.0)]);
        let idx = build_layer_index(&pipe, &polys, 128);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.layers[0], vec![1]);
        assert_eq!(idx.layers[1], vec![0]);
    }
}
