//! Canvas creation through the shader pipeline (§4.2).
//!
//! Canvases are created on the fly from the vector data — SPADE does not
//! store serialized canvases (§4.2 explains why: vector data is smaller to
//! transfer and only the query region needs rendering). Creation per
//! primitive class:
//!
//! * **polygons** — two passes: the triangulated interior with default
//!   rasterization, then the boundary edges with *conservative*
//!   rasterization writing `vb` pointers to the incident triangles. A
//!   rectangle is the polygon `Polygon::rect`; the paper's geometry-shader
//!   fast path for it (§4.2) measured slower than this path here.

use crate::boundary::{BoundaryEntry, BoundaryGeom, BoundaryIndex};
use crate::canvas::{pack, CanvasLayer, FLAG_BOUNDARY, FLAG_INTERIOR};
use spade_geometry::predicates::point_in_triangle;
use spade_geometry::{BBox, Polygon, Segment, Triangle};
use spade_gpu::raster;
use spade_gpu::{BlendMode, DrawCall, Pipeline, Primitive, Viewport, WorkerPool};

/// A polygon prepared for rendering: triangulation plus the edge → incident
/// triangle mapping the boundary index stores (§4.3, Fig. 4).
///
/// Preparing a polygon is the "polygon processing" component of the paper's
/// time breakdown (triangulating the constraint and creating the boundary
/// index, §6.2).
#[derive(Debug, Clone)]
pub struct PreparedPolygon {
    pub id: u32,
    pub polygon: Polygon,
    pub triangles: Vec<Triangle>,
    /// Boundary edges, each with the index (into `triangles`) of the
    /// triangle incident on it.
    pub edges: Vec<(Segment, usize)>,
    pub bbox: BBox,
}

impl PreparedPolygon {
    pub fn prepare(id: u32, polygon: &Polygon) -> Self {
        let triangles = polygon.triangulate();
        let edges = polygon
            .boundary_edges()
            .into_iter()
            .map(|e| {
                let mid = e.midpoint();
                // The incident triangle contains the edge midpoint; fall
                // back to the nearest triangle for degenerate cases.
                let t = triangles
                    .iter()
                    .position(|t| point_in_triangle(mid, t))
                    .unwrap_or(0);
                (e, t)
            })
            .collect();
        PreparedPolygon {
            id,
            bbox: polygon.bbox(),
            polygon: polygon.clone(),
            triangles,
            edges,
        }
    }

    /// Total vertex count of the source polygon (drives the polygon
    /// processing cost the paper discusses).
    pub fn num_vertices(&self) -> usize {
        self.polygon.num_vertices()
    }
}

/// Render polygon objects into a polygon-class canvas layer with the
/// two-pass scheme of §4.2: interior triangles first, then conservative
/// boundary edges carrying `vb` pointers.
pub fn render_polygons(pipe: &Pipeline, vp: Viewport, polys: &[PreparedPolygon]) -> CanvasLayer {
    let mut layer = CanvasLayer::new(vp.width, vp.height);

    // Pass 1: interiors (default rasterization — pixel centers inside).
    let mut interior = Vec::new();
    for p in polys {
        for t in &p.triangles {
            interior.push(Primitive::triangle(
                t.a,
                t.b,
                t.c,
                pack(p.id, 0, FLAG_INTERIOR, 0),
            ));
        }
    }
    pipe.draw(
        &mut layer.texture,
        &interior,
        &DrawCall::simple(vp, BlendMode::Replace, false),
    );

    // Pass 2: boundaries (conservative — every touched pixel marked).
    let mut boundary = Vec::new();
    for p in polys {
        for &(seg, tri_idx) in &p.edges {
            let tri = p
                .triangles
                .get(tri_idx)
                .copied()
                // A polygon too small / degenerate to triangulate still
                // needs an exact test; use a degenerate triangle on the edge.
                .unwrap_or(Triangle::new(seg.a, seg.b, seg.b));
            let entry = layer.boundary.push(BoundaryEntry {
                object: p.id,
                geom: BoundaryGeom::Triangle(tri),
            });
            boundary.push(Primitive::line(
                seg.a,
                seg.b,
                pack(p.id, 0, FLAG_BOUNDARY, entry + 1),
            ));
        }
    }
    pipe.draw(
        &mut layer.texture,
        &boundary,
        &DrawCall::simple(vp, BlendMode::Replace, true),
    );
    let boundary_rows = record_coverage(&mut layer.boundary, &boundary, &vp, pipe.pool());

    // Exactness pass: a boundary pixel may also be touched by *interior*
    // triangles (of this or an adjacent object) whose coverage the single
    // per-pixel `vb` cannot represent. Record those triangles in the
    // overflow lists so boundary tests see the full union (a strengthening
    // over the paper's single-triangle design; see DESIGN.md).
    let all_tris: Vec<(u32, Triangle)> = polys
        .iter()
        .flat_map(|p| p.triangles.iter().map(move |t| (p.id, *t)))
        .collect();
    record_triangles_at_boundary(
        &mut layer.boundary,
        &all_tris,
        &boundary_rows,
        &vp,
        pipe.pool(),
    );
    layer
}

/// Record conservative triangle coverage at the boundary pixels `rows`
/// (per row, the ascending columns the boundary pass marked), so the union
/// test at those pixels is exact. Boundary pixels are sparse (≈ perimeter),
/// so each triangle only visits the boundary pixels inside its bbox instead
/// of scanning its whole coverage.
fn record_triangles_at_boundary(
    boundary: &mut BoundaryIndex,
    tris: &[(u32, Triangle)],
    rows: &[Vec<u32>],
    vp: &Viewport,
    pool: &WorkerPool,
) {
    let hits: Vec<Vec<((u32, u32), usize)>> = pool.parallel_map_chunks(tris, |base, chunk| {
        let mut out = Vec::new();
        for (k, (_, t)) in chunk.iter().enumerate() {
            let Some((x0, y0, x1, y1)) = vp.pixel_range(&t.bbox()) else {
                continue;
            };
            let test = raster::TriBoxTest::new(t);
            for y in y0..=y1 {
                let row = &rows[y as usize];
                let lo = row.partition_point(|&x| x < x0);
                for &x in &row[lo..] {
                    if x > x1 {
                        break;
                    }
                    if test.overlaps(&vp.pixel_box(x, y)) {
                        out.push(((x, y), base + k));
                    }
                }
            }
        }
        out
    });
    // Push one boundary entry per triangle that actually hit a boundary
    // pixel, then record its pixels.
    let mut entry_of: Vec<Option<u32>> = vec![None; tris.len()];
    for list in hits {
        for (px, tri_idx) in list {
            let entry = *entry_of[tri_idx].get_or_insert_with(|| {
                boundary.push(BoundaryEntry {
                    object: tris[tri_idx].0,
                    geom: BoundaryGeom::Triangle(tris[tri_idx].1),
                })
            });
            boundary.record_pixel(px, entry);
        }
    }
    boundary.finalize_overflow();
}

/// Record which boundary entries the conservative boundary primitives touch
/// at which pixels, building the overflow lists that keep multi-edge pixels
/// exact. The primitives' `vb` attribute (channel 3) names the entry.
/// Returns the touched pixels per row, ascending and without repeats: the
/// boundary pass rasterizes the same primitives under the same rule, so
/// they are exactly the pixels it marks `FLAG_BOUNDARY`.
fn record_coverage(
    boundary: &mut BoundaryIndex,
    prims: &[Primitive],
    vp: &Viewport,
    pool: &WorkerPool,
) -> Vec<Vec<u32>> {
    let per_chunk: Vec<Vec<((u32, u32), u32)>> = pool.parallel_map_chunks(prims, |_, chunk| {
        let mut out = Vec::new();
        for prim in chunk {
            let vb = prim.attrs()[3];
            if vb == 0 {
                continue;
            }
            raster::rasterize_with(prim, vp, true, &mut |x, y| {
                out.push(((x, y), vb - 1));
            });
        }
        out
    });
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); vp.height as usize];
    for list in per_chunk {
        for (px, entry) in list {
            boundary.record_pixel(px, entry);
            rows[px.1 as usize].push(px.0);
        }
    }
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::{classify, pixel_bound, pixel_id, PixelClass};
    use spade_geometry::Point;

    fn vp(n: u32) -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), n, n)
    }

    fn square_poly() -> Polygon {
        Polygon::rect(BBox::new(Point::new(2.0, 2.0), Point::new(8.0, 8.0)))
    }

    #[test]
    fn prepared_polygon_edge_triangle_mapping() {
        let p = PreparedPolygon::prepare(0, &square_poly());
        assert_eq!(p.triangles.len(), 2);
        assert_eq!(p.edges.len(), 4);
        // Every edge's midpoint must lie in its mapped triangle.
        for (seg, tri) in &p.edges {
            assert!(point_in_triangle(seg.midpoint(), &p.triangles[*tri]));
        }
    }

    #[test]
    fn polygon_canvas_interior_and_boundary() {
        let pipe = Pipeline::with_workers(4);
        let prepared = PreparedPolygon::prepare(5, &square_poly());
        let layer = render_polygons(&pipe, vp(10), &[prepared]);
        // Deep interior pixel.
        let v = layer.texture.get(5, 5);
        assert_eq!(classify(v), PixelClass::Interior);
        assert_eq!(pixel_id(v), Some(5));
        // A pixel on the rim (x=2 column crosses the left edge).
        let b = layer.texture.get(2, 5);
        assert_eq!(classify(b), PixelClass::Boundary);
        let vb = pixel_bound(b).unwrap();
        // The exact test through the entry: a point inside the square at
        // that pixel must pass, one outside must fail.
        assert!(layer
            .boundary
            .test_point_at((2, 5), vb, Point::new(2.4, 5.5)));
        assert!(!layer
            .boundary
            .test_point_at((2, 5), vb, Point::new(1.9, 5.5)));
        // Outside pixel.
        assert_eq!(classify(layer.texture.get(0, 0)), PixelClass::Outside);
    }

    #[test]
    fn polygon_canvas_classification_is_sound() {
        // For every pixel: Interior ⇒ pixel center truly inside; Outside ⇒
        // the polygon doesn't touch the pixel (checked via the exact oracle).
        let pipe = Pipeline::with_workers(4);
        let poly = Polygon::new(vec![
            Point::new(1.3, 1.2),
            Point::new(8.9, 2.1),
            Point::new(7.2, 8.7),
            Point::new(2.4, 7.9),
        ]);
        let prepared = PreparedPolygon::prepare(0, &poly);
        let v = vp(20);
        let layer = render_polygons(&pipe, v, &[prepared]);
        for y in 0..20 {
            for x in 0..20 {
                let px = layer.texture.get(x, y);
                match classify(px) {
                    PixelClass::Interior => {
                        assert!(
                            spade_geometry::predicates::point_in_polygon(
                                v.pixel_center(x, y),
                                &poly
                            ),
                            "interior pixel ({x},{y}) center not inside"
                        );
                    }
                    PixelClass::Outside => {
                        // No corner of the pixel may be inside the polygon
                        // (a fully covering polygon would have been drawn).
                        let bb = v.pixel_box(x, y);
                        for c in bb.corners() {
                            assert!(
                                !spade_geometry::predicates::point_in_polygon(c, &poly)
                                    || on_rim(c, &poly),
                                "outside pixel ({x},{y}) corner {c:?} inside polygon"
                            );
                        }
                    }
                    PixelClass::Boundary => {}
                }
            }
        }
    }

    fn on_rim(p: Point, poly: &Polygon) -> bool {
        poly.boundary_edges()
            .iter()
            .any(|e| spade_geometry::predicates::point_on_segment(p, *e))
    }

    #[test]
    fn overflow_built_for_shared_pixels() {
        // Two polygons whose boundaries cross the same pixels at a coarse
        // resolution must produce overflow entries.
        let pipe = Pipeline::with_workers(2);
        let a = PreparedPolygon::prepare(
            0,
            &Polygon::rect(BBox::new(Point::new(1.0, 1.0), Point::new(5.0, 5.0))),
        );
        let b = PreparedPolygon::prepare(
            1,
            &Polygon::rect(BBox::new(Point::new(1.2, 1.2), Point::new(5.2, 5.2))),
        );
        let layer = render_polygons(&pipe, vp(10), &[a, b]);
        assert!(layer.boundary.overflow_pixels() > 0);
    }
}
