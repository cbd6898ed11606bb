//! The boundary index (§4.3).
//!
//! A boundary pixel only tells us a geometry *touches* the pixel; whether a
//! query primitive actually intersects the geometry needs an exact test. The
//! boundary index is the lookup table that makes this test constant time:
//!
//! * for **points** and **lines**, "the data itself becomes the boundary
//!   index" — entries store the point / segment coordinates;
//! * for **polygons**, each boundary edge maps to the triangle incident on
//!   it, so point-in-polygon, line-polygon and polygon-polygon tests become
//!   point-triangle, segment-triangle and triangle-triangle tests;
//! * for **distance constraints**, entries store the source primitive plus
//!   the distance, so the exact test is a distance comparison (this is how
//!   SPADE evaluates accurate distance queries to complex geometry, §4.2).
//!
//! **Overflow lists.** The paper stores one entry per boundary pixel; when
//! several edges cross the same pixel, testing the single indexed triangle
//! can miss an intersection witnessed by another edge's triangle. This
//! implementation keeps the single per-pixel pointer in the canvas (same
//! texture layout) but additionally records *all* entries of multi-edge
//! pixels in an overflow table, so boundary tests are exact. The ablation
//! bench `ablate-boundary` measures the overhead (negligible: overflow
//! pixels are rare at sensible resolutions).

use spade_geometry::distance::{
    point_segment_distance, segment_polygon_distance, segment_segment_distance,
};
use spade_geometry::predicates::{
    point_in_triangle, point_on_segment, segment_intersects_triangle, segments_intersect,
    triangles_intersect,
};
use spade_geometry::{Point, Segment, Triangle};
use std::collections::HashMap;

/// The exact geometry a boundary entry tests against.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundaryGeom {
    /// A point object.
    Point(Point),
    /// A line-segment of a polyline object.
    Segment(Segment),
    /// The triangle incident on a polygon boundary edge.
    Triangle(Triangle),
    /// Distance constraint: within `r` of a point.
    PointDist { center: Point, r: f64 },
    /// Distance constraint: within `r` of a segment.
    SegmentDist { seg: Segment, r: f64 },
}

/// One boundary-index entry: the owning object plus its exact geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryEntry {
    pub object: u32,
    pub geom: BoundaryGeom,
}

impl BoundaryEntry {
    /// Does the query point intersect the geometry this entry stands for?
    pub fn test_point(&self, p: Point) -> bool {
        match &self.geom {
            BoundaryGeom::Point(q) => p == *q,
            BoundaryGeom::Segment(s) => point_on_segment(p, *s),
            BoundaryGeom::Triangle(t) => point_in_triangle(p, t),
            BoundaryGeom::PointDist { center, r } => p.dist(*center) <= *r,
            BoundaryGeom::SegmentDist { seg, r } => point_segment_distance(p, *seg) <= *r,
        }
    }

    /// Does the query segment intersect the geometry this entry stands for?
    pub fn test_segment(&self, s: Segment) -> bool {
        match &self.geom {
            BoundaryGeom::Point(q) => point_on_segment(*q, s),
            BoundaryGeom::Segment(t) => segments_intersect(s, *t),
            BoundaryGeom::Triangle(t) => segment_intersects_triangle(s, t),
            BoundaryGeom::PointDist { center, r } => point_segment_distance(*center, s) <= *r,
            BoundaryGeom::SegmentDist { seg, r } => segment_segment_distance(s, *seg) <= *r,
        }
    }

    /// Does the query triangle intersect the geometry this entry stands for?
    pub fn test_triangle(&self, t: &Triangle) -> bool {
        match &self.geom {
            BoundaryGeom::Point(q) => point_in_triangle(*q, t),
            BoundaryGeom::Segment(s) => segment_intersects_triangle(*s, t),
            BoundaryGeom::Triangle(u) => triangles_intersect(u, t),
            BoundaryGeom::PointDist { center, r } => point_triangle_distance(*center, t) <= *r,
            BoundaryGeom::SegmentDist { seg, r } => {
                let poly = spade_geometry::Polygon::new(vec![t.a, t.b, t.c]);
                segment_polygon_distance(*seg, &poly) <= *r
            }
        }
    }
}

fn point_triangle_distance(p: Point, t: &Triangle) -> f64 {
    if point_in_triangle(p, t) {
        return 0.0;
    }
    t.edges()
        .iter()
        .map(|&e| point_segment_distance(p, e))
        .fold(f64::INFINITY, f64::min)
}

/// The boundary index: an entry table plus the overflow lists for pixels
/// written by more than one entry.
#[derive(Debug, Default, PartialEq)]
pub struct BoundaryIndex {
    entries: Vec<BoundaryEntry>,
    overflow: HashMap<(u32, u32), Vec<u32>>,
}

impl BoundaryIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries in the lookup table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pixels with overflow lists (metric used by the boundary
    /// ablation study).
    pub fn overflow_pixels(&self) -> usize {
        self.overflow.len()
    }

    /// Approximate heap footprint, counted against the device budget when a
    /// canvas (and its index) is transferred (§6.3 notes SPADE transfers the
    /// boundary index along with the data).
    pub fn byte_size(&self) -> usize {
        self.entries.len() * std::mem::size_of::<BoundaryEntry>()
            + self
                .overflow
                .values()
                .map(|v| v.len() * 4 + 16)
                .sum::<usize>()
    }

    /// Append an entry, returning its index (what `vb` stores, plus one).
    pub fn push(&mut self, e: BoundaryEntry) -> u32 {
        let idx = self.entries.len() as u32;
        self.entries.push(e);
        idx
    }

    pub fn entry(&self, idx: u32) -> &BoundaryEntry {
        &self.entries[idx as usize]
    }

    pub fn entries(&self) -> &[BoundaryEntry] {
        &self.entries
    }

    /// Record that `pixel` is covered by entry `idx` (called once per
    /// (pixel, entry) pair during canvas creation). Builds overflow lists
    /// for pixels hit more than once.
    pub fn record_pixel(&mut self, pixel: (u32, u32), idx: u32) {
        self.overflow.entry(pixel).or_default().push(idx);
    }

    /// Drop single-entry pixels from the overflow table (those are fully
    /// described by the canvas `vb` pointer). Call once after creation.
    pub fn finalize_overflow(&mut self) {
        self.overflow.retain(|_, v| {
            v.sort_unstable();
            v.dedup();
            v.len() > 1
        });
    }

    /// Exact point test at a boundary pixel: true if the point intersects
    /// any entry recorded at that pixel.
    pub fn test_point_at(&self, pixel: (u32, u32), primary: u32, p: Point) -> bool {
        match self.overflow.get(&pixel) {
            Some(v) => v.iter().any(|&i| self.entries[i as usize].test_point(p)),
            None => self.entries[primary as usize].test_point(p),
        }
    }

    /// Append to `out` the object ids of all entries at `pixel` whose
    /// geometry the query point intersects, each id once among those this
    /// call appends. Join pair-extraction uses this: at an overflow pixel,
    /// entries of several objects may match. The caller's buffer keeps the
    /// per-fragment path allocation-free.
    pub fn matches_point_at(&self, pixel: (u32, u32), primary: u32, p: Point, out: &mut Vec<u32>) {
        self.collect_matches(pixel, primary, |e| e.test_point(p), out)
    }

    /// As [`BoundaryIndex::matches_point_at`], for the query segment.
    pub fn matches_segment_at(
        &self,
        pixel: (u32, u32),
        primary: u32,
        s: Segment,
        out: &mut Vec<u32>,
    ) {
        self.collect_matches(pixel, primary, |e| e.test_segment(s), out)
    }

    /// As [`BoundaryIndex::matches_point_at`], for the query triangle.
    pub fn matches_triangle_at(
        &self,
        pixel: (u32, u32),
        primary: u32,
        t: &Triangle,
        out: &mut Vec<u32>,
    ) {
        self.collect_matches(pixel, primary, |e| e.test_triangle(t), out)
    }

    fn collect_matches(
        &self,
        pixel: (u32, u32),
        primary: u32,
        test: impl Fn(&BoundaryEntry) -> bool,
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        match self.overflow.get(&pixel) {
            Some(v) => {
                for &i in v {
                    let e = &self.entries[i as usize];
                    if test(e) && !out[start..].contains(&e.object) {
                        out.push(e.object);
                    }
                }
            }
            None => {
                let e = &self.entries[primary as usize];
                if test(e) {
                    out.push(e.object);
                }
            }
        }
    }

    /// Like [`BoundaryIndex::test_point_at`] but restricted to the single
    /// primary entry — the paper's original design, used by the
    /// `ablate-boundary` study.
    pub fn test_point_primary_only(&self, primary: u32, p: Point) -> bool {
        self.entries[primary as usize].test_point(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Triangle {
        Triangle::new(Point::ZERO, Point::new(4.0, 0.0), Point::new(0.0, 4.0))
    }

    #[test]
    fn entry_point_tests() {
        let e = BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Triangle(tri()),
        };
        assert!(e.test_point(Point::new(1.0, 1.0)));
        assert!(!e.test_point(Point::new(3.0, 3.0)));

        let s = BoundaryEntry {
            object: 2,
            geom: BoundaryGeom::Segment(Segment::new(Point::ZERO, Point::new(4.0, 0.0))),
        };
        assert!(s.test_point(Point::new(2.0, 0.0)));
        assert!(!s.test_point(Point::new(2.0, 1.0)));

        let p = BoundaryEntry {
            object: 3,
            geom: BoundaryGeom::Point(Point::new(1.0, 1.0)),
        };
        assert!(p.test_point(Point::new(1.0, 1.0)));
        assert!(!p.test_point(Point::new(1.1, 1.0)));
    }

    #[test]
    fn entry_distance_tests() {
        let e = BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::PointDist {
                center: Point::ZERO,
                r: 5.0,
            },
        };
        assert!(e.test_point(Point::new(3.0, 4.0)));
        assert!(!e.test_point(Point::new(3.1, 4.0)));

        let cap = BoundaryEntry {
            object: 2,
            geom: BoundaryGeom::SegmentDist {
                seg: Segment::new(Point::ZERO, Point::new(10.0, 0.0)),
                r: 2.0,
            },
        };
        assert!(cap.test_point(Point::new(5.0, 2.0)));
        assert!(!cap.test_point(Point::new(5.0, 2.1)));
        assert!(cap.test_point(Point::new(-1.0, 0.0))); // end cap
    }

    #[test]
    fn entry_segment_and_triangle_tests() {
        let e = BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Triangle(tri()),
        };
        assert!(e.test_segment(Segment::new(Point::new(-1.0, 1.0), Point::new(5.0, 1.0))));
        assert!(!e.test_segment(Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0))));
        let q = Triangle::new(
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 2.0),
        );
        assert!(e.test_triangle(&q));
        let far = Triangle::new(
            Point::new(50.0, 50.0),
            Point::new(51.0, 50.0),
            Point::new(50.0, 51.0),
        );
        assert!(!e.test_triangle(&far));
    }

    #[test]
    fn index_push_and_lookup() {
        let mut idx = BoundaryIndex::new();
        let a = idx.push(BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Triangle(tri()),
        });
        let b = idx.push(BoundaryEntry {
            object: 2,
            geom: BoundaryGeom::Point(Point::new(9.0, 9.0)),
        });
        assert_eq!((a, b), (0, 1));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.entry(1).object, 2);
    }

    #[test]
    fn overflow_resolution() {
        let mut idx = BoundaryIndex::new();
        // Two triangles from different objects crossing the same pixel.
        let a = idx.push(BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Triangle(tri()),
        });
        let b = idx.push(BoundaryEntry {
            object: 2,
            geom: BoundaryGeom::Triangle(Triangle::new(
                Point::new(3.0, 3.0),
                Point::new(7.0, 3.0),
                Point::new(3.0, 7.0),
            )),
        });
        let px = (5, 5);
        idx.record_pixel(px, a);
        idx.record_pixel(px, b);
        idx.record_pixel((0, 0), a); // single-entry pixel
        idx.finalize_overflow();
        assert_eq!(idx.overflow_pixels(), 1);

        // The canvas stores only `b` (last writer). A point inside entry a's
        // triangle but outside b's must still test true thanks to overflow.
        let p = Point::new(0.5, 0.5);
        assert!(!idx.entry(b).test_point(p));
        assert!(idx.test_point_at(px, b, p));
        // Primary-only (paper semantics) misses it.
        assert!(!idx.test_point_primary_only(b, p));
        // At a non-overflow pixel only the primary is tested.
        assert!(idx.test_point_at((0, 0), a, p));
    }

    #[test]
    fn finalize_dedups() {
        let mut idx = BoundaryIndex::new();
        let a = idx.push(BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Point(Point::ZERO),
        });
        idx.record_pixel((1, 1), a);
        idx.record_pixel((1, 1), a); // duplicate of the same entry
        idx.finalize_overflow();
        assert_eq!(idx.overflow_pixels(), 0);
    }

    #[test]
    fn byte_size_grows() {
        let mut idx = BoundaryIndex::new();
        let empty = idx.byte_size();
        idx.push(BoundaryEntry {
            object: 1,
            geom: BoundaryGeom::Point(Point::ZERO),
        });
        assert!(idx.byte_size() > empty);
    }
}
