//! Geometric primitives: segments, triangles, rings, polylines, polygons.
//!
//! SPADE's canvas model supports three primitive classes — points, lines and
//! polygons (§2.1); any [`Geometry`] is a combination of these. Polygons are
//! decomposed into triangles before rendering (§4.2), so [`Triangle`] is the
//! unit both the rasterizer and the boundary index operate on.

use crate::bbox::BBox;
use crate::earcut;
use crate::point::Point;

/// A directed line segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

impl Segment {
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    pub fn bbox(&self) -> BBox {
        BBox::new(self.a, self.b)
    }

    pub fn midpoint(&self) -> Point {
        self.a.lerp(self.b, 0.5)
    }

    /// Direction vector `b - a` (not normalized).
    pub fn dir(&self) -> Point {
        self.b - self.a
    }
}

/// A triangle, the unit of polygon decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    pub a: Point,
    pub b: Point,
    pub c: Point,
}

impl Triangle {
    pub const fn new(a: Point, b: Point, c: Point) -> Self {
        Triangle { a, b, c }
    }

    /// Signed area: positive for counter-clockwise winding.
    pub fn signed_area(&self) -> f64 {
        0.5 * (self.b - self.a).cross(self.c - self.a)
    }

    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    pub fn bbox(&self) -> BBox {
        BBox::from_points([self.a, self.b, self.c])
    }

    pub fn vertices(&self) -> [Point; 3] {
        [self.a, self.b, self.c]
    }

    pub fn edges(&self) -> [Segment; 3] {
        [
            Segment::new(self.a, self.b),
            Segment::new(self.b, self.c),
            Segment::new(self.c, self.a),
        ]
    }

    pub fn centroid(&self) -> Point {
        (self.a + self.b + self.c) / 3.0
    }
}

/// A polyline with at least two vertices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineString {
    pub points: Vec<Point>,
}

impl LineString {
    pub fn new(points: Vec<Point>) -> Self {
        LineString { points }
    }

    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.points.iter().copied())
    }
}

/// A closed ring of vertices. The closing edge (last → first) is implicit;
/// the vertex list must not repeat the first vertex at the end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ring {
    pub points: Vec<Point>,
}

impl Ring {
    /// Build a ring, dropping a duplicated closing vertex if present.
    pub fn new(mut points: Vec<Point>) -> Self {
        if points.len() >= 2 && points.first() == points.last() {
            points.pop();
        }
        Ring { points }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Signed area by the shoelace formula: positive for CCW winding.
    pub fn signed_area(&self) -> f64 {
        let n = self.points.len();
        if n < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.points[i];
            let q = self.points[(i + 1) % n];
            acc += p.cross(q);
        }
        acc * 0.5
    }

    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Reverse orientation in place.
    pub fn reverse(&mut self) {
        self.points.reverse();
    }

    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.points.iter().copied())
    }

    /// All edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.points.len();
        (0..n).map(move |i| Segment::new(self.points[i], self.points[(i + 1) % n]))
    }

    /// The area centroid of the ring interior.
    pub fn centroid(&self) -> Point {
        let n = self.points.len();
        if n == 0 {
            return Point::ZERO;
        }
        let a = self.signed_area();
        if a.abs() < 1e-30 {
            // Degenerate ring: fall back to the vertex mean.
            let sum = self.points.iter().fold(Point::ZERO, |acc, &p| acc + p);
            return sum / n as f64;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.points[i];
            let q = self.points[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

/// A polygon: one exterior ring plus zero or more interior rings (holes).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    pub exterior: Ring,
    pub holes: Vec<Ring>,
}

impl Polygon {
    /// A hole-free polygon from exterior vertices.
    pub fn new(exterior: Vec<Point>) -> Self {
        Polygon {
            exterior: Ring::new(exterior),
            holes: Vec::new(),
        }
    }

    pub fn with_holes(exterior: Vec<Point>, holes: Vec<Vec<Point>>) -> Self {
        Polygon {
            exterior: Ring::new(exterior),
            holes: holes.into_iter().map(Ring::new).collect(),
        }
    }

    /// An axis-aligned rectangle polygon.
    pub fn rect(bbox: BBox) -> Self {
        Polygon::new(bbox.corners().to_vec())
    }

    /// A regular `n`-gon approximation of a circle, CCW.
    pub fn circle(center: Point, radius: f64, n: usize) -> Self {
        let n = n.max(3);
        let pts = (0..n)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point::new(center.x + radius * t.cos(), center.y + radius * t.sin())
            })
            .collect();
        Polygon::new(pts)
    }

    pub fn bbox(&self) -> BBox {
        self.exterior.bbox()
    }

    /// Area = exterior area − hole areas.
    pub fn area(&self) -> f64 {
        let mut a = self.exterior.area();
        for h in &self.holes {
            a -= h.area();
        }
        a.max(0.0)
    }

    pub fn centroid(&self) -> Point {
        // Weighted combination of the exterior and (negative) hole centroids.
        let ea = self.exterior.area();
        let mut cx = self.exterior.centroid() * ea;
        let mut total = ea;
        for h in &self.holes {
            let ha = h.area();
            cx = cx - h.centroid() * ha;
            total -= ha;
        }
        if total.abs() < 1e-30 {
            self.exterior.centroid()
        } else {
            cx / total
        }
    }

    /// Total vertex count across all rings.
    pub fn num_vertices(&self) -> usize {
        self.exterior.len() + self.holes.iter().map(Ring::len).sum::<usize>()
    }

    /// All boundary edges (exterior + holes).
    pub fn boundary_edges(&self) -> Vec<Segment> {
        let mut out: Vec<Segment> = self.exterior.edges().collect();
        for h in &self.holes {
            out.extend(h.edges());
        }
        out
    }

    /// Decompose into triangles by ear clipping (§4.2).
    pub fn triangulate(&self) -> Vec<Triangle> {
        earcut::triangulate_polygon(self)
    }
}

/// A collection of polygons treated as one geometric object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiPolygon {
    pub polygons: Vec<Polygon>,
}

impl MultiPolygon {
    pub fn new(polygons: Vec<Polygon>) -> Self {
        MultiPolygon { polygons }
    }

    pub fn bbox(&self) -> BBox {
        let mut b = BBox::empty();
        for p in &self.polygons {
            b = b.union(&p.bbox());
        }
        b
    }

    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }

    pub fn num_vertices(&self) -> usize {
        self.polygons.iter().map(Polygon::num_vertices).sum()
    }
}

/// Any geometric object SPADE can store: a point, a polyline, a polygon or a
/// multi-polygon (the paper treats "lines and polygons" as shorthand for
/// polylines and multi-polygons, §3 footnote 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    LineString(LineString),
    Polygon(Polygon),
    MultiPolygon(MultiPolygon),
}

impl Geometry {
    pub fn bbox(&self) -> BBox {
        match self {
            Geometry::Point(p) => BBox::new(*p, *p),
            Geometry::LineString(l) => l.bbox(),
            Geometry::Polygon(p) => p.bbox(),
            Geometry::MultiPolygon(m) => m.bbox(),
        }
    }

    /// A representative point used for grid-cell assignment (§5.3 assigns an
    /// object to the cell containing its centroid).
    pub fn centroid(&self) -> Point {
        match self {
            Geometry::Point(p) => *p,
            Geometry::LineString(l) => {
                if l.points.is_empty() {
                    Point::ZERO
                } else {
                    let sum = l.points.iter().fold(Point::ZERO, |acc, &p| acc + p);
                    sum / l.points.len() as f64
                }
            }
            Geometry::Polygon(p) => p.centroid(),
            Geometry::MultiPolygon(m) => {
                let mut total = 0.0;
                let mut c = Point::ZERO;
                for p in &m.polygons {
                    let a = p.area().max(1e-300);
                    c = c + p.centroid() * a;
                    total += a;
                }
                if total > 0.0 {
                    c / total
                } else {
                    Point::ZERO
                }
            }
        }
    }

    /// Total coordinate count (the paper's "# Points" column in Table 1).
    pub fn num_vertices(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.points.len(),
            Geometry::Polygon(p) => p.num_vertices(),
            Geometry::MultiPolygon(m) => m.num_vertices(),
        }
    }

    /// Approximate in-memory byte size in the vector format (§4.2): 16
    /// bytes of header plus 16 per vertex.
    pub fn byte_size(&self) -> u64 {
        16 + self.num_vertices() as u64 * 16
    }

    /// The polygons of this geometry, if it is areal.
    pub fn polygons(&self) -> &[Polygon] {
        match self {
            Geometry::Polygon(p) => std::slice::from_ref(p),
            Geometry::MultiPolygon(m) => &m.polygons,
            _ => &[],
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<MultiPolygon> for Geometry {
    fn from(m: MultiPolygon) -> Self {
        Geometry::MultiPolygon(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
    }

    #[test]
    fn ring_drops_closing_vertex() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_signed_area_and_winding() {
        let square = unit_square().exterior;
        assert!((square.signed_area() - 1.0).abs() < 1e-12);
        assert!(square.is_ccw());
        let mut cw = square.clone();
        cw.reverse();
        assert!((cw.signed_area() + 1.0).abs() < 1e-12);
        assert!(!cw.is_ccw());
    }

    #[test]
    fn ring_centroid_square() {
        let c = unit_square().exterior.centroid();
        assert!(c.dist(Point::new(0.5, 0.5)) < 1e-12);
    }

    #[test]
    fn degenerate_ring_centroid_falls_back() {
        let r = Ring::new(vec![Point::new(1.0, 1.0), Point::new(3.0, 3.0)]);
        assert_eq!(r.signed_area(), 0.0);
        assert_eq!(r.centroid(), Point::new(2.0, 2.0));
    }

    #[test]
    fn polygon_area_with_hole() {
        let poly = Polygon::with_holes(
            vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(4.0, 4.0),
                Point::new(0.0, 4.0),
            ],
            vec![vec![
                Point::new(1.0, 1.0),
                Point::new(2.0, 1.0),
                Point::new(2.0, 2.0),
                Point::new(1.0, 2.0),
            ]],
        );
        assert!((poly.area() - 15.0).abs() < 1e-12);
        assert_eq!(poly.num_vertices(), 8);
        assert_eq!(poly.boundary_edges().len(), 8);
    }

    #[test]
    fn triangle_measurements() {
        let t = Triangle::new(Point::ZERO, Point::new(2.0, 0.0), Point::new(0.0, 2.0));
        assert!((t.signed_area() - 2.0).abs() < 1e-12);
        assert_eq!(t.centroid(), Point::new(2.0 / 3.0, 2.0 / 3.0));
        assert_eq!(t.edges().len(), 3);
    }

    #[test]
    fn linestring_length_and_segments() {
        let l = LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]);
        assert_eq!(l.segments().count(), 2);
        assert!((l.length() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn circle_polygon_approximates_area() {
        let c = Polygon::circle(Point::new(5.0, 5.0), 2.0, 256);
        let expected = std::f64::consts::PI * 4.0;
        assert!((c.area() - expected).abs() / expected < 1e-3);
        assert!(c.exterior.is_ccw());
    }

    #[test]
    fn multipolygon_aggregates() {
        let m = MultiPolygon::new(vec![unit_square(), {
            let mut p = unit_square();
            for q in &mut p.exterior.points {
                q.x += 10.0;
            }
            p
        }]);
        assert!((m.area() - 2.0).abs() < 1e-12);
        assert_eq!(m.num_vertices(), 8);
        assert_eq!(m.bbox().max, Point::new(11.0, 1.0));
    }

    #[test]
    fn geometry_dispatch() {
        let g: Geometry = unit_square().into();
        assert_eq!(g.num_vertices(), 4);
        assert!(g.centroid().dist(Point::new(0.5, 0.5)) < 1e-12);
        let p: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(p.bbox().min, Point::new(1.0, 2.0));
        assert!(p.polygons().is_empty());
    }

    #[test]
    fn rect_polygon_matches_bbox() {
        let b = BBox::new(Point::new(1.0, 2.0), Point::new(3.0, 5.0));
        let r = Polygon::rect(b);
        assert_eq!(r.bbox(), b);
        assert!((r.area() - b.area()).abs() < 1e-12);
    }
}
