//! Assembled primitives.
//!
//! The graphics pipeline supports three primitive types — points, lines and
//! triangles (§2.2); polygons are rendered as triangle collections (§4.2).
//! Each primitive carries its world-space vertices plus four 32-bit
//! attributes that flow unchanged to the fragment shader (SPADE uses them
//! for the object identifier and the boundary-index pointer).

use spade_geometry::{BBox, Point};

/// An assembled primitive ready for rasterization. Attributes are flat
/// (per-primitive): SPADE's shaders never interpolate them, they identify
/// the geometric object the primitive belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Primitive {
    Point {
        p: Point,
        attrs: [u32; 4],
    },
    Line {
        a: Point,
        b: Point,
        attrs: [u32; 4],
    },
    Triangle {
        a: Point,
        b: Point,
        c: Point,
        attrs: [u32; 4],
    },
}

impl Primitive {
    pub fn point(p: Point, attrs: [u32; 4]) -> Self {
        Primitive::Point { p, attrs }
    }

    pub fn line(a: Point, b: Point, attrs: [u32; 4]) -> Self {
        Primitive::Line { a, b, attrs }
    }

    pub fn triangle(a: Point, b: Point, c: Point, attrs: [u32; 4]) -> Self {
        Primitive::Triangle { a, b, c, attrs }
    }

    pub fn attrs(&self) -> [u32; 4] {
        match self {
            Primitive::Point { attrs, .. }
            | Primitive::Line { attrs, .. }
            | Primitive::Triangle { attrs, .. } => *attrs,
        }
    }

    pub fn bbox(&self) -> BBox {
        match self {
            Primitive::Point { p, .. } => BBox::new(*p, *p),
            Primitive::Line { a, b, .. } => BBox::new(*a, *b),
            Primitive::Triangle { a, b, c, .. } => BBox::from_points([*a, *b, *c]),
        }
    }
}

/// An element of a pass's input list: it knows the primitive it draws as,
/// given its index in the list (primitive assembly).
pub trait Assemble: Sync {
    fn assemble(&self, index: u32) -> Primitive;
}

impl Assemble for Primitive {
    fn assemble(&self, _: u32) -> Primitive {
        *self
    }
}

/// The one point convention: a point object `(id, position)` draws as a
/// point primitive with `attrs = [id, index, 0, 0]`, so every shader over a
/// point list reads the id from `frag.attrs[0]` and the point's position in
/// the list — its way back to the exact coordinates — from `frag.attrs[1]`.
impl Assemble for (u32, Point) {
    fn assemble(&self, index: u32) -> Primitive {
        Primitive::point(self.1, [self.0, index, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_per_kind() {
        let t = Primitive::triangle(
            Point::ZERO,
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
            [0; 4],
        );
        assert_eq!(t.bbox().max, Point::new(4.0, 3.0));
        let l = Primitive::line(Point::new(2.0, 5.0), Point::new(-1.0, 1.0), [0; 4]);
        assert_eq!(l.bbox().min, Point::new(-1.0, 1.0));
        let p = Primitive::point(Point::new(1.0, 1.0), [0; 4]);
        assert_eq!(p.bbox().area(), 0.0);
    }
}
