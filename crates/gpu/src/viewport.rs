//! Viewport: the world-space window mapped onto the pixel grid.
//!
//! The paper's vertex shaders transform coordinates inside the valid query
//! region into normalized `[-1, 1] × [-1, 1]` space (§4.2); primitives
//! outside are clipped. Here primitives stay in world space (data are
//! projected at load) and [`Viewport`] is that transform: a world-space
//! [`BBox`] plus a pixel resolution, with helpers to map between the two
//! spaces. The pass driver clips against its `world` box.

use spade_geometry::{BBox, Point};

/// A world-space window rendered onto a `width × height` pixel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    pub world: BBox,
    pub width: u32,
    pub height: u32,
}

impl Viewport {
    /// Create a viewport over `world` at the given resolution. Degenerate
    /// (zero-extent) world boxes are inflated slightly so the transform
    /// stays invertible.
    pub fn new(world: BBox, width: u32, height: u32) -> Self {
        let mut world = world;
        if world.is_empty() {
            world = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
        }
        if world.width() <= 0.0 {
            world.max.x = world.min.x + 1e-9;
        }
        if world.height() <= 0.0 {
            world.max.y = world.min.y + 1e-9;
        }
        Viewport {
            world,
            width: width.max(1),
            height: height.max(1),
        }
    }

    /// A square viewport sized to cover `world` with square pixels: the
    /// resolution of the longer axis is `resolution`, the other axis is
    /// scaled to keep the pixel aspect ratio 1 (so distance canvases stay
    /// metrically meaningful).
    pub fn square_pixels(world: BBox, resolution: u32) -> Self {
        let resolution = resolution.max(1);
        let w = world.width();
        let h = world.height();
        if w <= 0.0 || h <= 0.0 {
            return Viewport::new(world, resolution, resolution);
        }
        if w >= h {
            let ph = ((resolution as f64) * h / w).ceil().max(1.0) as u32;
            Viewport::new(world, resolution, ph)
        } else {
            let pw = ((resolution as f64) * w / h).ceil().max(1.0) as u32;
            Viewport::new(world, pw, resolution)
        }
    }

    /// World-space size of one pixel.
    pub fn pixel_size(&self) -> Point {
        Point::new(
            self.world.width() / self.width as f64,
            self.world.height() / self.height as f64,
        )
    }

    /// Map a world point to continuous pixel coordinates (no clamping).
    #[inline]
    pub fn world_to_pixel_f(&self, p: Point) -> Point {
        Point::new(
            (p.x - self.world.min.x) / self.world.width() * self.width as f64,
            (p.y - self.world.min.y) / self.world.height() * self.height as f64,
        )
    }

    /// Map a world point to the pixel containing it, or `None` when outside
    /// the viewport.
    pub fn world_to_pixel(&self, p: Point) -> Option<(u32, u32)> {
        if !self.world.contains(p) {
            return None;
        }
        let fp = self.world_to_pixel_f(p);
        // Points exactly on the max edge belong to the last pixel.
        let x = (fp.x as u32).min(self.width - 1);
        let y = (fp.y as u32).min(self.height - 1);
        Some((x, y))
    }

    /// World-space center of a pixel.
    pub fn pixel_center(&self, x: u32, y: u32) -> Point {
        let ps = self.pixel_size();
        Point::new(
            self.world.min.x + (x as f64 + 0.5) * ps.x,
            self.world.min.y + (y as f64 + 0.5) * ps.y,
        )
    }

    /// World-space box covered by a pixel.
    pub fn pixel_box(&self, x: u32, y: u32) -> BBox {
        let ps = self.pixel_size();
        let min = Point::new(
            self.world.min.x + x as f64 * ps.x,
            self.world.min.y + y as f64 * ps.y,
        );
        BBox::new(min, min + ps)
    }

    /// The inclusive pixel-coordinate range covered by a world box clipped
    /// to the viewport; `None` when the box misses the viewport entirely.
    pub fn pixel_range(&self, b: &BBox) -> Option<(u32, u32, u32, u32)> {
        let clipped = b.intersection(&self.world)?;
        let lo = self.world_to_pixel_f(clipped.min);
        let hi = self.world_to_pixel_f(clipped.max);
        let x0 = (lo.x.floor().max(0.0) as u32).min(self.width - 1);
        let y0 = (lo.y.floor().max(0.0) as u32).min(self.height - 1);
        // A coordinate exactly on a pixel boundary should not spill into the
        // next pixel, hence the nudge before ceiling.
        let x1 = ((hi.x - 1e-12).floor().max(0.0) as u32).min(self.width - 1);
        let y1 = ((hi.y - 1e-12).floor().max(0.0) as u32).min(self.height - 1);
        Some((x0, y0, x1.max(x0), y1.max(y0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp() -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 10, 10)
    }

    #[test]
    fn world_to_pixel_basics() {
        let v = vp();
        assert_eq!(v.world_to_pixel(Point::new(0.5, 0.5)), Some((0, 0)));
        assert_eq!(v.world_to_pixel(Point::new(9.5, 9.5)), Some((9, 9)));
        // Max edge maps to the last pixel, not out of range.
        assert_eq!(v.world_to_pixel(Point::new(10.0, 10.0)), Some((9, 9)));
        assert_eq!(v.world_to_pixel(Point::new(10.1, 5.0)), None);
        assert_eq!(v.world_to_pixel(Point::new(-0.1, 5.0)), None);
    }

    #[test]
    fn pixel_center_and_box_roundtrip() {
        let v = vp();
        let c = v.pixel_center(3, 7);
        assert_eq!(c, Point::new(3.5, 7.5));
        assert_eq!(v.world_to_pixel(c), Some((3, 7)));
        let b = v.pixel_box(3, 7);
        assert_eq!(b.min, Point::new(3.0, 7.0));
        assert_eq!(b.max, Point::new(4.0, 8.0));
    }

    #[test]
    fn pixel_range_clips() {
        let v = vp();
        let r = v
            .pixel_range(&BBox::new(Point::new(2.5, 3.5), Point::new(4.5, 5.5)))
            .unwrap();
        assert_eq!(r, (2, 3, 4, 5));
        // Fully outside.
        assert!(v
            .pixel_range(&BBox::new(Point::new(20.0, 20.0), Point::new(30.0, 30.0)))
            .is_none());
        // Partially outside gets clamped.
        let r = v
            .pixel_range(&BBox::new(Point::new(-5.0, -5.0), Point::new(1.0, 1.0)))
            .unwrap();
        assert_eq!(r, (0, 0, 0, 0));
    }

    #[test]
    fn pixel_range_boundary_does_not_spill() {
        let v = vp();
        // A box ending exactly at x=3.0 must not include pixel column 3.
        let r = v
            .pixel_range(&BBox::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0)))
            .unwrap();
        assert_eq!(r, (1, 1, 2, 2));
    }

    #[test]
    fn degenerate_world_is_inflated() {
        let v = Viewport::new(BBox::new(Point::ZERO, Point::new(0.0, 5.0)), 4, 4);
        assert!(v.world.width() > 0.0);
        let e = Viewport::new(BBox::empty(), 4, 4);
        assert!(!e.world.is_empty());
    }

    #[test]
    fn square_pixels_keeps_aspect() {
        let v = Viewport::square_pixels(BBox::new(Point::ZERO, Point::new(20.0, 10.0)), 100);
        assert_eq!(v.width, 100);
        assert_eq!(v.height, 50);
        let ps = v.pixel_size();
        assert!((ps.x - ps.y).abs() < 1e-12);
        let v2 = Viewport::square_pixels(BBox::new(Point::ZERO, Point::new(10.0, 20.0)), 100);
        assert_eq!(v2.height, 100);
        assert_eq!(v2.width, 50);
    }

    #[test]
    fn zero_resolution_clamped() {
        let v = Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), 0, 0);
        assert_eq!(v.width, 1);
        assert_eq!(v.height, 1);
    }
}
