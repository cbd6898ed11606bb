//! Coordinate-system projections.
//!
//! SPADE converts degree-based EPSG:4326 (longitude/latitude) coordinates to
//! the meter-based EPSG:3857 Web-Mercator system for distance and kNN
//! queries (§4.2, §5.1). The paper does it in the vertex shader, on the
//! fly; this engine applies the same formulas once, at load
//! ([`geometry_to_mercator`]), so every pass already draws in meters.

use crate::point::Point;
use crate::primitives::{Geometry, LineString, MultiPolygon, Polygon, Ring};

/// Earth radius used by Web Mercator (meters).
pub const EARTH_RADIUS_M: f64 = 6_378_137.0;

/// Latitude limit of Web Mercator: beyond ±85.051129° the projection
/// diverges; inputs are clamped like mapping stacks do.
pub const MAX_LATITUDE: f64 = 85.051_128_779_806_59;

/// Project a longitude/latitude (degrees) point to EPSG:3857 meters.
pub fn lonlat_to_mercator(p: Point) -> Point {
    let lon = p.x.clamp(-180.0, 180.0);
    let lat = p.y.clamp(-MAX_LATITUDE, MAX_LATITUDE);
    let x = EARTH_RADIUS_M * lon.to_radians();
    let y = EARTH_RADIUS_M * ((std::f64::consts::FRAC_PI_4 + lat.to_radians() / 2.0).tan()).ln();
    Point::new(x, y)
}

/// Project a whole geometry (every coordinate) to EPSG:3857.
pub fn geometry_to_mercator(g: &Geometry) -> Geometry {
    map_geometry(g, lonlat_to_mercator)
}

/// Apply `f` to every coordinate of a geometry.
pub fn map_geometry(g: &Geometry, f: impl Fn(Point) -> Point + Copy) -> Geometry {
    match g {
        Geometry::Point(p) => Geometry::Point(f(*p)),
        Geometry::LineString(l) => {
            Geometry::LineString(LineString::new(l.points.iter().map(|&p| f(p)).collect()))
        }
        Geometry::Polygon(p) => Geometry::Polygon(map_polygon(p, f)),
        Geometry::MultiPolygon(m) => Geometry::MultiPolygon(MultiPolygon::new(
            m.polygons.iter().map(|p| map_polygon(p, f)).collect(),
        )),
    }
}

fn map_polygon(p: &Polygon, f: impl Fn(Point) -> Point + Copy) -> Polygon {
    Polygon {
        exterior: Ring {
            points: p.exterior.points.iter().map(|&q| f(q)).collect(),
        },
        holes: p
            .holes
            .iter()
            .map(|h| Ring {
                points: h.points.iter().map(|&q| f(q)).collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_maps_to_origin() {
        let p = lonlat_to_mercator(Point::ZERO);
        assert!(p.x.abs() < 1e-6 && p.y.abs() < 1e-6);
    }

    #[test]
    fn known_city_coordinates() {
        // New York City: lon -74.0060, lat 40.7128.
        let p = lonlat_to_mercator(Point::new(-74.0060, 40.7128));
        assert!((p.x - -8_238_310.0).abs() < 1_000.0, "x = {}", p.x);
        assert!((p.y - 4_970_071.0).abs() < 1_000.0, "y = {}", p.y);
    }

    #[test]
    fn latitude_is_clamped() {
        let p = lonlat_to_mercator(Point::new(0.0, 89.9));
        let q = lonlat_to_mercator(Point::new(0.0, MAX_LATITUDE));
        assert_eq!(p, q);
        assert!(p.y.is_finite());
    }

    #[test]
    fn projection_preserves_x_order_and_y_order() {
        let a = lonlat_to_mercator(Point::new(-10.0, 10.0));
        let b = lonlat_to_mercator(Point::new(10.0, 20.0));
        assert!(a.x < b.x);
        assert!(a.y < b.y);
    }

    #[test]
    fn geometry_projection_maps_all_coordinates() {
        let poly = Polygon::new(vec![
            Point::new(-74.02, 40.70),
            Point::new(-73.98, 40.70),
            Point::new(-73.98, 40.73),
            Point::new(-74.02, 40.73),
        ]);
        let g = geometry_to_mercator(&Geometry::Polygon(poly));
        let b = g.bbox();
        // ~0.04° of longitude near NYC is ~4.4 km in Mercator meters.
        assert!((b.width() - 4452.0).abs() < 50.0, "width = {}", b.width());
        assert!(b.height() > 3000.0 && b.height() < 6000.0);
    }

    #[test]
    fn mercator_meter_scale_at_equator() {
        // One degree of longitude at the equator is ~111.32 km.
        let a = lonlat_to_mercator(Point::new(0.0, 0.0));
        let b = lonlat_to_mercator(Point::new(1.0, 0.0));
        assert!(((b.x - a.x) - 111_319.49).abs() < 1.0);
    }
}
