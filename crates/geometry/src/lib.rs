//! Geometric foundation for SPADE.
//!
//! This crate provides the vector geometry layer that the canvas model is
//! rasterized from and that exact boundary tests fall back to:
//!
//! * primitive types ([`Point`], [`Segment`], [`Triangle`], [`LineString`],
//!   [`Polygon`], [`MultiPolygon`], [`Geometry`]) and bounding boxes,
//! * exact geometric predicates (orientation, containment, intersection)
//!   used by the boundary index,
//! * distance computations used by distance-based and kNN queries,
//! * ear-clipping polygon triangulation (the paper uses Earcut.hpp; this is
//!   a from-scratch Rust implementation of the same algorithm),
//! * convex hulls (grid-index cell bounds are convex hulls, §5.3),
//! * the EPSG:4326 → EPSG:3857 projection, applied to data at load.

pub mod bbox;
pub mod distance;
pub mod earcut;
pub mod hull;
pub mod point;
pub mod predicates;
pub mod primitives;
pub mod project;

pub use bbox::BBox;
pub use point::Point;
pub use primitives::{Geometry, LineString, MultiPolygon, Polygon, Ring, Segment, Triangle};
