//! The four workloads. Each builds its inputs from the seed, sets itself up
//! (several times, see `run::repeat_setup`), checks answers, then drives a
//! closed loop for the measured seconds and hands back its records.
//!
//! They call only the API that survives ROADMAP item 2 (the stable surface
//! listed in the README) and run `EngineConfig::default()`; data is sized
//! against the shipped caches instead of shrinking knobs.

pub mod cluster_join;
pub mod mem_join;
pub mod net_mixed;
pub mod ooc_select;

use crate::run::{Ctx, Outcome};
use spade_datagen::Rng;
use spade_geometry::{BBox, Point};

/// NYC-like extent (the Taxi data region).
pub const NYC: BBox = BBox {
    min: Point::new(-74.3, 40.5),
    max: Point::new(-73.7, 40.95),
};

pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.name {
        "ooc_select" => ooc_select::run(ctx),
        "mem_join" => mem_join::run(ctx),
        "net_mixed" => net_mixed::run(ctx),
        "cluster_join" => cluster_join::run(ctx),
        other => unreachable!("workload '{other}' is not in the catalogue"),
    }
}

/// A query location: uniform over the middle 80% of `extent` on each axis,
/// so constraints around it stay mostly inside the data.
pub fn point_request<R: Rng>(r: &mut R, extent: &BBox) -> Point {
    Point::new(
        extent.min.x + (0.1 + 0.8 * r.gen::<f64>()) * extent.width(),
        extent.min.y + (0.1 + 0.8 * r.gen::<f64>()) * extent.height(),
    )
}

/// The square of half-width `half` around `c`.
pub fn square(c: Point, half: f64) -> BBox {
    BBox::new(
        Point::new(c.x - half, c.y - half),
        Point::new(c.x + half, c.y + half),
    )
}
