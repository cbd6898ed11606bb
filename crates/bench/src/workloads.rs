//! Scaled analogues of the paper's data sets (Table 1, Table 4).
//!
//! Scale factors are ~1000–10000× below the paper (laptop/CI budgets); the
//! structural knobs the experiments vary — selectivity, polygon complexity,
//! distribution skew — are preserved. The `SCALE` environment variable
//! (default 1.0) multiplies all object counts for larger runs.

use spade_core::dataset::{Dataset, IndexedDataset};
use spade_core::Spade;
use spade_datagen::{spider, urban};
use spade_geometry::{BBox, Point, Polygon};
use spade_index::GridIndex;

/// Global scale multiplier (env `SCALE`).
pub fn scale() -> f64 {
    std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).max(1.0) as usize
}

/// NYC-like extent (the Taxi data region).
pub fn nyc_extent() -> BBox {
    BBox::new(Point::new(-74.3, 40.5), Point::new(-73.7, 40.95))
}

/// USA-like extent (the Twitter data region).
pub fn usa_extent() -> BBox {
    BBox::new(Point::new(-125.0, 25.0), Point::new(-66.0, 49.0))
}

/// World-like extent (the Buildings data region).
pub fn world_extent() -> BBox {
    BBox::new(Point::new(-180.0, -60.0), Point::new(180.0, 75.0))
}

/// Taxi-pickup analogue: clustered points over NYC (paper: 1.22 B).
pub fn taxi(n_base: usize) -> Dataset {
    Dataset::from_points(
        "taxi",
        urban::clustered_points(scaled(n_base), &nyc_extent(), 8, 0x7a41),
    )
}

/// Tweet analogue: clustered points over the USA (paper: 2.28 B).
pub fn tweets(n_base: usize) -> Dataset {
    Dataset::from_points(
        "tweets",
        urban::clustered_points(scaled(n_base), &usa_extent(), 24, 0x7feed),
    )
}

/// Neighborhood-boundary analogue (paper: 195 polygons, 105 K points).
pub fn neighborhoods() -> Dataset {
    Dataset::from_polygons(
        "neighborhoods",
        urban::admin_polygons(40, &nyc_extent(), 64, 0x1001),
    )
}

/// Census-tract analogue (paper: 2 165 polygons).
pub fn census() -> Dataset {
    Dataset::from_polygons(
        "census",
        urban::admin_polygons(120, &nyc_extent(), 48, 0x1002),
    )
}

/// County analogue (paper: 3 109 polygons, very high vertex counts).
pub fn counties() -> Dataset {
    Dataset::from_polygons(
        "counties",
        urban::admin_polygons(60, &usa_extent(), 256, 0x1003),
    )
}

/// Zip-code analogue (paper: 32 657 polygons).
pub fn zipcodes() -> Dataset {
    Dataset::from_polygons(
        "zipcodes",
        urban::admin_polygons(300, &usa_extent(), 96, 0x1004),
    )
}

/// OSM-building analogue (paper: 114 M small polygons).
pub fn buildings(n_base: usize) -> Dataset {
    Dataset::from_polygons(
        "buildings",
        urban::building_polygons(scaled(n_base), &world_extent(), 0x1005),
    )
}

/// Country-boundary analogue (paper: 250 polygons).
pub fn countries() -> Dataset {
    Dataset::from_polygons(
        "countries",
        urban::admin_polygons(30, &world_extent(), 192, 0x1006),
    )
}

/// Query constraints mimicking the selection experiments: 10 polygons of
/// varying size (→ varying selectivity) with the given vertex complexity.
pub fn constraints(extent: &BBox, vertices: usize, seed: u64) -> Vec<Polygon> {
    let mut out = Vec::new();
    for i in 0..10 {
        let radius_frac = 0.03 + 0.022 * i as f64;
        out.extend(urban::constraint_polygons(
            1,
            extent,
            radius_frac,
            vertices,
            seed + i,
        ));
    }
    out
}

/// Build an out-of-core handle for a data set (in-memory block store —
/// bytes are still fully accounted — sized so several cells exist).
pub fn index(spade: &Spade, data: &Dataset) -> IndexedDataset {
    let cell = GridIndex::cell_size_for_budget(
        &data.extent,
        data.byte_size() as u64,
        spade.config.max_cell_bytes,
    );
    let grid = GridIndex::build(None, &data.objects, cell).expect("grid build");
    IndexedDataset::new(data.name.clone(), data.kind, grid)
}

/// Spider synthetic point sets of §6.6 scaled ~1000×: Table 4 uses
/// 40–200 M, we default to 40–200 K.
pub fn spider_points(n_millions_paper: usize, gaussian: bool, seed: u64) -> Dataset {
    let n = scaled(n_millions_paper * 1000);
    let pts = if gaussian {
        spider::gaussian_points(n, seed)
    } else {
        spider::uniform_points(n, seed)
    };
    Dataset::from_points(if gaussian { "gauss-pts" } else { "uni-pts" }, pts)
}

/// Spider synthetic box sets (Table 4: 10–50 M, scaled to 10–50 K).
pub fn spider_boxes(n_millions_paper: usize, gaussian: bool, seed: u64) -> Dataset {
    let n = scaled(n_millions_paper * 1000);
    let boxes = if gaussian {
        spider::gaussian_boxes(n, 0.01, seed)
    } else {
        spider::uniform_boxes(n, 0.01, seed)
    };
    Dataset::from_polygons(if gaussian { "gauss-box" } else { "uni-box" }, boxes)
}

/// Parcel sets for the synthetic joins (paper: 1 000 – 10 000 parcels).
pub fn parcels(n: usize) -> Dataset {
    Dataset::from_polygons("parcels", spider::parcels(n, 0.03, 0xbeef))
}

/// The §6.6 selection constraint: one neighborhood-like polygon centered
/// on the unit square, scaled so its bbox width is `extent_frac`.
pub fn unit_square_constraint(extent_frac: f64) -> Polygon {
    let base = urban::constraint_polygons(
        1,
        &BBox::new(Point::ZERO, Point::new(1.0, 1.0)),
        0.25,
        64,
        0x51,
    )
    .pop()
    .expect("constraint");
    // Scale to the target bbox width, centered at (0.5, 0.5).
    let bb = base.bbox();
    let s = extent_frac / bb.width().max(1e-12);
    let c = Point::new(0.5, 0.5);
    let pts = base
        .exterior
        .points
        .iter()
        .map(|&p| c + (p - bb.center()) * s)
        .collect();
    Polygon::new(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::{dataset::DatasetKind, EngineConfig};

    #[test]
    fn real_data_analogues_have_expected_shapes() {
        let t = taxi(2000);
        assert_eq!(t.kind, DatasetKind::Points);
        assert!(nyc_extent().contains_box(&t.extent));
        let c = counties();
        // County polygons must be far more complex than neighborhoods.
        let county_verts: usize = c.objects.iter().map(|(_, g)| g.num_vertices()).sum();
        let n = neighborhoods();
        let neigh_verts: usize = n.objects.iter().map(|(_, g)| g.num_vertices()).sum();
        assert!(county_verts / c.len() > neigh_verts / n.len());
    }

    #[test]
    fn constraints_vary_in_size() {
        let cs = constraints(&nyc_extent(), 48, 1);
        assert_eq!(cs.len(), 10);
        assert!(cs[9].bbox().area() > cs[0].bbox().area() * 2.0);
    }

    #[test]
    fn index_builds_multiple_cells() {
        let spade = Spade::new(EngineConfig {
            max_cell_bytes: 64 << 10,
            ..EngineConfig::test_small()
        });
        let data = taxi(5000);
        let idx = index(&spade, &data);
        assert!(idx.grid().num_cells() > 1);
        assert_eq!(idx.grid().num_objects(), data.len());
    }

    #[test]
    fn unit_square_constraint_scales() {
        for f in [0.1, 0.3, 0.5] {
            let c = unit_square_constraint(f);
            assert!(
                (c.bbox().width() - f).abs() < 1e-9,
                "width {}",
                c.bbox().width()
            );
            assert!(c.bbox().center().dist(Point::new(0.5, 0.5)) < 1e-9);
        }
    }

    #[test]
    fn spider_workloads() {
        let u = spider_points(40, false, 1);
        let g = spider_points(40, true, 1);
        assert_eq!(u.len(), g.len());
        let b = spider_boxes(10, false, 2);
        assert_eq!(b.kind, DatasetKind::Polygons);
        let p = parcels(500);
        assert_eq!(p.len(), 500);
    }
}
