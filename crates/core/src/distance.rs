//! Distance-based selections and joins (§4.2, §5.2).
//!
//! Distance queries differ from spatial selections/joins only in how the
//! constraint canvas is created: geometry shaders generate circles around
//! points, capsules around segments and buffers around polygons, and the
//! boundary index stores the source primitive plus the distance so the
//! exact test is a distance comparison. This is what lets SPADE answer
//! *accurate* distance queries against complex geometry, which systems
//! like GeoSpark approximate via centroids (§4.2).
//!
//! For distance joins the constraint side's "layer index" cannot exist in
//! advance (the radius arrives with the query) — it is built on the fly
//! (§5.2): circles are greedily packed into non-overlapping layers so each
//! layer renders into one canvas with exact per-pixel attribution.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, IndexedDataset, ReadView};
use crate::engine::{Constraint, Spade};
use crate::join::{scan_points_for_pairs, PairWalk, Pairs};
use crate::select::{select_points_mem, select_polygons_mem, CellWalk};
use crate::stats::QueryOutput;
use spade_canvas::create::PreparedPolygon;
use spade_canvas::distance as dcanvas;
use spade_geometry::{BBox, LineString, Point, Polygon, Segment};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The geometry a distance constraint measures from.
#[derive(Debug, Clone, PartialEq)]
pub enum DistanceConstraint {
    Point(Point),
    Line(LineString),
    Polygon(Polygon),
}

impl DistanceConstraint {
    fn bbox(&self) -> BBox {
        match self {
            DistanceConstraint::Point(p) => BBox::new(*p, *p),
            DistanceConstraint::Line(l) => l.bbox(),
            DistanceConstraint::Polygon(p) => p.bbox(),
        }
    }

    /// Exact distance (the test oracle; the engine itself goes through the
    /// canvas + boundary index).
    pub fn distance_to(&self, p: Point) -> f64 {
        match self {
            DistanceConstraint::Point(c) => p.dist(*c),
            DistanceConstraint::Line(l) => {
                spade_geometry::distance::point_linestring_distance(p, l)
            }
            DistanceConstraint::Polygon(poly) => {
                spade_geometry::distance::point_polygon_distance(p, poly)
            }
        }
    }
}

/// The viewport of a distance canvas over `region` (the constraint's
/// bounds inflated by its radius), padded so the rim rasterizes inside.
fn distance_viewport(region: BBox, resolution: u32) -> spade_gpu::Viewport {
    let pad = (region.width().max(region.height()) * 1e-6).max(1e-9);
    spade_gpu::Viewport::square_pixels(region.inflate(pad), resolution)
}

/// Render the constraint canvas for "within `r` of G" (§4.2) at
/// `resolution` (the boundary index keeps it exact at any).
pub(crate) fn build_distance_constraint(
    spade: &Spade,
    constraint: &DistanceConstraint,
    r: f64,
    resolution: u32,
    polygon_time: &mut Duration,
) -> Constraint {
    let vp = distance_viewport(constraint.bbox().inflate(r), resolution);
    match constraint {
        DistanceConstraint::Point(p) => {
            let layer = dcanvas::distance_canvas_points(&spade.pipeline, vp, &[(0, *p)], r);
            Constraint::from_layer(layer, vp, 1)
        }
        DistanceConstraint::Line(l) => {
            let segs: Vec<(u32, Segment)> = l.segments().map(|s| (0, s)).collect();
            let layer = dcanvas::distance_canvas_segments(&spade.pipeline, vp, &segs, r);
            Constraint::from_layer(layer, vp, l.points.len())
        }
        DistanceConstraint::Polygon(poly) => {
            let t0 = Instant::now();
            let prepared = PreparedPolygon::prepare(0, poly);
            *polygon_time += t0.elapsed();
            let nv = prepared.num_vertices();
            let layer = dcanvas::distance_canvas_polygon(&spade.pipeline, vp, &prepared, r);
            Constraint::from_layer(layer, vp, nv)
        }
    }
}

/// Distance selection: ids of points within `r` of the constraint.
pub fn distance_select(
    spade: &Spade,
    data: &Dataset,
    constraint: &DistanceConstraint,
    r: f64,
) -> QueryOutput<Vec<u32>> {
    let mut qspan = crate::trace::span("query.distance");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let resolution = spade.config.distance_resolution();
    let c = build_distance_constraint(spade, constraint, r, resolution, &mut polygon_time);
    let ids = select_points_mem(spade, &data.as_points(), &c);
    let n = ids.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput { result: ids, stats }
}

/// Out-of-core distance selection (§5.3's strategy applied to distance
/// constraints): the same distance canvas first filters the grid cells —
/// its boundary entries answer hull-triangle distance tests exactly — and
/// the matching cells inside `ctx.scope` stream through the in-memory pass
/// (the staged delta merges only when the scope owns it).
pub fn distance_select_indexed(
    spade: &Spade,
    data: &crate::dataset::IndexedDataset,
    constraint: &DistanceConstraint,
    r: f64,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<u32>>> {
    let qspan = crate::trace::span("query.distance.indexed");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let walk = CellWalk::plan(data, ctx, &mut polygon_time)?;
    let resolution = spade.config.distance_resolution();
    let c = build_distance_constraint(spade, constraint, r, resolution, &mut polygon_time);
    let mut ids = Vec::new();
    let stream = walk.run(spade, ctx, &c, &c, |cell| {
        ids.extend(select_points_mem(spade, &cell.as_points(), &c))
    })?;
    Ok(walk.finish_ids(spade, measure, qspan, polygon_time, ids, stream))
}

/// Pack disks into layers so no two disks in a layer overlap — the
/// on-the-fly layer index for distance joins (§5.2). Greedy first-fit with
/// a spatial hash; returns indices into `disks` per layer.
pub fn disk_layers(disks: &[(Point, f64)]) -> Vec<Vec<usize>> {
    let max_r = disks.iter().map(|d| d.1).fold(0.0, f64::max);
    let cell = (2.0 * max_r).max(1e-9);
    // One spatial hash per layer.
    let mut layers: Vec<Vec<usize>> = Vec::new();
    let mut hashes: Vec<std::collections::HashMap<(i64, i64), Vec<usize>>> = Vec::new();
    let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
    for (i, (c, r)) in disks.iter().enumerate() {
        let (kx, ky) = key(*c);
        let mut placed = false;
        for (layer, hash) in layers.iter_mut().zip(hashes.iter_mut()) {
            let mut conflict = false;
            'scan: for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(others) = hash.get(&(kx + dx, ky + dy)) {
                        for &j in others {
                            let (cj, rj) = disks[j];
                            if c.dist(cj) <= r + rj {
                                conflict = true;
                                break 'scan;
                            }
                        }
                    }
                }
            }
            if !conflict {
                layer.push(i);
                hash.entry((kx, ky)).or_default().push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            let mut hash = std::collections::HashMap::new();
            hash.insert((kx, ky), vec![i]);
            hashes.push(hash);
            layers.push(vec![i]);
        }
    }
    layers
}

/// Type-1 distance join (§5.2): all pairs `(x ∈ D1, y ∈ D2)` with
/// `distance(x, y) ≤ r`, both sides point sets. Constraint canvases are
/// created from `d1` (the paper uses the smaller side; callers pass it
/// first).
pub fn distance_join(spade: &Spade, d1: &Dataset, d2: &Dataset, r: f64) -> QueryOutput<Pairs> {
    distance_join_multi(spade, &with_radius(&d1.as_points(), r), d2)
}

/// The type-1 constraints of a point cell: every point with radius `r`.
fn with_radius(points: &[(u32, Point)], r: f64) -> Vec<(u32, Point, f64)> {
    points.iter().map(|&(id, p)| (id, p, r)).collect()
}

/// Type-2 distance join (§5.2): per-object radii `r_i`. Returns
/// `(d1 id, d2 id)` pairs with `distance ≤ r_i` — the one-pair case of the
/// out-of-core walk: one constraint cell's canvases, scanned once.
pub fn distance_join_multi(
    spade: &Spade,
    constraints: &[(u32, Point, f64)],
    d2: &Dataset,
) -> QueryOutput<Pairs> {
    let mut qspan = crate::trace::span("query.distance_join");
    let measure = spade.begin();
    let mut pairs = within_radii(spade, constraints, &d2.as_points());
    pairs.sort_unstable();
    pairs.dedup();
    let n = pairs.len() as u64;
    qspan.attr("pairs", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    QueryOutput {
        result: pairs,
        stats,
    }
}

/// The on-the-fly layer index of one constraint cell (§5.2): one canvas
/// per layer of non-overlapping disks, rendered as the iterator advances.
fn disk_canvases<'a>(
    spade: &'a Spade,
    constraints: &'a [(u32, Point, f64)],
) -> impl Iterator<Item = Constraint> + 'a {
    let disks: Vec<(Point, f64)> = constraints.iter().map(|&(_, c, r)| (c, r)).collect();
    disk_layers(&disks).into_iter().map(move |layer| {
        let layer_constraints: Vec<(u32, Point, f64)> =
            layer.iter().map(|&i| constraints[i]).collect();
        let region = layer_constraints
            .iter()
            .fold(BBox::empty(), |region, (_, c, r)| {
                region.union(&BBox::new(*c, *c).inflate(*r))
            });
        let vp = distance_viewport(region, spade.config.distance_resolution());
        let layer_canvas =
            dcanvas::distance_canvas_points_multi(&spade.pipeline, vp, &layer_constraints);
        Constraint::from_layer(layer_canvas, vp, layer_constraints.len())
    })
}

/// The distance-join kernel over one (constraint cell, point cell) pair:
/// `(constraint id, point id)` for every point within its constraint's
/// disk, unordered — one pass over the points per layer.
pub(crate) fn within_radii(
    spade: &Spade,
    constraints: &[(u32, Point, f64)],
    points: &[(u32, Point)],
) -> Pairs {
    disk_canvases(spade, constraints)
        .flat_map(|canvas| scan_points_for_pairs(spade, &canvas, points))
        .collect()
}

/// [`within_radii`] for the pair walk, which is left-major: the canvases
/// of a constraint cell stay rendered across the consecutive pairs that
/// share it, one rendering per residency rather than one per right cell.
#[derive(Default)]
pub(crate) struct ResidentDisks(Option<(Option<u32>, Vec<Constraint>)>);

impl ResidentDisks {
    /// The kernel over `points` for constraint cell `cell` (`None`: the
    /// staged delta), whose disks `constraints` lists when the cell is new.
    pub(crate) fn within_radii(
        &mut self,
        spade: &Spade,
        cell: Option<u32>,
        constraints: impl FnOnce() -> Vec<(u32, Point, f64)>,
        points: &[(u32, Point)],
    ) -> Pairs {
        if self.0.as_ref().map(|(of, _)| *of) != Some(cell) {
            self.0 = Some((cell, disk_canvases(spade, &constraints()).collect()));
        }
        let (_, canvases) = self.0.as_ref().expect("rendered above");
        canvases
            .iter()
            .flat_map(|canvas| scan_points_for_pairs(spade, canvas, points))
            .collect()
    }
}

/// The filter phase of the distance families: per left slot, the right
/// slots whose hull comes within `reach(left slot)` of its hull — the
/// filter of [`distance_select_indexed`] around a polygon, at the coarse
/// filter resolution.
pub(crate) fn hulls_within(
    spade: &Spade,
    (view1, slots1): (&ReadView<'_>, Range<u32>),
    (view2, slots2): (&ReadView<'_>, Range<u32>),
    polygon_time: &mut Duration,
    reach: impl Fn(u32) -> f64,
) -> Pairs {
    let right = view2.prepared_hulls(slots2, polygon_time);
    let resolution = spade.config.filter_resolution();
    let mut pairs = Vec::new();
    for l in slots1 {
        let hull = DistanceConstraint::Polygon(view1.hull(l).into_owned());
        let near = build_distance_constraint(spade, &hull, reach(l), resolution, polygon_time);
        pairs.extend(
            select_polygons_mem(spade, &right, &near)
                .into_iter()
                .map(|r| (l, r)),
        );
    }
    pairs
}

/// Out-of-core type-1 distance join: a `PairWalk` over the cell pairs
/// whose hulls come within `r` of each other, refined by the type-1
/// kernel on the two resident point cells and folded by extension, so the
/// partials of a covering [`crate::scope::Scope::Pairs`] set concatenate.
pub fn distance_join_indexed(
    spade: &Spade,
    d1: &IndexedDataset,
    d2: &IndexedDataset,
    r: f64,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Pairs>> {
    let mut qspan = crate::trace::span("query.distance_join.indexed");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let walk = PairWalk::plan(d1, d2, ctx, |left, right| {
        hulls_within(spade, left, right, &mut polygon_time, |_| r)
    })?;
    let (mut pairs, mut disks) = (Vec::new(), ResidentDisks::default());
    let (stream, _) = walk.run(spade, ctx, &mut polygon_time, |left, right, (l, _)| {
        let constraints = || with_radius(left.points(), r);
        pairs.extend(disks.within_radii(spade, l, constraints, right.points()));
    })?;
    pairs.sort_unstable();
    pairs.dedup();
    let n = pairs.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("pairs", n);
    let stats = measure.finish_streamed(spade, &stream, &walk.deltas, polygon_time, n);
    Ok(QueryOutput {
        result: pairs,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 1_000_000) as f64 / 1_000_000.0 * extent;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 1_000_000) as f64 / 1_000_000.0 * extent;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn distance_select_from_point_matches_oracle() {
        let s = engine();
        let pts = scatter(1500, 100.0, 3);
        let data = Dataset::from_points("p", pts.clone());
        let q = DistanceConstraint::Point(Point::new(50.0, 50.0));
        let r = 17.0;
        let out = distance_select(&s, &data, &q, r);
        let mut got = out.result.clone();
        got.sort_unstable();
        let oracle: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.distance_to(**p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn distance_select_from_line_matches_oracle() {
        let s = engine();
        let pts = scatter(1200, 100.0, 5);
        let data = Dataset::from_points("p", pts.clone());
        let line = LineString::new(vec![
            Point::new(10.0, 10.0),
            Point::new(60.0, 40.0),
            Point::new(90.0, 90.0),
        ]);
        let q = DistanceConstraint::Line(line);
        let r = 8.0;
        let out = distance_select(&s, &data, &q, r);
        let mut got = out.result.clone();
        got.sort_unstable();
        let oracle: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.distance_to(**p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn distance_select_from_polygon_matches_oracle() {
        let s = engine();
        let pts = scatter(1200, 100.0, 9);
        let data = Dataset::from_points("p", pts.clone());
        let poly = Polygon::circle(Point::new(50.0, 50.0), 15.0, 8);
        let q = DistanceConstraint::Polygon(poly);
        let r = 10.0;
        let out = distance_select(&s, &data, &q, r);
        let mut got = out.result.clone();
        got.sort_unstable();
        let oracle: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.distance_to(**p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn disk_layers_are_valid_and_complete() {
        let centers = scatter(200, 50.0, 21);
        let disks: Vec<(Point, f64)> = centers.into_iter().map(|c| (c, 3.0)).collect();
        let layers = disk_layers(&disks);
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, 200);
        for layer in &layers {
            for (a, &i) in layer.iter().enumerate() {
                for &j in &layer[a + 1..] {
                    let (ci, ri) = disks[i];
                    let (cj, rj) = disks[j];
                    assert!(
                        ci.dist(cj) > ri + rj,
                        "disks {i} and {j} overlap within a layer"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_join_matches_oracle() {
        let s = engine();
        let left = scatter(60, 100.0, 31);
        let right = scatter(700, 100.0, 37);
        let d1 = Dataset::from_points("l", left.clone());
        let d2 = Dataset::from_points("r", right.clone());
        let r = 6.0;
        let out = distance_join(&s, &d1, &d2, r);
        let mut oracle = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a.dist(*b) <= r {
                    oracle.push((i as u32, j as u32));
                }
            }
        }
        oracle.sort_unstable();
        assert_eq!(out.result, oracle);
    }

    #[test]
    fn distance_join_multi_radii() {
        let s = engine();
        let left = scatter(40, 100.0, 41);
        let right = scatter(500, 100.0, 43);
        let constraints: Vec<(u32, Point, f64)> = left
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, *p, 2.0 + (i % 5) as f64 * 2.0))
            .collect();
        let d2 = Dataset::from_points("r", right.clone());
        let out = distance_join_multi(&s, &constraints, &d2);
        let mut oracle = Vec::new();
        for (id, c, r) in &constraints {
            for (j, b) in right.iter().enumerate() {
                if c.dist(*b) <= *r {
                    oracle.push((*id, j as u32));
                }
            }
        }
        oracle.sort_unstable();
        assert_eq!(out.result, oracle);
    }

    #[test]
    fn distance_select_indexed_matches_in_memory() {
        let s = engine();
        let pts = scatter(1200, 100.0, 91);
        let data = Dataset::from_points("p", pts);
        let grid = spade_index::GridIndex::build(None, &data.objects, 30.0).unwrap();
        let indexed =
            crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, grid);
        let q = DistanceConstraint::Point(Point::new(42.0, 58.0));
        for r in [5.0, 15.0, 40.0] {
            let mut mem = distance_select(&s, &data, &q, r).result;
            mem.sort_unstable();
            let ooc = distance_select_indexed(&s, &indexed, &q, r, &QueryCtx::default()).unwrap();
            assert_eq!(ooc.result, mem, "r={r}");
            // Small radii must prune cells.
            if r <= 5.0 {
                assert!(ooc.stats.cells_loaded < indexed.grid().num_cells() as u64);
            }
        }
    }

    #[test]
    fn zero_radius_join() {
        let s = engine();
        let pts = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let d1 = Dataset::from_points("l", pts.clone());
        let d2 = Dataset::from_points("r", pts);
        let out = distance_join(&s, &d1, &d2, 0.0);
        // Each point is within distance 0 of itself only.
        assert_eq!(out.result, vec![(0, 0), (1, 1)]);
    }
}
