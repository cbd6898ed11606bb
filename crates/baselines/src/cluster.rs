//! A GeoSpark-like partitioned ("cluster") engine.
//!
//! The paper's cluster baseline is GeoSpark on 17 nodes, tuned per query:
//! KDB-tree partitioning for points, quadtree for polygons, an R-tree per
//! partition (§6.1). The properties the evaluation analyzes are kept:
//!
//! * filter-refine with per-partition R-trees and exact geometry tests —
//!   so query time scales with the number of point-in-polygon tests after
//!   filtering, i.e. with *per-polygon selectivity* (§6.3's explanation of
//!   the counties-vs-zipcodes inversion);
//! * partition-parallel execution with a configurable per-task overhead
//!   standing in for cluster coordination (why small queries pay a floor
//!   of seconds in Fig. 5);
//! * distance joins computed on *centroids* for non-point geometry, the
//!   approximation the paper calls GeoSpark out on (§4.2) — points are
//!   exact.

use crate::rtree::RTree;
use spade_geometry::predicates::{point_in_polygon, polygons_intersect};
use spade_geometry::{BBox, Point, Polygon};
use std::time::Duration;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of spatial partitions (the paper sweeps 4 … 128K and picks
    /// the best; benches expose this knob).
    pub partitions: usize,
    /// Simulated executor threads.
    pub workers: usize,
    /// Fixed coordination overhead charged per partition task.
    pub task_overhead: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: 16,
            workers: 8,
            task_overhead: Duration::from_micros(200),
        }
    }
}

/// A partition of a point RDD.
struct PointPartition {
    bbox: BBox,
    points: Vec<(u32, Point)>,
    rtree: RTree,
}

/// A partitioned point data set (a `SpatialRDD<Point>`).
pub struct PointRdd {
    partitions: Vec<PointPartition>,
    config: ClusterConfig,
}

impl PointRdd {
    /// KDB-style partitioning: recursive median splits on alternating axes
    /// until the target partition count is reached.
    pub fn build(points: Vec<Point>, config: ClusterConfig) -> PointRdd {
        let mut pts: Vec<(u32, Point)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let mut parts: Vec<Vec<(u32, Point)>> = Vec::new();
        kdb_split(&mut pts, config.partitions.max(1), 0, &mut parts);
        let partitions = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|points| {
                let bbox = BBox::from_points(points.iter().map(|(_, p)| *p));
                let rtree = RTree::build(
                    points
                        .iter()
                        .map(|(id, p)| (*id, BBox::new(*p, *p)))
                        .collect(),
                );
                PointPartition {
                    bbox,
                    points,
                    rtree,
                }
            })
            .collect();
        PointRdd { partitions, config }
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Polygonal selection: partition-parallel filter (R-tree) + refine
    /// (exact point-in-polygon).
    pub fn select_polygon(&self, poly: &Polygon) -> Vec<u32> {
        let bb = poly.bbox();
        let tasks: Vec<&PointPartition> = self
            .partitions
            .iter()
            .filter(|p| p.bbox.intersects(&bb))
            .collect();
        let results = run_tasks(&self.config, tasks.len(), |i| {
            let part = tasks[i];
            let mut local = Vec::new();
            for id in part.rtree.query(&bb) {
                let p = point_of(part, id);
                if point_in_polygon(p, poly) {
                    local.push(id);
                }
            }
            local
        });
        let mut out: Vec<u32> = results.into_iter().flatten().collect();
        out.sort_unstable();
        out
    }

    /// Join with a polygon RDD: for each polygon, R-tree filter on every
    /// overlapping point partition, then exact refinement.
    pub fn join_polygons(&self, polys: &PolygonRdd) -> Vec<(u32, u32)> {
        // Task = (point partition, polygon partition) with overlapping
        // extents — GeoSpark's partition-matching join.
        let mut tasks = Vec::new();
        for (pi, pp) in self.partitions.iter().enumerate() {
            for (qi, qp) in polys.partitions.iter().enumerate() {
                if pp.bbox.intersects(&qp.bbox) {
                    tasks.push((pi, qi));
                }
            }
        }
        let results = run_tasks(&self.config, tasks.len(), |t| {
            let (pi, qi) = tasks[t];
            let part = &self.partitions[pi];
            let mut local = Vec::new();
            for &(poly_id, ref poly) in &polys.partitions[qi].polygons {
                let bb = poly.bbox();
                for id in part.rtree.query(&bb) {
                    let p = point_of(part, id);
                    if point_in_polygon(p, poly) {
                        local.push((poly_id, id));
                    }
                }
            }
            local
        });
        let mut out: Vec<(u32, u32)> = results.into_iter().flatten().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distance join with another point RDD (exact for points).
    pub fn distance_join(&self, other: &PointRdd, r: f64) -> Vec<(u32, u32)> {
        let mut tasks = Vec::new();
        for (pi, pp) in other.partitions.iter().enumerate() {
            for (qi, qp) in self.partitions.iter().enumerate() {
                if pp.bbox.inflate(r).intersects(&qp.bbox) {
                    tasks.push((pi, qi));
                }
            }
        }
        let results = run_tasks(&self.config, tasks.len(), |t| {
            let (pi, qi) = tasks[t];
            let left = &other.partitions[pi];
            let right = &self.partitions[qi];
            let mut local = Vec::new();
            for &(lid, lp) in &left.points {
                let probe = BBox::new(lp, lp).inflate(r);
                for rid in right.rtree.query(&probe) {
                    let rp = point_of(right, rid);
                    if lp.dist(rp) <= r {
                        local.push((lid, rid));
                    }
                }
            }
            local
        });
        let mut out: Vec<(u32, u32)> = results.into_iter().flatten().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// kNN selection: per-partition best-first search, merged.
    pub fn knn(&self, q: Point, k: usize) -> Vec<(u32, f64)> {
        let results = run_tasks(&self.config, self.partitions.len(), |i| {
            let part = &self.partitions[i];
            let mut local = Vec::new();
            part.rtree.nearest_first(q, |id, _| {
                let d = point_of(part, id).dist(q);
                local.push((id, d));
                local.len() < k
            });
            local
        });
        let mut all: Vec<(u32, f64)> = results.into_iter().flatten().collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        all.truncate(k);
        all
    }
}

fn point_of(part: &PointPartition, id: u32) -> Point {
    // Partition point lists are small; an id-keyed lookup table would be
    // the production choice, but partitions keep points sorted by id after
    // the split, so binary search suffices.
    match part.points.binary_search_by_key(&id, |(i, _)| *i) {
        Ok(i) => part.points[i].1,
        Err(_) => {
            part.points
                .iter()
                .find(|(i, _)| *i == id)
                .expect("id in partition")
                .1
        }
    }
}

/// A partition of a polygon RDD.
struct PolygonPartition {
    bbox: BBox,
    polygons: Vec<(u32, Polygon)>,
}

/// A partitioned polygon data set (quadtree partitioning, as the paper
/// tuned for polygonal data).
pub struct PolygonRdd {
    partitions: Vec<PolygonPartition>,
    config: ClusterConfig,
}

impl PolygonRdd {
    pub fn build(polygons: Vec<Polygon>, config: ClusterConfig) -> PolygonRdd {
        let items: Vec<(u32, Polygon)> = polygons
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let mut extent = BBox::empty();
        for (_, p) in &items {
            extent = extent.union(&p.bbox());
        }
        let mut parts: Vec<Vec<(u32, Polygon)>> = Vec::new();
        quad_split(items, extent, config.partitions.max(1), &mut parts);
        let partitions = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|polygons| {
                let mut bbox = BBox::empty();
                for (_, p) in &polygons {
                    bbox = bbox.union(&p.bbox());
                }
                PolygonPartition { bbox, polygons }
            })
            .collect();
        PolygonRdd { partitions, config }
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Polygonal selection over polygon data.
    pub fn select_polygon(&self, constraint: &Polygon) -> Vec<u32> {
        let bb = constraint.bbox();
        let tasks: Vec<&PolygonPartition> = self
            .partitions
            .iter()
            .filter(|p| p.bbox.intersects(&bb))
            .collect();
        let results = run_tasks(&self.config, tasks.len(), |i| {
            tasks[i]
                .polygons
                .iter()
                .filter(|(_, p)| p.bbox().intersects(&bb) && polygons_intersect(p, constraint))
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
        });
        let mut out: Vec<u32> = results.into_iter().flatten().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Polygon-polygon join with another polygon RDD.
    pub fn join(&self, other: &PolygonRdd) -> Vec<(u32, u32)> {
        let mut tasks = Vec::new();
        for (pi, pp) in self.partitions.iter().enumerate() {
            for (qi, qp) in other.partitions.iter().enumerate() {
                if pp.bbox.intersects(&qp.bbox) {
                    tasks.push((pi, qi));
                }
            }
        }
        let results = run_tasks(&self.config, tasks.len(), |t| {
            let (pi, qi) = tasks[t];
            let mut local = Vec::new();
            for (a, pa) in &self.partitions[pi].polygons {
                for (b, pb) in &other.partitions[qi].polygons {
                    if pa.bbox().intersects(&pb.bbox()) && polygons_intersect(pa, pb) {
                        local.push((*a, *b));
                    }
                }
            }
            local
        });
        let mut out: Vec<(u32, u32)> = results.into_iter().flatten().collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Run `n` partition tasks across the configured workers, charging the
/// per-task coordination overhead.
fn run_tasks<R: Send>(config: &ClusterConfig, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let workers = config.workers.clamp(1, n);
    let overhead = config.task_overhead;
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let results = &results;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if !overhead.is_zero() {
                    std::thread::sleep(overhead);
                }
                let r = f(i);
                results.lock().unwrap().push((i, r));
            });
        }
    });
    let mut v = results.into_inner().unwrap();
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

fn kdb_split(
    pts: &mut Vec<(u32, Point)>,
    target: usize,
    depth: usize,
    out: &mut Vec<Vec<(u32, Point)>>,
) {
    if target <= 1 || pts.len() <= 1 {
        out.push(std::mem::take(pts));
        return;
    }
    let mid = pts.len() / 2;
    if depth.is_multiple_of(2) {
        pts.select_nth_unstable_by(mid, |a, b| {
            a.1.x
                .partial_cmp(&b.1.x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    } else {
        pts.select_nth_unstable_by(mid, |a, b| {
            a.1.y
                .partial_cmp(&b.1.y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    let mut right: Vec<(u32, Point)> = pts.split_off(mid);
    kdb_split(pts, target / 2, depth + 1, out);
    kdb_split(&mut right, target - target / 2, depth + 1, out);
}

fn quad_split(
    items: Vec<(u32, Polygon)>,
    extent: BBox,
    target: usize,
    out: &mut Vec<Vec<(u32, Polygon)>>,
) {
    if target <= 1 || items.len() <= 1 || extent.is_empty() {
        out.push(items);
        return;
    }
    let c = extent.center();
    let mut quads: [Vec<(u32, Polygon)>; 4] = Default::default();
    for (id, p) in items {
        let pc = p.centroid();
        let qi = (usize::from(pc.x > c.x)) | (usize::from(pc.y > c.y) << 1);
        quads[qi].push((id, p));
    }
    let boxes = [
        BBox::new(extent.min, c),
        BBox::new(Point::new(c.x, extent.min.y), Point::new(extent.max.x, c.y)),
        BBox::new(Point::new(extent.min.x, c.y), Point::new(c.x, extent.max.y)),
        BBox::new(c, extent.max),
    ];
    for (quad, bb) in quads.into_iter().zip(boxes) {
        quad_split(quad, bb, target / 4, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            partitions: 8,
            workers: 4,
            task_overhead: Duration::ZERO,
        }
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

    fn tiles() -> Vec<Polygon> {
        (0..16)
            .map(|i| {
                let min = Point::new((i % 4) as f64 * 25.0, (i / 4) as f64 * 25.0);
                Polygon::rect(BBox::new(min, min + Point::new(23.0, 23.0)))
            })
            .collect()
    }

    #[test]
    fn point_selection_matches_brute() {
        let pts = scatter(3000, 100.0, 23);
        let rdd = PointRdd::build(pts.clone(), cfg());
        assert!(rdd.num_partitions() > 1);
        let poly = Polygon::circle(Point::new(40.0, 40.0), 22.0, 10);
        assert_eq!(rdd.select_polygon(&poly), brute::select_points(&pts, &poly));
    }

    #[test]
    fn point_polygon_join_matches_brute() {
        let pts = scatter(1500, 100.0, 29);
        let polys = tiles();
        let prdd = PointRdd::build(pts.clone(), cfg());
        let grdd = PolygonRdd::build(polys.clone(), cfg());
        let got = prdd.join_polygons(&grdd);
        let mut want = brute::join_polygon_point(&polys, &pts);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn polygon_join_matches_brute() {
        let a = tiles();
        let b: Vec<Polygon> = (0..9)
            .map(|i| {
                let min = Point::new((i % 3) as f64 * 30.0 + 5.0, (i / 3) as f64 * 30.0 + 5.0);
                Polygon::rect(BBox::new(min, min + Point::new(25.0, 25.0)))
            })
            .collect();
        let ra = PolygonRdd::build(a.clone(), cfg());
        let rb = PolygonRdd::build(b.clone(), cfg());
        let got = ra.join(&rb);
        let mut want = brute::join_polygon_polygon(&a, &b);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn distance_join_matches_brute() {
        let left = scatter(100, 100.0, 31);
        let right = scatter(800, 100.0, 37);
        let rl = PointRdd::build(left.clone(), cfg());
        let rr = PointRdd::build(right.clone(), cfg());
        let got = rr.distance_join(&rl, 5.0); // self = right side indexed
        let mut want = brute::distance_join(&left, &right, 5.0);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn knn_matches_brute() {
        let pts = scatter(2000, 100.0, 41);
        let rdd = PointRdd::build(pts.clone(), cfg());
        let q = Point::new(33.0, 66.0);
        for k in [1, 7, 25] {
            let got = rdd.knn(q, k);
            let want = brute::knn(&pts, q, k);
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn polygon_selection_matches_brute() {
        let polys = tiles();
        let rdd = PolygonRdd::build(polys.clone(), cfg());
        let c = Polygon::circle(Point::new(50.0, 50.0), 30.0, 8);
        assert_eq!(rdd.select_polygon(&c), brute::select_polygons(&polys, &c));
    }

    #[test]
    fn task_overhead_slows_queries() {
        let pts = scatter(500, 100.0, 43);
        let fast = PointRdd::build(pts.clone(), cfg());
        let slow = PointRdd::build(
            pts,
            ClusterConfig {
                task_overhead: Duration::from_millis(5),
                workers: 1,
                partitions: 8,
            },
        );
        let poly = Polygon::circle(Point::new(50.0, 50.0), 45.0, 8);
        let t0 = std::time::Instant::now();
        let a = fast.select_polygon(&poly);
        let t_fast = t0.elapsed();
        let t0 = std::time::Instant::now();
        let b = slow.select_polygon(&poly);
        let t_slow = t0.elapsed();
        assert_eq!(a, b);
        assert!(t_slow > t_fast);
    }

    #[test]
    fn empty_rdds() {
        let rdd = PointRdd::build(vec![], cfg());
        assert_eq!(rdd.num_partitions(), 0);
        assert!(rdd
            .select_polygon(&Polygon::circle(Point::ZERO, 1.0, 6))
            .is_empty());
        assert!(rdd.knn(Point::ZERO, 5).is_empty());
    }
}
