//! The time breakdown partitions the wall (§6.2): for every query,
//! visible I/O (`io_time − io_hidden`) + GPU + polygon + CPU is exactly
//! `total_time`, and GPU and polygon time together never exceed it. It
//! must hold for every query class over every kind of source — in memory,
//! indexed, indexed with staged writes — for a join whose preparation
//! dominates it (the layer index's own passes are polygon time, not GPU
//! time), and for a join scattered over a cluster (whose breakdown is the
//! critical-path shard's, not a sum over shards against a maximum).

use spade::cluster::{ClusterClient, ClusterConfig};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{run_join_ctx, run_select_ctx, JoinQuery, SelectQuery, Source};
use spade::engine::{EngineConfig, QueryCtx, QueryStats, Spade};
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use spade::net::{NetServer, NetServerConfig};
use spade::server::{QueryRequest, QueryService, ServiceConfig};
use std::sync::Arc;

fn assert_partition(s: &QueryStats, what: &str) {
    let visible_io = (s.io_time.checked_sub(s.io_hidden)).expect("hidden I/O within I/O");
    assert_eq!(
        visible_io + s.gpu_time + s.polygon_time + s.cpu_time,
        s.total_time,
        "{what}: the components do not sum to the wall: {}",
        s.breakdown()
    );
    assert!(
        s.gpu_time + s.polygon_time <= s.total_time,
        "{what}: GPU and polygon time exceed the wall: {}",
        s.breakdown()
    );
}

fn field(n: usize, seed: u64) -> Vec<Point> {
    let unit = spade::datagen::spider::uniform_points(n, seed);
    let extent = BBox::new(Point::ZERO, Point::new(100.0, 100.0));
    spade::datagen::spider::scale_points(&unit, &extent)
}

fn boxes(n: usize, seed: u64) -> Vec<Polygon> {
    let unit = spade::datagen::spider::uniform_boxes(n, 0.08, seed);
    let scale = |p: &Polygon| {
        let ring = p
            .exterior
            .points
            .iter()
            .map(|q| Point::new(q.x * 100.0, q.y * 100.0));
        Polygon::new(ring.collect())
    };
    unit.iter().map(scale).collect()
}

fn indexed(data: &Dataset, kind: DatasetKind) -> IndexedDataset {
    let grid = GridIndex::build(None, &data.objects, 25.0).unwrap();
    IndexedDataset::new(&data.name, kind, grid)
}

/// One data set as each kind of source: indexed, indexed with staged
/// writes, in memory.
struct Sources(IndexedDataset, IndexedDataset, Arc<Dataset>);

impl Sources {
    fn new(data: Dataset, kind: DatasetKind, staged: Geometry) -> Sources {
        let with_writes = indexed(&data, kind);
        with_writes.insert(90_000, staged.clone());
        with_writes.insert(90_001, staged);
        Sources(indexed(&data, kind), with_writes, Arc::new(data))
    }

    fn each(&self) -> [(&'static str, Source<'_>); 3] {
        let Sources(plain, staged, memory) = self;
        [
            ("indexed", plain.into()),
            ("staged", staged.into()),
            ("in-memory", memory.into()),
        ]
    }
}

#[test]
fn every_class_partitions_its_wall_over_every_source() {
    let mut config = EngineConfig::test_small();
    config.resolution = 128;
    let spade = Spade::new(config);
    let pts = Dataset::from_points("pts", field(3_000, 11));
    let pts = Sources::new(
        pts,
        DatasetKind::Points,
        Geometry::Point(Point::new(40.0, 40.0)),
    );
    let polys = Dataset::from_polygons("polys", boxes(120, 23));
    let polys_in_memory = Arc::new(polys.clone());
    let square = Polygon::rect(BBox::new(Point::new(38.0, 38.0), Point::new(44.0, 44.0)));
    let polys = Sources::new(polys, DatasetKind::Polygons, Geometry::Polygon(square));
    let few = Dataset::from_points("few", field(40, 41));
    let few = Sources::new(
        few,
        DatasetKind::Points,
        Geometry::Point(Point::new(60.0, 60.0)),
    );
    let constraint = Polygon::new(vec![
        Point::new(10.0, 15.0),
        Point::new(85.0, 25.0),
        Point::new(70.0, 80.0),
        Point::new(20.0, 70.0),
    ]);
    let selects = [
        SelectQuery::Intersects(constraint.clone()),
        SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
        SelectQuery::Contained(constraint.clone()),
        SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(50.0, 50.0)), 15.0),
        SelectQuery::WithinDistance(DistanceConstraint::Polygon(constraint), 3.0),
        SelectQuery::Knn(Point::new(33.0, 66.0), 12),
    ];
    let ctx = QueryCtx::default();
    let sources = pts.each().into_iter().zip(polys.each()).zip(few.each());
    for (((source, pts), (_, polys)), (_, few)) in sources {
        for q in &selects {
            let stats = run_select_ctx(&spade, pts, q, &ctx).unwrap().stats;
            assert_partition(&stats, &format!("{source} {q:?}"));
        }
        // Every join class, a polygon ⋈ polygon join, and in-memory
        // polygons meeting indexed points.
        let joins = [
            (polys, pts, JoinQuery::Intersects),
            (polys, polys, JoinQuery::Intersects),
            (polys, pts, JoinQuery::CountPoints),
            (few, pts, JoinQuery::WithinDistance(4.0)),
            (few, pts, JoinQuery::Knn(3)),
            ((&polys_in_memory).into(), pts, JoinQuery::Intersects),
        ];
        for (l, r, q) in &joins {
            let stats = run_join_ctx(&spade, *l, *r, q, &ctx).unwrap().stats;
            assert_partition(&stats, &format!("{source} {q:?}"));
        }
    }
}

/// Many many-vertex polygons and a handful of points, in memory: the
/// layer index's passes outweigh the query's own, so booking them as GPU
/// time as well as polygon time pushes the components past the wall.
#[test]
fn a_preparation_dominated_join_partitions_its_wall() {
    let spade = Spade::new(EngineConfig::test_small());
    let extent = BBox::new(Point::ZERO, Point::new(100.0, 100.0));
    let polys = spade::datagen::urban::admin_polygons(200, &extent, 256, 7);
    let polys = Arc::new(Dataset::from_polygons("nbhd", polys));
    let pts = Arc::new(Dataset::from_points("taxi", field(5, 3)));
    for q in [JoinQuery::Intersects, JoinQuery::CountPoints] {
        let out = run_join_ctx(&spade, &polys, &pts, &q, &QueryCtx::default()).unwrap();
        assert_partition(&out.stats, &format!("{q:?}"));
    }
}

/// An intersection select over polygon data triangulates the data, and
/// that is polygon time on every source, not CPU residual: each source
/// books at least half of what triangulating the data alone takes (the
/// constraint and the cell hulls are four-vertex rings, a sliver of it).
/// Best of three on both sides, so a stall on either cannot decide.
#[test]
fn a_polygon_select_books_its_triangulation_as_polygon_time() {
    let spade = Spade::new(EngineConfig::test_small());
    let extent = BBox::new(Point::ZERO, Point::new(100.0, 100.0));
    let polys = spade::datagen::urban::admin_polygons(150, &extent, 256, 5);
    let data = Dataset::from_polygons("nbhd", polys);
    let alone = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(data.prepare_polygons());
            start.elapsed()
        })
        .min()
        .unwrap();
    let square = Polygon::rect(BBox::new(Point::new(38.0, 38.0), Point::new(44.0, 44.0)));
    let sources = Sources::new(data, DatasetKind::Polygons, Geometry::Polygon(square));
    // Covers the whole extent, so every slot refines.
    let everything = Polygon::rect(extent.inflate(1.0));
    let q = SelectQuery::Intersects(everything);
    for (source, data) in sources.each() {
        let booked = (0..3)
            .map(|_| {
                let stats = run_select_ctx(&spade, data, &q, &QueryCtx::default())
                    .unwrap()
                    .stats;
                assert_partition(&stats, &format!("{source} polygon select"));
                stats.polygon_time
            })
            .max()
            .unwrap();
        assert!(
            booked > std::time::Duration::ZERO && booked * 2 >= alone,
            "{source}: a polygon select booked {booked:?} of polygon time; \
             triangulating its data takes {alone:?}"
        );
    }
}

/// `cluster_consistency`'s data on each of three loopback workers.
fn worker() -> NetServer {
    let mut engine = EngineConfig::test_small();
    engine.resolution = 128;
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine,
        workers: 2,
        fairness_cap: 8,
        wal_dir: None,
    }));
    let pts = Dataset::from_points("pts", field(4_000, 11));
    svc.register_indexed("pts", indexed(&pts, DatasetKind::Points));
    let polys = Dataset::from_polygons("polys", boxes(150, 23));
    svc.register_indexed("polys", indexed(&polys, DatasetKind::Polygons));
    let few = Dataset::from_points("few", field(48, 41));
    svc.register_indexed("few", indexed(&few, DatasetKind::Points));
    NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).unwrap()
}

/// A scattered query's breakdown is its critical-path shard's: summing
/// the shards' components against the slowest shard's total does not
/// partition anything.
#[test]
fn a_scattered_join_partitions_its_wall() {
    let workers: Vec<NetServer> = (0..3).map(|_| worker()).collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.addr()).collect();
    let cluster = ClusterClient::connect(&addrs, ClusterConfig::default()).unwrap();
    for dataset in ["pts", "polys", "few"] {
        cluster.refresh_shard_map(dataset).unwrap();
    }
    let join = |left: &str, query| QueryRequest::Join {
        left: left.into(),
        right: "pts".into(),
        query,
    };
    for request in [
        join("polys", JoinQuery::Intersects),
        join("polys", JoinQuery::CountPoints),
        join("few", JoinQuery::WithinDistance(4.0)),
        join("few", JoinQuery::Knn(3)),
    ] {
        let reply = cluster.query(&request).unwrap();
        assert_partition(&reply.stats, &format!("{request:?}"));
    }
    for w in workers {
        w.stop();
    }
}
