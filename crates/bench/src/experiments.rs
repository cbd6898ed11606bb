//! One function per paper table/figure (§6), plus the ablation studies.
//!
//! Absolute times differ from the paper (software pipeline vs. GTX 1070;
//! data scaled ~1000×); the reproduction target is the *shape* of every
//! experiment — which system wins, how curves scale, where the crossovers
//! sit. EXPERIMENTS.md records paper-vs-measured for each id.

use crate::harness::{fmt_dur, timed, Table};
use crate::workloads as wl;
use spade_baselines::cluster::{ClusterConfig, PointRdd, PolygonRdd};
use spade_baselines::s2like::PointIndex;
use spade_baselines::stig::Stig;
use spade_canvas::create::PreparedPolygon;
use spade_core::dataset::Dataset;
use spade_core::engine::Constraint;
use spade_core::query::{run_join_ctx, run_select_ctx, JoinQuery, QueryResult, SelectQuery};
use spade_core::{select, EngineConfig, QueryCtx, Spade};
use spade_geometry::{Point, Polygon};
use std::sync::Arc;
use std::time::Duration;

/// The engine configuration used by all experiments.
fn bench_engine() -> Spade {
    Spade::new(EngineConfig {
        max_cell_bytes: 2 << 20,
        ..EngineConfig::default()
    })
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        partitions: 32,
        workers: 8,
        task_overhead: Duration::from_micros(500),
    }
}

fn points_of(d: &Dataset) -> Vec<Point> {
    d.as_points().into_iter().map(|(_, p)| p).collect()
}

fn polys_of(d: &Dataset) -> Vec<Polygon> {
    d.as_polygons()
        .into_iter()
        .map(|(_, p)| p.clone())
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 5: selection queries
// ---------------------------------------------------------------------

/// Fig. 5(a): polygonal selections of points (Taxi × Neighborhood-like).
pub fn fig5a() -> Vec<Table> {
    selection_figure(
        "Fig 5(a): selection over taxi-like points (10 neighborhood constraints)",
        wl::taxi(200_000),
        wl::constraints(&wl::nyc_extent(), 48, 0xa),
    )
}

/// Fig. 5(b): polygonal selections of points (Twitter × County-like,
/// higher-complexity constraints).
pub fn fig5b() -> Vec<Table> {
    selection_figure(
        "Fig 5(b): selection over tweet-like points (10 county constraints)",
        wl::tweets(300_000),
        wl::constraints(&wl::usa_extent(), 512, 0xb),
    )
}

fn selection_figure(title: &str, data: Dataset, mut constraints: Vec<Polygon>) -> Vec<Table> {
    let spade = bench_engine();
    let indexed = wl::index(&spade, &data);
    let pts = points_of(&data);
    let stig = Stig::build(pts.clone(), 1024);
    let rdd = PointRdd::build(pts.clone(), cluster_cfg());
    let s2 = PointIndex::build(pts);

    // Order constraints by SPADE query time, as the paper plots them.
    let mut measured: Vec<(Polygon, spade_core::QueryStats)> = Vec::new();
    for c in constraints.drain(..) {
        let out = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default())
            .expect("indexed select");
        measured.push((c, out.stats));
    }
    measured.sort_by_key(|a| a.1.total_time);

    let mut top = Table::new(
        title,
        &["query", "result", "SPADE", "STIG", "cluster", "S2-like"],
    );
    let mut breakdown = Table::new(
        "SPADE time breakdown (bottom row of Fig 5)",
        &["query", "io", "gpu", "polygon", "cpu", "io-frac"],
    );
    for (i, (c, stats)) in measured.iter().enumerate() {
        let (r_stig, t_stig) = timed(|| stig.select_polygon(c, 8));
        let (r_cl, t_cl) = timed(|| rdd.select_polygon(c));
        let (r_s2, t_s2) = timed(|| s2.select_polygon(c));
        assert_eq!(r_stig.len() as u64, stats.result_count, "STIG disagrees");
        assert_eq!(r_cl.len() as u64, stats.result_count, "cluster disagrees");
        assert_eq!(r_s2.len() as u64, stats.result_count, "S2 disagrees");
        top.row(vec![
            format!("P{}", i + 1),
            stats.result_count.to_string(),
            fmt_dur(stats.total_time),
            fmt_dur(t_stig),
            fmt_dur(t_cl),
            fmt_dur(t_s2),
        ]);
        breakdown.row(vec![
            format!("P{}", i + 1),
            fmt_dur(stats.io_time),
            fmt_dur(stats.gpu_time),
            fmt_dur(stats.polygon_time),
            fmt_dur(stats.cpu_time),
            format!("{:.0}%", stats.io_fraction() * 100.0),
        ]);
    }
    vec![top, breakdown]
}

/// Fig. 5(c): polygonal selections of polygons (Buildings × Country-like).
pub fn fig5c() -> Vec<Table> {
    let spade = bench_engine();
    let data = wl::buildings(30_000);
    let indexed = wl::index(&spade, &data);
    let rdd = PolygonRdd::build(polys_of(&data), cluster_cfg());
    let constraints = wl::constraints(&wl::world_extent(), 160, 0xc);

    let mut measured: Vec<(Polygon, spade_core::QueryStats)> = Vec::new();
    for c in constraints {
        let out = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default())
            .expect("indexed select");
        measured.push((c, out.stats));
    }
    measured.sort_by_key(|a| a.1.total_time);

    let mut top = Table::new(
        "Fig 5(c): selection over building-like polygons (10 country constraints)",
        &["query", "result", "SPADE", "cluster"],
    );
    let mut breakdown = Table::new(
        "SPADE time breakdown",
        &["query", "io", "gpu", "polygon", "cpu", "io-frac"],
    );
    for (i, (c, stats)) in measured.iter().enumerate() {
        let (r_cl, t_cl) = timed(|| rdd.select_polygon(c));
        assert_eq!(r_cl.len() as u64, stats.result_count, "cluster disagrees");
        top.row(vec![
            format!("P{}", i + 1),
            stats.result_count.to_string(),
            fmt_dur(stats.total_time),
            fmt_dur(t_cl),
        ]);
        breakdown.row(vec![
            format!("P{}", i + 1),
            fmt_dur(stats.io_time),
            fmt_dur(stats.gpu_time),
            fmt_dur(stats.polygon_time),
            fmt_dur(stats.cpu_time),
            format!("{:.0}%", stats.io_fraction() * 100.0),
        ]);
    }
    vec![top, breakdown]
}

// ---------------------------------------------------------------------
// Tables 2 & 3: joins
// ---------------------------------------------------------------------

/// Table 2: point–polygon joins.
pub fn tab2() -> Vec<Table> {
    let spade = bench_engine();
    let cases = [
        (
            "taxi ⋈ neighborhoods",
            wl::taxi(150_000),
            wl::neighborhoods(),
        ),
        ("taxi ⋈ census", wl::taxi(150_000), wl::census()),
        ("tweets ⋈ counties", wl::tweets(200_000), wl::counties()),
        ("tweets ⋈ zipcodes", wl::tweets(200_000), wl::zipcodes()),
    ];
    let mut t = Table::new(
        "Table 2: point-polygon joins",
        &["join", "pairs", "SPADE", "cluster", "S2-like"],
    );
    for (name, pts, polys) in cases {
        let ipts = wl::index(&spade, &pts);
        let ipolys = wl::index(&spade, &polys);
        let out = spade_core::join::join_indexed(&spade, &ipolys, &ipts, &QueryCtx::default())
            .expect("indexed join");

        let rdd = PointRdd::build(points_of(&pts), cluster_cfg());
        let prdd = PolygonRdd::build(polys_of(&polys), cluster_cfg());
        let (r_cl, t_cl) = timed(|| rdd.join_polygons(&prdd));

        let s2 = PointIndex::build(points_of(&pts));
        let poly_list = polys_of(&polys);
        let (r_s2, t_s2) = timed(|| {
            let mut pairs = Vec::new();
            for (i, poly) in poly_list.iter().enumerate() {
                for pid in s2.select_polygon(poly) {
                    pairs.push((i as u32, pid));
                }
            }
            pairs
        });
        assert_eq!(r_cl.len(), out.result.len(), "{name}: cluster disagrees");
        assert_eq!(r_s2.len(), out.result.len(), "{name}: S2 disagrees");
        t.row(vec![
            name.to_string(),
            out.result.len().to_string(),
            fmt_dur(out.stats.total_time),
            fmt_dur(t_cl),
            fmt_dur(t_s2),
        ]);
    }
    vec![t]
}

/// Table 3: polygon–polygon joins.
pub fn tab3() -> Vec<Table> {
    let spade = bench_engine();
    let buildings = wl::buildings(20_000);
    let cases = [
        ("neighborhoods ⋈ census", wl::neighborhoods(), wl::census()),
        ("zipcodes ⋈ counties", wl::zipcodes(), wl::counties()),
        (
            "buildings ⋈ counties*",
            buildings.clone(),
            scale_to(&wl::counties(), &buildings),
        ),
        (
            "buildings ⋈ zipcodes*",
            buildings.clone(),
            scale_to(&wl::zipcodes(), &buildings),
        ),
        ("buildings ⋈ countries", buildings.clone(), wl::countries()),
    ];
    let mut t = Table::new(
        "Table 3: polygon-polygon joins (*admin analogue rescaled onto the buildings extent)",
        &["join", "pairs", "SPADE", "cluster"],
    );
    for (name, d1, d2) in cases {
        let i1 = wl::index(&spade, &d1);
        let i2 = wl::index(&spade, &d2);
        let out = spade_core::join::join_indexed(&spade, &i1, &i2, &QueryCtx::default())
            .expect("indexed join");
        let r1 = PolygonRdd::build(polys_of(&d1), cluster_cfg());
        let r2 = PolygonRdd::build(polys_of(&d2), cluster_cfg());
        let (r_cl, t_cl) = timed(|| r1.join(&r2));
        assert_eq!(r_cl.len(), out.result.len(), "{name}: cluster disagrees");
        t.row(vec![
            name.to_string(),
            out.result.len().to_string(),
            fmt_dur(out.stats.total_time),
            fmt_dur(t_cl),
        ]);
    }
    vec![t]
}

/// Rescale an admin data set onto another data set's extent so the join is
/// non-trivial (the paper's counties/zipcodes live on the same globe as
/// the buildings; our analogues are generated per extent).
fn scale_to(src: &Dataset, target: &Dataset) -> Dataset {
    let from = src.extent;
    let to = target.extent;
    let map = |p: Point| {
        Point::new(
            to.min.x + (p.x - from.min.x) / from.width() * to.width(),
            to.min.y + (p.y - from.min.y) / from.height() * to.height(),
        )
    };
    let objects = src
        .objects
        .iter()
        .map(|(id, g)| (*id, spade_geometry::project::map_geometry(g, map)))
        .collect();
    Dataset::from_objects(src.name.clone(), src.kind, objects)
}

/// Fig. 6: join scaling with input size (tweets-like ⋈ zipcode-like).
pub fn fig6() -> Vec<Table> {
    let spade = bench_engine();
    let zips = wl::zipcodes();
    let mut t = Table::new(
        "Fig 6: scaling with input size (tweets ⋈ zipcodes)",
        &["points", "pairs", "SPADE", "cluster"],
    );
    for n in [50_000usize, 100_000, 200_000, 300_000] {
        let pts = wl::tweets(n);
        let ipts = wl::index(&spade, &pts);
        let ipolys = wl::index(&spade, &zips);
        let out = spade_core::join::join_indexed(&spade, &ipolys, &ipts, &QueryCtx::default())
            .expect("indexed join");
        let rdd = PointRdd::build(points_of(&pts), cluster_cfg());
        let prdd = PolygonRdd::build(polys_of(&zips), cluster_cfg());
        let (r_cl, t_cl) = timed(|| rdd.join_polygons(&prdd));
        assert_eq!(r_cl.len(), out.result.len());
        t.row(vec![
            pts.len().to_string(),
            out.result.len().to_string(),
            fmt_dur(out.stats.total_time),
            fmt_dur(t_cl),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------
// Fig. 7: distance joins
// ---------------------------------------------------------------------

/// Fig. 7: distance joins between random points and taxi-like data, in
/// projected meters. (a) sweeps the random-set size at r = 20 m;
/// (b) sweeps r at a fixed set size.
pub fn fig7() -> Vec<Table> {
    let spade = bench_engine();
    // Project the taxi analogue to EPSG:3857 meters, as the paper does for
    // distance queries (pre-converted, like their GeoSpark runs).
    let taxi = project_dataset(&wl::taxi(100_000));
    let s2 = PointIndex::build(points_of(&taxi));
    let rdd = PointRdd::build(points_of(&taxi), cluster_cfg());

    let mut a = Table::new(
        "Fig 7(a): distance join, varying points (r = 20 m)",
        &["points", "pairs", "SPADE", "cluster", "S2-like"],
    );
    for n in [10usize, 100, 1_000, 10_000] {
        let random = random_points_in(&taxi, n, 0x77 + n as u64);
        let row = distance_join_row(&spade, &random, &taxi, 20.0, &rdd, &s2);
        a.row(std::iter::once(n.to_string()).chain(row).collect());
    }

    let mut b = Table::new(
        "Fig 7(b): distance join, varying r (10 000 points)",
        &["r (m)", "pairs", "SPADE", "cluster", "S2-like"],
    );
    let random = random_points_in(&taxi, 10_000, 0x7b);
    for r in [5.0, 10.0, 20.0, 50.0, 100.0] {
        let row = distance_join_row(&spade, &random, &taxi, r, &rdd, &s2);
        b.row(std::iter::once(format!("{r}")).chain(row).collect());
    }
    vec![a, b]
}

fn project_dataset(d: &Dataset) -> Arc<Dataset> {
    let objects = d
        .objects
        .iter()
        .map(|(id, g)| (*id, spade_geometry::project::geometry_to_mercator(g)))
        .collect();
    Arc::new(Dataset::from_objects(
        format!("{}-3857", d.name),
        d.kind,
        objects,
    ))
}

fn random_points_in(d: &Dataset, n: usize, seed: u64) -> Arc<Dataset> {
    let pts = spade_datagen::spider::uniform_points(n, seed);
    Arc::new(Dataset::from_points(
        "random",
        spade_datagen::spider::scale_points(&pts, &d.extent),
    ))
}

fn distance_join_row(
    spade: &Spade,
    left: &Arc<Dataset>,
    right: &Arc<Dataset>,
    r: f64,
    rdd: &PointRdd,
    s2: &PointIndex,
) -> Vec<String> {
    let q = JoinQuery::WithinDistance(r);
    let out = run_join_ctx(spade, left, right, &q, &QueryCtx::default()).expect("distance join");
    let left_rdd = PointRdd::build(points_of(left), cluster_cfg());
    let (r_cl, t_cl) = timed(|| rdd.distance_join(&left_rdd, r));
    let left_pts = points_of(left);
    let (r_s2, t_s2) = timed(|| {
        let mut pairs = Vec::new();
        for (i, p) in left_pts.iter().enumerate() {
            for id in s2.within_distance(*p, r) {
                pairs.push((i as u32, id));
            }
        }
        pairs
    });
    assert_eq!(r_cl.len(), out.result.len(), "cluster distance disagrees");
    assert_eq!(r_s2.len(), out.result.len(), "S2 distance disagrees");
    vec![
        out.result.len().to_string(),
        fmt_dur(out.stats.total_time),
        fmt_dur(t_cl),
        fmt_dur(t_s2),
    ]
}

// ---------------------------------------------------------------------
// Figs. 8 & 9: kNN
// ---------------------------------------------------------------------

/// Fig. 8: kNN selection, average of 100 queries per k.
pub fn fig8() -> Vec<Table> {
    let spade = bench_engine();
    let taxi = project_dataset(&wl::taxi(100_000));
    let s2 = PointIndex::build(points_of(&taxi));
    let rdd = PointRdd::build(points_of(&taxi), cluster_cfg());
    let queries = points_of(&random_points_in(&taxi, 100, 0x88));

    let mut t = Table::new(
        "Fig 8: kNN selection, total time for 100 queries",
        &["k", "SPADE", "cluster", "S2-like"],
    );
    for k in [1usize, 10, 20, 30, 40, 50] {
        let (_, t_spade) = timed(|| {
            for &q in &queries {
                let q = SelectQuery::Knn(q, k);
                let out = run_select_ctx(&spade, &taxi, &q, &QueryCtx::default()).expect("kNN");
                assert_eq!(out.result.len(), k.min(taxi.len()));
            }
        });
        let (_, t_cl) = timed(|| {
            for &q in &queries {
                let got = rdd.knn(q, k);
                assert_eq!(got.len(), k.min(taxi.len()));
            }
        });
        let (_, t_s2) = timed(|| {
            for &q in &queries {
                let got = s2.knn(q, k);
                assert_eq!(got.len(), k.min(taxi.len()));
            }
        });
        t.row(vec![
            k.to_string(),
            fmt_dur(t_spade),
            fmt_dur(t_cl),
            fmt_dur(t_s2),
        ]);
    }
    vec![t]
}

/// Fig. 9: kNN joins: (a) varying k, (b) varying the random-set size.
pub fn fig9() -> Vec<Table> {
    let spade = bench_engine();
    let taxi = project_dataset(&wl::taxi(50_000));
    let s2 = PointIndex::build(points_of(&taxi));

    let mut a = Table::new(
        "Fig 9(a): kNN join, varying k (500 points)",
        &["k", "SPADE", "S2-like"],
    );
    let left = random_points_in(&taxi, 500, 0x99);
    for k in [1usize, 5, 10, 20] {
        a.row(knn_join_row(&spade, &left, &taxi, k, &s2, k.to_string()));
    }

    let mut b = Table::new(
        "Fig 9(b): kNN join, varying points (k = 10)",
        &["points", "SPADE", "S2-like"],
    );
    for n in [100usize, 250, 500, 1_000] {
        let left = random_points_in(&taxi, n, 0x9b + n as u64);
        b.row(knn_join_row(&spade, &left, &taxi, 10, &s2, n.to_string()));
    }
    vec![a, b]
}

fn knn_join_row(
    spade: &Spade,
    left: &Arc<Dataset>,
    right: &Arc<Dataset>,
    k: usize,
    s2: &PointIndex,
    label: String,
) -> Vec<String> {
    let q = JoinQuery::Knn(k);
    let out = run_join_ctx(spade, left, right, &q, &QueryCtx::default()).expect("kNN join");
    let left_pts = points_of(left);
    let (r_s2, t_s2) = timed(|| {
        let mut triples = Vec::new();
        for (i, p) in left_pts.iter().enumerate() {
            for (id, d) in s2.knn(*p, k) {
                triples.push((i as u32, id, d));
            }
        }
        triples
    });
    assert_eq!(r_s2.len(), out.result.len(), "S2 kNN join disagrees");
    vec![label, fmt_dur(out.stats.total_time), fmt_dur(t_s2)]
}

// ---------------------------------------------------------------------
// Figs. 10–13: synthetic data (§6.6)
// ---------------------------------------------------------------------

/// Fig. 10: selection over uniform vs gaussian points.
pub fn fig10() -> Vec<Table> {
    let spade = bench_engine();
    let mut left = Table::new(
        "Fig 10 (left): selection, varying query extent (40K points)",
        &["extent", "uniform", "sel-u", "gaussian", "sel-g"],
    );
    let uni = wl::spider_points(40, false, 1);
    let gau = wl::spider_points(40, true, 1);
    let iuni = wl::index(&spade, &uni);
    let igau = wl::index(&spade, &gau);
    for e in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let c = wl::unit_square_constraint(e);
        let u = select::select_indexed(&spade, &iuni, &c, &QueryCtx::default())
            .expect("indexed select");
        let g = select::select_indexed(&spade, &igau, &c, &QueryCtx::default())
            .expect("indexed select");
        left.row(vec![
            format!("{e:.1}"),
            fmt_dur(u.stats.total_time),
            format!("{:.1}%", u.result.len() as f64 / uni.len() as f64 * 100.0),
            fmt_dur(g.stats.total_time),
            format!("{:.1}%", g.result.len() as f64 / gau.len() as f64 * 100.0),
        ]);
    }

    let mut right = Table::new(
        "Fig 10 (right): selection, varying input size (extent 0.3)",
        &["points", "uniform", "gaussian"],
    );
    let c = wl::unit_square_constraint(0.3);
    for m in [40usize, 80, 120, 160, 200] {
        let uni = wl::spider_points(m, false, 2);
        let gau = wl::spider_points(m, true, 2);
        let iuni = wl::index(&spade, &uni);
        let igau = wl::index(&spade, &gau);
        let u = select::select_indexed(&spade, &iuni, &c, &QueryCtx::default())
            .expect("indexed select");
        let g = select::select_indexed(&spade, &igau, &c, &QueryCtx::default())
            .expect("indexed select");
        right.row(vec![
            uni.len().to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    vec![left, right]
}

/// Fig. 11: selection over uniform vs gaussian boxes.
pub fn fig11() -> Vec<Table> {
    let spade = bench_engine();
    let mut left = Table::new(
        "Fig 11 (left): box selection, varying query extent (10K boxes)",
        &["extent", "uniform", "gaussian"],
    );
    let uni = wl::spider_boxes(10, false, 3);
    let gau = wl::spider_boxes(10, true, 3);
    let iuni = wl::index(&spade, &uni);
    let igau = wl::index(&spade, &gau);
    for e in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let c = wl::unit_square_constraint(e);
        let u = select::select_indexed(&spade, &iuni, &c, &QueryCtx::default())
            .expect("indexed select");
        let g = select::select_indexed(&spade, &igau, &c, &QueryCtx::default())
            .expect("indexed select");
        left.row(vec![
            format!("{e:.1}"),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    let mut right = Table::new(
        "Fig 11 (right): box selection, varying input size (extent 0.3)",
        &["boxes", "uniform", "gaussian"],
    );
    let c = wl::unit_square_constraint(0.3);
    for m in [10usize, 20, 30, 40, 50] {
        let uni = wl::spider_boxes(m, false, 4);
        let gau = wl::spider_boxes(m, true, 4);
        let iuni = wl::index(&spade, &uni);
        let igau = wl::index(&spade, &gau);
        let u = select::select_indexed(&spade, &iuni, &c, &QueryCtx::default())
            .expect("indexed select");
        let g = select::select_indexed(&spade, &igau, &c, &QueryCtx::default())
            .expect("indexed select");
        right.row(vec![
            uni.len().to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    vec![left, right]
}

/// Fig. 12: point–polygon joins over synthetic data.
pub fn fig12() -> Vec<Table> {
    let spade = bench_engine();
    let mut left = Table::new(
        "Fig 12 (left): join, varying parcels (40K points)",
        &["parcels", "uniform", "gaussian"],
    );
    let uni = wl::spider_points(40, false, 5);
    let gau = wl::spider_points(40, true, 5);
    for n in [1_000usize, 2_500, 5_000, 7_500, 10_000] {
        let parcels = wl::parcels(n);
        let ip = wl::index(&spade, &parcels);
        let iu = wl::index(&spade, &uni);
        let ig = wl::index(&spade, &gau);
        let u = spade_core::join::join_indexed(&spade, &ip, &iu, &QueryCtx::default())
            .expect("indexed join");
        let g = spade_core::join::join_indexed(&spade, &ip, &ig, &QueryCtx::default())
            .expect("indexed join");
        left.row(vec![
            n.to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    let mut right = Table::new(
        "Fig 12 (right): join, varying points (5 000 parcels)",
        &["points", "uniform", "gaussian"],
    );
    let parcels = wl::parcels(5_000);
    let ip = wl::index(&spade, &parcels);
    for m in [40usize, 80, 120, 160, 200] {
        let uni = wl::spider_points(m, false, 6);
        let gau = wl::spider_points(m, true, 6);
        let iu = wl::index(&spade, &uni);
        let ig = wl::index(&spade, &gau);
        let u = spade_core::join::join_indexed(&spade, &ip, &iu, &QueryCtx::default())
            .expect("indexed join");
        let g = spade_core::join::join_indexed(&spade, &ip, &ig, &QueryCtx::default())
            .expect("indexed join");
        right.row(vec![
            uni.len().to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    vec![left, right]
}

/// Fig. 13: polygon–polygon joins over synthetic data.
pub fn fig13() -> Vec<Table> {
    let spade = bench_engine();
    let mut left = Table::new(
        "Fig 13 (left): join, varying parcels (10K boxes)",
        &["parcels", "uniform", "gaussian"],
    );
    let uni = wl::spider_boxes(10, false, 7);
    let gau = wl::spider_boxes(10, true, 7);
    for n in [1_000usize, 2_500, 5_000, 7_500, 10_000] {
        let parcels = wl::parcels(n);
        let ip = wl::index(&spade, &parcels);
        let iu = wl::index(&spade, &uni);
        let ig = wl::index(&spade, &gau);
        let u = spade_core::join::join_indexed(&spade, &ip, &iu, &QueryCtx::default())
            .expect("indexed join");
        let g = spade_core::join::join_indexed(&spade, &ip, &ig, &QueryCtx::default())
            .expect("indexed join");
        left.row(vec![
            n.to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    let mut right = Table::new(
        "Fig 13 (right): join, varying boxes (5 000 parcels)",
        &["boxes", "uniform", "gaussian"],
    );
    let parcels = wl::parcels(5_000);
    let ip = wl::index(&spade, &parcels);
    for m in [10usize, 20, 30, 40, 50] {
        let uni = wl::spider_boxes(m, false, 8);
        let gau = wl::spider_boxes(m, true, 8);
        let iu = wl::index(&spade, &uni);
        let ig = wl::index(&spade, &gau);
        let u = spade_core::join::join_indexed(&spade, &ip, &iu, &QueryCtx::default())
            .expect("indexed join");
        let g = spade_core::join::join_indexed(&spade, &ip, &ig, &QueryCtx::default())
            .expect("indexed join");
        right.row(vec![
            uni.len().to_string(),
            fmt_dur(u.stats.total_time),
            fmt_dur(g.stats.total_time),
        ]);
    }
    vec![left, right]
}

// ---------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------

/// Boundary-index ablation: exact (with overflow lists) vs the paper's
/// single-triangle test vs no boundary index (full point-in-polygon at
/// boundary pixels).
pub fn ablate_boundary() -> Vec<Table> {
    let spade = bench_engine();
    let data = wl::taxi(100_000);
    let pts = data.as_points();
    let constraint_poly = wl::constraints(&wl::nyc_extent(), 512, 0xab)[7].clone();
    let prepared = vec![PreparedPolygon::prepare(0, &constraint_poly)];
    let constraint = Constraint::from_polygons(&spade, &prepared);

    let oracle: Vec<u32> = pts
        .iter()
        .filter(|(_, p)| spade_geometry::predicates::point_in_polygon(*p, &constraint_poly))
        .map(|(id, _)| *id)
        .collect();

    // (a) engine path: exact boundary index with overflow lists.
    let (full, t_full) = timed(|| select::select_points_mem(&spade, &pts, &constraint));
    // (b) primary-only: the paper's original single-entry design.
    let (primary, t_primary) = timed(|| {
        classify_points(&constraint, &pts, |px, vb, p| {
            constraint.layer.boundary.test_point_primary_only(vb, p) && {
                let _ = px;
                true
            }
        })
    });
    // (c) no boundary index: full point-in-polygon at boundary pixels.
    let (pip, t_pip) = timed(|| {
        classify_points(&constraint, &pts, |_, _, p| {
            spade_geometry::predicates::point_in_polygon(p, &constraint_poly)
        })
    });

    let mut sorted_full = full.clone();
    sorted_full.sort_unstable();
    assert_eq!(sorted_full, oracle, "exact path must match the oracle");
    assert_eq!(pip, oracle, "PIP fallback must match the oracle");
    let wrong = primary.iter().filter(|id| !oracle.contains(id)).count()
        + oracle.iter().filter(|id| !primary.contains(id)).count();

    let mut t = Table::new(
        "Ablation: boundary index variants (selection, 100K points, 512-vertex constraint)",
        &["variant", "time", "errors", "overflow px"],
    );
    t.row(vec![
        "exact (+overflow)".into(),
        fmt_dur(t_full),
        "0".into(),
        constraint.layer.boundary.overflow_pixels().to_string(),
    ]);
    t.row(vec![
        "single-triangle (paper)".into(),
        fmt_dur(t_primary),
        wrong.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "no index (full PIP)".into(),
        fmt_dur(t_pip),
        "0".into(),
        "-".into(),
    ]);
    vec![t]
}

/// Classify points against a constraint canvas with a custom boundary rule
/// (used by the boundary ablation).
fn classify_points(
    constraint: &Constraint,
    pts: &[(u32, Point)],
    boundary_rule: impl Fn((u32, u32), u32, Point) -> bool,
) -> Vec<u32> {
    use spade_canvas::canvas::{classify, pixel_bound, PixelClass};
    let mut out = Vec::new();
    for &(id, p) in pts {
        let Some((x, y)) = constraint.viewport.world_to_pixel(p) else {
            continue;
        };
        let v = constraint.layer.texture.get(x, y);
        let keep = match classify(v) {
            PixelClass::Outside => false,
            PixelClass::Interior => true,
            PixelClass::Boundary => {
                let vb = pixel_bound(v).expect("vb");
                boundary_rule((x, y), vb, p)
            }
        };
        if keep {
            out.push(id);
        }
    }
    out
}

/// Layer-index ablation: the layered join vs a naive loop of per-polygon
/// selections (in-memory), each timed with its polygon preparation.
pub fn ablate_layer() -> Vec<Table> {
    let spade = bench_engine();
    let polys = Arc::new(wl::census());
    let pts = Arc::new(wl::taxi(100_000));
    let set = spade_core::dataset::PreparedPolygonSet::prepare(
        &spade.pipeline,
        &polys,
        spade.config.layer_resolution(),
    );
    let points = pts.as_points();

    let join = JoinQuery::Intersects;
    let (layered, t_layer) = timed(|| {
        run_join_ctx(&spade, &polys, &pts, &join, &QueryCtx::default())
            .expect("layered join")
            .result
    });
    let (naive, t_naive) = timed(|| {
        let mut pairs = Vec::new();
        for poly in &polys.prepare_polygons() {
            let c = Constraint::from_polygons(&spade, std::slice::from_ref(poly));
            for id in select::select_points_mem(&spade, &points, &c) {
                pairs.push((poly.id, id));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    });
    assert_eq!(layered, QueryResult::Pairs(naive), "strategies must agree");

    let mut t = Table::new(
        "Ablation: layer index (census ⋈ taxi join, in-memory)",
        &["strategy", "passes (canvases)", "time"],
    );
    t.row(vec![
        format!("layer index ({} layers)", set.layers.len()),
        set.layers.len().to_string(),
        fmt_dur(t_layer),
    ]);
    t.row(vec![
        "naive per-polygon".into(),
        set.polygons.len().to_string(),
        fmt_dur(t_naive),
    ]);
    vec![t]
}

/// Conservative-rasterization ablation: how many true members the default
/// rasterization rule loses on sub-pixel geometry, as the canvas gets
/// coarser (the effect the conservative boundary pass of §4.2 exists for).
pub fn ablate_conservative() -> Vec<Table> {
    use spade_gpu::{BlendMode, DrawCall, Primitive};
    let spade = bench_engine();
    let data = wl::buildings(5_000);
    let constraint = wl::constraints(&wl::world_extent(), 64, 0xcc)[8].clone();

    // True members and their triangulations.
    let polys = data.as_polygons();
    let members: Vec<PreparedPolygon> = polys
        .iter()
        .filter(|(_, p)| spade_geometry::predicates::polygons_intersect(p, &constraint))
        .map(|(id, p)| PreparedPolygon::prepare(*id, p))
        .collect();

    let mut t = Table::new(
        "Ablation: conservative rasterization (true-member buildings visible per rule)",
        &[
            "canvas",
            "members",
            "default rule",
            "conservative",
            "lost w/o conservative",
        ],
    );
    for resolution in [32u32, 64, 128, 256, 1024] {
        let pad = constraint.bbox().width().max(constraint.bbox().height()) * 1e-6;
        let vp = spade_gpu::Viewport::square_pixels(constraint.bbox().inflate(pad), resolution);
        let [default_rule, conservative] =
            [false, true].map(|rule| DrawCall::simple(vp, BlendMode::Replace, rule));
        let mut visible_default = 0usize;
        let mut visible_cons = 0usize;
        for prepared in &members {
            let prims: Vec<Primitive> = (prepared.triangles.iter())
                .map(|tr| Primitive::triangle(tr.a, tr.b, tr.c, [0; 4]))
                .collect();
            let visible = |call| usize::from(spade.pipeline.count_pass(&prims, call) > 0);
            visible_default += visible(&default_rule);
            visible_cons += visible(&conservative);
        }
        assert_eq!(
            visible_cons,
            members.len(),
            "conservative rasterization must never lose a member"
        );
        t.row(vec![
            format!("{resolution}px"),
            members.len().to_string(),
            visible_default.to_string(),
            visible_cons.to_string(),
            (members.len() - visible_default).to_string(),
        ]);
    }
    vec![t]
}

/// Convex-hull cell-bound ablation: filter power of hulls vs bboxes.
pub fn ablate_hull() -> Vec<Table> {
    let spade = bench_engine();
    let data = wl::taxi(100_000);
    let indexed = wl::index(&spade, &data);
    let mut t = Table::new(
        "Ablation: grid-cell bounding polygons (hull vs bbox filter)",
        &["query", "cells total", "hull-filtered", "bbox-filtered"],
    );
    for (i, c) in wl::constraints(&wl::nyc_extent(), 48, 0xd)
        .iter()
        .enumerate()
    {
        // Hull filter: the engine's own GPU selection over hulls.
        let hulls: Vec<PreparedPolygon> = indexed
            .grid()
            .bounding_polygons()
            .into_iter()
            .map(|(j, h)| PreparedPolygon::prepare(j, &h))
            .collect();
        let constraint = Constraint::from_polygons(&spade, &[PreparedPolygon::prepare(0, c)]);
        let hull_cells = select::select_polygons_mem(&spade, &hulls, &constraint).len();
        // BBox filter.
        let cb = c.bbox();
        let bbox_cells = indexed
            .grid()
            .cells()
            .iter()
            .filter(|cell| cell.bbox().intersects(&cb))
            .count();
        t.row(vec![
            format!("P{}", i + 1),
            indexed.grid().num_cells().to_string(),
            hull_cells.to_string(),
            bbox_cells.to_string(),
        ]);
    }
    vec![t]
}

/// Indexing-strategy ablation (§7): grid clustering vs R-tree (STR leaf)
/// partitioning, both filtered through the same GPU hull selection.
pub fn ablate_rtree() -> Vec<Table> {
    use spade_baselines::rtree;
    use spade_core::dataset::{DatasetKind, IndexedDataset};
    use spade_index::GridIndex;

    let spade = bench_engine();
    let data = wl::taxi(100_000);
    let cell = GridIndex::cell_size_for_budget(
        &data.extent,
        data.byte_size() as u64,
        spade.config.max_cell_bytes,
    );
    let grid = GridIndex::build(None, &data.objects, cell).expect("grid");
    let per_leaf = data.len().div_ceil(grid.num_cells().max(1));
    let rtree_grid = GridIndex::from_partitions(
        None,
        &data.objects,
        rtree::str_partitions(&data.objects, per_leaf),
        cell,
        spade_geometry::Point::ZERO,
    )
    .expect("rtree partitions");
    let ig = IndexedDataset::new("grid", DatasetKind::Points, grid);
    let ir = IndexedDataset::new("rtree", DatasetKind::Points, rtree_grid);

    let mut t = Table::new(
        "Ablation: indexing strategy (grid vs R-tree leaves, 100K points)",
        &[
            "query",
            "grid cells",
            "grid time",
            "rtree cells",
            "rtree time",
        ],
    );
    for (i, c) in wl::constraints(&wl::nyc_extent(), 48, 0xf)
        .iter()
        .enumerate()
    {
        let a =
            select::select_indexed(&spade, &ig, c, &QueryCtx::default()).expect("indexed select");
        let b =
            select::select_indexed(&spade, &ir, c, &QueryCtx::default()).expect("indexed select");
        assert_eq!(a.result, b.result, "strategies disagree on P{}", i + 1);
        t.row(vec![
            format!("P{}", i + 1),
            format!("{}/{}", a.stats.cells_loaded, ig.grid().num_cells()),
            fmt_dur(a.stats.total_time),
            format!("{}/{}", b.stats.cells_loaded, ir.grid().num_cells()),
            fmt_dur(b.stats.total_time),
        ]);
    }
    vec![t]
}

/// Map-implementation ablation: 1-pass vs 2-pass on the same selection.
pub fn ablate_mapimpl() -> Vec<Table> {
    let data = wl::taxi(200_000);
    let c = wl::constraints(&wl::nyc_extent(), 48, 0xe)[9].clone();

    let one_pass = Spade::new(EngineConfig {
        max_map_slots: usize::MAX,
        ..bench_engine().config
    });
    let two_pass = Spade::new(EngineConfig {
        max_map_slots: 0,
        ..bench_engine().config
    });
    let (data, c) = (Arc::new(data), SelectQuery::Intersects(c));
    let a = run_select_ctx(&one_pass, &data, &c, &QueryCtx::default()).expect("1-pass select");
    let b = run_select_ctx(&two_pass, &data, &c, &QueryCtx::default()).expect("2-pass select");
    assert_eq!(a.result, b.result);

    let mut t = Table::new(
        "Ablation: Map operator implementation (200K-point selection)",
        &["implementation", "passes", "time"],
    );
    t.row(vec![
        "1-pass (n_max list + scan)".into(),
        a.stats.passes.to_string(),
        fmt_dur(a.stats.total_time),
    ]);
    t.row(vec![
        "2-pass (count, then place)".into(),
        b.stats.passes.to_string(),
        fmt_dur(b.stats.total_time),
    ]);
    vec![t]
}

/// An experiment: its id plus the function regenerating its tables.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment id the harness knows, in run order.
pub const ALL: &[Experiment] = &[
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("tab2", tab2),
    ("tab3", tab3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablate-boundary", ablate_boundary),
    ("ablate-layer", ablate_layer),
    ("ablate-conservative", ablate_conservative),
    ("ablate-hull", ablate_hull),
    ("ablate-rtree", ablate_rtree),
    ("ablate-mapimpl", ablate_mapimpl),
];
