//! End-to-end workflow: SQL → geometry tables → persistence → engine
//! queries → relational linkage, mirroring the README quickstart and the
//! paper's architecture (Fig. 1).

use spade::engine::dataset::{Dataset, DatasetKind};
use spade::engine::{select, EngineConfig, QueryCtx, Spade};
use spade::geometry::{Geometry, LineString, MultiPolygon, Point, Polygon};
use spade::storage::geom::{geometry_table, read_geometry_table};
use spade::storage::sql::{execute, SqlResult};
use spade::storage::Database;
use std::sync::Arc;

fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// The axis-aligned square with lower-left corner `(x, y)`, CCW.
fn square(x: f64, y: f64, side: f64) -> Polygon {
    Polygon::new(pts(&[
        (x, y),
        (x + side, y),
        (x + side, y + side),
        (x, y + side),
    ]))
}

#[test]
fn full_pipeline_from_sql_to_spatial_results() {
    // Attribute table via SQL.
    let db = Database::in_memory();
    execute(&db, "CREATE TABLE poi (id INT, kind TEXT, score FLOAT)").unwrap();
    execute(
        &db,
        "INSERT INTO poi VALUES (0,'cafe',4.0),(1,'park',4.5),(2,'cafe',3.0),(3,'museum',5.0)",
    )
    .unwrap();

    // Geometry table (geometries in, blobs stored).
    let geoms: Vec<(u32, Geometry)> = vec![
        (0, Point::new(1.0, 1.0).into()),
        (1, Point::new(2.0, 2.0).into()),
        (2, Point::new(8.0, 8.0).into()),
        (3, Point::new(2.5, 1.5).into()),
    ];
    db.put_table(geometry_table("poi_geom", &geoms).unwrap());

    // Spatial query through SPADE.
    let engine = Spade::new(EngineConfig::test_small());
    let spatial = db
        .with_table("poi_geom", read_geometry_table)
        .unwrap()
        .unwrap();
    let data = Arc::new(Dataset::from_objects("poi", DatasetKind::Points, spatial));
    let window = Polygon::circle(Point::new(2.0, 2.0), 1.5, 12);
    let hits = select::select_indexed(&engine, &data, &window, &QueryCtx::default());
    let mut hits = hits.unwrap().result;
    hits.sort_unstable();
    assert_eq!(hits, vec![0, 1, 3]);

    // Relational refinement on the spatial result.
    let mut names = Vec::new();
    for id in hits {
        if let SqlResult::Rows(rows) = execute(
            &db,
            &format!("SELECT kind FROM poi WHERE id = {id} AND score >= 4.0"),
        )
        .unwrap()
        {
            for r in 0..rows.num_rows() {
                names.push(rows.column("kind").unwrap().get_str(r).unwrap().to_string());
            }
        }
    }
    names.sort();
    assert_eq!(names, vec!["cafe", "museum", "park"]);
}

#[test]
fn geometry_tables_survive_disk_roundtrip() {
    let dir = std::env::temp_dir().join(format!("spade-e2e-{}", std::process::id()));
    let db = Database::open(&dir).unwrap();
    let geoms: Vec<(u32, Geometry)> = vec![
        (
            7,
            Polygon::with_holes(
                pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
                vec![pts(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])],
            )
            .into(),
        ),
        (
            8,
            LineString::new(pts(&[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)])).into(),
        ),
        (
            9,
            MultiPolygon::new(vec![Polygon::new(pts(&[
                (0.0, 0.0),
                (1.0, 0.0),
                (0.0, 1.0),
            ]))])
            .into(),
        ),
    ];
    db.put_table(geometry_table("g", &geoms).unwrap());
    let written = db.save_table("g").unwrap();
    assert!(written > 0);

    let db2 = Database::open(&dir).unwrap();
    db2.load_table("g").unwrap();
    let back = db2.with_table("g", read_geometry_table).unwrap().unwrap();
    assert_eq!(back, geoms);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn mixed_geometry_dataset_selection() {
    // A data set mixing polygons and multipolygons (§3 footnote: polygons
    // denote multi-polygons too).
    let engine = Spade::new(EngineConfig::test_small());
    let objects: Vec<(u32, Geometry)> = vec![
        (0, square(0.0, 0.0, 2.0).into()),
        (
            1,
            MultiPolygon::new(vec![square(5.0, 5.0, 1.0), square(9.0, 9.0, 1.0)]).into(),
        ),
        (2, square(20.0, 20.0, 2.0).into()),
    ];
    let data = Arc::new(Dataset::from_objects(
        "mixed",
        DatasetKind::Polygons,
        objects,
    ));
    // A constraint touching object 0 (corner at (2,2), distance ≈ 9.9)
    // and both parts of multipolygon 1, but not the far square 2
    // (corner (20,20), distance ≈ 15.6).
    let c = Polygon::circle(Point::new(9.0, 9.0), 11.0, 24);
    let hits = select::select_indexed(&engine, &data, &c, &QueryCtx::default());
    let hits = hits.unwrap().result;
    assert_eq!(hits, vec![0, 1]);
}
