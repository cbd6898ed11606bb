//! Relational integration (§3): spatial data lives in relational tables,
//! loaded and stored with SQL, and spatial query results link back to
//! relational attributes — the combination the paper designs SPADE around.
//!
//! ```text
//! cargo run --release --example sql_integration
//! ```

use spade::engine::dataset::{Dataset, DatasetKind};
use spade::engine::query::{run_select_ctx, SelectQuery};
use spade::engine::{EngineConfig, QueryCtx, Spade};
use spade::geometry::{Geometry, Point, Polygon};
use spade::storage::geom::{geometry_table, read_geometry_table};
use spade::storage::sql::{execute, SqlResult};
use spade::storage::Database;
use std::sync::Arc;

fn main() {
    let db = Database::in_memory();

    // 1. Relational side: restaurant attributes via plain SQL.
    execute(
        &db,
        "CREATE TABLE restaurants (id INT, name TEXT, rating FLOAT)",
    )
    .unwrap();
    execute(
        &db,
        "INSERT INTO restaurants VALUES \
         (0, 'Blue Bottle', 4.5), (1, 'Joe''s Pizza', 4.8), (2, 'Shake Shack', 4.1), \
         (3, 'Katz Deli', 4.7), (4, 'Grey Dog', 3.9), (5, 'Le Bernardin', 4.9)",
    )
    .unwrap();

    // 2. Spatial side: locations stored as a geometry table (id + bbox
    //    columns + WKB-like blob), the canonical layout of §3.
    let locations: Vec<(u32, Geometry)> = vec![
        (0, Geometry::Point(Point::new(1.0, 1.0))),
        (1, Geometry::Point(Point::new(2.5, 2.0))),
        (2, Geometry::Point(Point::new(8.0, 8.0))),
        (3, Geometry::Point(Point::new(3.0, 3.5))),
        (4, Geometry::Point(Point::new(9.0, 1.0))),
        (5, Geometry::Point(Point::new(2.0, 3.0))),
    ];
    db.put_table(geometry_table("locations", &locations).unwrap());

    // 3. Spatial query: restaurants inside a downtown polygon.
    let engine = Spade::new(EngineConfig::test_small());
    let spatial = db
        .with_table("locations", read_geometry_table)
        .unwrap()
        .unwrap();
    let data = Arc::new(Dataset::from_objects(
        "locations",
        DatasetKind::Points,
        spatial,
    ));
    let downtown = SelectQuery::Intersects(Polygon::circle(Point::new(2.5, 2.5), 2.0, 16));
    let hits = run_select_ctx(&engine, &data, &downtown, &QueryCtx::default());
    let hits = hits.expect("selection").result;
    let hits = hits.ids().expect("a selection answers ids");
    println!("restaurants downtown (spatial ids): {hits:?}");

    // 4. Link back to relational attributes: for each spatial hit, a SQL
    //    lookup with a relational predicate (rating ≥ 4.5).
    println!("\nhighly rated downtown restaurants:");
    for id in hits {
        let rows = match execute(
            &db,
            &format!("SELECT name, rating FROM restaurants WHERE id = {id} AND rating >= 4.5"),
        )
        .unwrap()
        {
            SqlResult::Rows(t) => t,
            _ => unreachable!(),
        };
        for r in 0..rows.num_rows() {
            println!(
                "  {} ({})",
                rows.column("name").unwrap().get_str(r).unwrap(),
                rows.column("rating").unwrap().get_float(r).unwrap()
            );
        }
    }

    // 5. EXPLAIN ANALYZE: the SQL layer prints the plan it would run —
    //    outermost operator first — and, with ANALYZE, the measured row
    //    count and wall time of the actual execution.
    println!("\nEXPLAIN ANALYZE SELECT name FROM restaurants WHERE rating >= 4.5 LIMIT 3:");
    let plan = match execute(
        &db,
        "EXPLAIN ANALYZE SELECT name FROM restaurants WHERE rating >= 4.5 LIMIT 3",
    )
    .unwrap()
    {
        SqlResult::Rows(t) => t,
        _ => unreachable!(),
    };
    for r in 0..plan.num_rows() {
        println!("  {}", plan.column("plan").unwrap().get_str(r).unwrap());
    }
}
