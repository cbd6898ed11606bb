//! Urban analytics scenario: the workload class that motivates the paper —
//! interactive analysis of city-scale taxi data against neighborhood
//! boundaries (§1).
//!
//! ```text
//! cargo run --release --example taxi_analysis
//! ```

use spade::datagen::urban;
use spade::engine::dataset::Dataset;
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{run_join_ctx, run_select_ctx, JoinQuery, QueryResult, SelectQuery};
use spade::engine::{EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Point};
use std::sync::Arc;

fn main() {
    let engine = Spade::new(EngineConfig::default());

    // Synthetic stand-ins for the paper's NYC data (Table 1): clustered
    // pickup points plus an admin-boundary tessellation.
    let nyc = BBox::new(Point::new(-74.3, 40.5), Point::new(-73.7, 40.95));
    let pickups = urban::clustered_points(200_000, &nyc, 8, 42);
    let pickups = Arc::new(Dataset::from_points("pickups", pickups));
    let hoods = urban::admin_polygons(40, &nyc, 64, 7);
    let hoods = Arc::new(Dataset::from_polygons("neighborhoods", hoods));
    let ctx = QueryCtx::default();
    println!(
        "data: {} pickups, {} neighborhoods",
        pickups.len(),
        hoods.len()
    );

    // 1. Spatial selection: pickups inside one neighborhood.
    let (first_id, first) = {
        let polys = hoods.as_polygons();
        (polys[12].0, polys[12].1.clone())
    };
    let inside = SelectQuery::Intersects(first);
    let sel = run_select_ctx(&engine, &pickups, &inside, &ctx).expect("selection");
    println!(
        "\nselection: neighborhood #{first_id} contains {} pickups ({})",
        sel.result.len(),
        sel.stats.breakdown()
    );

    // 2. Spatial aggregation: pickups per neighborhood, the join's pairs
    //    counted per neighborhood as each cell pair refines.
    let agg = run_join_ctx(&engine, &hoods, &pickups, &JoinQuery::CountPoints, &ctx);
    let agg = agg.expect("aggregation");
    let QueryResult::Counts(counts) = &agg.result else {
        unreachable!("an aggregation answers counts")
    };
    let mut ranked = counts.clone();
    ranked.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\ntop 5 neighborhoods by pickups:");
    for (id, count) in ranked.iter().take(5) {
        println!("  neighborhood #{id}: {count} pickups");
    }
    let total: u64 = counts.iter().map(|(_, c)| c).sum();
    println!(
        "  (total matched: {total}, stats: {})",
        agg.stats.breakdown()
    );

    // 3. Distance query: pickups within ~300 m of a point of interest
    //    (0.003° ≈ 300 m at this latitude). SPADE answers this accurately
    //    through a circle canvas plus distance boundary entries.
    let poi = Point::new(-73.99, 40.75);
    let around = SelectQuery::WithinDistance(DistanceConstraint::Point(poi), 0.003);
    let near = run_select_ctx(&engine, &pickups, &around, &ctx).expect("distance selection");
    println!(
        "\ndistance: {} pickups within ~300m of the POI ({})",
        near.result.len(),
        near.stats.breakdown()
    );
}
