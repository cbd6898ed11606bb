//! kNN and distance-join workloads (§5.2): nearest stations for pickup
//! hotspots, in projected meters.
//!
//! ```text
//! cargo run --release --example knn_hotspots
//! ```

use spade::datagen::urban;
use spade::engine::dataset::Dataset;
use spade::engine::query::{run_join_ctx, run_select_ctx, JoinQuery, QueryResult, SelectQuery};
use spade::engine::{EngineConfig, QueryCtx, Spade};
use spade::geometry::project::lonlat_to_mercator;
use spade::geometry::{BBox, Point};
use std::sync::Arc;

fn main() {
    let engine = Spade::new(EngineConfig::default());

    // Pickups in lon/lat, projected to EPSG:3857 meters at load — the
    // projection SPADE's vertex shaders apply for distance and kNN queries
    // (§4.2).
    let nyc = BBox::new(Point::new(-74.3, 40.5), Point::new(-73.7, 40.95));
    let pickups_ll = urban::clustered_points(100_000, &nyc, 8, 42);
    let pickups = Arc::new(Dataset::from_points(
        "pickups-3857",
        pickups_ll.iter().map(|&p| lonlat_to_mercator(p)).collect(),
    ));
    // A handful of "station" locations.
    let stations_ll = urban::clustered_points(12, &nyc, 4, 17);
    let stations = Arc::new(Dataset::from_points(
        "stations-3857",
        stations_ll.iter().map(|&p| lonlat_to_mercator(p)).collect(),
    ));
    let ctx = QueryCtx::default();

    // 1. kNN selection: the 5 pickups nearest to the first station. The
    //    plan draws log-spaced circles, aggregates, then refines (§5.2).
    let q = stations.as_points()[0].1;
    let out = run_select_ctx(&engine, &pickups, &SelectQuery::Knn(q, 5), &ctx).expect("kNN");
    let QueryResult::Ranked(nearest) = &out.result else {
        unreachable!("a kNN selection answers ranked ids")
    };
    println!("5 nearest pickups to station 0:");
    for (id, d) in nearest {
        println!("  pickup #{id} at {d:.1} m");
    }

    // 2. kNN join: the 3 nearest pickups for every station.
    let join = run_join_ctx(&engine, &stations, &pickups, &JoinQuery::Knn(3), &ctx);
    let QueryResult::RankedPairs(triples) = join.expect("kNN join").result else {
        unreachable!("a kNN join answers ranked pairs")
    };
    println!("\nkNN join (k=3): {} result triples", triples.len());
    for (sid, pid, d) in triples.iter().take(6) {
        println!("  station #{sid} ↔ pickup #{pid}: {d:.1} m");
    }

    // 3. Distance join: all (station, pickup) pairs within 250 m — the
    //    on-the-fly circle layers keep per-pixel attribution exact.
    let within = JoinQuery::WithinDistance(250.0);
    let dj = run_join_ctx(&engine, &stations, &pickups, &within, &ctx).expect("distance join");
    println!(
        "\ndistance join (250 m): {} pairs across {} stations ({})",
        dj.result.len(),
        stations.len(),
        dj.stats.breakdown()
    );
}
