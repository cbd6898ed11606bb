//! Quickstart: run a spatial selection on the SPADE engine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spade::engine::query::{run_select_ctx, SelectQuery};
use spade::engine::{Dataset, EngineConfig, QueryCtx, Spade};
use spade::geometry::{Point, Polygon};
use std::sync::Arc;

fn main() {
    // 1. An engine: the software graphics pipeline plus a simulated device.
    let engine = Spade::new(EngineConfig::default());

    // 2. A point data set (a small deterministic scatter).
    let points: Vec<Point> = (0..10_000)
        .map(|i| {
            let t = i as f64 * 0.61803398875;
            Point::new((t * 97.0) % 100.0, (t * 57.0) % 100.0)
        })
        .collect();
    let data = Arc::new(Dataset::from_points("scatter", points));

    // 3. A polygonal constraint: a hexagon around the center.
    let constraint = Polygon::circle(Point::new(50.0, 50.0), 20.0, 6);

    // 4. Run the selection: the constraint is rasterized into a canvas,
    //    the points are drawn through the fused blend+mask+map pass, and
    //    the boundary index resolves pixels the rasterization cannot.
    let query = SelectQuery::Intersects(constraint);
    let out = run_select_ctx(&engine, &data, &query, &QueryCtx::default()).expect("select");
    let ids = out.result.ids().expect("a selection answers ids");

    println!("selected {} of {} points", ids.len(), data.len());
    println!("first ids: {:?}", &ids[..ids.len().min(8)]);
    println!("stats: {}", out.stats.breakdown());
}
