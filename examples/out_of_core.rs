//! Out-of-core queries: data larger than (simulated) GPU memory, served
//! from a disk-backed clustered grid index (§5.3).
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use spade::datagen::spider;
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::{select, EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Point, Polygon};
use spade::index::GridIndex;

fn main() {
    // A deliberately tiny device so the data cannot fit at once.
    let engine = Spade::new(EngineConfig {
        device_memory: 4 << 20,  // 4 MiB "GPU"
        max_cell_bytes: 1 << 20, // ≤ 1 MiB per grid cell (§6.1 rule)
        ..EngineConfig::default()
    });

    // 500K points over the unit square: ~12 MB — 3× device memory.
    let pts = spider::uniform_points(500_000, 99);
    let data = Dataset::from_points("big", pts);
    println!(
        "data: {} points, ~{} KiB (device: {} KiB)",
        data.len(),
        data.byte_size() / 1024,
        engine.device.capacity() / 1024
    );

    // Build the clustered grid index on disk: one block file per cell,
    // each cell bounded by the convex hull of its contents.
    let dir = std::env::temp_dir().join("spade-out-of-core-example");
    let cell_size = GridIndex::cell_size_for_budget(
        &data.extent,
        data.byte_size() as u64,
        engine.config.max_cell_bytes,
    );
    let grid = GridIndex::build(Some(dir.clone()), &data.objects, cell_size).expect("grid");
    println!(
        "grid index: {} cells of ≈{} KiB, on disk at {}",
        grid.num_cells(),
        grid.total_bytes() / grid.num_cells() as u64 / 1024,
        dir.display()
    );
    let indexed = IndexedDataset::new("big", DatasetKind::Points, grid);

    // A polygonal selection: the filter stage runs a GPU selection over
    // the cells' hull polygons, then only matching blocks stream through
    // device memory.
    let constraint = Polygon::circle(Point::new(0.3, 0.6), 0.2, 24);
    let out = select::select_indexed(&engine, &indexed, &constraint, &QueryCtx::default())
        .expect("indexed select");
    println!("\nselection: {} points in constraint", out.result.len());
    println!(
        "cells loaded: {} of {} (hull filter pruned the rest)",
        out.stats.cells_loaded,
        indexed.grid().num_cells()
    );
    println!(
        "I/O: {} KiB from disk, {} KiB to device, breakdown: {}",
        out.stats.bytes_from_disk / 1024,
        out.stats.bytes_to_device / 1024,
        out.stats.breakdown()
    );

    // A second, smaller query touches fewer cells.
    let small = Polygon::rect(BBox::new(Point::new(0.8, 0.8), Point::new(0.9, 0.9)));
    let out2 = select::select_indexed(&engine, &indexed, &small, &QueryCtx::default())
        .expect("indexed select");
    println!(
        "\nsmall query: {} points, {} cells loaded, {} KiB moved",
        out2.result.len(),
        out2.stats.cells_loaded,
        out2.stats.bytes_to_device / 1024
    );

    std::fs::remove_dir_all(&dir).ok();
}
