//! Background compaction: fold a delta snapshot into a new index
//! generation.
//!
//! Compaction never mutates the old [`GridIndex`]. It reads the affected
//! cells (counted in its report's `bytes_read`, never as query I/O),
//! rewrites them with tombstoned/replaced objects removed and staged
//! inserts added, recomputes each rewritten cell's convex hull, splits
//! cells that outgrew the byte budget via
//! [`GridIndex::cell_size_for_budget`], and assembles a **new** index at
//! `generation + 1` that shares every unchanged block with the old one.
//! Readers holding the old generation are undisturbed; the caller
//! installs the new index once `compact` returns and then drains the
//! delta through the snapshot's sequence.

use crate::delta::DeltaSnapshot;
use crate::grid::{bucket_of, encode_cell, BlockRef, BlockStore, GridCell, GridIndex};
use spade_geometry::{BBox, Geometry};
use spade_storage::Result;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one compaction run did.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    /// Generation of the index the run produced.
    pub generation: u64,
    /// Cells carried over untouched (block shared with the old index).
    pub cells_kept: usize,
    /// Cells rewritten (members changed).
    pub cells_rewritten: usize,
    /// Extra cells created by splitting overfull rewrites.
    pub cells_split: usize,
    /// Block bytes read from the old generation.
    pub bytes_read: u64,
    /// Block bytes written into the new generation.
    pub bytes_written: u64,
    /// Staged inserts folded in.
    pub inserts_applied: usize,
    /// Base objects dropped (tombstoned or replaced).
    pub objects_removed: usize,
}

/// Fold `delta` into `old`, producing the next generation. Blocks of
/// unaffected cells are shared, not copied; rewritten blocks are written
/// as `cell_g{N}_{i}.blk` for disk-backed indexes so no file of the old
/// generation is ever touched.
pub fn compact(
    old: &GridIndex,
    delta: &DeltaSnapshot,
    max_cell_bytes: u64,
) -> Result<(GridIndex, CompactReport)> {
    let generation = old.generation + 1;
    let mut report = CompactReport {
        generation,
        ..CompactReport::default()
    };

    // Bucket staged inserts by their owning cell coordinates.
    let mut staged_by_cell: BTreeMap<(i32, i32), Vec<(u32, Geometry)>> = BTreeMap::new();
    for (id, g) in &delta.staged {
        let key = bucket_of(g.centroid(), old.origin, old.cell_size);
        staged_by_cell
            .entry(key)
            .or_default()
            .push((*id, g.clone()));
    }

    // Pass 1: decide per old cell whether it survives untouched.
    // `rewrites` collects the member sets of cells that must be re-encoded,
    // keyed by cell coordinates.
    type Rewrite = ((i32, i32), Vec<(u32, Geometry)>);
    let mut kept: Vec<(GridCell, BlockRef)> = Vec::new();
    let mut rewrites: Vec<Rewrite> = Vec::new();
    for (i, cell) in old.cells().iter().enumerate() {
        let takes_inserts = staged_by_cell.contains_key(&cell.coords);
        let masked = cell.id_range_hits(&delta.mask);
        if !takes_inserts && !masked {
            kept.push((cell.clone(), old.block_ref(i)));
            report.cells_kept += 1;
            continue;
        }
        let mut members = old.load_cell(i)?;
        report.bytes_read += cell.bytes;
        if masked {
            let before = members.len();
            members.retain(|(id, _)| !delta.mask.contains(id));
            report.objects_removed += before - members.len();
        }
        if let Some(staged) = staged_by_cell.remove(&cell.coords) {
            report.inserts_applied += staged.len();
            members.extend(staged);
        }
        rewrites.push((cell.coords, members));
    }

    // Staged inserts targeting coordinates with no existing cell open new
    // cells there.
    for (coords, staged) in staged_by_cell {
        report.inserts_applied += staged.len();
        rewrites.push((coords, staged));
    }

    // Pass 2: encode rewritten member sets, splitting overfull ones.
    let mut new_blocks: Vec<(GridCell, Vec<u8>)> = Vec::new();
    for (coords, mut members) in rewrites {
        if members.is_empty() {
            continue; // cell fully emptied by deletes
        }
        members.sort_by_key(|(id, _)| *id);
        let (cell, encoded) = encode_cell(coords, &members)?;
        if cell.bytes <= max_cell_bytes || members.len() <= 1 {
            report.cells_rewritten += 1;
            new_blocks.push((cell, encoded));
            continue;
        }
        // Over budget: split by centroid at the finer cell size the
        // budget machinery picks for this cell's extent.
        let mut extent = BBox::empty();
        for (_, g) in &members {
            extent = extent.union(&g.bbox());
        }
        let sub_size = GridIndex::cell_size_for_budget(&extent, cell.bytes, max_cell_bytes);
        let mut sub: BTreeMap<(i32, i32), Vec<(u32, Geometry)>> = BTreeMap::new();
        for (id, g) in members {
            let key = bucket_of(g.centroid(), extent.min, sub_size);
            sub.entry(key).or_default().push((id, g));
        }
        if sub.len() <= 1 {
            // Coincident centroids: the split cannot separate them, so
            // tolerate the oversized cell (same policy as skewed builds).
            report.cells_rewritten += 1;
            new_blocks.push((cell, encoded));
            continue;
        }
        report.cells_rewritten += 1;
        report.cells_split += sub.len() - 1;
        for (_, part) in sub {
            // Split parts keep the parent's coordinates: future inserts
            // bucketed there merge into the first part and may re-split.
            let (c, e) = encode_cell(coords, &part)?;
            new_blocks.push((c, e));
        }
    }

    // Pass 3: assemble the new generation's store.
    let mut cells = Vec::with_capacity(kept.len() + new_blocks.len());
    let store = if let Some(dir) = old.dir() {
        let mut files = Vec::with_capacity(kept.len() + new_blocks.len());
        for (cell, block) in kept {
            let BlockRef::File(name) = block else {
                unreachable!("disk index yields file refs")
            };
            cells.push(cell);
            files.push(name);
        }
        for (i, (cell, encoded)) in new_blocks.into_iter().enumerate() {
            let name = format!("cell_g{generation}_{i}.blk");
            // fsynced now so the manifest that makes this block reachable
            // can never be durable while the block bytes are not.
            spade_storage::persist::write_durable(&dir.join(&name), &encoded)?;
            report.bytes_written += encoded.len() as u64;
            cells.push(cell);
            files.push(name);
        }
        BlockStore::Disk {
            dir: dir.to_path_buf(),
            files,
        }
    } else {
        let mut blocks = Vec::with_capacity(kept.len() + new_blocks.len());
        for (cell, block) in kept {
            let BlockRef::Bytes(bytes) = block else {
                unreachable!("memory index yields byte refs")
            };
            cells.push(cell);
            blocks.push(bytes);
        }
        for (cell, encoded) in new_blocks {
            report.bytes_written += encoded.len() as u64;
            cells.push(cell);
            blocks.push(Arc::new(encoded));
        }
        BlockStore::Memory(blocks)
    };

    Ok((
        GridIndex::from_parts(old.cell_size, old.origin, generation, cells, store),
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaStore;
    use spade_geometry::Point;
    use std::collections::BTreeSet;

    fn pt(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    fn scatter(n: usize) -> Vec<(u32, Geometry)> {
        let mut s = 7u64;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 10_000) as f64 / 100.0;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 10_000) as f64 / 100.0;
                (i as u32, pt(x, y))
            })
            .collect()
    }

    /// All objects of an index, sorted by id.
    fn contents(idx: &GridIndex) -> Vec<(u32, Geometry)> {
        let mut out = Vec::new();
        for i in 0..idx.num_cells() {
            out.extend(idx.load_cell(i).unwrap());
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    #[test]
    fn compact_equals_rebuild() {
        let base = scatter(300);
        let idx = GridIndex::build(None, &base, 25.0).unwrap();
        let mut delta = DeltaStore::new();
        // Delete some, replace some, insert new ones.
        for id in 0..20u32 {
            delta.delete(id as u64 + 1, id * 7);
        }
        for i in 0..40u32 {
            delta.insert(100 + i as u64, 300 + i, pt(i as f64, 50.0));
        }
        delta.insert(200, 5, pt(1.0, 2.0)); // replace id 5 (if not deleted)
        let snap = delta.snapshot();
        let (new_idx, report) = compact(&idx, &snap, 1 << 20).unwrap();
        assert_eq!(new_idx.generation, 1);
        assert!(report.cells_rewritten > 0);
        assert!(report.inserts_applied >= 40);
        // Compaction reads exactly the old blocks it rewrites: those the
        // new generation does not share.
        let block = |g: &GridIndex, i: usize| match g.block_ref(i) {
            BlockRef::Bytes(b) => b,
            BlockRef::File(_) => unreachable!("in-memory index"),
        };
        let rewritten: u64 = (0..idx.num_cells())
            .filter(|&i| {
                let shared = |j| Arc::ptr_eq(&block(&idx, i), &block(&new_idx, j));
                !(0..new_idx.num_cells()).any(shared)
            })
            .map(|i| idx.cells()[i].bytes)
            .sum();
        assert!(rewritten > 0);
        assert_eq!(report.bytes_read, rewritten);

        // Logical equivalence vs from-scratch state.
        let mut logical: BTreeMap<u32, Geometry> = base.into_iter().collect();
        for id in 0..20u32 {
            logical.remove(&(id * 7));
        }
        for i in 0..40u32 {
            logical.insert(300 + i, pt(i as f64, 50.0));
        }
        logical.insert(5, pt(1.0, 2.0));
        let got = contents(&new_idx);
        let want: Vec<(u32, Geometry)> = logical.into_iter().collect();
        assert_eq!(got.len(), want.len());
        for ((ga, gb), (wa, wb)) in got.iter().zip(&want) {
            assert_eq!(ga, wa);
            assert_eq!(format!("{gb:?}"), format!("{wb:?}"));
        }
    }

    #[test]
    fn untouched_cells_share_blocks() {
        let base = scatter(200);
        let idx = GridIndex::build(None, &base, 25.0).unwrap();
        let mut delta = DeltaStore::new();
        // One insert far outside the data extent: opens a new cell and
        // touches nothing else.
        delta.insert(1, 9999, pt(-500.0, -500.0));
        let snap = delta.snapshot();
        let (new_idx, report) = compact(&idx, &snap, 1 << 20).unwrap();
        assert_eq!(report.cells_kept, idx.num_cells());
        assert_eq!(new_idx.num_cells(), idx.num_cells() + 1);
        assert_eq!(report.bytes_read, 0, "no old blocks were loaded");
    }

    #[test]
    fn deletes_can_empty_a_cell() {
        // Two far-apart clusters → two cells; delete one cluster entirely.
        let mut objects = Vec::new();
        for i in 0..10u32 {
            objects.push((i, pt(i as f64 * 0.1, 0.0)));
        }
        for i in 10..20u32 {
            objects.push((i, pt(90.0 + (i - 10) as f64 * 0.1, 0.0)));
        }
        let idx = GridIndex::build(None, &objects, 25.0).unwrap();
        assert!(idx.num_cells() >= 2);
        let mut delta = DeltaStore::new();
        for i in 10..20u32 {
            delta.delete(i as u64, i);
        }
        let (new_idx, _) = compact(&idx, &delta.snapshot(), 1 << 20).unwrap();
        assert_eq!(new_idx.num_objects(), 10);
        assert!(new_idx.num_cells() < idx.num_cells() + 1);
    }

    #[test]
    fn overfull_rewrite_splits() {
        let base = scatter(50);
        let idx = GridIndex::build(None, &base, 200.0).unwrap(); // one big cell
        assert_eq!(idx.num_cells(), 1);
        let mut delta = DeltaStore::new();
        for i in 0..400u32 {
            delta.insert(i as u64 + 1, 1000 + i, pt((i % 100) as f64, (i / 4) as f64));
        }
        // Tiny budget forces the rewritten cell to split.
        let (new_idx, report) = compact(&idx, &delta.snapshot(), 4096).unwrap();
        assert!(report.cells_split > 0, "expected a split: {report:?}");
        assert_eq!(new_idx.num_objects(), 450);
        // Every object still reachable exactly once.
        let ids: BTreeSet<u32> = contents(&new_idx).into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 450);
    }

    #[test]
    fn disk_compaction_preserves_old_generation_files() {
        let dir = std::env::temp_dir().join(format!("spade-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = scatter(100);
        let idx = GridIndex::build(Some(dir.clone()), &base, 25.0).unwrap();
        let old_files: BTreeSet<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let mut delta = DeltaStore::new();
        delta.insert(1, 500, pt(50.0, 50.0));
        delta.delete(2, 0);
        let (new_idx, _) = compact(&idx, &delta.snapshot(), 1 << 20).unwrap();
        assert_eq!(new_idx.generation, 1);
        // Every old file still present and readable through the old index.
        for f in &old_files {
            assert!(dir.join(f).exists(), "old block {f} removed");
        }
        let total_old: usize = (0..idx.num_cells())
            .map(|i| idx.load_cell(i).unwrap().len())
            .sum();
        assert_eq!(total_old, 100);
        assert_eq!(new_idx.num_objects(), 100); // +1 insert, -1 delete
        new_idx.save_manifest(7).unwrap();
        let (reopened, seq) = GridIndex::open(&dir).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(reopened.generation, 1);
        assert_eq!(reopened.num_objects(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
