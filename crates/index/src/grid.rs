//! The clustered grid index (§5.3, tuning §6.1).
//!
//! A `GridIndex` is immutable once built: live writes stage in a
//! [`crate::delta::DeltaStore`] and [`crate::compact`](mod@crate::compact) folds them into a
//! **new** index with `generation + 1`, sharing unchanged blocks with its
//! predecessor. In-flight readers holding the old index keep a fully
//! consistent view — nothing they reference is ever rewritten in place.

use spade_geometry::hull::convex_hull_polygon;
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_storage::geom::{decode_geometry, encode_geometry, geometry_table, read_geometry_table};
use spade_storage::persist;
use spade_storage::wal::crc32;
use spade_storage::{cursor, Result, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One grid cell: its bounding polygon (a convex hull), the ids of the
/// objects clustered into it, and the physical size of its data block.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Discrete cell coordinates (before hull expansion). Not necessarily
    /// unique: compaction may split one overfull cell into several cells
    /// sharing coordinates.
    pub coords: (i32, i32),
    /// The bounding polygon: convex hull over the cell's geometries.
    pub hull: Polygon,
    /// Number of objects stored in the cell's block.
    pub num_objects: usize,
    /// Physical (serialized) size of the block in bytes — what a transfer
    /// of this cell to the GPU costs.
    pub bytes: u64,
    /// Smallest object id stored in the block — with `id_max`, lets
    /// compaction skip cells that cannot contain a deleted/replaced id.
    pub id_min: u32,
    /// Largest object id stored in the block.
    pub id_max: u32,
}

impl GridCell {
    pub fn bbox(&self) -> BBox {
        self.hull.bbox()
    }

    /// Whether any id in `ids` (sorted set semantics) could live here.
    pub fn id_range_hits(&self, ids: &std::collections::BTreeSet<u32>) -> bool {
        ids.range(self.id_min..=self.id_max).next().is_some()
    }
}

/// Where cell blocks live.
pub(crate) enum BlockStore {
    /// One file per cell under a directory (the out-of-core path). The
    /// file name of cell `i` is `files[i]`; generations share unchanged
    /// files, so names carry the generation that wrote them.
    Disk { dir: PathBuf, files: Vec<String> },
    /// Serialized blocks held in memory (tests and small benchmarks);
    /// reads are still byte-accounted. `Arc` so successive generations
    /// share unchanged blocks instead of copying them.
    Memory(Vec<Arc<Vec<u8>>>),
}

/// The clustered grid index.
pub struct GridIndex {
    pub cell_size: f64,
    /// Grid origin: cells are aligned to the data extent's minimum corner,
    /// so a data set that fits one cell-size span occupies one cell.
    pub origin: Point,
    /// Compaction epoch: 0 for a freshly built index, incremented every
    /// time [`crate::compact::compact`] folds a delta in.
    pub generation: u64,
    pub(crate) cells: Vec<GridCell>,
    pub(crate) store: BlockStore,
    /// Bytes read through [`GridIndex::load_cell`] since construction.
    bytes_read: Mutex<u64>,
    /// Bytes read by compaction ([`GridIndex::load_cell_compact`]) —
    /// kept apart so maintenance I/O never shows up as query I/O.
    compact_bytes_read: Mutex<u64>,
}

impl GridIndex {
    /// Choose a cell size such that the expected block size stays under
    /// `max_cell_bytes` (the paper restricts zoom levels so a cell is at
    /// most ~2 GB for an 8 GB GPU, §6.1). Assumes roughly uniform density;
    /// skewed data simply yields some larger cells, which is tolerated the
    /// same way the paper's OSM zoom levels are.
    pub fn cell_size_for_budget(extent: &BBox, total_bytes: u64, max_cell_bytes: u64) -> f64 {
        let span = extent.width().max(extent.height()).max(1e-9);
        if total_bytes <= max_cell_bytes {
            return span; // a single cell suffices
        }
        // Halve the cell size (quadrupling the cell count) until the
        // expected per-cell share fits — the OSM zoom-level progression.
        let mut cells_per_axis = 1u64;
        while total_bytes / (cells_per_axis * cells_per_axis) > max_cell_bytes
            && cells_per_axis < (1 << 20)
        {
            cells_per_axis *= 2;
        }
        span / cells_per_axis as f64
    }

    /// Build the index over `(id, geometry)` pairs, writing one block per
    /// cell into `dir` (pass `None` to keep blocks in memory).
    pub fn build(
        dir: Option<PathBuf>,
        objects: &[(u32, Geometry)],
        cell_size: f64,
    ) -> Result<GridIndex> {
        assert!(cell_size > 0.0, "cell size must be positive");
        // Cluster objects by the cell containing their centroid, with the
        // grid aligned to the data extent's minimum corner.
        let mut extent = BBox::empty();
        for (_, g) in objects {
            extent = extent.union(&g.bbox());
        }
        let origin = if extent.is_empty() {
            Point::ZERO
        } else {
            extent.min
        };
        let mut buckets: BTreeMap<(i32, i32), Vec<usize>> = BTreeMap::new();
        for (i, (_, g)) in objects.iter().enumerate() {
            let key = bucket_of(g.centroid(), origin, cell_size);
            buckets.entry(key).or_default().push(i);
        }
        Self::from_partitions(
            dir,
            objects,
            buckets.into_iter().collect(),
            cell_size,
            origin,
        )
    }

    /// Build the index from an arbitrary partitioning — the §7 extension:
    /// "other indexing strategies can be used in a similar fashion… the
    /// index filtering simply performs selections/joins on the bounding
    /// polygons". [`crate::rtree::str_partitions`] supplies the R-tree-leaf
    /// partitioning variant.
    pub fn from_partitions(
        dir: Option<PathBuf>,
        objects: &[(u32, Geometry)],
        partitions: Vec<((i32, i32), Vec<usize>)>,
        cell_size: f64,
        origin: Point,
    ) -> Result<GridIndex> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)?;
        }
        let mut cells = Vec::with_capacity(partitions.len());
        let mut blocks = Vec::with_capacity(partitions.len());
        let mut files = Vec::with_capacity(partitions.len());
        for (coords, members) in partitions {
            let items: Vec<(u32, Geometry)> = members.iter().map(|&i| objects[i].clone()).collect();
            let (cell, encoded) = encode_cell(coords, &items)?;
            match &dir {
                Some(d) => {
                    let name = format!("cell_{}_{}.blk", coords.0, coords.1);
                    // fsynced now so `save_manifest` (which makes this
                    // block reachable) never points at torn block bytes.
                    persist::write_durable(&d.join(&name), &encoded)?;
                    files.push(name);
                }
                None => blocks.push(Arc::new(encoded)),
            }
            cells.push(cell);
        }
        Ok(GridIndex {
            cell_size,
            origin,
            generation: 0,
            cells,
            store: match dir {
                Some(d) => BlockStore::Disk { dir: d, files },
                None => BlockStore::Memory(blocks),
            },
            bytes_read: Mutex::new(0),
            compact_bytes_read: Mutex::new(0),
        })
    }

    /// Assemble an index from already-encoded parts (compaction and
    /// manifest recovery use this).
    pub(crate) fn from_parts(
        cell_size: f64,
        origin: Point,
        generation: u64,
        cells: Vec<GridCell>,
        store: BlockStore,
    ) -> GridIndex {
        GridIndex {
            cell_size,
            origin,
            generation,
            cells,
            store,
            bytes_read: Mutex::new(0),
            compact_bytes_read: Mutex::new(0),
        }
    }

    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total bytes across all blocks.
    pub fn total_bytes(&self) -> u64 {
        self.cells.iter().map(|c| c.bytes).sum()
    }

    /// Total object count across all blocks.
    pub fn num_objects(&self) -> usize {
        self.cells.iter().map(|c| c.num_objects).sum()
    }

    /// The index itself as a polygonal data set: `(cell_index, hull)` pairs
    /// that the GPU filter stage runs selections/joins against (§5.3).
    pub fn bounding_polygons(&self) -> Vec<(u32, Polygon)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c.hull.clone()))
            .collect()
    }

    /// The directory blocks live under, for disk-backed indexes.
    pub fn dir(&self) -> Option<&Path> {
        match &self.store {
            BlockStore::Disk { dir, .. } => Some(dir),
            BlockStore::Memory(_) => None,
        }
    }

    fn read_block(&self, idx: usize) -> Result<Vec<(u32, Geometry)>> {
        let table = match &self.store {
            BlockStore::Disk { dir, files } => {
                let (t, _) = persist::read_table(&dir.join(&files[idx]))?;
                t
            }
            BlockStore::Memory(blocks) => persist::decode_table(&blocks[idx])?,
        };
        read_geometry_table(&table)
    }

    /// Load one cell's block, returning its objects and charging the block
    /// bytes to the query I/O ledger.
    pub fn load_cell(&self, idx: usize) -> Result<Vec<(u32, Geometry)>> {
        let cell = self
            .cells
            .get(idx)
            .ok_or_else(|| StorageError::Io(format!("no cell {idx}")))?;
        let objects = self.read_block(idx)?;
        *self.bytes_read.lock().unwrap() += cell.bytes;
        Ok(objects)
    }

    /// Load one cell's block for compaction: same read path, charged to
    /// the maintenance ledger instead of the query one.
    pub fn load_cell_compact(&self, idx: usize) -> Result<Vec<(u32, Geometry)>> {
        let cell = self
            .cells
            .get(idx)
            .ok_or_else(|| StorageError::Io(format!("no cell {idx}")))?;
        let objects = self.read_block(idx)?;
        *self.compact_bytes_read.lock().unwrap() += cell.bytes;
        Ok(objects)
    }

    /// Reference to cell `idx`'s stored block (file name or shared bytes),
    /// so compaction can carry unchanged cells into the next generation
    /// without copying them.
    pub(crate) fn block_ref(&self, idx: usize) -> BlockRef {
        match &self.store {
            BlockStore::Disk { files, .. } => BlockRef::File(files[idx].clone()),
            BlockStore::Memory(blocks) => BlockRef::Bytes(Arc::clone(&blocks[idx])),
        }
    }

    /// Bytes read through [`GridIndex::load_cell`] so far. Per-generation:
    /// each compacted index starts a fresh ledger.
    pub fn bytes_read(&self) -> u64 {
        *self.bytes_read.lock().unwrap()
    }

    /// Reset the query I/O ledger (per-query accounting).
    pub fn reset_bytes_read(&self) {
        *self.bytes_read.lock().unwrap() = 0;
    }

    /// Bytes read by compaction over this index.
    pub fn compact_bytes_read(&self) -> u64 {
        *self.compact_bytes_read.lock().unwrap()
    }

    /// File names of every block of this generation, for disk-backed
    /// indexes (`None` for memory stores). Generation GC diffs these
    /// across generations to find files only the retired one references.
    pub fn block_files(&self) -> Option<&[String]> {
        match &self.store {
            BlockStore::Disk { files, .. } => Some(files),
            BlockStore::Memory(_) => None,
        }
    }

    /// Delete files under the index directory that this generation's
    /// manifest does not reference: blocks and manifests of superseded or
    /// never-installed generations (e.g. left behind by a crash between
    /// compaction's block writes and the `CURRENT` swap). Only call when
    /// no reader can hold an older generation — i.e. right after open.
    /// Returns the number of files removed.
    pub fn gc_unreferenced(&self) -> Result<usize> {
        let BlockStore::Disk { dir, files } = &self.store else {
            return Ok(0);
        };
        let referenced: std::collections::BTreeSet<String> = files
            .iter()
            .cloned()
            .chain([format!("manifest_g{}.mf", self.generation)])
            .collect();
        let mut removed = 0usize;
        for entry in std::fs::read_dir(dir)? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name().to_string_lossy().into_owned();
            let sweepable = name.ends_with(".blk")
                || (name.starts_with("manifest_") && name.ends_with(".mf"))
                || name == "CURRENT.tmp";
            if sweepable
                && !referenced.contains(&name)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Manifest persistence (disk-backed indexes)
    // ------------------------------------------------------------------

    /// Persist this generation's cell table as `manifest_g{N}.mf` and
    /// atomically repoint `CURRENT` at it. `wal_seq` records the WAL
    /// sequence folded into this generation (0 = none): recovery replays
    /// only records after it. No-op for memory-backed indexes.
    pub fn save_manifest(&self, wal_seq: u64) -> Result<()> {
        let BlockStore::Disk { dir, files } = &self.store else {
            return Ok(());
        };
        let mut buf = Vec::new();
        cursor::put_slice(&mut buf, b"SPGM");
        cursor::put_u8(&mut buf, 1); // version
        cursor::put_u64_le(&mut buf, self.generation);
        cursor::put_u64_le(&mut buf, wal_seq);
        cursor::put_f64_le(&mut buf, self.cell_size);
        cursor::put_f64_le(&mut buf, self.origin.x);
        cursor::put_f64_le(&mut buf, self.origin.y);
        cursor::put_u32_le(&mut buf, self.cells.len() as u32);
        for (cell, file) in self.cells.iter().zip(files) {
            cursor::put_u32_le(&mut buf, cell.coords.0 as u32);
            cursor::put_u32_le(&mut buf, cell.coords.1 as u32);
            cursor::put_u64_le(&mut buf, cell.num_objects as u64);
            cursor::put_u64_le(&mut buf, cell.bytes);
            cursor::put_u32_le(&mut buf, cell.id_min);
            cursor::put_u32_le(&mut buf, cell.id_max);
            cursor::put_str(&mut buf, file);
            let hull = encode_geometry(&Geometry::Polygon(cell.hull.clone()));
            cursor::put_u32_le(&mut buf, hull.len() as u32);
            cursor::put_slice(&mut buf, &hull);
        }
        let crc = crc32(&buf);
        cursor::put_u32_le(&mut buf, crc);

        // This is the "durable before visible" point of the generation
        // protocol, so the fsync order matters: (1) the manifest contents;
        // (2) the directory, so the manifest's name and every block file
        // written for this generation (each fsynced at write time) have
        // durable directory entries; (3) CURRENT.tmp's contents; (4) the
        // rename; (5) the directory again so the rename itself survives.
        // A crash at any point leaves CURRENT referencing a manifest whose
        // bytes and blocks are already on stable storage.
        let name = format!("manifest_g{}.mf", self.generation);
        persist::write_durable(&dir.join(&name), &buf)?;
        persist::sync_dir(dir)?;
        let tmp = dir.join("CURRENT.tmp");
        persist::write_durable(&tmp, name.as_bytes())?;
        std::fs::rename(&tmp, dir.join("CURRENT"))?;
        persist::sync_dir(dir)?;
        Ok(())
    }

    /// Open the generation `CURRENT` points at. Returns the index plus the
    /// WAL sequence its manifest recorded as folded in.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(GridIndex, u64)> {
        let dir = dir.into();
        let current = std::fs::read_to_string(dir.join("CURRENT"))?;
        let data = std::fs::read(dir.join(current.trim()))?;
        let corrupt = |m: &str| StorageError::Corrupt(format!("manifest: {m}"));
        if data.len() < 4 {
            return Err(corrupt("too short"));
        }
        let (body, tail) = data.split_at(data.len() - 4);
        let mut crc_cur = tail;
        let stored = cursor::get_u32_le(&mut crc_cur).ok_or_else(|| corrupt("no crc"))?;
        if crc32(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let mut cur = body;
        let magic = cursor::get_bytes(&mut cur, 4).ok_or_else(|| corrupt("no magic"))?;
        if magic != b"SPGM" {
            return Err(corrupt("bad magic"));
        }
        let _version = cursor::get_u8(&mut cur).ok_or_else(|| corrupt("no version"))?;
        let generation = cursor::get_u64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
        let wal_seq = cursor::get_u64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
        let cell_size = cursor::get_f64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
        let ox = cursor::get_f64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
        let oy = cursor::get_f64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
        let n = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as usize;
        let mut cells = Vec::with_capacity(n);
        let mut files = Vec::with_capacity(n);
        for _ in 0..n {
            let cx = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as i32;
            let cy = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as i32;
            let num_objects =
                cursor::get_u64_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as usize;
            let bytes = cursor::get_u64_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
            let id_min = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
            let id_max = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))?;
            let flen = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as usize;
            let fname = cursor::get_bytes(&mut cur, flen).ok_or_else(|| corrupt("truncated"))?;
            let file = String::from_utf8(fname.to_vec()).map_err(|_| corrupt("bad file name"))?;
            let hlen = cursor::get_u32_le(&mut cur).ok_or_else(|| corrupt("truncated"))? as usize;
            let hbytes = cursor::get_bytes(&mut cur, hlen).ok_or_else(|| corrupt("truncated"))?;
            let Geometry::Polygon(hull) = decode_geometry(hbytes)? else {
                return Err(corrupt("hull is not a polygon"));
            };
            cells.push(GridCell {
                coords: (cx, cy),
                hull,
                num_objects,
                bytes,
                id_min,
                id_max,
            });
            files.push(file);
        }
        Ok((
            GridIndex::from_parts(
                cell_size,
                Point::new(ox, oy),
                generation,
                cells,
                BlockStore::Disk { dir, files },
            ),
            wal_seq,
        ))
    }
}

/// Reference to one stored block, for carrying cells across generations.
pub(crate) enum BlockRef {
    File(String),
    Bytes(Arc<Vec<u8>>),
}

/// The discrete cell that `centroid` falls into.
pub(crate) fn bucket_of(centroid: Point, origin: Point, cell_size: f64) -> (i32, i32) {
    (
        ((centroid.x - origin.x) / cell_size).floor() as i32,
        ((centroid.y - origin.y) / cell_size).floor() as i32,
    )
}

/// Hull + encode one cell's member objects. Shared by the initial build
/// and compaction so both produce identical blocks for identical members.
pub(crate) fn encode_cell(
    coords: (i32, i32),
    items: &[(u32, Geometry)],
) -> Result<(GridCell, Vec<u8>)> {
    // Bounding polygon: convex hull over all member geometry vertices
    // (expands past the cell box for spanning objects).
    let mut pts: Vec<Point> = Vec::new();
    for (_, g) in items {
        collect_vertices(g, &mut pts);
    }
    let hull = convex_hull_polygon(&pts).unwrap_or_else(|| {
        // Degenerate cell (all collinear): fall back to an inflated
        // bbox so the bound is still a polygon.
        Polygon::rect(BBox::from_points(pts.iter().copied()).inflate(1e-9))
    });
    let table = geometry_table(&format!("cell_{}_{}", coords.0, coords.1), items)?;
    let encoded = persist::encode_table(&table);
    let bytes = encoded.len() as u64;
    let id_min = items.iter().map(|(id, _)| *id).min().unwrap_or(0);
    let id_max = items.iter().map(|(id, _)| *id).max().unwrap_or(0);
    Ok((
        GridCell {
            coords,
            hull,
            num_objects: items.len(),
            bytes,
            id_min,
            id_max,
        },
        encoded,
    ))
}

fn collect_vertices(g: &Geometry, out: &mut Vec<Point>) {
    match g {
        Geometry::Point(p) => out.push(*p),
        Geometry::LineString(l) => out.extend_from_slice(&l.points),
        Geometry::Polygon(p) => {
            out.extend_from_slice(&p.exterior.points);
            for h in &p.holes {
                out.extend_from_slice(&h.points);
            }
        }
        Geometry::MultiPolygon(m) => {
            for p in &m.polygons {
                out.extend_from_slice(&p.exterior.points);
                for h in &p.holes {
                    out.extend_from_slice(&h.points);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::predicates::point_in_polygon;

    pub(crate) fn point_set(n: usize) -> Vec<(u32, Geometry)> {
        // Deterministic scatter over [0, 100)².
        let mut s = 99u64;
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
                (i as u32, Geometry::Point(Point::new(x, y)))
            })
            .collect()
    }

    #[test]
    fn build_covers_all_objects() {
        let objects = point_set(500);
        let idx = GridIndex::build(None, &objects, 25.0).unwrap();
        assert_eq!(idx.num_objects(), 500);
        assert!(idx.num_cells() <= 16);
        assert!(idx.total_bytes() > 0);
        assert_eq!(idx.generation, 0);
    }

    #[test]
    fn cells_load_back_their_objects() {
        let objects = point_set(200);
        let idx = GridIndex::build(None, &objects, 50.0).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..idx.num_cells() {
            for (id, g) in idx.load_cell(i).unwrap() {
                assert!(seen.insert(id), "object {id} in two cells");
                // The object must be inside its cell's hull.
                if let Geometry::Point(p) = g {
                    assert!(point_in_polygon(p, &idx.cells()[i].hull));
                }
            }
        }
        assert_eq!(seen.len(), 200);
        assert_eq!(idx.bytes_read(), idx.total_bytes());
        idx.reset_bytes_read();
        assert_eq!(idx.bytes_read(), 0);
    }

    #[test]
    fn hull_expands_for_spanning_objects() {
        // A polygon whose centroid is in one cell but spans two.
        let long = Geometry::Polygon(Polygon::rect(BBox::new(
            Point::new(1.0, 1.0),
            Point::new(45.0, 5.0),
        )));
        let idx = GridIndex::build(None, &[(0, long)], 25.0).unwrap();
        assert_eq!(idx.num_cells(), 1);
        let hull_bb = idx.cells()[0].bbox();
        assert!(hull_bb.max.x >= 45.0); // expanded past the 25-unit cell
    }

    #[test]
    fn disk_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spade-grid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let objects = point_set(100);
        let idx = GridIndex::build(Some(dir.clone()), &objects, 50.0).unwrap();
        let total: usize = (0..idx.num_cells())
            .map(|i| idx.load_cell(i).unwrap().len())
            .sum();
        assert_eq!(total, 100);
        // Files exist on disk.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, idx.num_cells());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cell_size_budget_progression() {
        let extent = BBox::new(Point::ZERO, Point::new(100.0, 100.0));
        // Fits in one cell.
        assert_eq!(GridIndex::cell_size_for_budget(&extent, 1000, 2000), 100.0);
        // Needs 2x2 cells.
        assert_eq!(GridIndex::cell_size_for_budget(&extent, 8000, 2000), 50.0);
        // Needs 4x4 cells.
        assert_eq!(GridIndex::cell_size_for_budget(&extent, 32_000, 2000), 25.0);
    }

    #[test]
    fn bounding_polygons_form_dataset() {
        let objects = point_set(300);
        let idx = GridIndex::build(None, &objects, 25.0).unwrap();
        let polys = idx.bounding_polygons();
        assert_eq!(polys.len(), idx.num_cells());
        for (i, p) in &polys {
            assert!(p.exterior.len() >= 3, "cell {i} hull degenerate");
        }
    }

    #[test]
    fn load_cell_out_of_range() {
        let idx = GridIndex::build(None, &point_set(10), 100.0).unwrap();
        assert!(idx.load_cell(99).is_err());
    }

    #[test]
    fn corrupt_block_is_reported_not_panicking() {
        let dir = std::env::temp_dir().join(format!("spade-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let idx = GridIndex::build(Some(dir.clone()), &point_set(50), 100.0).unwrap();
        // Truncate every block file on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            let data = std::fs::read(&p).unwrap();
            std::fs::write(&p, &data[..data.len() / 2]).unwrap();
        }
        let err = idx.load_cell(0).unwrap_err();
        assert!(matches!(
            err,
            spade_storage::StorageError::Corrupt(_) | spade_storage::StorageError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aligned_grid_uses_single_cell_for_small_data() {
        // Data spanning less than one cell size must land in exactly one
        // cell thanks to origin alignment.
        let objects: Vec<(u32, Geometry)> = (0..20)
            .map(|i| {
                (
                    i,
                    Geometry::Point(Point::new(500.0 + (i % 5) as f64, 777.0 + (i / 5) as f64)),
                )
            })
            .collect();
        let idx = GridIndex::build(None, &objects, 100.0).unwrap();
        assert_eq!(idx.num_cells(), 1);
    }

    #[test]
    fn id_ranges_cover_members() {
        let objects = point_set(120);
        let idx = GridIndex::build(None, &objects, 25.0).unwrap();
        for i in 0..idx.num_cells() {
            let cell = &idx.cells()[i];
            for (id, _) in idx.load_cell(i).unwrap() {
                assert!(cell.id_min <= id && id <= cell.id_max);
            }
        }
    }

    #[test]
    fn compaction_ledger_is_separate() {
        let objects = point_set(80);
        let idx = GridIndex::build(None, &objects, 25.0).unwrap();
        idx.load_cell_compact(0).unwrap();
        assert_eq!(idx.bytes_read(), 0, "compaction reads are not query I/O");
        assert!(idx.compact_bytes_read() > 0);
        idx.load_cell(0).unwrap();
        assert_eq!(idx.bytes_read(), idx.cells()[0].bytes);
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spade-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let objects = point_set(60);
        let idx = GridIndex::build(Some(dir.clone()), &objects, 25.0).unwrap();
        idx.save_manifest(42).unwrap();
        let (back, wal_seq) = GridIndex::open(&dir).unwrap();
        assert_eq!(wal_seq, 42);
        assert_eq!(back.generation, 0);
        assert_eq!(back.num_cells(), idx.num_cells());
        assert_eq!(back.cell_size, idx.cell_size);
        let total: usize = (0..back.num_cells())
            .map(|i| back.load_cell(i).unwrap().len())
            .sum();
        assert_eq!(total, 60);
        for (a, b) in idx.cells().iter().zip(back.cells()) {
            assert_eq!(a.coords, b.coords);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.id_min, b.id_min);
            assert_eq!(a.id_max, b.id_max);
            assert_eq!(a.hull.exterior.points, b.hull.exterior.points);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_reported() {
        let dir = std::env::temp_dir().join(format!("spade-manifest-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let idx = GridIndex::build(Some(dir.clone()), &point_set(30), 50.0).unwrap();
        idx.save_manifest(0).unwrap();
        let current = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
        let mpath = dir.join(current.trim());
        let mut data = std::fs::read(&mpath).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x55;
        std::fs::write(&mpath, &data).unwrap();
        assert!(matches!(
            GridIndex::open(&dir),
            Err(spade_storage::StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
