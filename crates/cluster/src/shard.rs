//! The shard map: contiguous, byte-balanced cell ranges over one dataset.

use spade_geometry::BBox;
use spade_server::CellInfo;

/// A partition of a dataset's grid cells into `shards` contiguous
/// half-open ranges, balanced by cell byte size. Shard `i` owns cells
/// `[bounds[i], bounds[i+1])`; the final bound is `u32::MAX`, so the
/// ranges cover every cell id that could ever exist — a stale map (built
/// before a compaction changed the cell count) still yields a covering,
/// disjoint scatter, just a less balanced one.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `shards + 1` ascending bounds; `bounds[0] == 0`,
    /// `bounds[shards] == u32::MAX`.
    bounds: Vec<u32>,
    /// Per-cell statistics the map was built from (indexed by cell id).
    cells: Vec<CellInfo>,
    /// Index generation the statistics described.
    pub generation: u64,
    /// WAL sequence the serving node had applied when the stats were read.
    pub seq: u64,
}

impl ShardMap {
    /// Partition `cells` into `shards` contiguous ranges with roughly
    /// equal total bytes. Greedy: walk cells in id order, cut a boundary
    /// once the running shard reaches the ideal share — contiguity keeps
    /// each shard's working set spatially coherent (cell ids are built
    /// from a spatially clustered R-tree walk).
    pub fn build(cells: Vec<CellInfo>, shards: usize, generation: u64, seq: u64) -> ShardMap {
        let shards = shards.max(1);
        let total: u64 = cells.iter().map(|c| c.bytes).sum();
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u32);
        let mut acc = 0u64;
        let mut cut = 1usize;
        for (i, c) in cells.iter().enumerate() {
            if cut >= shards {
                break;
            }
            acc += c.bytes;
            // Remaining shards must each get at least one cell; don't let
            // the greedy cut starve them of ids.
            let remaining_cells = cells.len() - (i + 1);
            let remaining_shards = shards - cut;
            let target = total * cut as u64 / shards as u64;
            if (acc >= target && remaining_cells >= remaining_shards)
                || remaining_cells == remaining_shards
            {
                bounds.push((i + 1) as u32);
                cut += 1;
            }
        }
        // Degenerate inputs (fewer cells than shards): pad with empty
        // ranges so every shard index stays addressable.
        while bounds.len() < shards {
            bounds.push(cells.len() as u32);
        }
        bounds.push(u32::MAX);
        ShardMap {
            bounds,
            cells,
            generation,
            seq,
        }
    }

    /// Number of shards in the map.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The half-open cell range shard `i` owns.
    pub fn range(&self, i: usize) -> (u32, u32) {
        (self.bounds[i], self.bounds[i + 1])
    }

    /// Which shard owns cell `cell`: the last range whose `lo <= cell`.
    /// With duplicate bounds (padded empty ranges) the duplicates resolve
    /// to the *last* of them, whose range is the non-empty one.
    pub fn owner(&self, cell: u32) -> usize {
        let i = self.bounds.partition_point(|&b| b <= cell);
        (i - 1).min(self.shards() - 1)
    }

    /// Byte size of `cell` per the statistics the map was built from
    /// (0 for ids past the stats — e.g. after a stale-map split).
    pub fn cell_bytes(&self, cell: u32) -> u64 {
        self.cells.get(cell as usize).map_or(0, |c| c.bytes)
    }

    /// Bounding box of `cell`, when the statistics cover it.
    pub fn cell_bbox(&self, cell: u32) -> Option<BBox> {
        self.cells.get(cell as usize).map(|c| c.bbox)
    }

    /// Number of cells the statistics covered.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::{BBox, Point};

    fn cell(bytes: u64) -> CellInfo {
        CellInfo {
            bbox: BBox::new(Point::ZERO, Point::new(1.0, 1.0)),
            bytes,
            objects: 1,
        }
    }

    #[test]
    fn covers_everything_and_stays_disjoint() {
        let cells: Vec<CellInfo> = (0..10).map(|i| cell(100 + i)).collect();
        let map = ShardMap::build(cells, 3, 1, 0);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.range(0).0, 0);
        assert_eq!(map.range(2).1, u32::MAX);
        for i in 0..2 {
            assert_eq!(map.range(i).1, map.range(i + 1).0, "ranges abut");
        }
        for c in 0..10u32 {
            let owner = map.owner(c);
            let (lo, hi) = map.range(owner);
            assert!(lo <= c && c < hi);
        }
        // Cells past the stats (stale map) still have exactly one owner.
        assert_eq!(map.owner(9999), 2);
    }

    #[test]
    fn balances_by_bytes_not_count() {
        // One huge cell followed by many small ones: the huge cell should
        // get a range (nearly) to itself.
        let mut cells = vec![cell(10_000)];
        cells.extend((0..9).map(|_| cell(100)));
        let map = ShardMap::build(cells, 2, 1, 0);
        let (lo, hi) = map.range(0);
        assert_eq!((lo, hi), (0, 1), "big cell isolated, got {lo}..{hi}");
    }

    #[test]
    fn more_shards_than_cells_pads_empty_ranges() {
        let map = ShardMap::build(vec![cell(10), cell(20)], 4, 1, 0);
        assert_eq!(map.shards(), 4);
        // Every cell still has exactly one owner and every range is valid.
        for c in 0..2u32 {
            let (lo, hi) = map.range(map.owner(c));
            assert!(lo <= c && c < hi);
        }
    }
}
