//! Per-dataset delta store: the in-memory staging buffer of live writes.
//!
//! Inserts and deletes land here (after the WAL made them durable) and
//! are folded into the grid index by [`crate::compact`](mod@crate::compact). Every entry
//! carries the sequence number the caller assigned (the WAL sequence when
//! a WAL is attached, a local counter otherwise), so compaction can drain
//! exactly the prefix it snapshotted while concurrent writes keep
//! accumulating.
//!
//! Semantics:
//! * insert of an existing id **replaces** it — the staged version wins
//!   over any base-index version, which query merging realizes by masking
//!   base results with the staged id set;
//! * delete stages a tombstone masking the base version; deleting a
//!   staged id also removes the staged version;
//! * the logical dataset is `(base \ mask) ∪ staged` where
//!   `mask = tombstones ∪ staged ids`.

use spade_geometry::{BBox, Geometry};
use std::collections::{BTreeMap, BTreeSet};

/// Approximate in-memory byte cost of a staged geometry — the same
/// "vector format" figure `Dataset::byte_size` uses (16 bytes of header
/// plus 16 per vertex).
fn geom_bytes(g: &Geometry) -> u64 {
    16 + g.num_vertices() as u64 * 16
}

/// Mutable staging buffer of not-yet-compacted writes.
#[derive(Debug, Default)]
pub struct DeltaStore {
    /// id → (seq, geometry) of staged inserts/replacements.
    staged: BTreeMap<u32, (u64, Geometry)>,
    /// id → seq of staged deletes.
    tombstones: BTreeMap<u32, u64>,
    /// Largest sequence number applied so far.
    max_seq: u64,
    /// Approximate bytes held by `staged`.
    bytes: u64,
}

impl DeltaStore {
    pub fn new() -> Self {
        DeltaStore::default()
    }

    /// Stage an insert (or replacement) of `id` under sequence `seq`.
    /// Sequences must be applied in increasing order.
    pub fn insert(&mut self, seq: u64, id: u32, geom: Geometry) {
        self.max_seq = self.max_seq.max(seq);
        // A newer insert supersedes any staged delete of the same id.
        self.tombstones.remove(&id);
        let bytes = geom_bytes(&geom);
        if let Some((_, old)) = self.staged.insert(id, (seq, geom)) {
            self.bytes -= geom_bytes(&old);
        }
        self.bytes += bytes;
    }

    /// Stage a delete of `id` under sequence `seq`.
    pub fn delete(&mut self, seq: u64, id: u32) {
        self.max_seq = self.max_seq.max(seq);
        if let Some((_, old)) = self.staged.remove(&id) {
            self.bytes -= geom_bytes(&old);
        }
        self.tombstones.insert(id, seq);
    }

    /// Number of staged inserts.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Number of staged tombstones.
    pub fn tombstones_len(&self) -> usize {
        self.tombstones.len()
    }

    pub fn is_empty(&self) -> bool {
        self.staged.is_empty() && self.tombstones.is_empty()
    }

    /// Approximate bytes staged (inserts only; tombstones are ~free).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// An immutable, consistent copy of the current delta for readers and
    /// for compaction.
    pub fn snapshot(&self) -> DeltaSnapshot {
        let staged: Vec<(u32, Geometry)> = self
            .staged
            .iter()
            .map(|(id, (_, g))| (*id, g.clone()))
            .collect();
        let mask: BTreeSet<u32> = self
            .staged
            .keys()
            .chain(self.tombstones.keys())
            .copied()
            .collect();
        DeltaSnapshot {
            tombstones: self.tombstones.keys().copied().collect(),
            staged,
            mask,
            max_seq: self.max_seq,
            bytes: self.bytes,
        }
    }

    /// Remove every entry with `seq <= through_seq` — called after
    /// compaction installed the generation those entries were folded
    /// into. Entries staged after the snapshot survive.
    pub fn drain_through(&mut self, through_seq: u64) {
        let mut freed = 0u64;
        self.staged.retain(|_, (seq, g)| {
            if *seq <= through_seq {
                freed += geom_bytes(g);
                false
            } else {
                true
            }
        });
        self.bytes -= freed;
        self.tombstones.retain(|_, seq| *seq > through_seq);
    }
}

/// Immutable view of a delta store at a point in time.
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshot {
    /// Staged inserts, ascending by id.
    pub staged: Vec<(u32, Geometry)>,
    /// Staged deletes (ids), ascending.
    pub tombstones: BTreeSet<u32>,
    /// Ids masked out of the base index: tombstones ∪ staged ids.
    pub mask: BTreeSet<u32>,
    /// Largest sequence captured — compaction drains through here.
    pub max_seq: u64,
    /// Approximate staged bytes.
    pub bytes: u64,
}

impl DeltaSnapshot {
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty() && self.tombstones.is_empty()
    }

    /// Bounding box over the staged geometries.
    pub fn bbox(&self) -> BBox {
        let mut bb = BBox::empty();
        for (_, g) in &self.staged {
            bb = bb.union(&g.bbox());
        }
        bb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::Point;

    fn pt(x: f64) -> Geometry {
        Geometry::Point(Point::new(x, 0.0))
    }

    #[test]
    fn insert_delete_replace() {
        let mut d = DeltaStore::new();
        d.insert(1, 10, pt(1.0));
        d.insert(2, 11, pt(2.0));
        d.delete(3, 10);
        assert_eq!(d.staged_len(), 1);
        assert_eq!(d.tombstones_len(), 1);
        // Re-insert clears the tombstone.
        d.insert(4, 10, pt(3.0));
        assert_eq!(d.tombstones_len(), 0);
        assert_eq!(d.staged_len(), 2);
        let snap = d.snapshot();
        assert_eq!(snap.max_seq, 4);
        assert!(snap.mask.contains(&10) && snap.mask.contains(&11));
        assert_eq!(snap.staged.len(), 2);
    }

    #[test]
    fn bytes_track_replacements() {
        let mut d = DeltaStore::new();
        d.insert(1, 5, pt(0.0));
        let one = d.bytes();
        assert_eq!(one, 32); // 16 + 1 vertex * 16
        d.insert(2, 5, pt(9.0)); // replace: no growth
        assert_eq!(d.bytes(), one);
        d.delete(3, 5);
        assert_eq!(d.bytes(), 0);
    }

    #[test]
    fn drain_keeps_newer_entries() {
        let mut d = DeltaStore::new();
        d.insert(1, 1, pt(1.0));
        d.insert(2, 2, pt(2.0));
        d.delete(3, 9);
        let snap = d.snapshot();
        // Writes racing the compaction window.
        d.insert(4, 3, pt(3.0));
        d.delete(5, 2);
        d.drain_through(snap.max_seq);
        assert_eq!(d.staged_len(), 1); // id 3 survives
        assert_eq!(d.tombstones_len(), 1); // delete of id 2 survives
        let after = d.snapshot();
        assert!(after.mask.contains(&3) && after.mask.contains(&2));
        assert!(!after.mask.contains(&1));
    }

    #[test]
    fn snapshot_bbox_covers_staged() {
        let mut d = DeltaStore::new();
        d.insert(1, 1, pt(-5.0));
        d.insert(2, 2, pt(7.0));
        let bb = d.snapshot().bbox();
        assert_eq!(bb.min.x, -5.0);
        assert_eq!(bb.max.x, 7.0);
    }
}
