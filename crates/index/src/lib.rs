//! Disk-based spatial indexes for out-of-core query processing.
//!
//! SPADE stores the underlying spatial data in a *clustered grid index*
//! (§3, §5.3): each grid cell owns a block of data on disk, sized so a cell
//! fits in GPU memory (§6.1). Two departures from a classical grid index
//! make it GPU-friendly:
//!
//! * each cell's bound is the **convex hull** of the geometries inside it —
//!   a tighter "bounding polygon" than a bbox, affordable because index
//!   filtering itself runs as a GPU selection/join over these polygons;
//! * objects spanning several cells are assigned to the cell containing
//!   their **centroid**, and the cell's hull *expands* to cover them — so
//!   cells may overlap, which the filter-by-join strategy tolerates.
//!
//! [`GridIndex::from_partitions`] accepts any partitioning, the alternative
//! strategies sketched in §7; the STR R-tree leaves of
//! `spade_baselines::rtree` are one.

//! Live ingestion support: writes stage in a per-dataset [`delta`] store
//! and a background [`compact`](mod@compact) pass folds them into a fresh index
//! generation, leaving in-flight readers on the old one.

pub mod compact;
pub mod delta;
pub mod grid;

pub use compact::{compact, CompactReport};
pub use delta::{DeltaSnapshot, DeltaStore};
pub use grid::{GridCell, GridIndex};

/// A dataset's read-visible version: the installed grid generation plus the
/// delta-store sequence watermark.
///
/// Both components are monotone non-decreasing over a dataset's lifetime —
/// compaction only installs higher generations, and [`DeltaStore`] never
/// lowers `max_seq` (draining after compaction keeps the watermark). Every
/// write bumps `seq` and every compaction bumps `generation`, so two equal
/// `Version` values observed at different times denote the *same* logical
/// snapshot: no mutation can have happened in between (no ABA). That makes
/// the pair a sound cache key component: anything keyed by `Version` is
/// invalidated for free by the next staged write or compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Version {
    /// Generation of the installed [`GridIndex`].
    pub generation: u64,
    /// Largest delta sequence applied so far ([`DeltaStore::max_seq`]).
    pub seq: u64,
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}s{}", self.generation, self.seq)
    }
}
