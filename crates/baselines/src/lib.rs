//! Baseline spatial engines the paper compares SPADE against (§6.1).
//!
//! Three comparison classes, each reproduced with the algorithmic behaviour
//! the paper analyzes (see DESIGN.md for the substitution arguments):
//!
//! * [`s2like`] — an in-memory CPU spatial library patterned on Google S2:
//!   a sorted hierarchical-cell point index (distance/kNN-optimized, like
//!   `S2PointIndex`) and a gridded shape index (`S2ShapeIndex`).
//! * [`stig`] — the STIG baseline: a kd-tree with leaf blocks over point
//!   data, filtering on the tree and refining with parallel exact
//!   point-in-polygon tests. Point data only, like the original.
//! * [`cluster`] — a GeoSpark-like partitioned engine: KDB-style spatial
//!   partitioning, one R-tree per partition, filter-refine workers, and a
//!   configurable per-task overhead modeling cluster coordination.
//! * [`brute`] — brute-force oracles shared by tests and benches.
//!
//! [`rtree`] is the STR R-tree the cluster baseline partitions with; its
//! leaves are also the §7 alternative to grid clustering.

pub mod brute;
pub mod cluster;
pub mod rtree;
pub mod s2like;
pub mod stig;
