//! Cell-range scoping for distributed scatter-gather execution.
//!
//! The clustered grid index assigns every object to exactly one
//! hull-bounded cell, so a query's result is the disjoint union of its
//! per-cell results (plus the view's memory slot — the staged delta, or a
//! whole in-memory dataset — which behaves as one more cell). A
//! [`CellScope`] restricts an executor to a contiguous range of cell
//! indices — the unit a cluster coordinator scatters across shards — and
//! says whether this executor also owns the delta and the memory slot. Running
//! the same query once per scope of a covering, disjoint set of scopes
//! (with `include_delta` set on exactly one of them) and merging yields
//! byte-identical results to a single full-scope run.

/// A half-open range `[lo, hi)` of grid-cell indices plus delta ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellScope {
    /// First cell index covered (inclusive).
    pub lo: u32,
    /// First cell index *not* covered (exclusive). Shard maps set the last
    /// shard's `hi` to `u32::MAX` so coverage stays complete even when the
    /// cell count grows under the map (compaction between statistics
    /// refreshes).
    pub hi: u32,
    /// Whether this executor also merges the dataset's staged delta
    /// writes. Exactly one scope of a covering set must own the delta.
    pub include_delta: bool,
}

impl CellScope {
    /// The scope equivalent to unscoped execution: every cell + the delta.
    pub const fn full() -> CellScope {
        CellScope {
            lo: 0,
            hi: u32::MAX,
            include_delta: true,
        }
    }

    /// Does this scope cover cell index `cell`?
    pub fn contains(&self, cell: u32) -> bool {
        self.lo <= cell && cell < self.hi
    }
}

/// Which part of the cell space one execution covers — the `scope` field
/// of [`crate::QueryCtx`]. Single-dataset families understand `Full` and
/// `Cells`; the four families with a cell-pair plan (intersection join,
/// count aggregation, distance join and kNN join) understand `Full` and
/// `Pairs`. The other shape is rejected in-band rather than given an
/// invented meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scope<'a> {
    /// Every cell plus the delta: the plain local run.
    #[default]
    Full,
    /// A contiguous cell range of a single-dataset query.
    Cells(CellScope),
    /// Explicit `(left cell, right cell)` candidates replacing a join's
    /// filter phase. Any pair of cells holding no result contributes
    /// nothing (refinement is exact), so a conservative superset of the
    /// filter's pairs is safe; pairs naming
    /// out-of-range cells (a stale shard map racing a compaction) are
    /// dropped. Exactly one scatter request per query must own the deltas:
    /// it plans their pairs itself, since a pair list cannot name one.
    Pairs {
        pairs: &'a [(u32, u32)],
        include_delta: bool,
    },
}

impl<'a> Scope<'a> {
    /// Is this the plain local run? Only then may a result enter or leave
    /// the result cache: a scoped partial is not the answer to its key.
    /// (`Cells(CellScope::full())` computes the same bytes but is still a
    /// shard request, and shard requests are never cached.)
    pub fn is_full(&self) -> bool {
        matches!(self, Scope::Full)
    }

    /// Does this execution merge the staged delta writes?
    pub fn include_delta(&self) -> bool {
        match self {
            Scope::Full => true,
            Scope::Cells(s) => s.include_delta,
            Scope::Pairs { include_delta, .. } => *include_delta,
        }
    }

    /// The cell range a single-dataset executor refines.
    pub(crate) fn cells(&self) -> spade_storage::Result<CellScope> {
        match self {
            Scope::Full => Ok(CellScope::full()),
            Scope::Cells(s) => Ok(*s),
            Scope::Pairs { .. } => Err(spade_storage::StorageError::Unsupported(
                "cell-pair scope on a single-dataset query".into(),
            )),
        }
    }

    /// The explicit cell pairs of a two-dataset executor, or `None` to run
    /// its hull-filter phase.
    pub(crate) fn pairs(&self) -> spade_storage::Result<Option<&'a [(u32, u32)]>> {
        match self {
            Scope::Full => Ok(None),
            Scope::Pairs { pairs, .. } => Ok(Some(pairs)),
            Scope::Cells(_) => Err(spade_storage::StorageError::Unsupported(
                "cell-range scope on a two-dataset query".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scope_covers_everything() {
        let f = CellScope::full();
        assert!(f.contains(0));
        assert!(f.contains(u32::MAX - 1));
        assert!(f.include_delta);
    }

    #[test]
    fn half_open_bounds() {
        let s = CellScope {
            lo: 4,
            hi: 9,
            include_delta: false,
        };
        assert!(!s.contains(3));
        assert!(s.contains(4));
        assert!(s.contains(8));
        assert!(!s.contains(9));
    }

    #[test]
    fn scope_shapes() {
        let range = CellScope {
            lo: 0,
            hi: 3,
            include_delta: false,
        };
        let pairs = [(0u32, 1u32)];
        let by_pairs = Scope::Pairs {
            pairs: &pairs,
            include_delta: true,
        };
        assert!(Scope::default().is_full() && Scope::default().include_delta());
        assert!(!Scope::Cells(CellScope::full()).is_full());
        assert!(!Scope::Cells(range).is_full() && !Scope::Cells(range).include_delta());
        assert!(!by_pairs.is_full() && by_pairs.include_delta());
        assert_eq!(Scope::Full.cells(), Ok(CellScope::full()));
        assert_eq!(Scope::Full.pairs(), Ok(None));
        assert_eq!(by_pairs.pairs(), Ok(Some(&pairs[..])));
        assert!(by_pairs.cells().is_err());
        assert!(Scope::Cells(range).pairs().is_err());
    }
}
