//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! Two roles in this reproduction, both outside the engine:
//!
//! * §7 of the paper notes that SPADE's grid index can be swapped for an
//!   R-tree whose *leaf* bounding polygons are filtered with the same GPU
//!   selections/joins — [`RTree::leaf_pages`] exposes exactly that view, and
//!   [`str_partitions`] feeds the same leaves to the grid index for the
//!   paper harness's indexing-strategy ablation;
//! * the cluster (GeoSpark-like) baseline builds one R-tree per partition,
//!   matching the tuning the paper used for GeoSpark (§6.1).

use spade_geometry::BBox;

/// Maximum entries per node (typical R-tree fanout).
const NODE_CAPACITY: usize = 16;

#[derive(Debug)]
enum Node {
    Leaf {
        bbox: BBox,
        entries: Vec<(u32, BBox)>,
    },
    Inner {
        bbox: BBox,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> &BBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => bbox,
        }
    }
}

/// A static R-tree over `(id, bbox)` entries, bulk-loaded with STR.
#[derive(Debug)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Bulk-load from entries (Sort-Tile-Recursive packing).
    pub fn build(mut entries: Vec<(u32, BBox)>) -> RTree {
        let len = entries.len();
        if entries.is_empty() {
            return RTree { root: None, len: 0 };
        }
        // STR leaf packing: sort by center-x, slice into vertical strips,
        // sort each strip by center-y, pack runs of NODE_CAPACITY.
        let leaf_count = len.div_ceil(NODE_CAPACITY);
        let strips = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = len.div_ceil(strips);
        entries.sort_by(|a, b| {
            a.1.center()
                .x
                .partial_cmp(&b.1.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut leaves = Vec::with_capacity(leaf_count);
        for strip in entries.chunks(per_strip.max(1)) {
            let mut strip = strip.to_vec();
            strip.sort_by(|a, b| {
                a.1.center()
                    .y
                    .partial_cmp(&b.1.center().y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for run in strip.chunks(NODE_CAPACITY) {
                let bbox = run.iter().fold(BBox::empty(), |acc, (_, b)| acc.union(b));
                leaves.push(Node::Leaf {
                    bbox,
                    entries: run.to_vec(),
                });
            }
        }
        // Pack upper levels the same way until one root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            level.sort_by(|a, b| {
                a.bbox()
                    .center()
                    .x
                    .partial_cmp(&b.bbox().center().x)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for run in std::mem::take(&mut level).chunks_mut(NODE_CAPACITY) {
                let children: Vec<Node> = run.iter_mut().map(std::mem::take).collect();
                let bbox = children
                    .iter()
                    .fold(BBox::empty(), |acc, c| acc.union(c.bbox()));
                next.push(Node::Inner { bbox, children });
            }
            level = next;
        }
        RTree {
            root: level.pop(),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids of entries whose bbox intersects `query`.
    pub fn query(&self, query: &BBox) -> Vec<u32> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            Self::search(root, query, &mut out);
        }
        out
    }

    fn search(node: &Node, query: &BBox, out: &mut Vec<u32>) {
        match node {
            Node::Leaf { bbox, entries } => {
                if bbox.intersects(query) {
                    for (id, b) in entries {
                        if b.intersects(query) {
                            out.push(*id);
                        }
                    }
                }
            }
            Node::Inner { bbox, children } => {
                if bbox.intersects(query) {
                    for c in children {
                        Self::search(c, query, out);
                    }
                }
            }
        }
    }

    /// Visit entries in increasing order of bbox distance to `p`, stopping
    /// when `visit` returns `false` (kNN support for the baselines).
    pub fn nearest_first(&self, p: spade_geometry::Point, mut visit: impl FnMut(u32, f64) -> bool) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        struct Item<'a> {
            dist: f64,
            node: Option<&'a Node>,
            entry: Option<(u32, f64)>,
        }
        impl PartialEq for Item<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for Item<'_> {}
        impl PartialOrd for Item<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist
                    .partial_cmp(&other.dist)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }

        let mut heap = BinaryHeap::new();
        if let Some(root) = &self.root {
            heap.push(Reverse(Item {
                dist: root.bbox().dist_to_point(p),
                node: Some(root),
                entry: None,
            }));
        }
        while let Some(Reverse(item)) = heap.pop() {
            if let Some((id, d)) = item.entry {
                if !visit(id, d) {
                    return;
                }
                continue;
            }
            match item.node.expect("node or entry") {
                Node::Leaf { entries, .. } => {
                    for (id, b) in entries {
                        heap.push(Reverse(Item {
                            dist: b.dist_to_point(p),
                            node: None,
                            entry: Some((*id, b.dist_to_point(p))),
                        }));
                    }
                }
                Node::Inner { children, .. } => {
                    for c in children {
                        heap.push(Reverse(Item {
                            dist: c.bbox().dist_to_point(p),
                            node: Some(c),
                            entry: None,
                        }));
                    }
                }
            }
        }
    }

    /// The leaf pages as `(entry ids, leaf bbox)` pairs — the view §7
    /// proposes filtering with GPU selections over bounding polygons.
    pub fn leaf_pages(&self) -> Vec<(Vec<u32>, BBox)> {
        let mut out = Vec::new();
        fn walk(node: &Node, out: &mut Vec<(Vec<u32>, BBox)>) {
            match node {
                Node::Leaf { bbox, entries } => {
                    out.push((entries.iter().map(|(id, _)| *id).collect(), *bbox));
                }
                Node::Inner { children, .. } => {
                    for c in children {
                        walk(c, out);
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, &mut out);
        }
        out
    }
}

impl Default for Node {
    fn default() -> Self {
        Node::Leaf {
            bbox: BBox::empty(),
            entries: Vec::new(),
        }
    }
}

/// STR leaf partitioning of arbitrary objects by bbox — the §7 alternative
/// to grid clustering: the resulting partitions feed
/// `spade_index::GridIndex::from_partitions`, whose hull polygons the GPU
/// filter stage queries exactly like grid cells. Partition keys are
/// `(leaf_index, 0)`.
pub fn str_partitions(
    objects: &[(u32, spade_geometry::Geometry)],
    leaf_capacity: usize,
) -> Vec<((i32, i32), Vec<usize>)> {
    let leaf_capacity = leaf_capacity.max(1);
    let n = objects.len();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    // STR: sort by center-x, slice into √(leaves) vertical strips, sort
    // each strip by center-y, chunk into leaves.
    let centers: Vec<spade_geometry::Point> =
        objects.iter().map(|(_, g)| g.bbox().center()).collect();
    order.sort_by(|&a, &b| {
        centers[a]
            .x
            .partial_cmp(&centers[b].x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let leaves = n.div_ceil(leaf_capacity);
    let strips = (leaves as f64).sqrt().ceil() as usize;
    let per_strip = n.div_ceil(strips.max(1));
    let mut out = Vec::with_capacity(leaves);
    for strip in order.chunks(per_strip.max(1)) {
        let mut strip = strip.to_vec();
        strip.sort_by(|&a, &b| {
            centers[a]
                .y
                .partial_cmp(&centers[b].y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for leaf in strip.chunks(leaf_capacity) {
            out.push(((out.len() as i32, 0), leaf.to_vec()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::Point;

    fn grid_entries(n: usize) -> Vec<(u32, BBox)> {
        // n×n unit boxes on a grid.
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let min = Point::new(i as f64 * 2.0, j as f64 * 2.0);
                out.push((
                    (i * n + j) as u32,
                    BBox::new(min, min + Point::new(1.0, 1.0)),
                ));
            }
        }
        out
    }

    #[test]
    fn query_matches_brute_force() {
        let entries = grid_entries(20);
        let tree = RTree::build(entries.clone());
        assert_eq!(tree.len(), 400);
        for probe in [
            BBox::new(Point::new(3.0, 3.0), Point::new(9.0, 7.0)),
            BBox::new(Point::new(-5.0, -5.0), Point::new(0.5, 0.5)),
            BBox::new(Point::new(100.0, 100.0), Point::new(110.0, 110.0)),
            BBox::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)),
        ] {
            let mut got = tree.query(&probe);
            got.sort_unstable();
            let mut want: Vec<u32> = entries
                .iter()
                .filter(|(_, b)| b.intersects(&probe))
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "probe {probe:?}");
        }
    }

    #[test]
    fn empty_tree() {
        let tree = RTree::build(vec![]);
        assert!(tree.is_empty());
        assert!(tree
            .query(&BBox::new(Point::ZERO, Point::new(1.0, 1.0)))
            .is_empty());
        assert!(tree.leaf_pages().is_empty());
    }

    #[test]
    fn single_entry() {
        let b = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
        let tree = RTree::build(vec![(7, b)]);
        assert_eq!(tree.query(&b), vec![7]);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn nearest_first_orders_by_distance() {
        let entries = grid_entries(10);
        let tree = RTree::build(entries);
        let p = Point::new(0.5, 0.5);
        let mut dists = Vec::new();
        tree.nearest_first(p, |_, d| {
            dists.push(d);
            dists.len() < 20
        });
        assert_eq!(dists.len(), 20);
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {dists:?}"
        );
        assert_eq!(dists[0], 0.0); // the box containing p
    }

    #[test]
    fn nearest_first_visits_everything_if_not_stopped() {
        let tree = RTree::build(grid_entries(5));
        let mut count = 0;
        tree.nearest_first(Point::ZERO, |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 25);
    }

    #[test]
    fn str_partitions_cover_everything() {
        use spade_geometry::Geometry;
        let objects: Vec<(u32, Geometry)> = (0..137)
            .map(|i| {
                (
                    i,
                    Geometry::Point(Point::new((i % 12) as f64, (i / 12) as f64)),
                )
            })
            .collect();
        let parts = str_partitions(&objects, 16);
        let total: usize = parts.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 137);
        for (_, members) in &parts {
            assert!(!members.is_empty() && members.len() <= 16);
        }
        // Every index exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for (_, m) in &parts {
            for &i in m {
                assert!(seen.insert(i));
            }
        }
        // An R-tree-partitioned GridIndex behaves like the grid one.
        let grid = spade_index::GridIndex::from_partitions(
            None,
            &objects,
            str_partitions(&objects, 16),
            1.0,
            Point::ZERO,
        )
        .unwrap();
        assert_eq!(grid.num_objects(), 137);
        assert!(grid.num_cells() >= 9);
        let loaded: usize = (0..grid.num_cells())
            .map(|i| grid.load_cell(i).unwrap().len())
            .sum();
        assert_eq!(loaded, 137);
    }

    #[test]
    fn str_partitions_empty() {
        assert!(str_partitions(&[], 8).is_empty());
    }

    #[test]
    fn leaf_pages_cover_all_entries() {
        let tree = RTree::build(grid_entries(13));
        let pages = tree.leaf_pages();
        let total: usize = pages.iter().map(|(ids, _)| ids.len()).sum();
        assert_eq!(total, 169);
        // Every page respects the fanout bound.
        for (ids, _) in &pages {
            assert!(!ids.is_empty() && ids.len() <= NODE_CAPACITY);
        }
    }
}
