//! A device-resident packed kd-tree: the tree-based ε-search backend.
//!
//! GPU traversal needs a flat, SoA layout rather than a pointer tree.
//! [`PackedKdTree`] stores the tree as an *implicit level-order heap*
//! (node `k` has children `2k+1`, `2k+2` — no child pointers at all)
//! over three parallel arrays:
//!
//! * `splits[k]` — the splitting coordinate of internal node `k`;
//! * `axes[k]` — its splitting dimension, or [`LEAF_AXIS`] for a leaf;
//! * `ranges[k]` — for leaves, the `[start, end)` range into `ids`.
//!
//! `ids` is the tree's analogue of the grid's lookup array `A`: point ids
//! reordered so every leaf owns a contiguous range (`|ids| = |D|`). The
//! four arrays upload to the simulated device as plain buffers and a
//! kernel traverses them with a fixed-size stack — no recursion, no
//! pointers, exactly the layout GPU BVH traversals use.
//!
//! # Build
//!
//! Median split (`select_nth_unstable_by`) on the cycling axis
//! `depth mod D`, comparing `(coordinate, id)` — a total order, so the
//! partition (and therefore the whole tree) is deterministic and
//! identical at every thread count. The left subtree holds coordinates
//! `<= splits[k]`, the right holds `>= splits[k]`, and an ε-query
//! descends left when `q[a] - eps <= split` and right when
//! `q[a] + eps >= split` (closed ball on both sides).
//!
//! Leaves hold at most `leaf_size` points except when the depth cap is
//! reached; with median splits a segment at depth `t` has at most
//! `ceil(n / 2^t)` points, so the cap `ceil(log2(n / leaf_size))` always
//! suffices and the node pool — sized `2^(depth+1) - 1` — stays within a
//! small constant factor of `n / leaf_size`.

use crate::grid::CellRange;
use crate::nd::{PointN, PointsViewN};

/// Default leaf capacity for planar (d ≤ 2) databases. Small enough
/// that a leaf is spatially tight (the tree's advantage over the grid's
/// 3ε stencil in dense regions), large enough that the per-leaf
/// traversal overhead amortizes over a SIMD-friendly scan.
pub const TREE_LEAF_SIZE: usize = 32;

/// Default leaf capacity for d ≥ 3. Higher dimensions inflate the
/// ε-ball's bounding box relative to its volume, so a query overlaps
/// proportionally more of each leaf it touches; smaller leaves keep the
/// scanned-candidate count close to the true result size, and the extra
/// traversal depth (one or two dependent reads per query) is cheaper
/// than the over-scan it avoids.
pub const TREE_LEAF_SIZE_ND: usize = 8;

/// The default leaf capacity for a `d`-dimensional database.
pub const fn default_leaf_size(d: usize) -> usize {
    if d <= 2 {
        TREE_LEAF_SIZE
    } else {
        TREE_LEAF_SIZE_ND
    }
}

/// `axes` sentinel marking a leaf node.
pub const LEAF_AXIS: u32 = u32::MAX;

/// Hard cap on tree depth (and on the traversal stack). 2^24 leaves is
/// far beyond any database the simulated device fits.
const MAX_DEPTH: usize = 24;

/// Summary statistics of a built tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Allocated node slots (`2^(depth+1) - 1`, including unused slots).
    pub node_slots: usize,
    /// Reachable leaves holding at least one point.
    pub leaves: usize,
    /// Largest leaf population.
    pub max_leaf_len: usize,
    /// Depth actually used (root = 0).
    pub depth: usize,
}

/// Borrowed, `Copy` view of the packed node pool — what the (simulated)
/// GPU kernels capture, like [`crate::grid::CellsView`].
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    pub splits: &'a [f64],
    pub axes: &'a [u32],
    pub ranges: &'a [CellRange],
    pub ids: &'a [u32],
}

/// The packed kd-tree over a `D`-dimensional point database.
#[derive(Debug, Clone)]
pub struct PackedKdTree<const D: usize> {
    splits: Vec<f64>,
    axes: Vec<u32>,
    ranges: Vec<CellRange>,
    ids: Vec<u32>,
    leaf_size: usize,
    depth: usize,
}

impl<const D: usize> PackedKdTree<D> {
    /// Build over the SoA coordinate view with the dimension's default
    /// leaf size ([`default_leaf_size`]).
    pub fn build(points: PointsViewN<'_, D>) -> Self {
        Self::build_with_leaf_size(points, default_leaf_size(D))
    }

    /// Build over a point slice (convenience for tests and host callers).
    pub fn build_from_points(points: &[PointN<D>]) -> Self {
        let store = crate::nd::PointStoreN::from_points(points);
        Self::build(store.view())
    }

    /// Build with an explicit leaf capacity (`>= 1`).
    pub fn build_with_leaf_size(points: PointsViewN<'_, D>, leaf_size: usize) -> Self {
        assert!(D > 0, "zero-dimensional tree");
        let n = points.len();
        assert!(n > 0, "cannot index an empty database");
        let leaf_size = leaf_size.max(1);

        // Depth needed so every median-split segment fits a leaf:
        // ceil(log2(ceil(n / leaf_size))), capped.
        let n_leaves = n.div_ceil(leaf_size);
        let mut depth = 0usize;
        while (1usize << depth) < n_leaves && depth < MAX_DEPTH {
            depth += 1;
        }
        let slots = (1usize << (depth + 1)) - 1;

        let mut tree = PackedKdTree {
            splits: vec![0.0; slots],
            axes: vec![LEAF_AXIS; slots],
            ranges: vec![CellRange::EMPTY; slots],
            ids: (0..n as u32).collect(),
            leaf_size,
            depth,
        };
        tree.build_node(points, 0, 0, n, 0);
        tree
    }

    /// Recursively build node `node` over `ids[start..end)` at `depth`.
    fn build_node(
        &mut self,
        points: PointsViewN<'_, D>,
        node: usize,
        start: usize,
        end: usize,
        depth: usize,
    ) {
        let len = end - start;
        if len <= self.leaf_size || depth == self.depth {
            // Leaf: axes[node] stays LEAF_AXIS.
            self.ranges[node] = CellRange::new(start as u32, end as u32);
            return;
        }
        let axis = depth % D;
        let coords = points.coords[axis];
        let mid = len / 2;
        // Total order (coordinate, id): the partition is unique, so the
        // tree is deterministic on duplicate coordinates too.
        self.ids[start..end].select_nth_unstable_by(mid, |&a, &b| {
            coords[a as usize]
                .total_cmp(&coords[b as usize])
                .then(a.cmp(&b))
        });
        let split = coords[self.ids[start + mid] as usize];
        self.splits[node] = split;
        self.axes[node] = axis as u32;
        self.build_node(points, 2 * node + 1, start, start + mid, depth + 1);
        self.build_node(points, 2 * node + 2, start + mid, end, depth + 1);
    }

    /// The borrowed node-pool view the kernels capture.
    pub fn view(&self) -> TreeView<'_> {
        TreeView {
            splits: &self.splits,
            axes: &self.axes,
            ranges: &self.ranges,
            ids: &self.ids,
        }
    }

    /// The reordered id array (the tree's `A`).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Allocated node slots (for device-memory accounting).
    pub fn node_slots(&self) -> usize {
        self.splits.len()
    }

    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Summary statistics.
    pub fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut max_leaf_len = 0;
        for (k, &a) in self.axes.iter().enumerate() {
            if a == LEAF_AXIS && !self.ranges[k].is_empty() {
                leaves += 1;
                max_leaf_len = max_leaf_len.max(self.ranges[k].len());
            }
        }
        TreeStats {
            node_slots: self.splits.len(),
            leaves,
            max_leaf_len,
            depth: self.depth,
        }
    }

    /// Host-side ε-range query: visit the id of every point within the
    /// closed ε-ball around `q`. `points` must be the view the tree was
    /// built from. Hit decisions use the ordered accumulation of
    /// [`PointN::distance_sq`], bit-identical to the kernel scan.
    pub fn query_eps_visit(
        &self,
        points: PointsViewN<'_, D>,
        q: &PointN<D>,
        eps: f64,
        mut visit: impl FnMut(u32),
    ) {
        let eps_sq = eps * eps;
        let mut lo = [0.0f64; D];
        let mut hi = [0.0f64; D];
        for k in 0..D {
            lo[k] = q.coords[k] - eps;
            hi[k] = q.coords[k] + eps;
        }
        let mut stack = [0u32; MAX_DEPTH + 2];
        let mut sp = 1usize;
        while sp > 0 {
            sp -= 1;
            let node = stack[sp] as usize;
            let axis = self.axes[node];
            if axis == LEAF_AXIS {
                let r = self.ranges[node];
                for &id in &self.ids[r.start as usize..r.end as usize] {
                    if points.get(id as usize).distance_sq(q) <= eps_sq {
                        visit(id);
                    }
                }
                continue;
            }
            let split = self.splits[node];
            let a = axis as usize;
            // Push right first so the left subtree is visited first
            // (ascending id ranges — deterministic visit order).
            if hi[a] >= split {
                stack[sp] = (2 * node + 2) as u32;
                sp += 1;
            }
            if lo[a] <= split {
                stack[sp] = (2 * node + 1) as u32;
                sp += 1;
            }
        }
    }

    /// Host-side ε-range query, collecting ascending ids.
    pub fn query_eps(&self, points: PointsViewN<'_, D>, q: &PointN<D>, eps: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_eps_visit(points, q, eps, |id| out.push(id));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::{brute_force_neighbors_nd, PointStoreN};

    fn pseudo_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::new(std::array::from_fn(|k| {
                    (t * (0.311 + 0.17 * k as f64)).fract() * extent
                }))
            })
            .collect()
    }

    fn check_against_brute<const D: usize>(points: &[PointN<D>], eps: f64, leaf: usize) {
        let store = PointStoreN::from_points(points);
        let tree = PackedKdTree::<D>::build_with_leaf_size(store.view(), leaf);
        for q in points {
            assert_eq!(
                tree.query_eps(store.view(), q, eps),
                brute_force_neighbors_nd(points, q, eps),
                "D = {D}, eps = {eps}, leaf = {leaf}"
            );
        }
    }

    #[test]
    fn query_matches_brute_force_2d() {
        let pts = pseudo_points::<2>(300, 8.0);
        for eps in [0.3, 1.0, 4.0] {
            for leaf in [1, 4, 32] {
                check_against_brute(&pts, eps, leaf);
            }
        }
    }

    #[test]
    fn query_matches_brute_force_3d_and_4d() {
        let p3 = pseudo_points::<3>(250, 5.0);
        let p4 = pseudo_points::<4>(200, 4.0);
        for eps in [0.5, 1.5] {
            check_against_brute(&p3, eps, 8);
            check_against_brute(&p4, eps, 8);
        }
    }

    #[test]
    fn ids_are_a_permutation_and_leaves_partition() {
        let pts = pseudo_points::<2>(500, 10.0);
        let tree = PackedKdTree::<2>::build_from_points(&pts);
        let mut ids = tree.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..500u32).collect::<Vec<_>>());
        // Leaf ranges are disjoint and cover ids exactly once: total
        // lengths sum to n.
        let v = tree.view();
        let total: usize = v
            .axes
            .iter()
            .zip(v.ranges)
            .filter(|(&a, _)| a == LEAF_AXIS)
            .map(|(_, r)| r.len())
            .sum();
        assert_eq!(total, 500);
        let stats = tree.stats();
        assert!(stats.max_leaf_len <= TREE_LEAF_SIZE.max(1));
        assert!(stats.leaves >= 500 / TREE_LEAF_SIZE);
    }

    #[test]
    fn build_is_deterministic_on_duplicates() {
        let mut pts = vec![PointN::new([1.0, 1.0]); 40];
        pts.extend(pseudo_points::<2>(60, 2.0));
        let a = PackedKdTree::<2>::build_from_points(&pts);
        let b = PackedKdTree::<2>::build_from_points(&pts);
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.view().splits, b.view().splits);
        assert_eq!(a.view().axes, b.view().axes);
        // All-identical points all pair up.
        let store = PointStoreN::from_points(&pts);
        let hits = a.query_eps(store.view(), &pts[0], 0.0);
        assert_eq!(hits.len(), 40);
    }

    #[test]
    fn single_point_and_tiny_databases() {
        for n in [1usize, 2, 3] {
            let pts = pseudo_points::<3>(n, 1.0);
            let store = PointStoreN::from_points(&pts);
            let tree = PackedKdTree::<3>::build(store.view());
            for q in &pts {
                assert_eq!(
                    tree.query_eps(store.view(), q, 10.0).len(),
                    n,
                    "everything within a huge eps"
                );
            }
        }
    }

    #[test]
    fn eps_boundary_is_closed() {
        // 3-4-5 triangle: the boundary point at exactly eps = 5 is a hit.
        let pts = vec![PointN::new([0.0, 0.0]), PointN::new([3.0, 4.0])];
        let store = PointStoreN::from_points(&pts);
        let tree = PackedKdTree::<2>::build(store.view());
        assert_eq!(tree.query_eps(store.view(), &pts[0], 5.0), vec![0, 1]);
        assert_eq!(tree.query_eps(store.view(), &pts[0], 4.999), vec![0]);
    }

    #[test]
    fn depth_is_bounded_and_pool_is_compact() {
        let pts = pseudo_points::<2>(10_000, 50.0);
        let tree = PackedKdTree::<2>::build_from_points(&pts);
        let stats = tree.stats();
        // ceil(10000/32) = 313 leaves -> depth 9, pool 1023 slots.
        assert_eq!(stats.depth, 9);
        assert_eq!(stats.node_slots, 1023);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_database_panics() {
        let _ = PackedKdTree::<2>::build_from_points(&[]);
    }
}
