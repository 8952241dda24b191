//! Neighbor sources: the seam between DBSCAN and the index/table that
//! answers its ε-neighborhood queries.

use crate::table::NeighborTable;
use spatial::{GridIndex, KdTree, Point2, RTree};

/// Supplies the ε-neighborhood of each point by id.
///
/// Implementations must be consistent: `neighbors(p, ..)` contains `p`
/// itself (distance 0 ≤ ε) and exactly the ids within the closed ε-ball.
/// Order is unspecified; DBSCAN's cluster memberships do not depend on it.
pub trait NeighborSource: Sync {
    /// The ids of every point within ε of point `id`. A source that
    /// stores neighborhoods (the table `T`) returns its own slice and
    /// leaves `scratch` alone; an index source clears `scratch`, fills
    /// it with the query's answer, and returns it.
    fn neighbors<'a>(&'a self, id: u32, scratch: &'a mut Vec<u32>) -> &'a [u32];

    /// Total number of points in the database.
    fn num_points(&self) -> usize;
}

/// Neighbor source backed by the grid index (ε is the grid's cell width).
pub struct GridSource<'a> {
    grid: &'a GridIndex,
    data: &'a [Point2],
}

impl<'a> GridSource<'a> {
    pub fn new(grid: &'a GridIndex, data: &'a [Point2]) -> Self {
        GridSource { grid, data }
    }
}

impl NeighborSource for GridSource<'_> {
    fn neighbors<'a>(&'a self, id: u32, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        scratch.clear();
        self.grid
            .query_visit(self.data, &self.data[id as usize], |n| scratch.push(n));
        scratch
    }

    fn num_points(&self) -> usize {
        self.data.len()
    }
}

/// Neighbor source backed by an R-tree (the reference implementation's
/// index; ε is supplied per-source). Query centers are read from the
/// point array the tree was built over.
pub struct RTreeSource<'a> {
    tree: &'a RTree,
    data: &'a [Point2],
    eps: f64,
}

impl<'a> RTreeSource<'a> {
    pub fn new(tree: &'a RTree, data: &'a [Point2], eps: f64) -> Self {
        RTreeSource { tree, data, eps }
    }
}

impl NeighborSource for RTreeSource<'_> {
    fn neighbors<'a>(&'a self, id: u32, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        scratch.clear();
        self.tree
            .query_eps_visit(&self.data[id as usize], self.eps, |n, _| scratch.push(n));
        scratch
    }

    fn num_points(&self) -> usize {
        self.tree.len()
    }
}

/// Neighbor source backed by a kd-tree (ablation comparator).
pub struct KdTreeSource<'a> {
    tree: &'a KdTree,
    data: &'a [Point2],
    eps: f64,
}

impl<'a> KdTreeSource<'a> {
    pub fn new(tree: &'a KdTree, data: &'a [Point2], eps: f64) -> Self {
        KdTreeSource { tree, data, eps }
    }
}

impl NeighborSource for KdTreeSource<'_> {
    fn neighbors<'a>(&'a self, id: u32, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        scratch.clear();
        self.tree
            .query_eps_visit(&self.data[id as usize], self.eps, |n| scratch.push(n));
        scratch
    }

    fn num_points(&self) -> usize {
        self.data.len()
    }
}

/// Neighbor source backed by the precomputed neighbor table `T` — the
/// Hybrid-DBSCAN fast path: a borrowed slice of `T` instead of an index
/// search, with nothing copied.
pub struct TableSource<'a> {
    table: &'a NeighborTable,
}

impl<'a> TableSource<'a> {
    pub fn new(table: &'a NeighborTable) -> Self {
        TableSource { table }
    }
}

impl NeighborSource for TableSource<'_> {
    fn neighbors<'a>(&'a self, id: u32, _scratch: &'a mut Vec<u32>) -> &'a [u32] {
        self.table.neighbors(id)
    }

    fn num_points(&self) -> usize {
        self.table.num_points()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::distance::brute_force_neighbors;

    fn data() -> Vec<Point2> {
        (0..60)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point2::new((t * 1.7).sin() * 5.0 + t * 0.1, (t * 0.9).cos() * 5.0)
            })
            .collect()
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn all_index_sources_agree_with_brute_force() {
        let data = data();
        let eps = 1.2;
        let grid = GridIndex::build(&data, eps);
        let rtree = RTree::bulk_load(&data);
        let kdtree = KdTree::build(&data);

        let gs = GridSource::new(&grid, &data);
        let rs = RTreeSource::new(&rtree, &data, eps);
        let ks = KdTreeSource::new(&kdtree, &data, eps);

        for id in 0..data.len() as u32 {
            let expected = brute_force_neighbors(&data, &data[id as usize], eps);
            for (name, src) in [
                ("grid", &gs as &dyn NeighborSource),
                ("rtree", &rs),
                ("kdtree", &ks),
            ] {
                let mut scratch = Vec::new();
                let got = src.neighbors(id, &mut scratch).to_vec();
                assert_eq!(sorted(got), expected, "{name} disagrees at id {id}");
            }
        }
    }

    #[test]
    fn sources_report_point_count() {
        let data = data();
        let grid = GridIndex::build(&data, 1.0);
        assert_eq!(GridSource::new(&grid, &data).num_points(), 60);
        let rtree = RTree::bulk_load(&data);
        assert_eq!(RTreeSource::new(&rtree, &data, 1.0).num_points(), 60);
    }

    #[test]
    fn every_source_includes_self() {
        let data = data();
        let grid = GridIndex::build(&data, 0.5);
        let gs = GridSource::new(&grid, &data);
        for id in [0u32, 17, 59] {
            let mut scratch = Vec::new();
            assert!(
                gs.neighbors(id, &mut scratch).contains(&id),
                "point {id} missing from its own neighborhood"
            );
        }
    }
}
