//! Spatial indexing substrate for Hybrid-DBSCAN.
//!
//! This crate provides the index structures the paper depends on:
//!
//! * [`grid`] — the GPU-friendly grid index `(G, A)` of Section IV: ε×ε
//!   cells over the data extent, a cell array `G` holding `[A_min, A_max]`
//!   ranges, and a lookup array `A` with `|A| = |D|` (Figure 1 of the paper).
//! * [`rtree`] — a classical R-tree (Guttman quadratic split plus STR bulk
//!   loading) used by the *reference implementation* the paper compares
//!   against (sequential DBSCAN, Table I / Figure 3).
//! * [`presort`] — the unit-width x/y binning pre-sort applied to the point
//!   database before grid construction to improve access locality.
//! * [`shard`] — x-quantile slab partitioning with ε-halos, the spatial
//!   layer under the multi-device sharded pipeline.
//! * [`nd`] — dimension-generic points, stores, AABBs, pre-sort, and the
//!   brute-force oracle (const-generic `D`, covering d ∈ {2, 3, 4}).
//! * [`gridn`] — the sparse ε-grid generalized to `D` dimensions
//!   (`3^D` stencil, `u64` mixed-radix cell keys).
//! * [`packed_tree`] — the device-resident packed kd-tree (implicit
//!   level-order heap, SoA node pool) behind the tree ε-search backend;
//!   its host-side ε-query also serves as the kd-tree neighbor source.
//!
//! The original pipeline operates on 2-D points ([`Point2`]), the paper's
//! setting; the [`nd`]/[`gridn`]/[`packed_tree`] layer extends the same
//! structures to higher dimensions without disturbing the 2-D path.

pub mod aabb;
pub mod distance;
pub mod grid;
pub mod gridn;
pub mod nd;
pub mod packed_tree;
pub mod point;
pub mod presort;
pub mod rtree;
pub mod shard;
pub mod soa;

pub use aabb::Aabb;
pub use grid::{CellRange, CellsView, GridGeometry, GridIndex, GridLayout, GridStats};
pub use gridn::{CellsViewN, GridGeometryN, GridIndexN};
pub use nd::{AabbN, PointN, PointStoreN, PointsViewN};
pub use packed_tree::{PackedKdTree, TreeStats, TreeView};
pub use point::Point2;
pub use rtree::{RTree, RTreeStats};
pub use shard::ShardPlan;
pub use soa::{PointStore, PointsView};
