//! # hybrid-dbscan-core
//!
//! The paper's primary contribution: **Hybrid-DBSCAN** — GPU-accelerated
//! construction of the ε-neighborhood *neighbor table* `T`, an efficient
//! batching scheme that fits arbitrarily large result sets in limited GPU
//! memory, and host-side DBSCAN variants that consume `T` to maximize
//! clustering throughput.
//!
//! Module map (paper section in parentheses):
//!
//! * [`dbscan`] — Algorithm 1 over pluggable neighbor sources; cluster
//!   label containers and equivalence checks (§II-A).
//! * [`table`] — the neighbor table `T` (`[T_min, T_max]` ranges into the
//!   value array `B`) and its batched builder (§V).
//! * [`kernels`] — `GPUCalcGlobal` (Algorithm 2), `GPUCalcShared`
//!   (Algorithm 3), and the result-size estimation kernel (§IV, §VI).
//! * [`batch`] — the batching scheme: Equation 1, the α overestimation
//!   factor, static/variable buffer sizing, strided batch assignment
//!   (§VI, Figure 2).
//! * [`hybrid`] — Algorithm 4 end-to-end with 3-stream overlap (§V, §VI).
//! * [`pipeline`] — the multi-clustering producer-consumer pipeline,
//!   scenario S2 (§VII-E).
//! * [`reuse`] — neighbor-table reuse across `minpts` values, scenario S3
//!   (§VII-F).
//! * [`reference`](mod@reference) — the sequential R-tree DBSCAN the paper compares
//!   against, with neighbor-search time accounting (Table I).
//! * [`scenario`] — the published experiment parameter sets
//!   (Tables III and V).
//!
//! Extensions beyond the paper (DESIGN.md §5):
//!
//! * [`oracle`] — brute-force exact-DBSCAN ground truth (core/border/noise
//!   classification, core components, validity and equivalence checks)
//!   backing the differential test harness in `tests/differential/`.
//! * [`shard`] — the sharded pipeline: ε-halo slab partitioning, one
//!   simulated device per shard (or sequential out-of-core tiling through
//!   one device), and the exact cross-shard table merge (DESIGN.md §14).
//! * [`backend`] — ε-search backend selection: grid vs packed kd-tree
//!   ([`kernels::GpuCalcTree`]), explicit or `Auto` from deterministic
//!   sampled cell statistics, recorded in provenance (DESIGN.md §16).
//!   [`hybrid`] runs either backend over 2-D `Point2` and d ∈ {3, 4}
//!   `PointN<D>` data through the same pipeline.

pub mod backend;
pub mod batch;
pub mod dbscan;
mod eps_index;
pub mod hybrid;
pub mod kernels;
pub mod oracle;
pub mod pipeline;
pub mod reference;
pub mod reuse;
pub mod scenario;
pub mod shard;
pub mod table;

pub use backend::{BackendDecision, ChosenBackend, IndexBackend};
pub use dbscan::{Clustering, Dbscan, PointLabel};
pub use hybrid::{HybridConfig, HybridDbscan, HybridResult};
pub use shard::{clustering_fingerprint, table_fingerprint, ShardConfig, ShardMode, ShardedHybrid};
pub use table::NeighborTable;
