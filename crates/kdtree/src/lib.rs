//! A PCL/FLANN-style bucketed k-d tree with radius and nearest-neighbour
//! search.
//!
//! This is the baseline data structure of the paper (Section II-B): a
//! binary tree whose interior nodes split on the most spread-out
//! coordinate and whose leaves hold up to `m` points (15 by default, the
//! PCL value). During construction every subtree's bounding box is
//! computed; interior nodes keep the per-axis gap to each child
//! (`div_low`/`div_high`), which radius search uses to prune subtrees
//! farther than `r` from the query.
//!
//! Two things make this crate more than a textbook k-d tree:
//!
//! * **Instrumentation** — build and search charge micro-ops, memory
//!   references (with realistic simulated layouts: a 16-byte-stride point
//!   array, a reordered index array, a node pool) and branch outcomes to
//!   a [`SimEngine`](bonsai_sim::SimEngine), attributed to the `Build`,
//!   `Traverse` and `LeafScan` kernels.
//! * **A pluggable leaf stage** — [`LeafProcessor`] abstracts how leaf
//!   points are inspected. [`BaselineLeafProcessor`] is the PCL `f32`
//!   path; the `bonsai-core` crate plugs in the compressed path, which is
//!   the paper's entire contribution.
//! * **One leaf layout per tree** — the leaf-contiguous rows the fast
//!   sweeps read are exact `f32` ([`KdTree::build`], 12 B per slot) or
//!   leaf-relative binary16 ([`KdTree::build_f16`], 6 B per slot, the
//!   layout a `bonsai-core` `BonsaiTree` serves from: the halves of
//!   `p − o` against each leaf's grid [`leaf_origin`], so the f16 step
//!   follows the leaf's extent anywhere on the map), never both
//!   ([`RowLayout`]). Every builder and mutation writes the tree's own
//!   layout; the baseline scan handles refuse an f16-row tree when
//!   they are constructed.
//!
//! # Examples
//!
//! ```
//! use bonsai_geom::Point3;
//! use bonsai_kdtree::{KdTree, KdTreeConfig};
//! use bonsai_sim::SimEngine;
//!
//! let cloud: Vec<Point3> =
//!     (0..100).map(|i| Point3::new(i as f32 * 0.1, 0.0, 0.0)).collect();
//! let mut sim = SimEngine::disabled();
//! let tree = KdTree::build(cloud, KdTreeConfig::default(), &mut sim);
//! let hits = tree.radius_search_simple(Point3::new(5.0, 0.0, 0.0), 0.25);
//! assert_eq!(hits.len(), 5); // 4.8, 4.9, 5.0, 5.1, 5.2
//! ```

mod audit;
mod baseline;
mod build;
#[cfg(feature = "chaos")]
mod chaos;
mod compact;
mod costs;
mod knn;
mod mutate;
mod node;
mod parts;
mod rows;
mod scratch;
mod search;
pub mod simd;

pub use audit::{AuditViolation, TreeAuditor, ViolationKind};
pub use baseline::BaselineLeafProcessor;
pub use build::{BuildStats, KdTree, KdTreeConfig, SplitRule};
#[cfg(feature = "chaos")]
pub use chaos::ChaosRng;
pub use compact::CompactRemap;
pub use costs::TraversalCosts;
pub use mutate::{MutationStats, ALPHA_BALANCE, PAD_SLOT};
pub use node::{LeafId, Node, NodeId};
pub use rows::{encode_halves, leaf_origin, RowLayout};
pub use scratch::{QueryBatch, SearchScratch};
pub use search::{query_is_searchable, radius_is_searchable, LeafProcessor, Neighbor, SearchStats};
