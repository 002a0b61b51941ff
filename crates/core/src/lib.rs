//! K-D Bonsai: compressed k-d tree leaves with exact-result radius search.
//!
//! This crate is the paper's primary contribution. A [`BonsaiTree`] is a
//! PCL-style k-d tree whose leaf points are stored as their `f32 → f16`
//! approximations, produced during construction the way the Bonsai
//! compress instructions produce them. Radius search then moves the
//! small compressed points instead of the scattered 12-byte `f32`
//! points — the data-movement saving that yields the paper's
//! end-to-end gains.
//!
//! The tree keeps **one** copy of its leaves, the f16 rows (6 B per
//! slot), next to the exact cloud every fallback reads: about 32 B per
//! drive-frame point in all, against ≈39 B/pt for the baseline
//! [`KdTree`](bonsai_kdtree::KdTree) over the same frame. The
//! breakdown is on [`BonsaiTree`]. A one-byte header per node records
//! each leaf's compressed-structure flags and size, which the search
//! statistics and [`CompressionStats`] read. The paper's
//! `cmprsd_strct_array` itself ([`CompressedDirectory`]) is built when
//! the simulator is enabled at build time, and otherwise on the first
//! [`BonsaiTree::directory`] call — only the instrumented leaf
//! processors read it.
//!
//! Compression is lossy, but the search is **exact**: every distance
//! computed from compressed data carries a worst-case error bound
//! (Eq. 9/11), and a candidate whose squared distance falls inside the
//! uncertainty shell `r² ± Tεsd` (Eq. 12, [`shell`]) is re-classified
//! from the original `f32` point. The crate's tests assert
//! bit-identical result sets against the baseline.
//!
//! # Examples
//!
//! ```
//! use bonsai_core::BonsaiTree;
//! use bonsai_geom::Point3;
//! use bonsai_kdtree::{KdTree, KdTreeConfig};
//! use bonsai_sim::SimEngine;
//!
//! let cloud: Vec<Point3> = (0..200)
//!     .map(|i| Point3::new((i % 20) as f32 * 0.3, (i / 20) as f32 * 0.3, 0.5))
//!     .collect();
//! let mut sim = SimEngine::disabled();
//! let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
//! let baseline_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
//! assert!(tree.resident_bytes() < baseline_tree.resident_bytes());
//!
//! // Same result membership as the uncompressed baseline, guaranteed.
//! let q = cloud[42];
//! let bonsai: Vec<u32> =
//!     tree.radius_search_simple(q, 0.5).iter().map(|n| n.index).collect();
//! let baseline: Vec<u32> =
//!     baseline_tree.radius_search_simple(q, 0.5).iter().map(|n| n.index).collect();
//! assert_eq!(bonsai, baseline);
//! ```

pub mod shell;

mod adapt;
mod audit;
#[cfg(feature = "chaos")]
mod chaos;
mod directory;
mod engine;
mod epoch;
#[cfg(feature = "parallel")]
mod fanout;
mod processor;
mod reduced;
mod shard;
mod simd;
mod software;
mod tree;

pub use adapt::{
    find_best_split_plane, find_best_split_plane_taxed, AdaptDecision, AdaptReport, LoadReport,
    LoadSample, RejectReason, ShardLoadProfile, ShardLoadReport, ShardPolicy, SplitPlane,
};
#[cfg(feature = "chaos")]
pub use chaos::{FaultKind, FaultPlan};
pub use directory::{CompressedDirectory, LeafRef};
pub use engine::{EngineMode, RadiusSearchEngine};
pub use epoch::{Epoch, EpochPublisher, QueryError};
pub use processor::BonsaiLeafProcessor;
pub use reduced::ReducedUncheckedProcessor;
pub use shard::{CompactionPolicy, Coverage, RouterSnapshot, ShardConfig, ShardRouter};
pub use software::SoftwareCodecProcessor;
pub use tree::{BonsaiTree, CompressionStats};
