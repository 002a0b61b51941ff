//! Autoware-style euclidean cluster extraction over K-D Bonsai.
//!
//! This crate reproduces the paper's evaluation workload: the
//! `euclidean_cluster` perception node of Autoware.ai, which segments a
//! LiDAR frame into objects by repeatedly radius-searching a k-d tree
//! (PCL's `extractEuclideanClusters`, [Rusu 2010]).
//!
//! The node's stages, mirrored here with the same kernel attribution the
//! paper measures:
//!
//! 1. **Preprocess** ([`filters`]) — range/height crop, voxel-grid
//!    downsampling, RANSAC ground removal;
//! 2. **Extract** ([`extract_euclidean_clusters`]) — k-d tree build
//!    (+ leaf compression under Bonsai) and the BFS over radius-search
//!    neighbourhoods; this is the paper's *extract kernel*, ~90 % of the
//!    task. With the simulator off the same clusters come from one
//!    self-join over leaf pairs instead of one search per point;
//! 3. **Post-process** — cluster labelling and bounding boxes.
//!
//! The extraction is generic over the leaf-inspection mode
//! ([`TreeMode`]): baseline `f32`, Bonsai compressed (exact results,
//! fewer bytes), or the software-codec strawman. Cluster outputs are
//! identical across modes — asserted by tests, because that is the
//! paper's central safety claim.
//!
//! # Examples
//!
//! ```
//! use bonsai_cluster::{ClusterParams, FramePipeline, TreeMode};
//! use bonsai_geom::Point3;
//! use bonsai_sim::SimEngine;
//!
//! // Two well-separated blobs.
//! let mut cloud = Vec::new();
//! for i in 0..40 {
//!     let o = (i % 8) as f32 * 0.1;
//!     cloud.push(Point3::new(5.0 + o, 0.0, 1.0 + (i / 8) as f32 * 0.1));
//!     cloud.push(Point3::new(15.0 + o, 3.0, 1.0 + (i / 8) as f32 * 0.1));
//! }
//! let mut sim = SimEngine::disabled();
//! let pipeline = FramePipeline::new(ClusterParams::default());
//! let result = pipeline.cluster_prepared(&mut sim, cloud, TreeMode::Bonsai);
//! assert_eq!(result.output.clusters.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod filters;

mod extract;
mod join;
mod pipeline;
mod streaming;

pub use bonsai_core::{AdaptReport, CompactionPolicy, Coverage, ShardPolicy};
pub use extract::{
    extract_euclidean_clusters, extract_euclidean_clusters_batched,
    extract_euclidean_clusters_sharded, ClusterOutput, TreeMode,
};
pub use pipeline::{
    AdaptPolicy, AuditPolicy, ClusterParams, FramePipeline, FrameResult, PipelineError,
    StreamingPipeline,
};
pub use streaming::{FrameUpdate, HealReport, StreamingExtractor};
