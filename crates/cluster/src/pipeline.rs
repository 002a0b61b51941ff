use std::fmt;
use std::sync::{Mutex, PoisonError};

use bonsai_geom::{Aabb, Point3};
use bonsai_kdtree::{AuditViolation, KdTreeConfig};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::extract::{extract_with_cloud, ClusterOutput, TreeMode};
use crate::filters;

/// Why a streaming serving call failed — the `Result` boundary of
/// [`StreamingPipeline::try_process_frame`] and the extractor's
/// `try_*` entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The cluster tolerance is non-positive or non-finite: no radius
    /// search is defined for it.
    DegenerateTolerance(f32),
    /// The voxel-grid cell size is not positive and finite, or its
    /// reciprocal overflows: the voxel grid cannot key a point with it.
    DegenerateVoxelSize(f32),
    /// An audit found corruption and the quarantine-and-rebuild heal
    /// could not restore a clean index; the violations that survived
    /// (or tripped the guard) are attached.
    CorruptionUnrecovered(Vec<AuditViolation>),
    /// A point lookup named a global index that is out of range or
    /// whose point has been deleted.
    PointNotLive(u32),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DegenerateTolerance(t) => {
                write!(f, "cluster tolerance {t} is not a positive finite radius")
            }
            PipelineError::DegenerateVoxelSize(v) => {
                write!(
                    f,
                    "voxel size {v} is not a positive finite size with a finite reciprocal"
                )
            }
            PipelineError::CorruptionUnrecovered(v) => {
                write!(
                    f,
                    "index corruption survived a heal ({} violations",
                    v.len()
                )?;
                if let Some(first) = v.first() {
                    write!(f, "; first: {first}")?;
                }
                write!(f, ")")
            }
            PipelineError::PointNotLive(idx) => {
                write!(f, "global point index {idx} is out of range or deleted")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// When [`StreamingPipeline::try_process_frame`] runs the deep
/// invariant audit (and, on findings, the quarantine-and-rebuild
/// heal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditPolicy {
    /// Never audit — the default; the healthy serving path is exactly
    /// the unaudited one.
    #[default]
    Off,
    /// Audit before every frame.
    EveryFrame,
    /// Audit before every `n`-th frame (`Every(0)` behaves like
    /// [`Off`](AuditPolicy::Off)).
    Every(u32),
}

/// When the streaming pipeline runs a load-adaptive topology step
/// ([`StreamingExtractor::maybe_adapt`](crate::StreamingExtractor::maybe_adapt)).
///
/// Off by default and cheap when on: a due step samples `O(shards)`
/// atomic counters, and only a shard whose decayed load crosses the
/// [`ShardPolicy`](bonsai_core::ShardPolicy) ratios pays a targeted
/// rebuild (at most one split *or* merge per due frame).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdaptPolicy {
    /// Never adapt — the default; topology stays the build-time
    /// median cut.
    #[default]
    Off,
    /// Run one adapt step every `n`-th frame with the given policy
    /// knobs (`Every(0, _)` behaves like [`Off`](AdaptPolicy::Off)).
    Every(u32, bonsai_core::ShardPolicy),
}

/// Parameters of the end-to-end euclidean-cluster pipeline, with
/// Autoware-flavoured defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Keep points within this planar range of the vehicle, meters.
    pub crop_range: f32,
    /// Keep points with z above this, meters.
    pub crop_z_min: f32,
    /// Keep points with z below this, meters.
    pub crop_z_max: f32,
    /// Voxel-grid cell size, meters.
    pub voxel_size: f32,
    /// RANSAC ground-plane inlier threshold, meters.
    pub ground_threshold: f32,
    /// RANSAC iterations.
    pub ground_iterations: u32,
    /// Cluster tolerance (the radius-search radius), meters.
    pub tolerance: f32,
    /// Minimum cluster size in points.
    pub min_cluster_size: usize,
    /// Maximum cluster size in points.
    pub max_cluster_size: usize,
    /// K-d tree construction parameters.
    pub tree: KdTreeConfig,
    /// Spatial shards for the extraction stage: `0` or `1` serves every
    /// frame from one tree; `K ≥ 2` routes the BFS through a K-shard
    /// [`ShardRouter`](bonsai_core::ShardRouter) (production path only
    /// — an *instrumented* run always uses the single-tree extraction,
    /// whose event stream is what the paper models).
    pub shards: usize,
}

impl Default for ClusterParams {
    fn default() -> ClusterParams {
        ClusterParams {
            crop_range: 60.0,
            crop_z_min: -0.3,
            crop_z_max: 2.6,
            voxel_size: 0.15,
            ground_threshold: 0.12,
            ground_iterations: 12,
            tolerance: 0.35,
            min_cluster_size: 10,
            max_cluster_size: 50_000,
            tree: KdTreeConfig::default(),
            shards: 0,
        }
    }
}

/// Everything one frame produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// The extraction output (clusters + stats).
    pub output: ClusterOutput,
    /// Per-cluster bounding boxes (post-processing stage).
    pub boxes: Vec<Aabb>,
    /// Points entering the extract kernel (after preprocessing).
    pub clustered_points: usize,
}

/// The euclidean-cluster frame pipeline: preprocess → extract →
/// post-process, with every stage charged to its kernel.
///
/// The pipeline keeps its preprocessing buffers (filter outputs, voxel
/// table and cells, ground-removal scratch) and reuses them across
/// frames; a clone starts with fresh ones.
///
/// See the [crate docs](crate) for an example.
pub struct FramePipeline {
    params: ClusterParams,
    workspace: Mutex<filters::Workspace>,
}

impl Clone for FramePipeline {
    fn clone(&self) -> FramePipeline {
        FramePipeline::new(self.params.clone())
    }
}

impl fmt::Debug for FramePipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramePipeline")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl FramePipeline {
    /// Creates a pipeline with the given parameters.
    pub fn new(params: ClusterParams) -> FramePipeline {
        FramePipeline {
            params,
            workspace: Mutex::default(),
        }
    }

    /// The parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Runs the full pipeline on a raw sensor frame.
    pub fn run(&self, sim: &mut SimEngine, raw_cloud: &[Point3], mode: TreeMode) -> FrameResult {
        self.ingest(sim, raw_cloud);
        let objects = self.preprocess(sim, raw_cloud);
        self.cluster_prepared(sim, objects, mode)
    }

    /// Models the ROS → PCL cloud conversion every Autoware node performs
    /// on arrival (`pcl::fromROSMsg`): one pass over the raw message,
    /// field extraction, and a copy into the PCL cloud layout.
    fn ingest(&self, sim: &mut SimEngine, raw_cloud: &[Point3]) {
        let prev = sim.set_kernel(Kernel::Preprocess);
        let msg = sim.alloc(raw_cloud.len() as u64 * 22, 64); // PointCloud2 row stride
        let cloud = sim.alloc(raw_cloud.len() as u64 * 16, 64);
        for i in 0..raw_cloud.len() as u64 {
            sim.load(msg + i * 22, 16);
            sim.exec(OpClass::IntAlu, 6);
            sim.store(cloud + i * 16, 16);
        }
        sim.set_kernel(prev);
    }

    /// The preprocessing stages alone (crop → voxel → ground removal):
    /// the cloud the extract kernel consumes. Exposed for experiments
    /// that analyse the preprocessed cloud directly (leaf-similarity
    /// census, Table I error sweeps).
    ///
    /// Once earlier frames have grown the pipeline's buffers to this
    /// frame's sizes, the returned cloud is the call's only allocation.
    pub fn preprocess(&self, sim: &mut SimEngine, raw_cloud: &[Point3]) -> Vec<Point3> {
        // A filter that panicked mid-frame (an invalid voxel size)
        // poisons the lock; each pass refills its buffers before reading
        // them, so the workspace is still sound.
        let mut ws = self
            .workspace
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ws.preprocess(sim, raw_cloud, &self.params)
    }

    /// Runs extraction + post-processing on an already-preprocessed
    /// cloud.
    pub fn cluster_prepared(
        &self,
        sim: &mut SimEngine,
        points: Vec<Point3>,
        mode: TreeMode,
    ) -> FrameResult {
        let p = &self.params;
        let clustered_points = points.len();
        let points_addr = sim.alloc(points.len() as u64 * 16, 64);
        // The extraction hands the cloud back (the tree's own point
        // array) for the boxes below.
        let (output, cloud) = if p.shards > 1 && !sim.is_enabled() {
            crate::extract::sharded_with_cloud(
                points,
                p.tolerance,
                p.min_cluster_size,
                p.max_cluster_size,
                p.tree,
                mode,
                bonsai_core::ShardConfig::with_shards(p.shards),
            )
        } else {
            extract_with_cloud(
                sim,
                points,
                p.tolerance,
                p.min_cluster_size,
                p.max_cluster_size,
                p.tree,
                mode,
            )
        };

        // Post-processing: label points and compute cluster boxes
        // (Autoware publishes bounding boxes + centroids per cluster).
        let prev = sim.set_kernel(Kernel::PostProcess);
        let mut boxes = Vec::with_capacity(output.clusters.len());
        for cluster in &output.clusters {
            // Extraction never emits an empty cluster (min size ≥ 1),
            // so the box folds from the first member — no panic path
            // on the serving route; a defensively-empty cluster would
            // contribute no box rather than killing the frame.
            let mut aabb: Option<Aabb> = None;
            for &idx in cluster {
                sim.load(points_addr + idx as u64 * 16, 12);
                sim.exec(OpClass::FpAlu, 6);
                sim.store(points_addr + idx as u64 * 16, 4); // label write
                let pt = cloud[idx as usize];
                match &mut aabb {
                    Some(b) => b.insert(pt),
                    None => aabb = Some(Aabb::new(pt, pt)),
                }
            }
            boxes.extend(aabb);
        }
        sim.set_kernel(prev);
        FrameResult {
            output,
            boxes,
            clustered_points,
        }
    }
}

/// The streaming form of [`FramePipeline`]: one persistent
/// [`StreamingExtractor`](crate::StreamingExtractor) serves every
/// frame, so consecutive frames **diff-and-update** the sharded index
/// instead of rebuilding it. Frame 0 builds; frame `k` pays only its
/// churn (typically a few percent of the cloud) plus the per-touched-
/// leaf re-bake.
///
/// `process_frame` reproduces [`FramePipeline::run`]'s `FrameResult`
/// exactly — same clusters (frame-local indices), same boxes — for
/// every [`TreeMode`]; only the `search_stats`/`build_stats` counters
/// reflect the incremental trees' own shapes. Uninstrumented by
/// design: an instrumented run models the paper's rebuild-per-frame
/// kernel sequence, which an incremental update intentionally does not
/// reproduce.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::{ClusterParams, StreamingPipeline, TreeMode};
/// use bonsai_geom::Point3;
///
/// let frame: Vec<Point3> = (0..200)
///     .map(|i| Point3::new((i % 20) as f32 * 0.1 + 5.0, (i / 20) as f32 * 0.1, 1.0))
///     .collect();
/// let mut pipeline = StreamingPipeline::new(ClusterParams::default(), TreeMode::Bonsai);
/// let first = pipeline.process_frame(&frame);   // builds
/// let second = pipeline.process_frame(&frame);  // zero churn
/// assert_eq!(first.output.clusters, second.output.clusters);
/// ```
#[derive(Debug)]
pub struct StreamingPipeline {
    pipeline: FramePipeline,
    mode: TreeMode,
    extractor: crate::StreamingExtractor,
    /// Scratch: global index → position in the current frame.
    frame_pos: Vec<u32>,
    /// Auto-compaction policy checked after every frame (`None`
    /// disables the rolling shard rebuilds).
    compaction: Option<bonsai_core::CompactionPolicy>,
    /// When the deep invariant audit runs (default: never).
    audit: AuditPolicy,
    /// When the load-adaptive split/merge step runs (default: never).
    adapt: AdaptPolicy,
    /// Accumulated adaptive-topology decisions (splits, merges, typed
    /// rejections) since construction.
    adapt_totals: bonsai_core::AdaptReport,
    /// Frames served so far (drives [`AuditPolicy::Every`]).
    frames_processed: u64,
    /// Epoch publication point: after every frame the freshly-mutated
    /// index is published as the next
    /// [`RouterSnapshot`](bonsai_core::RouterSnapshot) epoch, so a
    /// serving front-end holding this `Arc` answers queries against
    /// consistent snapshots *while* the pipeline keeps ingesting.
    publisher: std::sync::Arc<bonsai_core::EpochPublisher<bonsai_core::RouterSnapshot>>,
}

impl StreamingPipeline {
    /// Creates a streaming pipeline; `params.shards` picks the shard
    /// count of the persistent index (`0`/`1` = one shard).
    ///
    /// Auto-compaction defaults to
    /// [`CompactionPolicy::default`](bonsai_core::CompactionPolicy):
    /// after each frame one shard is checked (round robin) and rebuilt
    /// when churn has wasted enough of its storage, so the **tree and
    /// directory storage** of a long stream stays bounded without any
    /// frame paying for more than one shard rebuild. (Rebuilds also
    /// retire dead global indices into a generation-tagged free list,
    /// so the per-insert bookkeeping — extractor coordinates, router
    /// directory — stops growing too.) Compaction never changes
    /// extraction output —
    /// global indices are stable and per-point membership is
    /// shape-independent — so the streaming results stay bit-identical
    /// to rebuild-per-frame with the policy on or off. Disable or tune
    /// with [`set_compaction_policy`](StreamingPipeline::set_compaction_policy).
    pub fn new(params: ClusterParams, mode: TreeMode) -> StreamingPipeline {
        let extractor = crate::StreamingExtractor::new(mode, params.tree, params.shards.max(1));
        let publisher = std::sync::Arc::new(bonsai_core::EpochPublisher::new(extractor.snapshot()));
        StreamingPipeline {
            pipeline: FramePipeline::new(params),
            mode,
            extractor,
            frame_pos: Vec::new(),
            compaction: Some(bonsai_core::CompactionPolicy::default()),
            audit: AuditPolicy::default(),
            adapt: AdaptPolicy::default(),
            adapt_totals: bonsai_core::AdaptReport::default(),
            frames_processed: 0,
            publisher,
        }
    }

    /// The audit policy (default [`AuditPolicy::Off`]).
    pub fn audit_policy(&self) -> AuditPolicy {
        self.audit
    }

    /// Replaces the audit policy.
    pub fn set_audit_policy(&mut self, policy: AuditPolicy) {
        self.audit = policy;
    }

    /// The adaptive-sharding policy (default [`AdaptPolicy::Off`]).
    pub fn adapt_policy(&self) -> AdaptPolicy {
        self.adapt
    }

    /// Replaces the adaptive-sharding policy. Turning adaptation on
    /// never changes extraction output (global indices are stable
    /// across the targeted split/merge rebuilds); it only rebalances
    /// where the routed search work happens.
    pub fn set_adapt_policy(&mut self, policy: AdaptPolicy) {
        self.adapt = policy;
    }

    /// Accumulated adaptive-topology outcome since construction:
    /// total splits, merges, and typed rejections, plus the most
    /// recent due window's decision list.
    pub fn adapt_totals(&self) -> &bonsai_core::AdaptReport {
        &self.adapt_totals
    }

    /// The auto-compaction policy (`None` = disabled).
    pub fn compaction_policy(&self) -> Option<bonsai_core::CompactionPolicy> {
        self.compaction
    }

    /// Replaces the auto-compaction policy; `None` disables the
    /// per-frame rolling rebuilds entirely.
    pub fn set_compaction_policy(&mut self, policy: Option<bonsai_core::CompactionPolicy>) {
        self.compaction = policy;
    }

    /// The wrapped per-frame pipeline (parameters, preprocessing).
    pub fn pipeline(&self) -> &FramePipeline {
        &self.pipeline
    }

    /// The leaf-inspection mode.
    pub fn mode(&self) -> TreeMode {
        self.mode
    }

    /// The persistent extractor (diff inspection, router stats).
    pub fn extractor(&self) -> &crate::StreamingExtractor {
        &self.extractor
    }

    /// The epoch publisher over this pipeline's index snapshots.
    ///
    /// Epoch 0 is the empty pre-ingest index; each
    /// [`process_frame`](StreamingPipeline::process_frame) /
    /// [`try_process_frame`](StreamingPipeline::try_process_frame)
    /// publishes the post-frame index as the next epoch. Hand a clone
    /// of this `Arc` to a `bonsai-serve` `Server` (or pin epochs
    /// directly) to run radius queries **concurrently with ingest**:
    /// a pinned epoch stays bit-identical to the index as it was at
    /// that frame boundary, however many frames are ingested after.
    pub fn epoch_publisher(
        &self,
    ) -> &std::sync::Arc<bonsai_core::EpochPublisher<bonsai_core::RouterSnapshot>> {
        &self.publisher
    }

    /// Mutable extractor access for the chaos suite (fault injection
    /// between frames).
    #[cfg(feature = "chaos")]
    pub fn chaos_extractor_mut(&mut self) -> &mut crate::StreamingExtractor {
        &mut self.extractor
    }

    /// Runs preprocess → diff → incremental update → extract →
    /// post-process on a raw sensor frame, returning the same
    /// `FrameResult` a from-scratch [`FramePipeline::run`] produces.
    ///
    /// # Panics
    ///
    /// Panics where
    /// [`try_process_frame`](StreamingPipeline::try_process_frame)
    /// would return an error: a degenerate tolerance or voxel size, or
    /// corruption a policy-triggered heal could not repair.
    pub fn process_frame(&mut self, raw_cloud: &[Point3]) -> FrameResult {
        // lint: allow(panic-free-serving) — documented panicking
        // convenience wrapper; the serving path is `try_process_frame`.
        self.try_process_frame(raw_cloud)
            .expect("streaming frame failed")
    }

    /// [`process_frame`](StreamingPipeline::process_frame) behind the
    /// serving `Result` boundary. If the audit policy is due it first
    /// audits the index and, on findings,
    /// [heals](crate::StreamingExtractor::heal) it — quarantined
    /// shards are rebuilt from the authoritative coordinates before
    /// the frame is served, so a transient corruption costs one
    /// rebuild, not the stream. Corruption that survives the heal is
    /// returned as [`PipelineError::CorruptionUnrecovered`]; parameters
    /// no frame can run with, as [`PipelineError::DegenerateTolerance`]
    /// or [`PipelineError::DegenerateVoxelSize`], before any work.
    pub fn try_process_frame(
        &mut self,
        raw_cloud: &[Point3],
    ) -> Result<FrameResult, PipelineError> {
        let ClusterParams {
            tolerance,
            voxel_size,
            ..
        } = *self.pipeline.params();
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(PipelineError::DegenerateTolerance(tolerance));
        }
        if !filters::voxel_size_is_valid(voxel_size) {
            return Err(PipelineError::DegenerateVoxelSize(voxel_size));
        }
        let due = match self.audit {
            AuditPolicy::Off => false,
            AuditPolicy::EveryFrame => true,
            AuditPolicy::Every(n) => n > 0 && self.frames_processed.is_multiple_of(u64::from(n)),
        };
        if due {
            let report = self.extractor.heal();
            if !report.clean {
                return Err(PipelineError::CorruptionUnrecovered(report.violations));
            }
        }
        self.frames_processed += 1;
        Ok(self.frame_inner(raw_cloud))
    }

    fn frame_inner(&mut self, raw_cloud: &[Point3]) -> FrameResult {
        let mut sim = SimEngine::disabled();
        let points = self.pipeline.preprocess(&mut sim, raw_cloud);
        let p = self.pipeline.params();
        let frame_globals = self.extractor.ingest_frame(&points);
        // Amortized fragmentation control: one shard checked per frame,
        // rebuilt only when the waste criterion fires. Output-neutral
        // (stable global indices), so it can run before extraction.
        if let Some(policy) = self.compaction {
            self.extractor.maybe_compact(&policy);
        }
        // Load-adaptive topology: when due, fold the query counters
        // accumulated since the last step and split/merge at most one
        // shard. Bounded by the oldest pinned epoch's staleness, and
        // output-neutral like compaction (stable global indices).
        if let AdaptPolicy::Every(n, policy) = self.adapt {
            if n > 0 && self.frames_processed.is_multiple_of(u64::from(n)) {
                let lag = self.publisher.epoch_lag();
                let report = self.extractor.maybe_adapt(&policy, lag);
                self.adapt_totals.splits += report.splits;
                self.adapt_totals.merges += report.merges;
                self.adapt_totals.rejected += report.rejected;
                self.adapt_totals.decisions = report.decisions;
            }
        }
        let output = self
            .extractor
            .extract(p.tolerance, p.min_cluster_size, p.max_cluster_size);

        // Remap global-index clusters to frame-local indices and
        // restore the canonical ordering `run` emits (members sorted,
        // clusters by first member — the seed order of the per-frame
        // BFS).
        self.frame_pos
            .resize(self.extractor.points_ever(), u32::MAX);
        for (pos, &g) in frame_globals.iter().enumerate() {
            // A non-finite frame point is never indexed (and can never
            // appear in a cluster).
            if g != crate::StreamingExtractor::UNINDEXED {
                self.frame_pos[g as usize] = pos as u32;
            }
        }
        let mut clusters: Vec<Vec<u32>> = output
            .clusters
            .iter()
            .map(|c| {
                let mut local: Vec<u32> = c.iter().map(|&g| self.frame_pos[g as usize]).collect();
                local.sort_unstable();
                local
            })
            .collect();
        clusters.sort_unstable_by_key(|c| c[0]);

        // Post-process exactly like `cluster_prepared`: per-cluster
        // boxes folded in ascending member order over the frame cloud.
        let mut boxes = Vec::with_capacity(clusters.len());
        for cluster in &clusters {
            // Same no-panic fold as `cluster_prepared`: extraction
            // never emits an empty cluster, and a defectively-empty
            // one contributes no box instead of killing the stream.
            let mut aabb: Option<Aabb> = None;
            for &idx in cluster {
                let pt = points[idx as usize];
                match &mut aabb {
                    Some(b) => b.insert(pt),
                    None => aabb = Some(Aabb::new(pt, pt)),
                }
            }
            boxes.extend(aabb);
        }

        // Publish the post-frame index as the next epoch: O(shards)
        // pointer clones, after which concurrent readers pinned on
        // older epochs keep their exact view while new queries see
        // this frame's mutations.
        self.publisher.publish(self.extractor.snapshot());

        FrameResult {
            output: ClusterOutput {
                clusters,
                search_stats: output.search_stats,
                build_stats: output.build_stats,
                compressed_bytes: output.compressed_bytes,
                coverage: output.coverage,
            },
            boxes,
            clustered_points: points.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_lidar::{DrivingSequence, SequenceConfig};

    #[test]
    fn full_pipeline_on_a_synthetic_frame_finds_objects() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let frame = seq.frame(0);
        let mut sim = SimEngine::disabled();
        let pipeline = FramePipeline::new(ClusterParams::default());
        let result = pipeline.run(&mut sim, &frame, TreeMode::Baseline);
        assert!(
            result.clustered_points > 100,
            "kept {}",
            result.clustered_points
        );
        assert!(
            !result.output.clusters.is_empty(),
            "no clusters found in {} points",
            result.clustered_points
        );
        assert_eq!(result.boxes.len(), result.output.clusters.len());
        // Boxes are object-sized, not scene-sized.
        for b in &result.boxes {
            let e = b.extent();
            assert!(e.x < 30.0 && e.y < 30.0, "box too large: {e}");
        }
    }

    #[test]
    fn bonsai_and_baseline_pipelines_agree_end_to_end() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let frame = seq.frame(3);
        let pipeline = FramePipeline::new(ClusterParams::default());
        let mut sim_a = SimEngine::disabled();
        let a = pipeline.run(&mut sim_a, &frame, TreeMode::Baseline);
        let mut sim_b = SimEngine::disabled();
        let b = pipeline.run(&mut sim_b, &frame, TreeMode::Bonsai);
        assert_eq!(a.output.clusters, b.output.clusters);
        assert_eq!(a.boxes, b.boxes);
    }

    /// A sharded pipeline run is output-identical to the single-tree
    /// run: same clusters, same boxes.
    #[test]
    fn sharded_pipeline_matches_single_tree_end_to_end() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let frame = seq.frame(2);
        let single = FramePipeline::new(ClusterParams::default());
        let sharded = FramePipeline::new(ClusterParams {
            shards: 4,
            ..ClusterParams::default()
        });
        for mode in [TreeMode::Baseline, TreeMode::Bonsai] {
            let mut sim_a = SimEngine::disabled();
            let a = single.run(&mut sim_a, &frame, mode);
            let mut sim_b = SimEngine::disabled();
            let b = sharded.run(&mut sim_b, &frame, mode);
            assert_eq!(a.output.clusters, b.output.clusters, "{mode:?}");
            assert_eq!(a.boxes, b.boxes, "{mode:?}");
            assert_eq!(a.clustered_points, b.clustered_points, "{mode:?}");
        }
    }

    /// The streaming pipeline must reproduce the rebuild-per-frame
    /// pipeline's FrameResult end to end, for every mode, single-shard
    /// and sharded, across a real frame sequence.
    #[test]
    fn streaming_pipeline_matches_rebuild_per_frame_end_to_end() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            for shards in [0, 4] {
                let params = ClusterParams {
                    shards,
                    ..ClusterParams::default()
                };
                let rebuild = FramePipeline::new(params.clone());
                let mut streaming = StreamingPipeline::new(params, mode);
                for frame_idx in 0..4 {
                    let frame = seq.frame(frame_idx);
                    let mut sim = SimEngine::disabled();
                    let expect = rebuild.run(&mut sim, &frame, mode);
                    let got = streaming.process_frame(&frame);
                    assert_eq!(
                        got.output.clusters, expect.output.clusters,
                        "{mode:?} shards {shards} frame {frame_idx}"
                    );
                    assert_eq!(got.boxes, expect.boxes, "{mode:?} frame {frame_idx}");
                    assert_eq!(got.clustered_points, expect.clustered_points);
                }
                // Frames 1.. must have gone through the diff path, not
                // rebuilds.
                assert!(
                    streaming.extractor().points_ever() < 4 * streaming.extractor().num_live(),
                    "{mode:?}: streaming state grew like rebuild-per-frame"
                );
            }
        }
    }

    /// The streaming pipeline publishes one epoch per frame, and an
    /// epoch pinned mid-stream keeps answering exactly as the index
    /// stood at that frame boundary while ingest continues.
    #[test]
    fn pipeline_publishes_epochs_and_pins_survive_ingest() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let mut streaming = StreamingPipeline::new(
            ClusterParams {
                shards: 3,
                ..ClusterParams::default()
            },
            TreeMode::Bonsai,
        );
        let publisher = std::sync::Arc::clone(streaming.epoch_publisher());
        assert_eq!(publisher.epoch(), 0, "epoch 0 is the pre-ingest index");

        streaming.process_frame(&seq.frame(0));
        assert_eq!(publisher.epoch(), 1);
        let pinned = publisher.pin();
        let probe = seq.frame(0)[0];
        let mut scratch = bonsai_kdtree::SearchScratch::new();
        let mut frozen = Vec::new();
        let mut stats = bonsai_kdtree::SearchStats::default();
        pinned
            .value()
            .search_one(probe, 0.8, &mut scratch, &mut frozen, &mut stats);

        for frame_idx in 1..3 {
            streaming.process_frame(&seq.frame(frame_idx));
        }
        assert_eq!(publisher.epoch(), 3, "one epoch per frame");

        // The pinned epoch is bit-stable across the later ingests.
        let mut again = Vec::new();
        let mut stats2 = bonsai_kdtree::SearchStats::default();
        pinned
            .value()
            .search_one(probe, 0.8, &mut scratch, &mut again, &mut stats2);
        assert_eq!(frozen, again, "pinned epoch changed under ingest");
        assert_eq!(stats.nodes_visited, stats2.nodes_visited);
    }

    /// An adaptive streaming pipeline must emit the same clusters and
    /// boxes as the rebuild-per-frame pipeline: adaptation rebalances
    /// where routed work happens, never what a query answers.
    #[test]
    fn adaptive_pipeline_is_output_neutral() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let params = ClusterParams {
            shards: 4,
            ..ClusterParams::default()
        };
        let rebuild = FramePipeline::new(params.clone());
        let mut streaming = StreamingPipeline::new(params, TreeMode::Bonsai);
        // Aggressive knobs so the small test stream actually adapts.
        streaming.set_adapt_policy(AdaptPolicy::Every(
            1,
            bonsai_core::ShardPolicy {
                min_split_points: 64,
                min_queries: 16.0,
                split_ratio: 1.2,
                ..bonsai_core::ShardPolicy::default()
            },
        ));
        for frame_idx in 0..4 {
            let frame = seq.frame(frame_idx);
            let mut sim = SimEngine::disabled();
            let expect = rebuild.run(&mut sim, &frame, TreeMode::Bonsai);
            let got = streaming.process_frame(&frame);
            assert_eq!(
                got.output.clusters, expect.output.clusters,
                "frame {frame_idx}"
            );
            assert_eq!(got.boxes, expect.boxes, "frame {frame_idx}");
        }
        let totals = streaming.adapt_totals();
        assert!(
            totals.splits >= 1,
            "extraction load never triggered a split: {totals:?}"
        );
        let audit = streaming.extractor().router().audit();
        assert!(audit.is_empty(), "{audit:?}");
    }

    /// A voxel size the grid cannot key with is a typed error at the
    /// serving boundary, returned before the frame is preprocessed, not
    /// a panic in the voxel grid.
    #[test]
    fn degenerate_voxel_size_is_a_typed_error() {
        let frame = DrivingSequence::new(SequenceConfig::small_test()).frame(0);
        for voxel_size in [
            0.0,
            -0.0,
            -0.15,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1), // the reciprocal overflows to +∞
        ] {
            let params = ClusterParams {
                voxel_size,
                ..ClusterParams::default()
            };
            let mut streaming = StreamingPipeline::new(params, TreeMode::Bonsai);
            match streaming.try_process_frame(&frame) {
                Err(PipelineError::DegenerateVoxelSize(v)) => {
                    assert_eq!(v.to_bits(), voxel_size.to_bits());
                }
                other => panic!("voxel size {voxel_size}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn pipeline_attributes_all_stage_kernels() {
        let seq = DrivingSequence::new(SequenceConfig::small_test());
        let frame = seq.frame(1);
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        let pipeline = FramePipeline::new(ClusterParams::default());
        pipeline.run(&mut sim, &frame, TreeMode::Bonsai);
        for k in [
            Kernel::Preprocess,
            Kernel::Build,
            Kernel::Compress,
            Kernel::Traverse,
            Kernel::LeafScan,
            Kernel::ClusterLogic,
            Kernel::PostProcess,
        ] {
            assert!(sim.kernel_counters(k).micro_ops() > 0, "kernel {k} empty");
        }
        // The extract kernel dominates the end-to-end work, as in the
        // paper's Valgrind profile (~90 % of the task).
        let extract = sim.sum_counters(&Kernel::EXTRACT).micro_ops();
        let total = sim.totals().micro_ops();
        assert!(
            extract as f64 > total as f64 * 0.5,
            "extract {extract} of {total}"
        );
    }
}
