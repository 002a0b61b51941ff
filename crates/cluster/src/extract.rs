use bonsai_core::{
    BonsaiTree, Coverage, RadiusSearchEngine, ShardConfig, ShardRouter, SoftwareCodecProcessor,
};
use bonsai_geom::Point3;
use bonsai_isa::Machine;
use bonsai_kdtree::{
    BaselineLeafProcessor, BuildStats, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch,
    SearchStats,
};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::join::self_join_clusters;

/// Which leaf-inspection path the extraction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreeMode {
    /// Uncompressed `f32` leaves (the paper's baseline).
    #[default]
    Baseline,
    /// Bonsai-compressed leaves via the ISA extensions.
    Bonsai,
    /// Bonsai-compressed leaves decompressed in software (the Section
    /// IV-A strawman).
    SoftwareCodec,
}

/// The result of one euclidean-cluster extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutput {
    /// Clusters as sorted point-index lists, ordered by seed index —
    /// deterministic, so outputs of different [`TreeMode`]s compare
    /// directly.
    pub clusters: Vec<Vec<u32>>,
    /// Aggregated search work counters. The instrumented extraction
    /// counts its per-point radius searches. The single-tree fast path
    /// (simulator off) counts its leaf-pair self-join instead:
    /// `nodes_visited` is the node pairs its one dual walk visits,
    /// `leaf_visits` the leaf pairs it finds (each leaf's self pair
    /// included), `points_inspected` the slots evaluated per (query,
    /// leaf) pair, and `fallbacks` and `point_bytes_loaded` what its
    /// leaf blocks count (each compared leaf's bytes once per block,
    /// plus the exact fallbacks'). The sharded and streaming
    /// extractions count the searches of their BFS.
    pub search_stats: SearchStats,
    /// Tree shape statistics.
    pub build_stats: BuildStats,
    /// Compressed-array footprint in bytes (0 in baseline mode).
    pub compressed_bytes: u64,
    /// Which regions this extraction covered. A from-scratch build is
    /// always complete; a streaming extraction serving through
    /// quarantined shards reports the offline regions here (see
    /// [`Coverage`]).
    pub coverage: Coverage,
}

/// Branch sites of the cluster BFS.
mod sites {
    pub const VISITED: u32 = 0x60;
    pub const SIZE_FILTER: u32 = 0x61;
}

/// PCL's `extractEuclideanClusters` (paper Section II-C): the
/// connected components of the tolerance graph, each the set of points
/// chained to its smallest member by neighbours within `tolerance`.
///
/// With `sim` enabled this is PCL's algorithm, instrumented: a
/// breadth-first expansion that issues one radius search per point.
/// The k-d tree build, leaf compression (under Bonsai) and every radius
/// search are charged to their respective kernels; the BFS bookkeeping
/// is charged to `ClusterLogic`. This is the run the paper's Fig. 2
/// breaks down. With `sim` disabled nothing is recorded, and the same
/// clusters come from one self-join over leaf pairs
/// ([`extract_euclidean_clusters_batched`]).
///
/// `points` is the preprocessed (downsampled, ground-free) cloud.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::{extract_euclidean_clusters, TreeMode};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::KdTreeConfig;
/// use bonsai_sim::SimEngine;
///
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     pts.push(Point3::new(i as f32 * 0.05, 0.0, 0.0));          // blob A
///     pts.push(Point3::new(10.0 + i as f32 * 0.05, 0.0, 0.0));   // blob B
/// }
/// let mut sim = SimEngine::disabled();
/// let out = extract_euclidean_clusters(
///     &mut sim, pts, 0.3, 5, 1000, KdTreeConfig::default(), TreeMode::Baseline);
/// assert_eq!(out.clusters.len(), 2);
/// assert_eq!(out.clusters[0].len(), 30);
/// ```
pub fn extract_euclidean_clusters(
    sim: &mut SimEngine,
    points: Vec<Point3>,
    tolerance: f32,
    min_cluster_size: usize,
    max_cluster_size: usize,
    tree_cfg: KdTreeConfig,
    mode: TreeMode,
) -> ClusterOutput {
    extract_with_cloud(
        sim,
        points,
        tolerance,
        min_cluster_size,
        max_cluster_size,
        tree_cfg,
        mode,
    )
    .0
}

/// The one tree a single-tree extraction builds: `f32` rows in
/// baseline mode, f16 rows under both compressed modes.
enum FrameTree {
    Baseline(KdTree),
    Compressed(BonsaiTree),
}

impl FrameTree {
    /// Builds the tree (Build kernel; + Compress kernel under Bonsai
    /// when `sim` is enabled).
    fn build(points: Vec<Point3>, cfg: KdTreeConfig, mode: TreeMode, sim: &mut SimEngine) -> Self {
        match mode {
            TreeMode::Baseline => FrameTree::Baseline(KdTree::build(points, cfg, sim)),
            TreeMode::Bonsai | TreeMode::SoftwareCodec => {
                FrameTree::Compressed(BonsaiTree::build(points, cfg, sim))
            }
        }
    }

    fn kd_tree(&self) -> &KdTree {
        match self {
            FrameTree::Baseline(kd) => kd,
            FrameTree::Compressed(bonsai) => bonsai.kd_tree(),
        }
    }

    fn bonsai(&self) -> Option<&BonsaiTree> {
        match self {
            FrameTree::Baseline(_) => None,
            FrameTree::Compressed(bonsai) => Some(bonsai),
        }
    }

    /// The uninstrumented engine over this tree (the software codec's
    /// fast path is the Bonsai scan).
    fn engine(&self) -> RadiusSearchEngine<'_> {
        match self {
            FrameTree::Baseline(kd) => RadiusSearchEngine::baseline(kd),
            FrameTree::Compressed(bonsai) => RadiusSearchEngine::bonsai(bonsai),
        }
    }

    fn compressed_bytes(&self) -> u64 {
        self.bonsai()
            .map_or(0, |b| b.compression_stats().compressed_bytes)
    }

    fn into_points(self) -> Vec<Point3> {
        match self {
            FrameTree::Baseline(kd) => kd.into_points(),
            FrameTree::Compressed(bonsai) => bonsai.into_points(),
        }
    }
}

/// [`extract_euclidean_clusters`] that also hands back the cloud it
/// consumed (the tree's own point array, not a copy), for the
/// post-processing stage.
pub(crate) fn extract_with_cloud(
    sim: &mut SimEngine,
    points: Vec<Point3>,
    tolerance: f32,
    min_cluster_size: usize,
    max_cluster_size: usize,
    tree_cfg: KdTreeConfig,
    mode: TreeMode,
) -> (ClusterOutput, Vec<Point3>) {
    assert!(tolerance > 0.0, "cluster tolerance must be positive");
    let frame_tree = FrameTree::build(points, tree_cfg, mode, sim);
    if !sim.is_enabled() {
        // Production path: no events to record, so find the components
        // by the leaf-pair self-join. The clusters are the instrumented
        // BFS's below: both are the connected components of the same
        // symmetric tolerance graph, whose edges the engine's sweep
        // kernels decide bit for bit as the leaf processors do.
        let mut search_stats = SearchStats::default();
        let clusters = self_join_clusters(
            &frame_tree.engine(),
            tolerance,
            min_cluster_size,
            max_cluster_size,
            &mut search_stats,
        );
        let output = ClusterOutput {
            clusters,
            search_stats,
            build_stats: frame_tree.kd_tree().build_stats(),
            compressed_bytes: frame_tree.compressed_bytes(),
            coverage: Coverage::default(),
        };
        return (output, frame_tree.into_points());
    }
    let (tree, bonsai) = (frame_tree.kd_tree(), frame_tree.bonsai());
    let n = tree.points().len();

    // Leaf processors are stateful (machine, scratch addresses); create
    // them once for the whole extraction — per-query construction would
    // allocate fresh simulated scratch for every search and poison the
    // cache model with artificial cold misses.
    let mut machine = Machine::new();
    let mut baseline_proc = match bonsai {
        None => Some(BaselineLeafProcessor::new(sim, tree)),
        // A compressed tree keeps no f32 rows to scan. Its modes still
        // reserve the baseline output vectors, so every buffer below
        // sits at the same simulated address in all three modes.
        Some(_) => {
            BaselineLeafProcessor::reserve_outputs(sim);
            None
        }
    };
    let mut software_proc = match mode {
        TreeMode::SoftwareCodec => bonsai.map(|b| SoftwareCodecProcessor::new(sim, b.directory())),
        _ => None,
    };
    let mut bonsai_proc = match mode {
        TreeMode::Bonsai => {
            bonsai.map(|b| bonsai_core::BonsaiLeafProcessor::new(b.directory(), &mut machine))
        }
        _ => None,
    };

    let mut search_stats = SearchStats::default();
    let mut neighbors: Vec<Neighbor> = Vec::new();
    let mut scratch = SearchScratch::new();

    // BFS state (PCL's `processed` array + seed queue), plus the result
    // vectors the BFS reads back after every search (the searches wrote
    // them; the read-back is the `nn_indices[j]` access of PCL's
    // extractEuclideanClusters loop).
    let processed_addr = sim.alloc(n as u64, 64);
    let queue_addr = sim.alloc(n as u64 * 4, 64);
    let nn_read_addr = sim.alloc(64 * 1024, 64);
    let mut processed = vec![false; n];
    let mut clusters: Vec<Vec<u32>> = Vec::new();

    for seed in 0..n as u32 {
        sim.set_kernel(Kernel::ClusterLogic);
        sim.load(processed_addr + seed as u64, 1);
        sim.exec(OpClass::IntAlu, 2);
        let seen = processed[seed as usize];
        sim.branch(sites::VISITED, seen);
        if seen {
            continue;
        }
        processed[seed as usize] = true;
        sim.store(processed_addr + seed as u64, 1);

        let mut queue: Vec<u32> = vec![seed];
        sim.store(queue_addr, 4);
        let mut head = 0usize;
        while head < queue.len() {
            let q_idx = queue[head];
            sim.set_kernel(Kernel::ClusterLogic);
            sim.load(queue_addr + head as u64 * 4, 4);
            sim.exec(OpClass::IntAlu, 4);
            head += 1;

            let query = tree.points()[q_idx as usize];
            match (&mut baseline_proc, &mut bonsai_proc, &mut software_proc) {
                (Some(proc), _, _) => tree.radius_search_scratch(
                    sim,
                    proc,
                    query,
                    tolerance,
                    &mut neighbors,
                    &mut search_stats,
                    &mut scratch,
                ),
                (None, Some(proc), _) => tree.radius_search_scratch(
                    sim,
                    proc,
                    query,
                    tolerance,
                    &mut neighbors,
                    &mut search_stats,
                    &mut scratch,
                ),
                (None, None, Some(proc)) => tree.radius_search_scratch(
                    sim,
                    proc,
                    query,
                    tolerance,
                    &mut neighbors,
                    &mut search_stats,
                    &mut scratch,
                ),
                _ => unreachable!("mode/tree mismatch"),
            }

            sim.set_kernel(Kernel::ClusterLogic);
            for (j, nb) in neighbors.iter().enumerate() {
                sim.load(nn_read_addr + (j as u64 % 8192) * 4, 4);
                sim.load(processed_addr + nb.index as u64, 1);
                sim.exec(OpClass::IntAlu, 2);
                let seen = processed[nb.index as usize];
                sim.branch(sites::VISITED, seen);
                if !seen {
                    processed[nb.index as usize] = true;
                    sim.store(processed_addr + nb.index as u64, 1);
                    sim.store(queue_addr + queue.len() as u64 * 4, 4);
                    queue.push(nb.index);
                }
            }
        }

        sim.exec(OpClass::IntAlu, 3);
        let size_ok = (min_cluster_size..=max_cluster_size).contains(&queue.len());
        sim.branch(sites::SIZE_FILTER, size_ok);
        if size_ok {
            queue.sort_unstable();
            clusters.push(queue);
        }
    }
    sim.set_kernel(Kernel::Other);

    let output = ClusterOutput {
        clusters,
        search_stats,
        build_stats: tree.build_stats(),
        compressed_bytes: frame_tree.compressed_bytes(),
        coverage: Coverage::default(),
    };
    (output, frame_tree.into_points())
}

/// The level-synchronous BFS shared by the sharded and streaming
/// extractions: grows each cluster by answering one whole
/// frontier of radius queries per round through `search` (any batch
/// searcher with exact per-query neighbor sets), then size-filters.
/// Clusters are the connected components of the tolerance graph, so
/// the result is independent of the searcher's per-query neighbor
/// *order*.
///
/// `alive`, when given, masks `points`: dead slots are never seeded
/// (the streaming extractor's cloud keeps deleted points' coordinate
/// slots, and its searcher never returns a dead index).
pub(crate) fn bfs_connected_clusters<F>(
    points: &[Point3],
    alive: Option<&[bool]>,
    min_cluster_size: usize,
    max_cluster_size: usize,
    search_stats: &mut SearchStats,
    mut search: F,
) -> Vec<Vec<u32>>
where
    F: FnMut(&[Point3], &mut QueryBatch),
{
    let n = points.len();
    let mut processed: Vec<bool> = match alive {
        // Pre-marking dead slots as processed removes them from both
        // the seed loop and membership checks.
        Some(alive) => alive.iter().map(|&a| !a).collect(),
        None => vec![false; n],
    };
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    // Round-trip buffers, reused across every round of every cluster.
    let mut batch = QueryBatch::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut queries: Vec<Point3> = Vec::new();

    for seed in 0..n as u32 {
        if processed[seed as usize] {
            continue;
        }
        processed[seed as usize] = true;
        let mut members: Vec<u32> = vec![seed];
        frontier.clear();
        frontier.push(seed);
        // Level-synchronous BFS: one batched search per frontier.
        while !frontier.is_empty() {
            queries.clear();
            queries.extend(frontier.iter().map(|&i| points[i as usize]));
            search(&queries, &mut batch);
            *search_stats += *batch.stats();
            next_frontier.clear();
            for qi in 0..frontier.len() {
                for nb in batch.results(qi) {
                    if !processed[nb.index as usize] {
                        processed[nb.index as usize] = true;
                        members.push(nb.index);
                        next_frontier.push(nb.index);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
        }

        if (min_cluster_size..=max_cluster_size).contains(&members.len()) {
            members.sort_unstable();
            clusters.push(members);
        }
    }
    clusters
}

/// The uninstrumented production form of [`extract_euclidean_clusters`]:
/// identical clusters, found by one self-join over leaf pairs instead
/// of one radius query per point.
///
/// Every leaf of the built tree is first compared with itself, which
/// gives its local components. One walk over node pairs, pruned by the
/// exact boxes grown by the tolerance, then finds every pair of leaves
/// within reach, and each pair is compared through the engine's leaf
/// kernels (the compressed shell and its exact fallback under Bonsai)
/// with the points of one leaf that can reach the other's box; hits
/// union the components. The components come out in order of their
/// smallest index, members ascending, size-filtered as the BFS filters
/// them. The box tests only prune, with a margin over `f32` rounding;
/// the sweep alone decides membership, so the clusters are
/// bit-identical to the instrumented BFS's in every [`TreeMode`].
///
/// [`ClusterOutput::search_stats`] counts the join's own work (see the
/// field), not the per-point searches of the BFS.
///
/// [`extract_euclidean_clusters`] takes this path by itself whenever
/// its [`SimEngine`] is disabled; call this directly when no simulator
/// is in scope.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::{extract_euclidean_clusters_batched, TreeMode};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::KdTreeConfig;
///
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     pts.push(Point3::new(i as f32 * 0.05, 0.0, 0.0));
///     pts.push(Point3::new(10.0 + i as f32 * 0.05, 0.0, 0.0));
/// }
/// let out = extract_euclidean_clusters_batched(
///     pts, 0.3, 5, 1000, KdTreeConfig::default(), TreeMode::Bonsai);
/// assert_eq!(out.clusters.len(), 2);
/// ```
pub fn extract_euclidean_clusters_batched(
    points: Vec<Point3>,
    tolerance: f32,
    min_cluster_size: usize,
    max_cluster_size: usize,
    tree_cfg: KdTreeConfig,
    mode: TreeMode,
) -> ClusterOutput {
    extract_euclidean_clusters(
        &mut SimEngine::disabled(),
        points,
        tolerance,
        min_cluster_size,
        max_cluster_size,
        tree_cfg,
        mode,
    )
}

/// The shard router serving `mode` (the software codec's fast path is
/// the Bonsai scan).
pub(crate) fn router_for(
    mode: TreeMode,
    points: &[Point3],
    tree_cfg: KdTreeConfig,
    cfg: ShardConfig,
) -> ShardRouter {
    match mode {
        TreeMode::Baseline => ShardRouter::baseline(points, tree_cfg, cfg),
        TreeMode::Bonsai | TreeMode::SoftwareCodec => ShardRouter::bonsai(points, tree_cfg, cfg),
    }
}

/// The uninstrumented euclidean-cluster extraction served by a sharded
/// multi-tree [`ShardRouter`] instead of one tree: the cloud is
/// median-cut into `shard_cfg.shards` spatial shards (built in parallel
/// with the `parallel` feature), and the clusters grow by the BFS
/// (`bfs_connected_clusters`), every frontier draining through the
/// router, which searches only the shards each query ball touches.
///
/// Clusters are **identical** to the single-tree extraction for every
/// mode — euclidean clusters are the connected components of the
/// tolerance graph, and the router's per-query neighbor sets are
/// the single-tree engine's. `build_stats` aggregates
/// the shard trees (leaf/interior sums, deepest shard), and
/// `search_stats` counts the per-shard traversal work the router
/// actually performed.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::{extract_euclidean_clusters_sharded, TreeMode};
/// use bonsai_core::ShardConfig;
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::KdTreeConfig;
///
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     pts.push(Point3::new(i as f32 * 0.05, 0.0, 0.0));
///     pts.push(Point3::new(10.0 + i as f32 * 0.05, 0.0, 0.0));
/// }
/// let out = extract_euclidean_clusters_sharded(
///     pts, 0.3, 5, 1000, KdTreeConfig::default(), TreeMode::Bonsai,
///     ShardConfig::with_shards(4));
/// assert_eq!(out.clusters.len(), 2);
/// ```
pub fn extract_euclidean_clusters_sharded(
    points: Vec<Point3>,
    tolerance: f32,
    min_cluster_size: usize,
    max_cluster_size: usize,
    tree_cfg: KdTreeConfig,
    mode: TreeMode,
    shard_cfg: ShardConfig,
) -> ClusterOutput {
    sharded_with_cloud(
        points,
        tolerance,
        min_cluster_size,
        max_cluster_size,
        tree_cfg,
        mode,
        shard_cfg,
    )
    .0
}

/// [`extract_euclidean_clusters_sharded`] that also hands back the
/// cloud it was given, for the post-processing stage.
pub(crate) fn sharded_with_cloud(
    points: Vec<Point3>,
    tolerance: f32,
    min_cluster_size: usize,
    max_cluster_size: usize,
    tree_cfg: KdTreeConfig,
    mode: TreeMode,
    shard_cfg: ShardConfig,
) -> (ClusterOutput, Vec<Point3>) {
    assert!(tolerance > 0.0, "cluster tolerance must be positive");
    // The router borrows the cloud (each shard copies only its own
    // points), so the original stays available for the BFS's
    // global-index coordinate lookups without a second full copy.
    let router = router_for(mode, &points, tree_cfg, shard_cfg);
    // One snapshot serves every frontier of the extraction.
    let snapshot = router.snapshot();
    let mut search_stats = SearchStats::default();
    let clusters = bfs_connected_clusters(
        &points,
        None,
        min_cluster_size,
        max_cluster_size,
        &mut search_stats,
        |queries, batch| snapshot.search_batch(queries, tolerance, batch),
    );

    let output = ClusterOutput {
        clusters,
        search_stats,
        build_stats: router.build_stats(),
        compressed_bytes: router.compressed_bytes(),
        coverage: router.coverage(),
    };
    (output, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: Point3, n: usize, spread: f32, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32 - 0.5
        };
        (0..n)
            .map(|_| center + Point3::new(next(), next(), next()) * spread)
            .collect()
    }

    fn three_blob_cloud() -> Vec<Point3> {
        let mut pts = blob(Point3::new(5.0, 0.0, 1.0), 120, 0.8, 1);
        pts.extend(blob(Point3::new(12.0, 6.0, 1.0), 80, 0.7, 2));
        pts.extend(blob(Point3::new(-8.0, -4.0, 1.0), 150, 0.9, 3));
        // A couple of isolated noise points that no cluster should keep.
        pts.push(Point3::new(40.0, 40.0, 1.0));
        pts.push(Point3::new(-40.0, 35.0, 1.0));
        pts
    }

    #[test]
    fn finds_the_three_blobs() {
        let mut sim = SimEngine::disabled();
        let out = extract_euclidean_clusters(
            &mut sim,
            three_blob_cloud(),
            0.5,
            10,
            10_000,
            KdTreeConfig::default(),
            TreeMode::Baseline,
        );
        assert_eq!(out.clusters.len(), 3);
        let mut sizes: Vec<usize> = out.clusters.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![80, 120, 150]);
    }

    #[test]
    fn all_modes_produce_identical_clusters() {
        let cloud = three_blob_cloud();
        let mut outputs = Vec::new();
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            let mut sim = SimEngine::disabled();
            let out = extract_euclidean_clusters(
                &mut sim,
                cloud.clone(),
                0.5,
                10,
                10_000,
                KdTreeConfig::default(),
                mode,
            );
            outputs.push(out.clusters);
        }
        assert_eq!(outputs[0], outputs[1], "bonsai differs from baseline");
        assert_eq!(
            outputs[0], outputs[2],
            "software codec differs from baseline"
        );
    }

    #[test]
    fn clusters_partition_their_points() {
        let mut sim = SimEngine::disabled();
        let cloud = three_blob_cloud();
        let n = cloud.len();
        let out = extract_euclidean_clusters(
            &mut sim,
            cloud,
            0.5,
            1,
            10_000,
            KdTreeConfig::default(),
            TreeMode::Baseline,
        );
        // With min size 1, every point lands in exactly one cluster.
        let mut seen = vec![false; n];
        for c in &out.clusters {
            for &i in c {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn max_size_filters_giant_clusters() {
        let mut sim = SimEngine::disabled();
        let out = extract_euclidean_clusters(
            &mut sim,
            three_blob_cloud(),
            0.5,
            10,
            100, // the 120- and 150-point blobs exceed this
            KdTreeConfig::default(),
            TreeMode::Baseline,
        );
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].len(), 80);
    }

    /// The leaf-pair self-join must reproduce the instrumented
    /// per-query BFS exactly: same clusters, tree shape and compressed
    /// size, for every tree mode. Its counters describe different work
    /// (leaf pairs, not per-point searches), and it sweeps fewer points
    /// than the BFS inspects.
    #[test]
    fn batched_extraction_matches_instrumented_per_query_bfs() {
        let cloud = three_blob_cloud();
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            // Enabled sim → the instrumented, one-search-per-point BFS.
            let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
            let instrumented = extract_euclidean_clusters(
                &mut sim,
                cloud.clone(),
                0.5,
                10,
                10_000,
                KdTreeConfig::default(),
                mode,
            );
            let batched = extract_euclidean_clusters_batched(
                cloud.clone(),
                0.5,
                10,
                10_000,
                KdTreeConfig::default(),
                mode,
            );
            assert_eq!(batched.clusters, instrumented.clusters, "{mode:?}");
            assert!(
                batched.search_stats.points_inspected < instrumented.search_stats.points_inspected,
                "{mode:?}: join swept {} points, BFS inspected {}",
                batched.search_stats.points_inspected,
                instrumented.search_stats.points_inspected
            );
            assert_eq!(batched.build_stats, instrumented.build_stats);
            assert_eq!(batched.compressed_bytes, instrumented.compressed_bytes);
        }
    }

    /// Sharded extraction must produce the identical clusters for every
    /// mode and shard count, including K=1 and K larger than any
    /// sensible shard size.
    #[test]
    fn sharded_extraction_matches_single_tree_clusters() {
        let cloud = three_blob_cloud();
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            let single = extract_euclidean_clusters_batched(
                cloud.clone(),
                0.5,
                10,
                10_000,
                KdTreeConfig::default(),
                mode,
            );
            for shards in [1, 2, 5, 64] {
                let sharded = extract_euclidean_clusters_sharded(
                    cloud.clone(),
                    0.5,
                    10,
                    10_000,
                    KdTreeConfig::default(),
                    mode,
                    ShardConfig::with_shards(shards),
                );
                assert_eq!(sharded.clusters, single.clusters, "{mode:?} K={shards}");
                assert_eq!(
                    sharded.compressed_bytes > 0,
                    mode != TreeMode::Baseline,
                    "{mode:?} K={shards}"
                );
            }
        }
    }

    #[test]
    fn kernels_are_attributed() {
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        extract_euclidean_clusters(
            &mut sim,
            three_blob_cloud(),
            0.5,
            10,
            10_000,
            KdTreeConfig::default(),
            TreeMode::Bonsai,
        );
        for k in [
            Kernel::Build,
            Kernel::Compress,
            Kernel::Traverse,
            Kernel::LeafScan,
            Kernel::ClusterLogic,
        ] {
            assert!(sim.kernel_counters(k).micro_ops() > 0, "kernel {k} empty");
        }
    }

    #[test]
    fn empty_cloud_is_fine() {
        let mut sim = SimEngine::disabled();
        let out = extract_euclidean_clusters(
            &mut sim,
            Vec::new(),
            0.5,
            10,
            100,
            KdTreeConfig::default(),
            TreeMode::Bonsai,
        );
        assert!(out.clusters.is_empty());
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_rejected() {
        let mut sim = SimEngine::disabled();
        extract_euclidean_clusters(
            &mut sim,
            vec![Point3::ZERO],
            0.0,
            1,
            10,
            KdTreeConfig::default(),
            TreeMode::Baseline,
        );
    }
}
