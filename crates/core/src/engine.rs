//! The batched, allocation-free radius-search front-end.
//!
//! [`RadiusSearchEngine`] answers radius queries over either an
//! uncompressed [`KdTree`] or a compressed [`BonsaiTree`] without
//! touching the event-based simulator: the traversal is the iterative
//! explicit-stack walk, leaf scans are linear sweeps over SoA rows
//! baked at build time, and the caller's scratch and result buffers
//! are reused. The error-bound LUT is one process-wide ROM. With the
//! `parallel` feature, batches fan out over scoped `std::thread`
//! workers.
//!
//! Results are **identical** (values and order) to driving the
//! corresponding instrumented [`LeafProcessor`](bonsai_kdtree::
//! LeafProcessor) through [`KdTree::radius_search`] — property-tested
//! at the workspace root — and the [`SearchStats`] the engine produces
//! aggregate to the same totals.

use std::sync::OnceLock;

use bonsai_floatfmt::PartErrorMem;
use bonsai_geom::Point3;
use bonsai_kdtree::{KdTree, Neighbor, QueryBatch, SearchScratch, SearchStats};

use bonsai_kdtree::simd::{LaneBackend, LeafVisit};

use crate::simd::{
    compressed_hit_masks, compressed_sweep_kernel, sweep_compressed_visited, HalfRows,
};
use crate::tree::{header_bytes, BonsaiTree};

/// Which leaf representation the engine scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Full-precision `f32` leaves (the paper's baseline).
    Baseline,
    /// Bonsai-compressed leaves: f16-approximate distances guarded by
    /// the uncertainty shell, with exact re-computation of
    /// inconclusive points — membership identical to baseline.
    Compressed,
}

/// The error-bound ROM (`part_error_mem`, Fig. 7): built on first use
/// and shared by every engine, router and snapshot in the process.
pub(crate) fn error_rom() -> &'static PartErrorMem {
    static ROM: OnceLock<PartErrorMem> = OnceLock::new();
    ROM.get_or_init(PartErrorMem::new)
}

/// A batch-oriented radius-search engine borrowing one tree.
///
/// The engine is two references and no state of its own, so creating
/// one is free: every search borrows the caller's scratch/batch
/// buffers, so steady-state queries allocate nothing. It **stays
/// valid across incremental updates** in the sense that nothing is
/// derived from the tree: after `BonsaiTree::insert`/`delete` +
/// `commit`, re-create it over the mutated tree and it searches the
/// same rows and headers.
///
/// # Examples
///
/// ```
/// use bonsai_core::{BonsaiTree, RadiusSearchEngine};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::{KdTreeConfig, QueryBatch};
/// use bonsai_sim::SimEngine;
///
/// let cloud: Vec<Point3> =
///     (0..300).map(|i| Point3::new((i % 20) as f32 * 0.2, (i / 20) as f32 * 0.2, 1.0)).collect();
/// let mut sim = SimEngine::disabled();
/// let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
///
/// let engine = RadiusSearchEngine::bonsai(&tree);
/// let mut batch = QueryBatch::new();
/// engine.search_batch(&cloud[..32], 0.5, &mut batch);
/// assert_eq!(batch.num_queries(), 32);
/// assert!(batch.results(0).iter().any(|n| n.index == 0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RadiusSearchEngine<'t> {
    tree: &'t KdTree,
    /// The compressed leaves to scan; `None` scans `tree`'s `f32` rows.
    bonsai: Option<&'t BonsaiTree>,
}

impl<'t> RadiusSearchEngine<'t> {
    /// An engine scanning uncompressed `f32` leaves.
    ///
    /// # Panics
    ///
    /// Panics when `tree` holds f16 leaf rows — a
    /// [`BonsaiTree::kd_tree`] keeps no `f32` copy of its leaves; build
    /// a [`KdTree::build`] over the same points for baseline searches.
    pub fn baseline(tree: &'t KdTree) -> RadiusSearchEngine<'t> {
        tree.assert_f32_rows();
        RadiusSearchEngine { tree, bonsai: None }
    }

    /// An engine scanning Bonsai-compressed leaves. Membership and hit
    /// order are exactly the baseline's. The reported
    /// [`Neighbor::dist_sq`] is not always: a hit classified *In* from
    /// its f16 approximation reports the approximate `d′²`, which lies
    /// within the Eq. 11 bound `t_err` of the exact `d²`; only hits
    /// re-checked through the exact fallback report `d²` itself.
    /// The software-codec strawman computes the same approximate
    /// distances, error bounds and fallbacks — only its simulated cost
    /// differs — so this engine also reproduces its results.
    pub fn bonsai(tree: &'t BonsaiTree) -> RadiusSearchEngine<'t> {
        RadiusSearchEngine {
            tree: tree.kd_tree(),
            bonsai: Some(tree),
        }
    }

    /// The leaf representation this engine scans.
    pub fn mode(&self) -> EngineMode {
        if self.bonsai.is_some() {
            EngineMode::Compressed
        } else {
            EngineMode::Baseline
        }
    }

    /// The underlying k-d tree.
    pub fn tree(&self) -> &'t KdTree {
        self.tree
    }

    /// Answers one query, clearing `out` first. Allocation-free once
    /// `scratch` and `out` are warm.
    ///
    /// A non-positive or non-finite `radius` yields an empty result
    /// without visiting any node, in every mode.
    pub fn search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        out.clear();
        self.search_append(query, radius, scratch, out, stats);
    }

    /// Answers every query in one call, filling `batch` (reset first).
    /// Per-query results are reachable through [`QueryBatch::results`];
    /// [`QueryBatch::stats`] aggregates the whole batch.
    pub fn search_batch(&self, queries: &[Point3], radius: f32, batch: &mut QueryBatch) {
        batch.reset();
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                self.search_append(query, radius, scratch, out, stats);
            });
        }
    }

    /// [`search_batch`](RadiusSearchEngine::search_batch) fanned out
    /// over scoped worker threads (`threads == 0` uses the machine's
    /// available parallelism). Results are merged in query order, so
    /// output and aggregate stats are identical to the sequential call.
    #[cfg(feature = "parallel")]
    pub fn search_batch_parallel(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
        threads: usize,
    ) {
        crate::fanout::search_batch_across_threads(queries, radius, batch, threads, |q, r, b| {
            self.search_batch(q, r, b)
        });
    }

    /// The leaf-sweep kernel this engine's searches run right now:
    /// the baseline sweep runs AVX2 on an AVX-512 host, the compressed
    /// sweep runs the scalar kernel on SSE2/NEON (see
    /// [`LaneBackend`]).
    pub fn sweep_kernel(&self) -> LaneBackend {
        match self.bonsai {
            None => bonsai_kdtree::simd::baseline_sweep_kernel(),
            Some(_) => compressed_sweep_kernel(),
        }
    }

    /// Sweeps a collected visit list — `(leaf, start, count)` triples
    /// from [`KdTree::collect_leaves_in_radius`] (or hand-built over
    /// leaf nodes) — through this engine's leaf kernel: one backend
    /// dispatch covers every visit, exactly as the search entry points
    /// run it. Hits append to `out` in visit order; sweep work counts
    /// into `stats`. `radius` is assumed searchable.
    pub fn sweep_visited(
        &self,
        visited: &[LeafVisit],
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let r_sq = radius * radius;
        match self.bonsai {
            None => self
                .tree
                .sweep_leaf_visits(visited, query, r_sq, out, stats),
            Some(bonsai) => sweep_compressed(bonsai, visited, query, r_sq, out, stats),
        }
    }

    /// Compares one leaf with a block of queries: `masks[i]` receives
    /// the mask of the leaf's slots (bit `j` for slot `start + j`) that
    /// [`sweep_visited`](RadiusSearchEngine::sweep_visited) over
    /// `[leaf]` with `queries[i]` reports — the same lane arithmetic,
    /// shell and exact fallback, so the same membership and the same
    /// fallbacks, whichever kernel runs. The leaf's rows are decoded
    /// once for the whole block (K-D Bonsai's ZipPts buffer staging one
    /// leaf for many `SQDWE` comparisons), so `stats` counts the
    /// leaf's `count` slots as inspected per query but its bytes once,
    /// plus 12 bytes per exact fallback. `radius` is assumed
    /// searchable.
    ///
    /// # Panics
    ///
    /// Panics when the leaf holds more than
    /// [`BLOCK_SLOTS`](bonsai_kdtree::simd::BLOCK_SLOTS) slots (no k-d
    /// builder makes one) or lies outside the rows, or when `masks` and
    /// `queries` differ in length.
    pub fn leaf_hit_masks(
        &self,
        leaf: LeafVisit,
        queries: &[Point3],
        radius: f32,
        masks: &mut [u32],
        stats: &mut SearchStats,
    ) {
        let r_sq = radius * radius;
        match self.bonsai {
            None => self.tree.leaf_hit_masks(leaf, queries, r_sq, masks, stats),
            Some(bonsai) => {
                let (node, _, count) = leaf;
                stats.points_inspected += count as u64 * queries.len() as u64;
                stats.point_bytes_loaded +=
                    header_bytes(bonsai.leaf_headers()[node as usize]) as u64;
                let rows = HalfRows::of(bonsai.kd_tree());
                compressed_hit_masks(rows, error_rom(), leaf, queries, r_sq, masks, stats);
            }
        }
    }

    /// The per-query kernel: iterative traversal plus the mode's leaf
    /// sweep, **appending** hits to `out` (not cleared — exactly the
    /// closure shape [`QueryBatch::push_query`] consumes, which is how
    /// the shard router and the `bonsai-serve` executor drive it).
    /// Degenerate radii and non-finite query centers append nothing
    /// and count no work.
    pub fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        // Two-phase in both modes: collect the visited leaves, then
        // sweep them all through one backend dispatch.
        let mut visited = scratch.take_visited();
        self.tree
            .collect_leaves_in_radius(query, radius, scratch, stats, &mut visited);
        self.sweep_visited(&visited, query, radius, out, stats);
        scratch.store_visited(visited);
    }
}

/// The compressed (Bonsai/software-codec) sweep of a query's visit
/// list. It first counts each visited leaf's inspection work through
/// its leaf header — the bytes of the compressed structure the leaf
/// processors load (deletions can hollow a leaf out completely — it
/// owns no structure and contributes nothing) — then classifies
/// through the compressed kernel the active backend selects (AVX-512,
/// AVX2 or the scalar reference loop). Every kernel translates the
/// query into each visited leaf's frame (`query − origin`, once per
/// visit) and evaluates, per point in visit order then ascending slot
/// order, the same f16-approximate arithmetic as the SQDWE lanes —
/// diff from the approximate leaf-relative coordinate, squared
/// distance and Eq. 11 error accumulated x → y → z in `f32` — and runs
/// the identical LUT/shell/fallback tail (`candidate_hit` in
/// `crate::simd`), so membership, `dist_sq` bits, hit order and
/// [`SearchStats`] never depend on the backend.
fn sweep_compressed(
    bonsai: &BonsaiTree,
    visited: &[LeafVisit],
    query: Point3,
    r_sq: f32,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    let headers = bonsai.leaf_headers();
    for &(leaf, _, count) in visited {
        stats.points_inspected += count as u64;
        stats.point_bytes_loaded += header_bytes(headers[leaf as usize]) as u64;
    }
    let rows = HalfRows::of(bonsai.kd_tree());
    sweep_compressed_visited(rows, error_rom(), visited, query, r_sq, out, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_isa::Machine;
    use bonsai_kdtree::KdTreeConfig;
    use bonsai_sim::SimEngine;

    fn urban_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| {
                let cluster = (next() * 12.0).floor();
                Point3::new(
                    (cluster - 6.0) * 15.0 + next() * 3.0,
                    (next() - 0.5) * 60.0,
                    next() * 2.5,
                )
            })
            .collect()
    }

    #[test]
    fn compressed_engine_matches_instrumented_processor_exactly() {
        let cloud = urban_cloud(3000, 1);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let mut scratch = SearchScratch::new();
        let mut fast_out = Vec::new();
        let mut machine = Machine::new();
        let mut slow_out = Vec::new();
        for (qi, r) in [(0usize, 0.8f32), (500, 2.0), (1700, 0.3), (2999, 5.0)] {
            let mut fast_stats = SearchStats::default();
            let mut slow_stats = SearchStats::default();
            engine.search_one(cloud[qi], r, &mut scratch, &mut fast_out, &mut fast_stats);
            tree.radius_search(
                &mut sim,
                &mut machine,
                cloud[qi],
                r,
                &mut slow_out,
                &mut slow_stats,
            );
            assert_eq!(fast_out, slow_out, "query {qi} r {r}");
            assert_eq!(fast_stats, slow_stats, "stats for query {qi} r {r}");
        }
    }

    #[test]
    fn baseline_engine_matches_simple_search() {
        let cloud = urban_cloud(1200, 7);
        let mut sim = SimEngine::disabled();
        let tree = bonsai_kdtree::KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::baseline(&tree);
        assert_eq!(engine.mode(), EngineMode::Baseline);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for qi in [3usize, 400, 1199] {
            engine.search_one(cloud[qi], 1.2, &mut scratch, &mut out, &mut stats);
            assert_eq!(out, tree.radius_search_simple(cloud[qi], 1.2), "query {qi}");
        }
    }

    #[test]
    fn batch_matches_per_query_with_aggregated_stats() {
        let cloud = urban_cloud(2000, 3);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let queries: Vec<Point3> = cloud.iter().step_by(11).copied().collect();

        let mut batch = QueryBatch::new();
        engine.search_batch(&queries, 1.0, &mut batch);
        assert_eq!(batch.num_queries(), queries.len());

        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut total = SearchStats::default();
        for (i, &q) in queries.iter().enumerate() {
            let mut stats = SearchStats::default();
            engine.search_one(q, 1.0, &mut scratch, &mut out, &mut stats);
            assert_eq!(batch.results(i), &out[..], "query {i}");
            total += stats;
        }
        assert_eq!(*batch.stats(), total);
        assert!(batch.stats().fallbacks < batch.stats().points_inspected / 10);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batch_is_identical_to_sequential() {
        let cloud = urban_cloud(4000, 9);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);

        let mut sequential = QueryBatch::new();
        engine.search_batch(&cloud, 0.9, &mut sequential);
        for threads in [0, 1, 2, 3, 7] {
            let mut parallel = QueryBatch::new();
            engine.search_batch_parallel(&cloud, 0.9, &mut parallel, threads);
            assert_eq!(parallel.num_queries(), sequential.num_queries());
            for i in 0..sequential.num_queries() {
                assert_eq!(
                    parallel.results(i),
                    sequential.results(i),
                    "threads {threads} query {i}"
                );
            }
            assert_eq!(parallel.stats(), sequential.stats(), "threads {threads}");
        }
    }

    /// Regression for the degenerate-radius bug: before the guard,
    /// `radius = -r` returned the same neighbors as `+r` in every
    /// engine mode because only `r² = radius·radius` was compared.
    #[test]
    fn degenerate_radii_are_empty_in_every_engine_mode() {
        let cloud = urban_cloud(1500, 11);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for engine in [
            RadiusSearchEngine::baseline(&base_tree),
            RadiusSearchEngine::bonsai(&tree),
        ] {
            let mut scratch = SearchScratch::new();
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            // Sanity: the positive radius finds neighbors.
            engine.search_one(cloud[7], 1.0, &mut scratch, &mut out, &mut stats);
            assert!(!out.is_empty(), "{:?}", engine.mode());
            for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut stats = SearchStats::default();
                engine.search_one(cloud[7], r, &mut scratch, &mut out, &mut stats);
                assert!(out.is_empty(), "{:?} radius {r}", engine.mode());
                assert_eq!(
                    stats,
                    SearchStats::default(),
                    "{:?} radius {r}",
                    engine.mode()
                );

                let mut batch = QueryBatch::new();
                engine.search_batch(&cloud[..32], r, &mut batch);
                assert_eq!(batch.num_queries(), 32);
                assert_eq!(batch.total_matches(), 0, "{:?} radius {r}", engine.mode());
                assert_eq!(*batch.stats(), SearchStats::default());

                #[cfg(feature = "parallel")]
                {
                    let mut parallel = QueryBatch::new();
                    engine.search_batch_parallel(&cloud[..32], r, &mut parallel, 3);
                    assert_eq!(parallel.num_queries(), 32);
                    assert_eq!(
                        parallel.total_matches(),
                        0,
                        "{:?} radius {r}",
                        engine.mode()
                    );
                }
            }
        }
    }

    /// The leaf block reports, per query, exactly the slots and
    /// fallbacks of a per-query sweep of that leaf, in both modes, over
    /// every leaf of a tree; it counts `count` inspected slots per query
    /// and the leaf's bytes once.
    #[test]
    fn leaf_hit_masks_match_per_query_sweeps() {
        let cloud = urban_cloud(1500, 13);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let base_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let queries: Vec<Point3> = cloud.iter().step_by(97).copied().collect();
        for engine in [
            RadiusSearchEngine::baseline(&base_tree),
            RadiusSearchEngine::bonsai(&tree),
        ] {
            let nodes = engine.tree().nodes();
            let vind = engine.tree().vind();
            for (id, node) in nodes.iter().enumerate() {
                let bonsai_kdtree::Node::Leaf { start, count, .. } = *node else {
                    continue;
                };
                let leaf = (id as u32, start, count);
                let slots = &vind[start as usize..(start + count) as usize];
                for radius in [0.5f32, 3.0, 40.0] {
                    let (mut want, mut want_stats) = (Vec::new(), SearchStats::default());
                    let mut out = Vec::new();
                    for &q in &queries {
                        out.clear();
                        engine.sweep_visited(&[leaf], q, radius, &mut out, &mut want_stats);
                        want.push(out.iter().fold(0u32, |m, n| {
                            m | 1 << slots.iter().position(|&i| i == n.index).unwrap()
                        }));
                    }
                    let mut masks = vec![u32::MAX; queries.len()];
                    let mut stats = SearchStats::default();
                    engine.leaf_hit_masks(leaf, &queries, radius, &mut masks, &mut stats);
                    let ctx = format!("{:?} leaf {id} r {radius}", engine.mode());
                    assert_eq!(masks, want, "{ctx}");
                    assert_eq!(stats.points_inspected, want_stats.points_inspected, "{ctx}");
                    assert_eq!(stats.fallbacks, want_stats.fallbacks, "{ctx}");
                    let leaf_bytes = want_stats.point_bytes_loaded - 12 * want_stats.fallbacks;
                    assert_eq!(
                        stats.point_bytes_loaded,
                        leaf_bytes / queries.len() as u64 + 12 * stats.fallbacks,
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "f16-row KdTree")]
    fn baseline_engine_refuses_a_bonsai_tree_at_construction() {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(urban_cloud(200, 2), KdTreeConfig::default(), &mut sim);
        RadiusSearchEngine::baseline(tree.kd_tree());
    }

    #[test]
    fn software_codec_engine_shares_the_compressed_scan() {
        let cloud = urban_cloud(500, 5);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        assert_eq!(engine.mode(), EngineMode::Compressed);
        let mut proc = crate::SoftwareCodecProcessor::new(&mut sim, tree.directory());
        let mut scratch = SearchScratch::new();
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        for qi in [0usize, 250, 499] {
            let mut fast_stats = SearchStats::default();
            let mut slow_stats = SearchStats::default();
            engine.search_one(cloud[qi], 1.5, &mut scratch, &mut fast_out, &mut fast_stats);
            tree.kd_tree().radius_search(
                &mut sim,
                &mut proc,
                cloud[qi],
                1.5,
                &mut slow_out,
                &mut slow_stats,
            );
            assert_eq!(fast_out, slow_out, "query {qi}");
            assert_eq!(fast_stats, slow_stats, "stats for query {qi}");
        }
    }
}
