//! Property tests for the SIMD lane engine: the vectorized leaf
//! sweeps must be **bit-identical** to the scalar reference path —
//! same `Neighbor` values, same order, same aggregated `SearchStats` —
//! in both engine modes, on fresh builds *and* across
//! insert/delete churn, with the tree audit (slot ranges, row lengths,
//! row contents) checked after every mutation.
//!
//! The comparison uses the process-wide scalar override
//! (`kdtree::simd::scalar_override`), so a `--features simd` build
//! really runs both paths; a `--no-default-features` build degenerates
//! to scalar-vs-scalar and still audits the layout. Leaf sizes cover
//! every capacity the ZipPts buffer admits (1..=16 — the odd sizes
//! exercise the kernels' partial tail groups; 17 is rejected at
//! construction, pinned in `crates/kdtree`'s tests), so lane groups of
//! every fill level run.

use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::simd::{self, LaneBackend};
use kd_bonsai::kdtree::{
    KdTree, KdTreeConfig, Neighbor, Node, QueryBatch, SearchScratch, SearchStats,
};
use kd_bonsai::sim::SimEngine;
use proptest::prelude::*;

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-60.0f32..60.0, -60.0f32..60.0, -3.0f32..3.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Baseline,
    Bonsai,
}

const MODES: [Mode; 2] = [Mode::Baseline, Mode::Bonsai];

/// The compressed tree and the baseline tree over the same points,
/// mutated in lockstep. Build and mutation are deterministic and do
/// not depend on the row layout, so both keep the same shape; each
/// mode sweeps the tree that holds its rows.
struct Trees {
    bonsai: BonsaiTree,
    base: KdTree,
}

impl Trees {
    fn build(cloud: &[Point3], cfg: KdTreeConfig, sim: &mut SimEngine) -> Trees {
        Trees {
            bonsai: BonsaiTree::build(cloud.to_vec(), cfg, sim),
            base: KdTree::build(cloud.to_vec(), cfg, sim),
        }
    }

    fn engine(&self, mode: Mode) -> RadiusSearchEngine<'_> {
        match mode {
            Mode::Baseline => RadiusSearchEngine::baseline(&self.base),
            Mode::Bonsai => RadiusSearchEngine::bonsai(&self.bonsai),
        }
    }
}

/// Answers every query through `engine`, returning per-query hits and
/// the aggregate stats of the batch path plus a spot-check against
/// `search_one`.
fn run_engine(
    engine: &RadiusSearchEngine<'_>,
    queries: &[Point3],
    radius: f32,
) -> (Vec<Vec<Neighbor>>, SearchStats) {
    let mut batch = QueryBatch::new();
    engine.search_batch(queries, radius, &mut batch);
    let results: Vec<Vec<Neighbor>> = (0..batch.num_queries())
        .map(|i| batch.results(i).to_vec())
        .collect();
    // One direct search per run keeps the single-query path honest.
    if let Some(&q) = queries.first() {
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        engine.search_one(q, radius, &mut scratch, &mut out, &mut stats);
        assert_eq!(out, results[0], "search_one vs batch");
    }
    (results, *batch.stats())
}

/// Asserts SIMD ≡ scalar (bits, order, stats) for every mode on the
/// committed `trees`. `ov` must already be held by the caller so the
/// flip is race-free.
fn assert_simd_equals_scalar(
    ov: &simd::ScalarOverride,
    trees: &Trees,
    queries: &[Point3],
    radius: f32,
) {
    for mode in MODES {
        let engine = trees.engine(mode);
        ov.set(true);
        let (scalar_hits, scalar_stats) = run_engine(&engine, queries, radius);
        ov.set(false);
        let (simd_hits, simd_stats) = run_engine(&engine, queries, radius);
        for (qi, (s, v)) in scalar_hits.iter().zip(&simd_hits).enumerate() {
            assert_eq!(s, v, "{mode:?} query {qi}: SIMD diverged from scalar");
        }
        assert_eq!(scalar_stats, simd_stats, "{mode:?} stats diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Fresh builds: SIMD and scalar sweeps agree bit-for-bit across
    /// every mode, leaf capacity 1..=16 and both split rules' default.
    #[test]
    fn simd_matches_scalar_on_fresh_builds(
        cloud in arb_cloud(300),
        radius in 0.05f32..12.0,
        leaf in 1usize..=16,
    ) {
        let ov = simd::scalar_override();
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let trees = Trees::build(&cloud, cfg, &mut sim);
        prop_assert!(trees.bonsai.audit().is_empty());
        prop_assert!(trees.base.audit().is_empty());
        let queries: Vec<Point3> = cloud.iter().step_by(3).copied().collect();
        assert_simd_equals_scalar(&ov, &trees, &queries, radius);
    }

    /// Churned trees: after interleaved inserts and deletes (audited
    /// after every single mutation) the committed
    /// tree still sweeps identically under SIMD and scalar.
    #[test]
    fn simd_matches_scalar_after_churn(
        cloud in arb_cloud(220),
        extra in arb_cloud(80),
        radius in 0.1f32..8.0,
        leaf in 1usize..=16,
        del_stride in 1usize..7,
    ) {
        let ov = simd::scalar_override();
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let mut trees = Trees::build(&cloud, cfg, &mut sim);
        for (k, &p) in extra.iter().enumerate() {
            trees.bonsai.insert(&mut sim, p);
            trees.base.insert(&mut sim, p);
            prop_assert!(trees.bonsai.audit().is_empty());
            prop_assert!(trees.base.audit().is_empty());
            let victim = ((k * del_stride * 13) % cloud.len()) as u32;
            trees.bonsai.delete(&mut sim, victim);
            trees.base.delete(&mut sim, victim);
            prop_assert!(trees.bonsai.audit().is_empty());
            prop_assert!(trees.base.audit().is_empty());
        }
        trees.bonsai.commit(&mut sim);
        trees.base.drain_dirty_nodes();
        prop_assert!(trees.bonsai.audit().is_empty());
        let queries: Vec<Point3> = cloud.iter().chain(extra.iter()).step_by(4).copied().collect();
        assert_simd_equals_scalar(&ov, &trees, &queries, radius);
    }
}

/// The leaf-sweep kernel (`RadiusSearchEngine::sweep_visited`) — the
/// unit the benches time — is itself backend-independent, leaf by
/// leaf, in both modes.
#[test]
fn sweep_leaf_kernel_is_backend_independent() {
    let cloud: Vec<Point3> = (0..4000)
        .map(|i| {
            let f = i as f32;
            Point3::new(
                (f * 0.37).sin() * 50.0,
                (f * 0.51).cos() * 50.0,
                (f * 0.13).sin() * 2.0,
            )
        })
        .collect();
    let mut sim = SimEngine::disabled();
    let trees = Trees::build(&cloud, KdTreeConfig::default(), &mut sim);
    let leaves: Vec<(u32, u32, u32)> = trees
        .base
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match *n {
            Node::Leaf { start, count, .. } => Some((id as u32, start, count)),
            Node::Interior { .. } => None,
        })
        .collect();
    let ov = simd::scalar_override();
    for mode in MODES {
        let engine = trees.engine(mode);
        for &q in &[cloud[17], cloud[2000], Point3::new(0.0, 0.0, 0.0)] {
            for visit in &leaves {
                let leaf = visit.0;
                let visited = std::slice::from_ref(visit);
                let mut scalar_out = Vec::new();
                let mut scalar_stats = SearchStats::default();
                ov.set(true);
                engine.sweep_visited(visited, q, 2.5, &mut scalar_out, &mut scalar_stats);
                let mut simd_out = Vec::new();
                let mut simd_stats = SearchStats::default();
                ov.set(false);
                engine.sweep_visited(visited, q, 2.5, &mut simd_out, &mut simd_stats);
                assert_eq!(scalar_out, simd_out, "{mode:?} leaf {leaf}");
                assert_eq!(scalar_stats, simd_stats, "{mode:?} leaf {leaf} stats");
            }
        }
    }
}

/// On x86_64 hosts a `--features simd` build must actually dispatch a
/// vector backend (the equivalence above would otherwise silently test
/// scalar against scalar everywhere).
#[test]
fn simd_feature_activates_a_vector_backend() {
    // Hold the override lock so a concurrent equivalence test can't
    // have the scalar flag forced while we read the backend.
    let _ov = simd::scalar_override();
    if cfg!(all(feature = "simd", target_arch = "x86_64")) {
        assert_ne!(simd::active_backend(), LaneBackend::Scalar);
    } else if !cfg!(feature = "simd") {
        assert_eq!(simd::active_backend(), LaneBackend::Scalar);
    }
}
