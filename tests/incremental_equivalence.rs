//! Churn-equivalence property tests for the incremental mutation
//! layer: **any** interleaving of inserts, deletes and searches yields
//! the neighbor sets of a from-scratch rebuild over the same live
//! points — at every checkpoint, for both engine modes
//! (Baseline / Bonsai), through both the single-tree
//! `RadiusSearchEngine` and the mutated `ShardRouter`, and end-to-end
//! through cluster extraction.
//!
//! The invariant under test is the tentpole contract of the streaming
//! update path: membership depends only on each point's own
//! coordinates, never on the tree shape the mutations produced, and so
//! do the baseline's `dist_sq` bits. Under Bonsai a conclusive hit
//! reports the `d′²` of its leaf-relative f16 half, which also depends
//! on the origin of the leaf the point sits in, so compressed hits are
//! held to `shell::check_compressed_hits`: the same neighbours, each
//! `dist_sq` exactly what its own leaf reports (and within the shell
//! bound), bit-identical wherever both trees share the leaf origin.

use kd_bonsai::cluster::TreeMode;
use kd_bonsai::core::shell::check_compressed_hits;
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine, ShardConfig, ShardRouter};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTree, KdTreeConfig, Neighbor, SearchScratch, SearchStats};
use kd_bonsai::sim::SimEngine;
use proptest::prelude::*;

const MODES: [TreeMode; 2] = [TreeMode::Baseline, TreeMode::Bonsai];

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-60.0f32..60.0, -60.0f32..60.0, -3.0f32..3.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

/// One scripted step: `kind` 0 inserts, 1 deletes, 2 checkpoints
/// (commit + compare against a fresh rebuild), 3 compacts (commit +
/// full single-tree compaction + a rolling router shard rebuild),
/// 4 adapts (commit + load-driven `adapt_step` on both routers), 5
/// splits or merges directly (commit + a targeted `split_shard` /
/// `merge_shards`); kinds 2–5 all end in the full checkpoint
/// comparison; `arg` seeds the step's choice of point/index/plane.
fn arb_ops(max: usize) -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..6, 0usize..10_000), 4..max)
}

/// The compressed tree and the baseline tree over the same points,
/// mutated in lockstep. Build, mutation and compaction are
/// deterministic and do not depend on the row layout, so both keep
/// the same shape and hand out the same indices; each mode searches
/// the tree that holds its leaf rows.
struct Trees {
    bonsai: BonsaiTree,
    base: KdTree,
}

impl Trees {
    fn build(cloud: Vec<Point3>, cfg: KdTreeConfig, sim: &mut SimEngine) -> Trees {
        Trees {
            base: KdTree::build(cloud.clone(), cfg, sim),
            bonsai: BonsaiTree::build(cloud, cfg, sim),
        }
    }

    fn kd(&self) -> &KdTree {
        self.bonsai.kd_tree()
    }

    fn insert(&mut self, sim: &mut SimEngine, p: Point3) -> Option<u32> {
        let idx = self.bonsai.insert(sim, p);
        assert_eq!(self.base.insert(sim, p), idx, "sibling trees diverged");
        idx
    }

    fn delete(&mut self, sim: &mut SimEngine, idx: u32) -> bool {
        let deleted = self.bonsai.delete(sim, idx);
        assert_eq!(
            self.base.delete(sim, idx),
            deleted,
            "sibling trees diverged"
        );
        deleted
    }

    fn commit(&mut self, sim: &mut SimEngine) {
        self.bonsai.commit(sim);
        self.base.drain_dirty_nodes();
    }

    fn compact(&mut self, sim: &mut SimEngine) -> usize {
        self.base.compact(sim);
        self.bonsai.compact(sim)
    }

    fn engine(&self, mode: TreeMode) -> RadiusSearchEngine<'_> {
        match mode {
            TreeMode::Baseline => RadiusSearchEngine::baseline(&self.base),
            TreeMode::Bonsai | TreeMode::SoftwareCodec => RadiusSearchEngine::bonsai(&self.bonsai),
        }
    }
}

/// Canonical comparable form: ascending index, exact dist bits.
fn keyed(hits: &[Neighbor]) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = hits
        .iter()
        .map(|n| (n.index, n.dist_sq.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// `hits` in ascending index order.
fn sorted(mut hits: Vec<Neighbor>) -> Vec<Neighbor> {
    hits.sort_unstable_by_key(|n| n.index);
    hits
}

/// Leaf origins indexed in another index space: `origins[i]` lands at
/// `map[i]` (`u32::MAX` entries are skipped) of a table of `len`.
fn remap_origins(origins: &[Point3], map: &[u32], len: usize) -> Vec<Point3> {
    let mut out = vec![Point3::ZERO; len];
    for (&o, &to) in origins.iter().zip(map) {
        if to != u32::MAX {
            out[to as usize] = o;
        }
    }
    out
}

/// The compaction acceptance contract, stated directly (the property
/// tests below also imply it by transitivity through fresh rebuilds):
/// after churn + `BonsaiTree::compact`, radius and kNN results **and**
/// `SearchStats` are bit-identical to pre-compaction in both engine
/// modes, `garbage_slots()` is zero and the audit comes back empty. Runs under whichever SIMD backend the build/CI arm selects.
#[test]
fn compaction_is_bit_invisible_in_all_three_modes() {
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32
    };
    let cloud: Vec<Point3> = (0..2500)
        .map(|_| Point3::new((next() - 0.5) * 80.0, (next() - 0.5) * 80.0, next() * 3.0))
        .collect();
    let extra: Vec<Point3> = (0..1200)
        .map(|_| Point3::new((next() - 0.5) * 80.0, (next() - 0.5) * 80.0, next() * 3.0))
        .collect();
    let mut sim = SimEngine::disabled();
    let mut tree = Trees::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    for round in 0..4usize {
        for k in 0..300 {
            tree.delete(&mut sim, ((round * 17 + k * 7) % cloud.len()) as u32);
        }
        for k in 0..300 {
            tree.insert(&mut sim, extra[(round * 300 + k) % extra.len()])
                .unwrap();
        }
        tree.commit(&mut sim);
    }
    assert!(tree.kd().garbage_slots() > 0, "churn never fragmented");

    let queries: Vec<Point3> = cloud.iter().step_by(53).copied().collect();
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let capture = |tree: &Trees,
                   scratch: &mut SearchScratch,
                   out: &mut Vec<Neighbor>|
     -> Vec<(Vec<Neighbor>, SearchStats)> {
        let mut all = Vec::new();
        for mode in MODES {
            let engine = tree.engine(mode);
            for &q in &queries {
                let mut stats = SearchStats::default();
                engine.search_one(q, 1.8, scratch, out, &mut stats);
                all.push((out.clone(), stats));
            }
        }
        let mut sim = SimEngine::disabled();
        for &q in &queries {
            all.push((tree.kd().knn(&mut sim, q, 9), SearchStats::default()));
        }
        all
    };

    let before = capture(&tree, &mut scratch, &mut out);
    let reclaimed = tree.compact(&mut sim);
    assert!(reclaimed > 0);
    assert_eq!(tree.kd().garbage_slots(), 0);
    assert_eq!(tree.base.garbage_slots(), 0);
    assert!(tree.bonsai.audit().is_empty());
    assert!(tree.base.audit().is_empty());
    let after = capture(&tree, &mut scratch, &mut out);
    assert_eq!(before.len(), after.len());
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b.0, a.0, "capture {i}: hits moved across compaction");
        assert_eq!(b.1, a.1, "capture {i}: stats moved across compaction");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scripted-churn invariant, single-tree and sharded.
    #[test]
    fn interleaved_mutations_match_fresh_rebuild(
        cloud in arb_cloud(110),
        extra in arb_cloud(70),
        ops in arb_ops(36),
        radius in 0.05f32..8.0,
        leaf in 2usize..=16,
        shards in 1usize..=5,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        // The mutated single trees (the f32-row tree serves Baseline,
        // the compressed one Bonsai/SoftwareCodec)…
        let mut tree = Trees::build(cloud.clone(), cfg, &mut sim);
        // …and the mutated routers (bonsai also serves software-codec).
        let shard_cfg = ShardConfig::with_shards(shards);
        let mut router_base = ShardRouter::baseline(&cloud, cfg, shard_cfg);
        let mut router_bonsai = ShardRouter::bonsai(&cloud, cfg, shard_cfg);

        let mut next_extra = 0usize;
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut checkpoints = 0usize;
        // The routers recycle global indices retired by shard rebuilds
        // (generation-tagged free list); the single tree always
        // appends. Maintain the correspondence explicitly: it is the
        // identity until the first rebuild retires something. Kept per
        // router because the adaptive policy reads mode-specific load
        // counters, so the two routers' topologies — and with them
        // their recycling index spaces — may legitimately diverge.
        let mut t2r_base: Vec<u32> = (0..cloud.len() as u32).collect();
        let mut r2t_base: Vec<u32> = t2r_base.clone();
        let mut t2r_bonsai: Vec<u32> = t2r_base.clone();
        let mut r2t_bonsai: Vec<u32> = t2r_base.clone();
        for (step, &(kind, arg)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    let p = extra[(next_extra + arg) % extra.len()];
                    next_extra += 1;
                    let a = tree.insert(&mut sim, p);
                    let b = router_base.insert(p);
                    let c = router_bonsai.insert(p);
                    prop_assert_eq!(
                        b.is_some(), c.is_some(), "step {}: the routers disagree", step
                    );
                    prop_assert_eq!(a.is_some(), b.is_some(), "step {}: insert divergence", step);
                    if let Some(ti) = a {
                        let record = |t2r: &mut Vec<u32>, r2t: &mut Vec<u32>, ri: u32| {
                            if ti as usize >= t2r.len() {
                                t2r.resize(ti as usize + 1, u32::MAX);
                            }
                            if ri as usize >= r2t.len() {
                                r2t.resize(ri as usize + 1, u32::MAX);
                            }
                            t2r[ti as usize] = ri;
                            r2t[ri as usize] = ti;
                        };
                        if let Some(ri) = b {
                            record(&mut t2r_base, &mut r2t_base, ri);
                        }
                        if let Some(ri) = c {
                            record(&mut t2r_bonsai, &mut r2t_bonsai, ri);
                        }
                    }
                }
                1 => {
                    let idx = (arg % tree.kd().points().len()) as u32;
                    let a = tree.delete(&mut sim, idx);
                    // Only live points have a current router index (a
                    // dead one's slot may have been recycled), so the
                    // routers are exercised when the tree delete lands.
                    if a {
                        let b = router_base.delete(t2r_base[idx as usize]);
                        let c = router_bonsai.delete(t2r_bonsai[idx as usize]);
                        prop_assert!(b && c, "step {}: delete divergence", step);
                    }
                }
                kind => {
                    checkpoints += 1;
                    tree.commit(&mut sim);
                    router_base.commit();
                    router_bonsai.commit();

                    if kind == 3 {
                        // Compaction point: repack the single tree (all
                        // three layers) and rebuild one router shard,
                        // rolling. Both must be invisible to every
                        // comparison below, and the audit must come back
                        // empty right after the repack.
                        tree.compact(&mut sim);
                        assert!(tree.bonsai.audit().is_empty());
                        assert!(tree.base.audit().is_empty());
                        if router_base.num_shards() > 0 {
                            let s = arg % router_base.num_shards();
                            router_base.rebuild_shard(s);
                            router_bonsai.rebuild_shard(s);
                        }
                    }

                    if kind == 4 {
                        // Adaptive checkpoint: hammer one live
                        // neighborhood so the load profile sees a hot
                        // shard, then run the policy on both routers.
                        // Whatever it decides (split, merge, typed
                        // refusal) must be invisible to every
                        // comparison below.
                        let policy = kd_bonsai::core::ShardPolicy {
                            min_split_points: 8,
                            min_queries: 4.0,
                            split_ratio: 1.2,
                            merge_ratio: 0.4,
                            max_shards: 8,
                            ..kd_bonsai::core::ShardPolicy::default()
                        };
                        let live: Vec<u32> = tree.kd().live_indices().collect();
                        if !live.is_empty() {
                            let hot_at = live[arg % live.len()];
                            let hot = tree.kd().points()[hot_at as usize];
                            let hot_queries = [hot; 24];
                            let mut b = kd_bonsai::kdtree::QueryBatch::new();
                            for _ in 0..3 {
                                router_base.snapshot().search_batch(&hot_queries, radius, &mut b);
                                router_bonsai.snapshot().search_batch(&hot_queries, radius, &mut b);
                                router_base.adapt_step(&policy, 0);
                                router_bonsai.adapt_step(&policy, 0);
                            }
                        }
                    }

                    if kind == 5 {
                        // Direct topology surgery, per engine: split
                        // the chosen shard through its own point
                        // median (or merge it with its neighbor). The
                        // two routers may have diverged topologically
                        // after kind-4 adapt checkpoints (their load
                        // counters legitimately differ by mode), so
                        // each operates on its own layout and the
                        // accept/refuse outcome is free — only the
                        // result comparisons below must not notice.
                        let surgery = |router: &mut ShardRouter, r2t: &[u32]| {
                            if router.num_shards() == 0 {
                                return;
                            }
                            let s = arg % router.num_shards();
                            if arg % 2 == 0 {
                                let axis = arg % 3;
                                let coord = |p: Point3| match axis {
                                    0 => p.x,
                                    1 => p.y,
                                    _ => p.z,
                                };
                                // The shard's member coordinates, read
                                // back through the router→tree map.
                                let mut c: Vec<f32> = router
                                    .shard_points(s)
                                    .iter()
                                    .filter_map(|&g| r2t.get(g as usize))
                                    .filter(|&&t| t != u32::MAX)
                                    .map(|&t| coord(tree.kd().points()[t as usize]))
                                    .collect();
                                if !c.is_empty() {
                                    c.sort_unstable_by(f32::total_cmp);
                                    let plane = c[c.len() / 2];
                                    let _ = router.split_shard(s, axis, plane);
                                }
                            } else {
                                let t = (s + 1) % router.num_shards();
                                let _ = router.merge_shards(s, t);
                            }
                        };
                        surgery(&mut router_base, &r2t_base);
                        surgery(&mut router_bonsai, &r2t_bonsai);
                    }

                    // Deep-audit checkpoint: every commit, compaction
                    // and shard rebuild must leave the full invariant
                    // web certified.
                    let audit = tree.bonsai.audit();
                    prop_assert!(audit.is_empty(), "step {}: tree audit: {:?}", step, audit);
                    let audit = tree.base.audit();
                    prop_assert!(audit.is_empty(), "step {}: baseline tree audit: {:?}", step, audit);
                    let audit = router_base.audit();
                    prop_assert!(audit.is_empty(), "step {}: baseline router audit: {:?}", step, audit);
                    let audit = router_bonsai.audit();
                    prop_assert!(audit.is_empty(), "step {}: bonsai router audit: {:?}", step, audit);

                    let live: Vec<u32> = tree.kd().live_indices().collect();
                    prop_assert_eq!(live.len(), tree.kd().num_live());
                    prop_assert_eq!(live.len(), router_base.num_points());
                    prop_assert_eq!(live.len(), router_bonsai.num_points());
                    let live_pts: Vec<Point3> =
                        live.iter().map(|&i| tree.kd().points()[i as usize]).collect();
                    let fresh = Trees::build(live_pts.clone(), cfg, &mut sim);

                    // Queries: live points, a recently deleted point's
                    // coordinates, and an unreachable probe.
                    let mut queries: Vec<Point3> =
                        live_pts.iter().step_by(7).copied().collect();
                    queries.push(extra[arg % extra.len()]);
                    queries.push(Point3::new(1.0e4, -1.0e4, 1.0e4));

                    // Compressed hits are checked in each tree's own
                    // leaf frames: the origins of the leaves holding
                    // every point, in the mutated tree's index space.
                    let points = tree.kd().points();
                    let tree_origins = tree.kd().point_origins();
                    let fresh_origins =
                        remap_origins(&fresh.kd().point_origins(), &live, points.len());
                    let router_origins = remap_origins(
                        &router_bonsai.snapshot().point_origins(),
                        &r2t_bonsai,
                        points.len(),
                    );
                    for mode in MODES {
                        let engine = tree.engine(mode);
                        let fresh_engine = fresh.engine(mode);
                        let (router, r2t) = match mode {
                            TreeMode::Baseline => (&router_base, &r2t_base),
                            _ => (&router_bonsai, &r2t_bonsai),
                        };
                        for (qi, &q) in queries.iter().enumerate() {
                            let mut stats = SearchStats::default();
                            engine.search_one(q, radius, &mut scratch, &mut out, &mut stats);
                            let got = sorted(out.clone());

                            let mut fresh_stats = SearchStats::default();
                            fresh_engine.search_one(
                                q, radius, &mut scratch, &mut out, &mut fresh_stats);
                            let expect = sorted(
                                out.iter()
                                    .map(|n| Neighbor {
                                        index: live[n.index as usize],
                                        dist_sq: n.dist_sq,
                                    })
                                    .collect(),
                            );
                            if mode == TreeMode::Baseline {
                                prop_assert_eq!(
                                    keyed(&got), keyed(&expect),
                                    "{:?} step {} query {}: mutated tree vs fresh rebuild",
                                    mode, step, qi
                                );
                            } else {
                                let check = check_compressed_hits(
                                    q, radius, points, &got, &tree_origins, &expect, &fresh_origins,
                                );
                                prop_assert!(
                                    check.is_ok(),
                                    "{:?} step {} query {}: mutated tree vs fresh rebuild: {:?}",
                                    mode, step, qi, check
                                );
                            }

                            let mut router_stats = SearchStats::default();
                            router.search_one(
                                q, radius, &mut scratch, &mut out, &mut router_stats);
                            // Router hits arrive in the router's own
                            // (recycling) index space; map back to the
                            // tree's before comparing.
                            let router_hits = sorted(
                                out.iter()
                                    .map(|n| Neighbor {
                                        index: r2t[n.index as usize],
                                        dist_sq: n.dist_sq,
                                    })
                                    .collect(),
                            );
                            if mode == TreeMode::Baseline {
                                prop_assert_eq!(
                                    keyed(&router_hits), keyed(&expect),
                                    "{:?} step {} query {}: mutated router vs fresh rebuild",
                                    mode, step, qi
                                );
                            } else {
                                let check = check_compressed_hits(
                                    q, radius, points, &router_hits, &router_origins, &expect,
                                    &fresh_origins,
                                );
                                prop_assert!(
                                    check.is_ok(),
                                    "{:?} step {} query {}: mutated router vs fresh rebuild: {:?}",
                                    mode, step, qi, check
                                );
                            }
                        }
                    }

                    // Split/merge (and every other topology state) must
                    // leave the routed batch deterministic and
                    // canonically ordered: two passes agree bit for bit
                    // — values, order, and `SearchStats` totals — and
                    // each query's hits arrive in ascending global
                    // index order.
                    {
                        let mut b1 = kd_bonsai::kdtree::QueryBatch::new();
                        let mut b2 = kd_bonsai::kdtree::QueryBatch::new();
                        router_bonsai.snapshot().search_batch(&queries, radius, &mut b1);
                        router_bonsai.snapshot().search_batch(&queries, radius, &mut b2);
                        prop_assert_eq!(
                            b1.stats(), b2.stats(),
                            "step {}: routed batch stats are nondeterministic", step
                        );
                        for i in 0..b1.num_queries() {
                            prop_assert_eq!(
                                b1.results(i), b2.results(i),
                                "step {} query {}: routed batch is nondeterministic", step, i
                            );
                            prop_assert!(
                                b1.results(i).windows(2).all(|w| w[0].index < w[1].index),
                                "step {} query {}: hits out of canonical order", step, i
                            );
                        }
                    }

                    // kNN checkpoint: the k nearest distances are
                    // shape-independent, so the mutated tree must
                    // report the same distance multiset as the fresh
                    // rebuild (indices can differ only on exact
                    // boundary ties, so they are compared through
                    // their recomputed distances instead).
                    let k = 1 + arg % 8;
                    for (qi, &q) in queries.iter().enumerate() {
                        let got = tree.kd().knn(&mut sim, q, k);
                        let expect = fresh.kd().knn(&mut sim, q, k);
                        let dist_bits = |nn: &[Neighbor]| -> Vec<u32> {
                            nn.iter().map(|n| n.dist_sq.to_bits()).collect()
                        };
                        prop_assert_eq!(
                            dist_bits(&got), dist_bits(&expect),
                            "step {} query {} k {}: knn distances vs fresh rebuild",
                            step, qi, k
                        );
                        prop_assert_eq!(got.len(), k.min(live.len()), "step {} query {}", step, qi);
                        for n in &got {
                            prop_assert!(
                                tree.kd().is_live(n.index),
                                "step {}: knn returned dead point {}", step, n.index
                            );
                            let d = tree.kd().points()[n.index as usize]
                                .distance_squared(q);
                            prop_assert_eq!(
                                d.to_bits(), n.dist_sq.to_bits(),
                                "step {}: knn distance mismatch", step
                            );
                        }
                        // The single nearest neighbour agrees with the
                        // routed/engine radius results' closest hit by
                        // construction; pin the degenerate k=0 contract
                        // while we are here.
                        prop_assert!(tree.kd().knn(&mut sim, q, 0).is_empty());
                    }
                }
            }
        }
        prop_assert!(checkpoints > 0 || ops.iter().all(|&(k, _)| k < 2));
    }

    /// End-to-end churn: streaming cluster extraction over mutating
    /// frames equals a from-scratch extraction of every frame.
    #[test]
    fn streaming_clusters_equal_fresh_extraction_under_churn(
        cloud in arb_cloud(90),
        churn in arb_cloud(40),
        shards in 1usize..=4,
        tolerance in 0.4f32..4.0,
    ) {
        use kd_bonsai::cluster::{extract_euclidean_clusters_batched, StreamingExtractor};

        for mode in MODES {
            let mut ex = StreamingExtractor::new(mode, KdTreeConfig::default(), shards);
            let mut frame = cloud.clone();
            for round in 0..3 {
                // Mutate the frame: drop a deterministic slice, add
                // churn points.
                let drop = round * 7 % frame.len().max(1);
                frame.drain(..drop.min(frame.len()));
                frame.extend(churn.iter().skip(round).step_by(3).copied());

                ex.ingest_frame(&frame);
                prop_assert_eq!(ex.num_live(), frame.len());
                let audit = ex.audit();
                prop_assert!(audit.is_empty(), "round {}: audit: {:?}", round, audit);
                let streamed = ex.extract(tolerance, 1, 100_000);
                let fresh = extract_euclidean_clusters_batched(
                    frame.clone(), tolerance, 1, 100_000, KdTreeConfig::default(), mode);

                // Same clusters as point-multisets.
                let norm = |clusters: &[Vec<u32>], coord: &dyn Fn(u32) -> [u32; 3]| {
                    let mut v: Vec<Vec<[u32; 3]>> = clusters
                        .iter()
                        .map(|c| {
                            let mut w: Vec<[u32; 3]> = c.iter().map(|&i| coord(i)).collect();
                            w.sort_unstable();
                            w
                        })
                        .collect();
                    v.sort_unstable();
                    v
                };
                let key = |p: Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
                let got = norm(&streamed.clusters, &|i| key(ex.point(i)));
                let expect = norm(&fresh.clusters, &|i| key(frame[i as usize]));
                prop_assert_eq!(got, expect, "{:?} shards {} round {}", mode, shards, round);
            }
        }
    }
}
