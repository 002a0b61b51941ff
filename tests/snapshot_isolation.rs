//! Snapshot-isolation property tests: an epoch pinned while the index
//! keeps mutating must answer every query **bit-identically** — same
//! neighbor values, same order, same `SearchStats` — to a
//! stop-the-world engine frozen at that epoch, at every checkpoint,
//! for both engine modes, through both the sharded
//! [`RouterSnapshot`] epochs the streaming stack publishes and
//! published single trees, under whichever SIMD backend the
//! build arm selects (the suite runs on the default and the
//! `--no-default-features` scalar arm alike).
//!
//! This is the tentpole contract of the serving front-end: concurrent
//! reads during mutation are safe *because* a pinned epoch is
//! indistinguishable from having paused the world at publish time.

use std::sync::Arc;

use kd_bonsai::core::{
    BonsaiTree, EngineMode, Epoch, EpochPublisher, RouterSnapshot, ShardConfig, ShardRouter,
};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTree, KdTreeConfig, Neighbor, SearchScratch, SearchStats};
use kd_bonsai::serve::{EpochIndex, ServeConfig, Server};
use kd_bonsai::sim::SimEngine;
use proptest::prelude::*;

const MODES: [EngineMode; 2] = [EngineMode::Baseline, EngineMode::Compressed];

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (-60.0f32..60.0, -60.0f32..60.0, -3.0f32..3.0).prop_map(|(x, y, z)| Point3::new(x, y, z)),
        2..max,
    )
}

/// One scripted step: `kind` 0 inserts, 1 deletes, 2 checkpoints
/// (commit + publish + pin), 3 rebuilds a shard, 4 runs the adaptive
/// policy against a hammered hot spot, 5 splits/merges a shard
/// directly; kinds 2–5 all checkpoint afterwards, so every pinned
/// epoch taken *before* a topology change is re-verified against its
/// frozen pre-change answers. `arg` seeds each step's choices.
fn arb_ops(max: usize) -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..6, 0usize..10_000), 4..max)
}

fn router_for(mode: EngineMode, cloud: &[Point3], cfg: KdTreeConfig, shards: usize) -> ShardRouter {
    let sc = ShardConfig::with_shards(shards);
    match mode {
        EngineMode::Baseline => ShardRouter::baseline(cloud, cfg, sc),
        EngineMode::Compressed => ShardRouter::bonsai(cloud, cfg, sc),
    }
}

/// Exact per-query answers + stats of a served index, in its emitted
/// order (no canonicalization: order is part of the contract).
fn answers<T: EpochIndex>(
    index: &T,
    queries: &[Point3],
    radius: f32,
    scratch: &mut SearchScratch,
) -> Vec<(Vec<Neighbor>, SearchStats)> {
    queries
        .iter()
        .map(|&q| {
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            index.search_append(q, radius, scratch, &mut out, &mut stats);
            (out, stats)
        })
        .collect()
}

/// One pinned epoch and what the world looked like when it was
/// published: the stop-the-world answers recorded at publish time.
struct PinnedCheckpoint {
    epoch: Arc<Epoch<RouterSnapshot>>,
    frozen: Vec<(Vec<Neighbor>, SearchStats)>,
    step: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scripted churn against a mode-matched router; at every
    /// checkpoint the post-commit index is published as an epoch and
    /// pinned, and **every** previously pinned epoch is re-queried and
    /// must still answer exactly as the world stood when it was
    /// published.
    #[test]
    fn pinned_epochs_equal_stop_the_world_under_churn(
        cloud in arb_cloud(90),
        extra in arb_cloud(60),
        ops in arb_ops(28),
        radius in 0.05f32..8.0,
        leaf in 2usize..=16,
        shards in 1usize..=4,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        for mode in MODES {
            let mut router = router_for(mode, &cloud, cfg, shards);
            let publisher = EpochPublisher::new(router.snapshot());
            let mut scratch = SearchScratch::new();
            // Queries: original points (some soon deleted), mutation
            // fodder and an unreachable probe — fixed across epochs so
            // the frozen answers stay comparable.
            let mut queries: Vec<Point3> = cloud.iter().step_by(5).copied().collect();
            queries.extend(extra.iter().step_by(9).copied());
            queries.push(Point3::new(1.0e6, 1.0e6, 1.0e6));

            let mut pinned: Vec<PinnedCheckpoint> = Vec::new();
            let mut next_extra = 0usize;
            for (step, &(kind, arg)) in ops.iter().enumerate() {
                match kind {
                    0 => {
                        let p = extra[(next_extra + arg) % extra.len()];
                        next_extra += 1;
                        router.insert(p);
                    }
                    1 => {
                        if router.num_points() > 1 {
                            // Any historical global index; a dead or
                            // recycled one is a no-op delete.
                            router.delete((arg % cloud.len().max(1)) as u32);
                        }
                    }
                    kind => {
                        router.commit();
                        if kind == 3 && router.num_shards() > 0 {
                            router.rebuild_shard(arg % router.num_shards());
                        }
                        if kind == 4 {
                            // Adaptive checkpoint: hammer one query's
                            // neighborhood so the load profile sees a
                            // hot shard, then let the policy act.
                            // Whatever it decides, every epoch pinned
                            // before this step must not notice.
                            let policy = kd_bonsai::core::ShardPolicy {
                                min_split_points: 8,
                                min_queries: 4.0,
                                split_ratio: 1.2,
                                merge_ratio: 0.4,
                                max_shards: 8,
                                ..kd_bonsai::core::ShardPolicy::default()
                            };
                            let hot = [queries[arg % queries.len()]; 24];
                            let mut b = kd_bonsai::kdtree::QueryBatch::new();
                            for _ in 0..3 {
                                router.snapshot().search_batch(&hot, radius, &mut b);
                                router.adapt_step(&policy, 0);
                            }
                        }
                        if kind == 5 && router.num_shards() > 0 {
                            // Direct topology surgery: split the
                            // chosen shard at its bounds midpoint, or
                            // merge it with its neighbor. A typed
                            // refusal is fine; pre-surgery pins must
                            // stay bit-identical either way.
                            let s = arg % router.num_shards();
                            if arg % 2 == 0 {
                                let bounds = router.shard_bounds().nth(s);
                                if let Some(aabb) = bounds {
                                    let axis = arg % 3;
                                    let (lo, hi) = match axis {
                                        0 => (aabb.min.x, aabb.max.x),
                                        1 => (aabb.min.y, aabb.max.y),
                                        _ => (aabb.min.z, aabb.max.z),
                                    };
                                    if lo <= hi {
                                        let _ = router.split_shard(s, axis, 0.5 * (lo + hi));
                                    }
                                }
                            } else {
                                let t = (s + 1) % router.num_shards();
                                let _ = router.merge_shards(s, t);
                            }
                        }
                        let id = publisher.publish(router.snapshot());
                        let epoch = publisher.try_pin_epoch(id).expect("just published");
                        prop_assert_eq!(epoch.id(), id);

                        // Stop-the-world reference, recorded *now*.
                        let frozen = answers(epoch.value(), &queries, radius, &mut scratch);
                        // The published epoch must equal the live
                        // router at publish time.
                        let live = answers(&router.snapshot(), &queries, radius, &mut scratch);
                        prop_assert_eq!(&frozen, &live, "mode {:?} step {}: publish skew", mode, step);
                        pinned.push(PinnedCheckpoint { epoch, frozen, step });

                        // Isolation: every older pinned epoch still
                        // answers exactly as its frozen world.
                        for cp in &pinned {
                            let again = answers(cp.epoch.value(), &queries, radius, &mut scratch);
                            prop_assert_eq!(
                                &again, &cp.frozen,
                                "mode {:?}: epoch pinned at step {} drifted by step {}",
                                mode, cp.step, step
                            );
                        }
                    }
                }
            }
            // Retirement bookkeeping: dropping the pins retires every
            // epoch except the publisher's current one.
            let last = publisher.epoch();
            drop(pinned);
            prop_assert_eq!(publisher.live_epochs(), vec![last]);
        }
    }

    /// The same isolation contract through published single trees: a
    /// pinned epoch of a cloned tree — baseline and compressed — keeps
    /// answering identically while the source tree mutates.
    #[test]
    fn pinned_shared_engines_survive_tree_mutation(
        cloud in arb_cloud(80),
        extra in arb_cloud(40),
        radius in 0.05f32..8.0,
        leaf in 2usize..=16,
    ) {
        let cfg = KdTreeConfig { max_leaf_points: leaf, ..KdTreeConfig::default() };
        let mut sim = SimEngine::disabled();
        let mut tree = BonsaiTree::build(cloud.clone(), cfg, &mut sim);
        let mut base = KdTree::build(cloud.clone(), cfg, &mut sim);
        let baseline = EpochPublisher::new(base.clone());
        let bonsai = EpochPublisher::new(tree.clone());
        let (baseline_pin, bonsai_pin) = (baseline.pin(), bonsai.pin());
        let queries: Vec<Point3> = cloud.iter().step_by(7).copied().collect();
        let mut scratch = SearchScratch::new();
        let frozen_baseline = answers(baseline_pin.value(), &queries, radius, &mut scratch);
        let frozen_bonsai = answers(bonsai_pin.value(), &queries, radius, &mut scratch);

        // Mutate the source trees hard; the published clones must not
        // notice.
        for (i, &p) in extra.iter().enumerate() {
            if i % 3 == 0 {
                tree.delete(&mut sim, (i % cloud.len()) as u32);
                base.delete(&mut sim, (i % cloud.len()) as u32);
            } else {
                tree.insert(&mut sim, p);
                base.insert(&mut sim, p);
            }
        }
        tree.commit(&mut sim);
        tree.compact(&mut sim);
        base.drain_dirty_nodes();
        base.compact(&mut sim);

        let checks = [
            ("baseline", answers(baseline_pin.value(), &queries, radius, &mut scratch), &frozen_baseline),
            ("bonsai", answers(bonsai_pin.value(), &queries, radius, &mut scratch), &frozen_bonsai),
        ];
        for (mode, again, frozen) in checks {
            for (i, (got, want)) in again.iter().zip(frozen).enumerate() {
                prop_assert_eq!(&got.0, &want.0, "mode {} query {}: values drifted", mode, i);
                prop_assert_eq!(got.1, want.1, "mode {} query {}: stats drifted", mode, i);
            }
        }
    }
}

/// End-to-end isolation through the serving front-end itself: queries
/// served by a `bonsai-serve` executor *while* the router churns and
/// publishes must each match the stop-the-world answers of whichever
/// epoch the server pinned for them — never a torn mix of epochs.
#[test]
fn served_queries_are_isolated_on_their_reported_epoch() {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32
    };
    let cloud: Vec<Point3> = (0..1500)
        .map(|_| Point3::new((next() - 0.5) * 80.0, (next() - 0.5) * 80.0, next() * 3.0))
        .collect();
    let mut router =
        ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
    let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
    let server = Server::new(Arc::clone(&publisher), ServeConfig::default());

    // Keep every epoch's snapshot alive on the side so each served
    // answer can be re-checked against its stop-the-world reference.
    let mut epochs: Vec<RouterSnapshot> = vec![router.snapshot()];
    let queries: Vec<Point3> = cloud.iter().step_by(11).copied().collect();
    let radius = 1.1f32;

    let mut served = Vec::new();
    for round in 0..6 {
        // Serve a wave of queries concurrently with the churn below.
        let tickets: Vec<_> = queries
            .iter()
            .map(|&q| server.submit(q, radius).expect("under capacity"))
            .collect();
        // Churn: delete a band, insert replacements, publish.
        for g in (round * 100)..(round * 100 + 60) {
            router.delete(g as u32);
        }
        let fresh: Vec<Point3> = (0..40)
            .map(|_| Point3::new((next() - 0.5) * 80.0, (next() - 0.5) * 80.0, next() * 3.0))
            .collect();
        router.apply_update(&fresh, &[]);
        router.commit();
        publisher.publish(router.snapshot());
        epochs.push(router.snapshot());
        served.extend(tickets.into_iter().zip(queries.iter().copied()));
    }

    let mut scratch = SearchScratch::new();
    for (ticket, q) in served {
        let got = ticket.wait().expect("served");
        let reference = &epochs[got.epoch as usize];
        let mut expect = Vec::new();
        let mut stats = SearchStats::default();
        reference.search_one(q, radius, &mut scratch, &mut expect, &mut stats);
        assert_eq!(
            got.neighbors, expect,
            "epoch {} answer is not the stop-the-world answer",
            got.epoch
        );
    }
}
