//! The pure (uninstrumented) subtree builder behind
//! [`KdTree::build_parallel`] and the criterion-triggered subtree
//! rebuilds of the mutation layer.
//!
//! [`build_subtree`] turns a set of point indices into a relocatable
//! [`SubtreeParts`]: preorder-numbered nodes whose leaf `start` fields
//! index a private `order` array. The caller splices the parts wherever
//! it needs them — `build_tree_parallel` makes them the whole tree,
//! [`KdTree::insert`](crate::KdTree::insert)'s re-balance splices them
//! over one violating subtree. The recursion fans its top levels across
//! scoped threads (the dinotree idiom: each half of a partition gets
//! its own worker until the workers run out), which is safe because the
//! two halves of a partition touch disjoint `order` ranges and build
//! disjoint node sets.
//!
//! Packed parts (the whole-tree build) give every leaf exactly its
//! `count` slots; slack parts (mutation rebuilds) give every leaf
//! `max_leaf_points` slots, the unused ones marked
//! [`PAD_SLOT`](crate::PAD_SLOT).
//!
//! Each interior node takes the sequential build's own split step
//! (`build::split_range`: the same partition, dividers and child boxes,
//! each box handed down to its child and its leaves' origins), so the
//! assembled tree is **identical** to [`KdTree::build`]'s regardless of
//! the thread count — property-tested in this module and pinned by
//! digest at the workspace root.

use bonsai_geom::{Aabb, Point3};
use bonsai_sim::SimEngine;

use crate::build::{records_box, split_range, BuildStats, KdTree, KdTreeConfig, Rec};
use crate::mutate::PAD_SLOT;
use crate::node::{Node, NodeId, NODE_BYTES};
use crate::rows::{LeafRows, RowLayout};

/// Minimum points in a range before the builder forks a worker for one
/// of its halves; below this the spawn costs more than the subtree.
const PARALLEL_MIN_POINTS: usize = 2048;

/// A built subtree, relative to itself: nodes are numbered in preorder
/// starting at 0 (the subtree root), and leaf `start` offsets index
/// [`SubtreeParts::order`].
#[derive(Debug)]
pub(crate) struct SubtreeParts {
    /// Preorder node pool of the subtree.
    pub nodes: Vec<Node>,
    /// The `vind` arrangement of the subtree's points. Each leaf owns
    /// a footprint of consecutive slots — `count` packed,
    /// `max_leaf_points` with slack, the unused slack holding
    /// [`PAD_SLOT`].
    pub order: Vec<u32>,
    /// Shape statistics of the subtree (`max_depth` relative to its
    /// root).
    pub stats: BuildStats,
}

/// Build configuration of one [`build_subtree`] call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubtreeConfig {
    pub tree: KdTreeConfig,
    /// The row layout the leaves are built for, which sets their
    /// origins ([`RowLayout::origin`]).
    pub layout: RowLayout,
    /// Pad every leaf's `order` range to the full `max_leaf_points`
    /// capacity so later inserts append in place instead of relocating
    /// the leaf. The initial full build stays packed; only
    /// mutation-created leaves carry slack.
    pub slack: bool,
    /// Worker threads the recursion may still fork (1 = sequential).
    pub threads: usize,
}

/// Builds a subtree over the points `idxs` names, in that order (the
/// `order` it returns is the sequential build's arrangement of the same
/// `vind` range).
pub(crate) fn build_subtree(points: &[Point3], idxs: &[u32], cfg: SubtreeConfig) -> SubtreeParts {
    debug_assert!(!idxs.is_empty(), "build_subtree over an empty range");
    #[cfg(test)]
    if crate::build::reference::subtrees_by_index() {
        return crate::build::reference::build_subtree(points, idxs, cfg);
    }
    build_records(&mut Rec::gather(points, idxs.iter().copied()), cfg)
}

/// [`build_subtree`] over records gathered by the caller, left in the
/// subtree's slot order (packed parts: `order[i] == recs[i].idx`).
fn build_records(recs: &mut [Rec], cfg: SubtreeConfig) -> SubtreeParts {
    let bbox = records_box(recs);
    build_rec(recs, cfg, cfg.threads, 0, bbox)
}

/// Builds the subtree over `recs`, whose box `bbox` the parent's split
/// handed down.
fn build_rec(
    recs: &mut [Rec],
    cfg: SubtreeConfig,
    threads: usize,
    depth: u32,
    bbox: Aabb,
) -> SubtreeParts {
    let count = recs.len();
    let m = cfg.tree.max_leaf_points;
    if count <= m {
        let mut order: Vec<u32> = recs.iter().map(|r| r.idx).collect();
        // Slack leaves reserve the full `m`-point capacity so later
        // inserts append in place.
        if cfg.slack {
            order.resize(m, PAD_SLOT);
        }
        return SubtreeParts {
            nodes: vec![Node::Leaf {
                start: 0,
                count: count as u32,
                origin: cfg.layout.origin(bbox.min, bbox.max),
            }],
            order,
            stats: BuildStats {
                num_leaves: 1,
                num_interior: 0,
                max_depth: depth,
            },
        };
    }

    let split = split_range(recs, &bbox, cfg.tree.split_rule, |_| {});
    let (left_recs, right_recs) = recs.split_at_mut(split.mid);
    let fork = threads > 1 && count >= PARALLEL_MIN_POINTS;
    let (left, right) = if fork {
        let lt = threads / 2;
        let rt = threads - lt;
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| build_rec(left_recs, cfg, lt, depth + 1, split.left));
            let right = build_rec(right_recs, cfg, rt, depth + 1, split.right);
            // lint: allow(panic-free-serving) — join() only fails when
            // the worker panicked; re-raising is correct propagation.
            (handle.join().expect("subtree build worker panicked"), right)
        })
    } else {
        (
            build_rec(left_recs, cfg, 1, depth + 1, split.left),
            build_rec(right_recs, cfg, 1, depth + 1, split.right),
        )
    };

    // Stitch in the sequential numbering: parent first, then the whole
    // left subtree, then the right (the preorder `build_range` emits).
    let left_nodes = left.nodes.len() as NodeId;
    let left_slots = left.order.len() as u32;
    let mut nodes = Vec::with_capacity(1 + left.nodes.len() + right.nodes.len());
    nodes.push(split.node(1, 1 + left_nodes));
    nodes.extend(left.nodes.iter().map(|n| shift_node(n, 1, 0)));
    nodes.extend(
        right
            .nodes
            .iter()
            .map(|n| shift_node(n, 1 + left_nodes, left_slots)),
    );
    let mut order = Vec::with_capacity(left.order.len() + right.order.len());
    order.extend_from_slice(&left.order);
    order.extend_from_slice(&right.order);
    SubtreeParts {
        nodes,
        order,
        stats: BuildStats {
            num_leaves: left.stats.num_leaves + right.stats.num_leaves,
            num_interior: left.stats.num_interior + right.stats.num_interior + 1,
            max_depth: left.stats.max_depth.max(right.stats.max_depth).max(depth),
        },
    }
}

/// Re-bases one local node: child ids shift by `id_off`, leaf starts by
/// `slot_off`.
fn shift_node(node: &Node, id_off: NodeId, slot_off: u32) -> Node {
    match *node {
        Node::Leaf {
            start,
            count,
            origin,
        } => Node::Leaf {
            start: start + slot_off,
            count,
            origin,
        },
        Node::Interior {
            axis,
            split_val,
            div_low,
            div_high,
            left,
            right,
        } => Node::Interior {
            axis,
            split_val,
            div_low,
            div_high,
            left: left + id_off,
            right: right + id_off,
        },
    }
}

/// Resolves a requested worker count: `0` means available parallelism.
/// Without the `parallel` feature the result is always 1.
pub(crate) fn resolve_build_threads(threads: usize) -> usize {
    if cfg!(feature = "parallel") {
        if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        }
    } else {
        1
    }
}

/// The whole-tree assembly behind [`KdTree::build_parallel`].
pub(crate) fn build_tree_parallel(
    points: Vec<Point3>,
    cfg: KdTreeConfig,
    layout: RowLayout,
    threads: usize,
) -> KdTree {
    assert!(
        (1..=16).contains(&cfg.max_leaf_points),
        "max_leaf_points must be in 1..=16, got {}",
        cfg.max_leaf_points
    );
    let n = points.len();
    let mut sim = SimEngine::disabled();
    let points_addr = sim.alloc(n as u64 * crate::build::POINT_STRIDE, 64);
    // The instrumented build's regions: one slot per point.
    let vind_addr = sim.alloc(n as u64 * 4, 64);
    let nodes_addr = sim.alloc((2 * n as u64 + 1) * NODE_BYTES, 64);
    let reordered_addr = sim.alloc(n as u64 * crate::build::REORDERED_STRIDE, 64);

    let mut recs = Rec::gather(&points, 0..n as u32);
    let (nodes, vind, stats) = if n == 0 {
        (Vec::new(), Vec::new(), BuildStats::default())
    } else {
        let parts = build_records(
            &mut recs,
            SubtreeConfig {
                tree: cfg,
                layout,
                slack: false,
                threads: resolve_build_threads(threads),
            },
        );
        // `order` is the permuted range, leaves packed back to back —
        // exactly the sequential build's `vind`.
        (parts.nodes, parts.order, parts.stats)
    };

    let rows = LeafRows::bake(layout, &nodes, &recs);
    drop(recs);
    let mut tree = KdTree {
        points,
        vind,
        nodes,
        rows,
        cfg,
        stats,
        alive: vec![true; n],
        num_live: n,
        meta: Vec::new(),
        garbage_slots: 0,
        free_nodes: Vec::new(),
        dirty_nodes: Vec::new(),
        mut_stats: crate::mutate::MutationStats::default(),
        points_addr,
        vind_addr,
        nodes_addr,
        reordered_addr,
    };
    tree.rebuild_meta();
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SplitRule;

    fn random_cloud(n: usize, seed: u64, scale: f32) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new((next() - 0.5) * scale, (next() - 0.5) * scale, next() * 4.0))
            .collect()
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_sequential() {
        for seed in [1, 5, 9] {
            let cloud = random_cloud(6000, seed, 80.0);
            let mut sim = SimEngine::disabled();
            let seq = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
            for threads in [1, 2, 3, 8] {
                let par = KdTree::build_parallel(cloud.clone(), KdTreeConfig::default(), threads);
                assert_eq!(par.nodes(), seq.nodes(), "seed {seed} threads {threads}");
                assert_eq!(par.vind(), seq.vind(), "seed {seed} threads {threads}");
                assert_eq!(
                    par.leaf_soa(),
                    seq.leaf_soa(),
                    "seed {seed} threads {threads}"
                );
                assert_eq!(par.build_stats(), seq.build_stats());
                let seq16 = KdTree::build_f16(cloud.clone(), KdTreeConfig::default(), &mut sim);
                let par16 =
                    KdTree::build_parallel_f16(cloud.clone(), KdTreeConfig::default(), threads);
                assert_eq!(
                    par16.nodes(),
                    seq16.nodes(),
                    "seed {seed} threads {threads}"
                );
                assert_eq!(par16.vind(), seq.vind(), "seed {seed} threads {threads}");
                assert_eq!(
                    par16.leaf_halves(),
                    seq16.leaf_halves(),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_matches_for_sliding_midpoint_and_tiny_clouds() {
        let cfg = KdTreeConfig {
            split_rule: SplitRule::SlidingMidpoint,
            ..KdTreeConfig::default()
        };
        for n in [0, 1, 15, 16, 17, 300] {
            let cloud = random_cloud(n, 3, 20.0);
            let mut sim = SimEngine::disabled();
            let seq = KdTree::build(cloud.clone(), cfg, &mut sim);
            let par = KdTree::build_parallel(cloud, cfg, 4);
            assert_eq!(par.nodes(), seq.nodes(), "n {n}");
            assert_eq!(par.vind(), seq.vind(), "n {n}");
        }
    }

    #[test]
    fn slack_parts_pad_every_leaf_to_capacity() {
        let cloud = random_cloud(500, 7, 50.0);
        let idxs: Vec<u32> = (0..cloud.len() as u32).collect();
        let cfg = SubtreeConfig {
            tree: KdTreeConfig::default(),
            layout: RowLayout::F16,
            slack: true,
            threads: 1,
        };
        let parts = build_subtree(&cloud, &idxs, cfg);
        let m = cfg.tree.max_leaf_points;
        assert_eq!(
            parts.order.len(),
            parts.stats.num_leaves as usize * m,
            "every slack leaf owns an m-slot footprint"
        );
        let mut seen = vec![false; cloud.len()];
        for node in &parts.nodes {
            if let Node::Leaf { start, count, .. } = *node {
                assert!(count as usize <= m);
                for s in start..start + count {
                    let idx = parts.order[s as usize];
                    assert_ne!(idx, PAD_SLOT);
                    assert!(!seen[idx as usize], "point {idx} twice");
                    seen[idx as usize] = true;
                }
                for s in start + count..start + m as u32 {
                    assert_eq!(parts.order[s as usize], PAD_SLOT);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Both builders, in both row layouts, pack every leaf exactly:
    /// one slot per point, leaves tiling `0..n` with no gap. After churn
    /// and [`KdTree::compact`] the slot arrays hold exactly the leaves'
    /// footprints.
    #[test]
    fn builders_pack_leaves_exactly_in_both_layouts() {
        let cloud = random_cloud(777, 11, 40.0);
        let cfg = KdTreeConfig::default();
        let mut sim = SimEngine::disabled();
        let trees = [
            ("build", KdTree::build(cloud.clone(), cfg, &mut sim)),
            ("build_f16", KdTree::build_f16(cloud.clone(), cfg, &mut sim)),
            (
                "build_parallel",
                KdTree::build_parallel(cloud.clone(), cfg, 3),
            ),
            (
                "build_parallel_f16",
                KdTree::build_parallel_f16(cloud.clone(), cfg, 3),
            ),
        ];
        let leaf_ids = |tree: &KdTree| -> Vec<NodeId> {
            (0..tree.nodes().len() as NodeId)
                .filter(|&id| tree.nodes()[id as usize].is_leaf())
                .collect()
        };
        for (name, mut tree) in trees {
            assert_eq!(tree.vind().len(), tree.points().len(), "{name}");
            let mut ranges: Vec<(u32, u32)> = leaf_ids(&tree)
                .into_iter()
                .map(|id| {
                    let Node::Leaf { start, count, .. } = tree.nodes()[id as usize] else {
                        unreachable!()
                    };
                    assert_eq!(tree.leaf_slot_footprint(id), count, "{name}: leaf {id}");
                    (start, count)
                })
                .collect();
            ranges.sort_unstable();
            let mut next = 0;
            for (start, count) in ranges {
                assert_eq!(start, next, "{name}: gap or overlap at slot {start}");
                next += count;
            }
            assert_eq!(next as usize, cloud.len(), "{name}");

            for k in 0..120u32 {
                tree.delete(&mut sim, k * 5);
                tree.insert(&mut sim, cloud[k as usize] + Point3::new(0.01, 0.02, 0.0))
                    .unwrap();
            }
            assert!(tree.garbage_slots() > 0, "{name}: churn never fragmented");
            tree.compact(&mut sim);
            let footprints: u32 = leaf_ids(&tree)
                .into_iter()
                .map(|id| tree.leaf_slot_footprint(id))
                .sum();
            assert_eq!(tree.vind().len(), footprints as usize, "{name}");
            assert!(tree.audit().is_empty(), "{name}: {:?}", tree.audit());
        }
    }
}
