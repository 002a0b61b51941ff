//! The uninstrumented euclidean-cluster extraction: one self-join over
//! leaf pairs instead of one radius query per point.
//!
//! Euclidean clusters are the connected components of the tolerance
//! graph, whose edges are what the leaf sweep kernels report: `q`
//! reaches `p` when the sweep of `p`'s leaf with query `q` returns `p`.
//! That relation is symmetric. The baseline kernel compares
//! `(x − q.x)² + (y − q.y)² + (z − q.z)²` in `f32`, and `fl(a − b)` is
//! exactly `−fl(b − a)`, so `d²(p, q)` and `d²(q, p)` are bit-equal; the
//! compressed sweep reproduces that exact membership through its
//! uncertainty shell and fallback. So each edge has to be found once,
//! from either end, and a pair of leaves has to be swept in one
//! direction only.
//!
//! The join therefore:
//!
//! 1. numbers the leaves depth first and computes the exact box of the
//!    finite points under every node;
//! 2. for every leaf `A`, walks the tree once, pruning every subtree
//!    whose box lies farther than the grown radius from `A`'s box or
//!    whose leaves all precede `A`; the leaves it reaches are `A`'s
//!    candidates `B ≥ A`;
//! 3. sweeps each finite point of `A` over the candidates whose box it
//!    can reach, through the engine's own kernels, and unions every hit.
//!    A candidate whose points all sit in the query's component already
//!    is skipped: it can add no edge that changes a component.
//!
//! The box tests only prune. They compare against the radius grown by
//! [`GROWTH`] (plus [`FLOOR`]), which covers every rounding of an
//! `f32` distance the kernel can compare at or below `r²`; only the
//! sweep decides membership, so the components are exactly the ones
//! the per-point BFS grows.

use bonsai_core::RadiusSearchEngine;
use bonsai_geom::Point3;
use bonsai_kdtree::simd::LeafVisit;
use bonsai_kdtree::{query_is_searchable, radius_is_searchable, Neighbor, Node, SearchStats};

/// Relative growth of the prune radius. An `f32` squared distance that
/// compares `≤ r²` lies within a few units in the last place of the
/// real one, and so does every box distance computed below (each
/// difference of two `f32`s rounds within 2⁻²⁴ of itself), far inside
/// this margin.
const GROWTH: f32 = 1.0 + 1e-4;

/// Absolute growth of the prune radius, `2⁻⁶²`: covers the squares that
/// underflow when `r²` itself is below the smallest normal `f32`.
const FLOOR: f32 = 2.168_404_3e-19;

/// An exact axis-aligned box of `f32` points: `[lo.x, lo.y, lo.z, hi.x,
/// hi.y, hi.z]`. The empty box is `lo = +∞, hi = −∞`, which lies at an
/// infinite distance from everything.
type Bounds = [f32; 6];

const EMPTY: Bounds = [
    f32::INFINITY,
    f32::INFINITY,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NEG_INFINITY,
    f32::NEG_INFINITY,
];

fn insert(b: &mut Bounds, p: Point3) {
    for (a, v) in [p.x, p.y, p.z].into_iter().enumerate() {
        b[a] = b[a].min(v);
        b[a + 3] = b[a + 3].max(v);
    }
}

fn union(a: &Bounds, b: &Bounds) -> Bounds {
    let mut u = *a;
    for i in 0..3 {
        u[i] = u[i].min(b[i]);
        u[i + 3] = u[i + 3].max(b[i + 3]);
    }
    u
}

/// The gap `max(below, above, 0)` along one axis. Box corners are
/// finite or the empty box's infinities, and the query points finite,
/// so no operand is NaN and a plain compare-select suffices.
#[inline(always)]
fn gap(below: f32, above: f32) -> f32 {
    let g = if below > above { below } else { above };
    if g > 0.0 {
        g
    } else {
        0.0
    }
}

/// Squared distance between two boxes.
fn box_dist_sq(a: &Bounds, b: &Bounds) -> f32 {
    let mut d = 0.0;
    for i in 0..3 {
        let g = gap(b[i] - a[i + 3], a[i] - b[i + 3]);
        d += g * g;
    }
    d
}

/// Squared distance from a finite point to a box.
#[inline]
fn point_dist_sq(p: Point3, b: &Bounds) -> f32 {
    let gx = gap(b[0] - p.x, p.x - b[3]);
    let gy = gap(b[1] - p.y, p.y - b[4]);
    let gz = gap(b[2] - p.z, p.z - b[5]);
    gx * gx + gy * gy + gz * gz
}

/// The leaves of a tree in depth-first order, with the exact box and
/// the last leaf ordinal of every node's subtree.
struct LeafLayout {
    /// Leaves in depth-first, left-first order: `(node, start, count)`.
    leaves: Vec<LeafVisit>,
    /// Per node id: the box of the finite points below it.
    boxes: Vec<Bounds>,
    /// Per node id: the ordinal of the last leaf below it.
    last: Vec<u32>,
}

impl LeafLayout {
    fn of(nodes: &[Node], vind: &[u32], points: &[Point3]) -> LeafLayout {
        // Pre-order, left first: leaves come out in ordinal order, and
        // every node precedes its subtree.
        let mut order = Vec::with_capacity(nodes.len());
        let mut stack = vec![0u32];
        while let Some(id) = stack.pop() {
            order.push(id);
            if let Node::Interior { left, right, .. } = nodes[id as usize] {
                stack.push(right);
                stack.push(left);
            }
        }
        let mut layout = LeafLayout {
            leaves: Vec::new(),
            boxes: vec![EMPTY; nodes.len()],
            last: vec![0; nodes.len()],
        };
        for &id in &order {
            if let Node::Leaf { start, count, .. } = nodes[id as usize] {
                let b = &mut layout.boxes[id as usize];
                for &idx in &vind[start as usize..(start + count) as usize] {
                    let p = points[idx as usize];
                    if query_is_searchable(p) {
                        insert(b, p);
                    }
                }
                layout.last[id as usize] = layout.leaves.len() as u32;
                layout.leaves.push((id, start, count));
            }
        }
        // Children follow their parent in pre-order, so the reverse
        // pass meets them first.
        for &id in order.iter().rev() {
            if let Node::Interior { left, right, .. } = nodes[id as usize] {
                let (l, r) = (left as usize, right as usize);
                layout.boxes[id as usize] = union(&layout.boxes[l], &layout.boxes[r]);
                layout.last[id as usize] = layout.last[r];
            }
        }
        layout
    }
}

/// Union-find over point indices. A set's root is its smallest member
/// (links always hang the larger root under the smaller).
struct DisjointSets {
    parent: Vec<u32>,
}

impl DisjointSets {
    fn new(n: usize) -> DisjointSets {
        DisjointSets {
            parent: (0..n as u32).collect(),
        }
    }

    /// The root of `i`'s set, halving the path on the way.
    fn find(&mut self, mut i: u32) -> u32 {
        loop {
            let p = self.parent[i as usize];
            if p == i {
                return i;
            }
            let g = self.parent[p as usize];
            self.parent[i as usize] = g;
            i = g;
        }
    }

    /// Joins the set rooted at `root` with `j`'s set; returns the
    /// joined set's root.
    fn join(&mut self, root: u32, j: u32) -> u32 {
        let other = self.find(j);
        let (lo, hi) = (root.min(other), root.max(other));
        self.parent[hi as usize] = lo;
        lo
    }

    /// The sets as clusters, size-filtered like the BFS: members
    /// ascending, clusters in order of their smallest member.
    fn into_clusters(mut self, min_size: usize, max_size: usize) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        let mut count = vec![0u32; n];
        for i in 0..n as u32 {
            let r = self.find(i);
            self.parent[i as usize] = r;
            count[r as usize] += 1;
        }
        // A root is its set's first member, so its count is read (and
        // replaced by the cluster slot) before any other member's turn.
        const DROPPED: u32 = u32::MAX;
        let mut clusters: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            let r = self.parent[i] as usize;
            if r == i {
                let size = count[i] as usize;
                count[i] = if (min_size..=max_size).contains(&size) {
                    clusters.push(Vec::with_capacity(size));
                    clusters.len() as u32 - 1
                } else {
                    DROPPED
                };
            }
            if count[r] != DROPPED {
                clusters[count[r] as usize].push(i as u32);
            }
        }
        clusters
    }
}

/// The connected components of `engine`'s tolerance graph at
/// `tolerance`, size-filtered to `min_size..=max_size` exactly as
/// [`bfs_connected_clusters`](crate::extract::bfs_connected_clusters)
/// filters them, by one self-join over leaf pairs (see the
/// [module docs](self)).
///
/// `stats` counts the join's own work: `nodes_visited` the nodes its
/// per-leaf walks visit, `leaf_visits` the leaf pairs they find,
/// `points_inspected`, `fallbacks` and `point_bytes_loaded` what the
/// sweep kernels count. A non-searchable `tolerance` finds no edge:
/// every point is its own component, as under the BFS.
pub(crate) fn self_join_clusters(
    engine: &RadiusSearchEngine<'_>,
    tolerance: f32,
    min_size: usize,
    max_size: usize,
    stats: &mut SearchStats,
) -> Vec<Vec<u32>> {
    let tree = engine.tree();
    let (nodes, vind, points) = (tree.nodes(), tree.vind(), tree.points());
    let mut sets = DisjointSets::new(points.len());
    if nodes.is_empty() || !radius_is_searchable(tolerance) {
        return sets.into_clusters(min_size, max_size);
    }
    let layout = LeafLayout::of(nodes, vind, points);
    let leaves = &layout.leaves;
    // When `r²` overflows `f32`, every finite distance compares within
    // it and so do infinite ones: nothing is pruned, and every leaf
    // pairs with every other in both directions (an infinite point is
    // never a query, but it is a hit).
    let unbounded = !(tolerance * tolerance).is_finite();
    let reach_sq = if unbounded {
        f32::INFINITY
    } else {
        let reach = tolerance * GROWTH + FLOOR;
        reach * reach
    };

    // `whole[b]`: every point of leaf `b` sits in one set. Sets only
    // grow, so the flag never clears. Leaves are joined last to first,
    // so every candidate `b > a` is settled before `a` sweeps it.
    let mut whole = vec![false; leaves.len()];
    let mut candidates: Vec<u32> = Vec::new();
    let mut visits: Vec<LeafVisit> = Vec::new();
    let mut hits: Vec<Neighbor> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    for a in (0..leaves.len()).rev() {
        let (a_node, start, count) = leaves[a];
        let a_box = layout.boxes[a_node as usize];
        let slots = &vind[start as usize..(start + count) as usize];

        candidates.clear();
        stack.clear();
        stack.push(0);
        while let Some(id) = stack.pop() {
            stats.nodes_visited += 1;
            let id = id as usize;
            if (!unbounded && (layout.last[id] as usize) < a)
                || box_dist_sq(&a_box, &layout.boxes[id]) > reach_sq
            {
                continue;
            }
            match nodes[id] {
                Node::Leaf { .. } => candidates.push(layout.last[id]),
                Node::Interior { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        stats.leaf_visits += candidates.len() as u64;

        for &idx in slots {
            let p = points[idx as usize];
            if !query_is_searchable(p) {
                continue;
            }
            let mut root = sets.find(idx);
            visits.clear();
            for &b in &candidates {
                let visit = leaves[b as usize];
                if whole[b as usize] && sets.find(vind[visit.1 as usize]) == root {
                    continue;
                }
                if point_dist_sq(p, &layout.boxes[visit.0 as usize]) <= reach_sq {
                    visits.push(visit);
                }
            }
            hits.clear();
            engine.sweep_visited(&visits, p, tolerance, &mut hits, stats);
            for hit in &hits {
                root = sets.join(root, hit.index);
            }
        }

        if let Some((&first, rest)) = slots.split_first() {
            let r = sets.find(first);
            whole[a] = rest.iter().all(|&i| sets.find(i) == r);
        }
    }
    sets.into_clusters(min_size, max_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_emit_clusters_by_smallest_member() {
        let mut sets = DisjointSets::new(6);
        let r = sets.find(4);
        let r = sets.join(r, 1);
        sets.join(r, 5);
        let r = sets.find(3);
        sets.join(r, 0);
        assert_eq!(
            sets.into_clusters(1, 10),
            vec![vec![0, 3], vec![1, 4, 5], vec![2]]
        );
    }

    #[test]
    fn size_filter_drops_small_and_large_sets() {
        let mut sets = DisjointSets::new(6);
        let r = sets.find(0);
        let r = sets.join(r, 1);
        sets.join(r, 2);
        let r = sets.find(3);
        sets.join(r, 4);
        assert_eq!(sets.into_clusters(2, 2), vec![vec![3, 4]]);
    }

    #[test]
    fn box_distances_treat_empty_boxes_as_unreachable() {
        let mut b = EMPTY;
        insert(&mut b, Point3::new(1.0, 2.0, 3.0));
        insert(&mut b, Point3::new(2.0, 2.0, 3.0));
        assert_eq!(point_dist_sq(Point3::new(1.5, 2.0, 3.0), &b), 0.0);
        assert_eq!(point_dist_sq(Point3::new(4.0, 2.0, 3.0), &b), 4.0);
        assert_eq!(box_dist_sq(&b, &b), 0.0);
        assert_eq!(box_dist_sq(&b, &EMPTY), f32::INFINITY);
        assert_eq!(box_dist_sq(&EMPTY, &EMPTY), f32::INFINITY);
        assert_eq!(point_dist_sq(Point3::ZERO, &EMPTY), f32::INFINITY);
    }
}
