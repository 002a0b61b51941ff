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
//! 2. for every leaf `A`, compares `A` with itself in one leaf block
//!    ([`RadiusSearchEngine::leaf_hit_masks`]: the leaf decoded once,
//!    one slot mask per query) with its finite points as the queries,
//!    merges the overlapping masks into `A`'s local components and
//!    links every member slot (non-finite points too: they are hit,
//!    never query);
//! 3. walks the tree once, pruning every subtree whose box lies farther
//!    than the grown radius from `A`'s box or whose leaves all precede
//!    `A`; the leaves it reaches are `A`'s candidates `B > A`;
//! 4. compares each candidate `B` in one leaf block with the points of
//!    `A` that can reach `B`'s box (a branch-free pre-mask) and links
//!    what they hit, per local component of `A`. When `B`'s points
//!    already share one set, a component already in that set sends no
//!    query, so a pair whose leaves are one set already is skipped.
//!
//! The box tests only prune. They compare against the radius grown by
//! [`GROWTH`] (plus [`FLOOR`]), which covers every rounding of an
//! `f32` distance the kernel can compare at or below `r²`; only the
//! leaf blocks decide membership, with the sweep kernels' own lane
//! arithmetic, so the components are exactly the ones the per-point
//! BFS grows.

use bonsai_core::RadiusSearchEngine;
use bonsai_geom::Point3;
use bonsai_kdtree::simd::{LeafVisit, BLOCK_SLOTS};
use bonsai_kdtree::{query_is_searchable, radius_is_searchable, Node, SearchStats};

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

/// A leaf's local components, from its self pair: each a slot mask
/// (bit `j` for slot `start + j`) and its member queries, one bit per
/// query of the leaf's block.
struct LocalComponents {
    /// Slot masks, pairwise disjoint, covering every slot.
    slots: [u32; BLOCK_SLOTS],
    /// Per component, the bits of its member queries.
    queries: [u32; BLOCK_SLOTS],
    /// Per query, its component.
    of_query: [u8; BLOCK_SLOTS],
    /// Per component, one member's point index.
    rep: [u32; BLOCK_SLOTS],
    len: usize,
}

impl LocalComponents {
    /// Merges the overlapping hit masks of the self pair: query `k`
    /// (slot `qslot[k]`) reaches the slots of `masks[k]`, so they share
    /// its component. A slot no query reaches — a non-finite point out
    /// of every query's reach — is a component of its own.
    fn of(masks: &[u32], qslot: &[u8], slots: &[u32]) -> LocalComponents {
        let mut c = LocalComponents {
            slots: [0; BLOCK_SLOTS],
            queries: [0; BLOCK_SLOTS],
            of_query: [0; BLOCK_SLOTS],
            rep: [0; BLOCK_SLOTS],
            len: 0,
        };
        for (&m, &q) in masks.iter().zip(qslot) {
            // Components are disjoint, so what `s` absorbs cannot meet a
            // component already passed over.
            let mut s = m | 1 << q;
            let mut i = 0;
            while i < c.len {
                if c.slots[i] & s != 0 {
                    s |= c.slots[i];
                    c.len -= 1;
                    c.slots[i] = c.slots[c.len];
                } else {
                    i += 1;
                }
            }
            c.slots[c.len] = s;
            c.len += 1;
        }
        let covered = c.slots[..c.len].iter().fold(0, |a, &s| a | s);
        let mut alone = !covered & ((1u32 << slots.len()) - 1);
        while alone != 0 {
            c.slots[c.len] = alone & alone.wrapping_neg();
            c.len += 1;
            alone &= alone - 1;
        }
        for i in 0..c.len {
            c.rep[i] = slots[c.slots[i].trailing_zeros() as usize];
            for (k, &q) in qslot.iter().enumerate() {
                if c.slots[i] >> q & 1 != 0 {
                    c.queries[i] |= 1 << k;
                    c.of_query[k] = i as u8;
                }
            }
        }
        c
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
/// `points_inspected` the slots evaluated per (query, leaf) pair, and
/// `fallbacks` and `point_bytes_loaded` what the leaf blocks count
/// (each swept leaf's bytes once per block). A non-searchable
/// `tolerance` finds no edge: every point is its own component, as
/// under the BFS.
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
    let mut stack: Vec<u32> = Vec::new();
    let mut queries = [Point3::ZERO; BLOCK_SLOTS];
    let mut qslot = [0u8; BLOCK_SLOTS];
    let mut masks = [0u32; BLOCK_SLOTS];
    let mut block = [Point3::ZERO; BLOCK_SLOTS];
    let mut from = [0u8; BLOCK_SLOTS];
    for a in (0..leaves.len()).rev() {
        let (a_node, start, count) = leaves[a];
        let slots = &vind[start as usize..(start + count) as usize];

        // The leaf's finite points are its queries.
        let mut n = 0;
        for (j, &idx) in slots.iter().enumerate() {
            let p = points[idx as usize];
            if query_is_searchable(p) {
                queries[n] = p;
                qslot[n] = j as u8;
                n += 1;
            }
        }
        let queries = &queries[..n];

        // The self pair: the leaf's local components, every member
        // linked (non-finite members too: they are hit, never query).
        engine.leaf_hit_masks(leaves[a], queries, tolerance, &mut masks[..n], stats);
        let local = LocalComponents::of(&masks[..n], &qslot[..n], slots);
        for c in 0..local.len {
            let mut rest = local.slots[c] & (local.slots[c] - 1);
            let mut root = sets.find(local.rep[c]);
            while rest != 0 {
                root = sets.join(root, slots[rest.trailing_zeros() as usize]);
                rest &= rest - 1;
            }
        }

        // The leaf's walk finds its candidates `b ≥ a` (and, unbounded,
        // every leaf); a leaf without queries sweeps nothing.
        candidates.clear();
        if n > 0 {
            let a_box = layout.boxes[a_node as usize];
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
        }

        for &b in &candidates {
            let b = b as usize;
            if b == a {
                continue;
            }
            let visit = leaves[b];
            let b_slots = &vind[visit.1 as usize..(visit.1 + visit.2) as usize];
            // The queries that can reach `b`'s box (the per-point
            // prune, branch-free), less the components that already
            // share `b`'s one set.
            let b_box = &layout.boxes[visit.0 as usize];
            let mut reach = 0u32;
            for (k, &p) in queries.iter().enumerate() {
                reach |= u32::from(point_dist_sq(p, b_box) <= reach_sq) << k;
            }
            if whole[b] {
                let rb = sets.find(b_slots[0]);
                for c in 0..local.len {
                    if reach & local.queries[c] != 0 && sets.find(local.rep[c]) == rb {
                        reach &= !local.queries[c];
                    }
                }
            }
            if reach == 0 {
                continue;
            }
            let mut m = 0;
            let mut bits = reach;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                block[m] = queries[k];
                from[m] = k as u8;
                m += 1;
                bits &= bits - 1;
            }
            engine.leaf_hit_masks(visit, &block[..m], tolerance, &mut masks[..m], stats);
            // Per component of `a`, the slots of `b` its queries reach.
            let mut reached = [0u32; BLOCK_SLOTS];
            for (&k, &mask) in from[..m].iter().zip(&masks[..m]) {
                reached[local.of_query[k as usize] as usize] |= mask;
            }
            for (c, &hit) in reached[..local.len].iter().enumerate() {
                if hit == 0 {
                    continue;
                }
                let mut root = sets.find(local.rep[c]);
                let mut hit = hit;
                while hit != 0 {
                    root = sets.join(root, b_slots[hit.trailing_zeros() as usize]);
                    hit &= hit - 1;
                }
            }
        }

        if local.len > 0 {
            let r = sets.find(local.rep[0]);
            whole[a] = (1..local.len).all(|c| sets.find(local.rep[c]) == r);
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
    fn local_components_merge_overlapping_masks() {
        // Six slots; slots 2 and 5 are non-finite (no query). Slot 2 is
        // hit by the query at slot 3; slot 5 by none. The query at slot
        // 4 reaches slot 1, joining its component with {0, 1}.
        let slots = [10, 11, 12, 13, 14, 15];
        let qslot = [0u8, 1, 3, 4];
        let masks = [0b00_0011, 0b00_0011, 0b00_1100, 0b01_0010];
        let c = LocalComponents::of(&masks, &qslot, &slots);
        let mut comps = c.slots[..c.len].to_vec();
        comps.sort_unstable();
        assert_eq!(comps, [0b00_1100, 0b01_0011, 0b10_0000]);
        for i in 0..c.len {
            let rep = slots.iter().position(|&s| s == c.rep[i]).unwrap();
            assert_ne!(c.slots[i] & 1 << rep, 0, "component {i}");
            for (k, &q) in qslot.iter().enumerate() {
                let member = c.slots[i] >> q & 1 != 0;
                assert_eq!(
                    c.queries[i] >> k & 1 != 0,
                    member,
                    "component {i}, query {k}"
                );
                assert_eq!(
                    c.of_query[k] as usize == i,
                    member,
                    "component {i}, query {k}"
                );
            }
        }
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
