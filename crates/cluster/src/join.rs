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
//! direction only. The join therefore:
//!
//! 1. lays the tree out: the exact box of the finite points under every
//!    node, filled children first over a stack-built pre-order read
//!    backwards, and the points in slot order as `x`/`y`/`z` lanes;
//! 2. compares each leaf with itself in one leaf block
//!    ([`RadiusSearchEngine::leaf_hit_masks`]: the leaf decoded once,
//!    one slot mask per query; its finite points query, non-finite ones
//!    are only hit) and merges the masks into local components, the
//!    elements of the union-find. Every leaf has them before step 3;
//! 3. walks node pairs `(N, M)` once from `(root, root)`, `N`'s leaves
//!    at or before `M`'s, pruning pairs whose boxes lie out of reach,
//!    and compares each pair of leaves `(A, B)` as it finds it, with the
//!    points of `A` that can reach `B`'s box (one branch-free prune over
//!    `A`'s lanes) as queries. If `B`'s components share one set, a
//!    component of `A` in it sends none and one outside it sends its
//!    queries one at a time up to the first hit; else they go in one
//!    block. An unbounded radius also compares `B` with `A`;
//! 4. reads the clusters off the point → component → root table; a
//!    point no leaf holds (deleted from a mutable tree) is a cluster of
//!    its own.
//!
//! The box tests only prune. They compare against the radius grown by
//! [`GROWTH`] (plus [`FLOOR`]), which covers every rounding of an
//! `f32` distance the kernel can compare at or below `r²`; only the
//! leaf blocks decide membership, with the sweep kernels' own lane
//! arithmetic, so the components are exactly the ones the per-point
//! BFS grows.

use bonsai_core::RadiusSearchEngine;
use bonsai_geom::Point3;
use bonsai_kdtree::simd::BLOCK_SLOTS;
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

const EMPTY: Bounds = [INF, INF, INF, -INF, -INF, -INF];
const INF: f32 = f32::INFINITY;

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
/// finite or the empty box's infinities, and so are the operands of
/// every gap whose result is used, so a plain compare-select suffices.
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

/// The points in slot order (`lanes[0][s]` is the `x` of `vind[s]`),
/// padded by one block, so any leaf's slots load as one full block.
struct Lanes([Vec<f32>; 3]);

impl Lanes {
    fn point(&self, s: usize) -> Point3 {
        Point3::new(self.0[0][s], self.0[1][s], self.0[2][s])
    }

    /// The slots `start..start + BLOCK_SLOTS` (bit `j` for slot
    /// `start + j`) whose point lies within `reach_sq` of `b`. Only the
    /// bits of finite points mean anything; the caller masks the rest.
    #[inline]
    fn reach(&self, start: usize, b: &Bounds, reach_sq: f32) -> u32 {
        let [x, y, z] = self.0.each_ref().map(|v| &v[start..start + BLOCK_SLOTS]);
        let mut mask = 0;
        for j in 0..BLOCK_SLOTS {
            let gx = gap(b[0] - x[j], x[j] - b[3]);
            let gy = gap(b[1] - y[j], y[j] - b[4]);
            let gz = gap(b[2] - z[j], z[j] - b[5]);
            mask |= u32::from(gx * gx + gy * gy + gz * gz <= reach_sq) << j;
        }
        mask
    }
}

/// Per node id, the box of the finite points below it; per leaf also its
/// slots, the ones holding finite points (bit `j` for slot `start + j`:
/// its queries) and its local components `first..first + len`.
#[derive(Clone, Copy, Default)]
struct Cell {
    bounds: Bounds,
    start: u32,
    count: u32,
    finite: u32,
    first: u32,
    len: u32,
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let j = mask.trailing_zeros();
        mask &= mask.wrapping_sub(1);
        (j < 32).then_some(j)
    })
}

/// One frame's join (see the [module docs](self)): the tree's layout,
/// every leaf's local components, and the radius.
struct SelfJoin<'e, 't> {
    engine: &'e RadiusSearchEngine<'t>,
    tolerance: f32,
    reach_sq: f32,
    cells: Vec<Cell>,
    lanes: Lanes,
    /// Per local component, its slots in its leaf.
    comps: Vec<u32>,
    /// Per point, its component.
    of_point: Vec<u32>,
}

impl<'e, 't> SelfJoin<'e, 't> {
    /// Steps 1 and 2 over `engine`'s non-empty tree.
    fn new(engine: &'e RadiusSearchEngine<'t>, tolerance: f32, stats: &mut SearchStats) -> Self {
        let tree = engine.tree();
        let (nodes, vind) = (tree.nodes(), tree.vind());
        let mut join = SelfJoin {
            engine,
            tolerance,
            reach_sq: (tolerance * GROWTH + FLOOR).powi(2),
            cells: vec![Cell::default(); nodes.len()],
            lanes: Lanes(std::array::from_fn(|_| vec![0.0; vind.len() + BLOCK_SLOTS])),
            comps: Vec::new(),
            of_point: vec![u32::MAX; tree.points().len()],
        };
        let (mut order, mut stack) = (Vec::with_capacity(nodes.len()), vec![0]);
        while let Some(id) = stack.pop() {
            order.push(id);
            if let Node::Interior { left, right, .. } = nodes[id as usize] {
                stack.extend([right, left]);
            }
        }
        join.lay_out(&order, stats);
        // A point no leaf holds (deleted from a mutable tree) is a
        // component of its own, with no slots.
        for c in join.of_point.iter_mut().filter(|c| **c == u32::MAX) {
            *c = join.comps.len() as u32;
            join.comps.push(0);
        }
        join
    }

    /// Steps 1 and 2 from `order`, the tree's nodes in pre-order:
    /// backwards, every node's children come before it.
    fn lay_out(&mut self, order: &[u32], stats: &mut SearchStats) {
        let tree = self.engine.tree();
        let (nodes, vind, points) = (tree.nodes(), tree.vind(), tree.points());
        let (cells, [x, y, z]) = (&mut self.cells, &mut self.lanes.0);
        let mut queries = [Point3::ZERO; BLOCK_SLOTS];
        let mut qslot = [0u8; BLOCK_SLOTS];
        let mut masks = [0u32; BLOCK_SLOTS];
        for &id in order.iter().rev() {
            let (start, count) = match nodes[id as usize] {
                Node::Interior { left, right, .. } => {
                    let (l, r) = (&cells[left as usize].bounds, &cells[right as usize].bounds);
                    cells[id as usize].bounds = union(l, r);
                    continue;
                }
                Node::Leaf { start, count, .. } => (start, count),
            };
            let (cell, mut n) = (&mut cells[id as usize], 0);
            (cell.bounds, cell.start, cell.count) = (EMPTY, start, count);
            for (j, s) in (start as usize..(start + count) as usize).enumerate() {
                let p = points[vind[s] as usize];
                (x[s], y[s], z[s]) = (p.x, p.y, p.z);
                if query_is_searchable(p) {
                    insert(&mut cell.bounds, p);
                    cell.finite |= 1 << j;
                    (queries[n], qslot[n]) = (p, j as u8);
                    n += 1;
                }
            }
            // The self pair: the leaf's local components.
            let (visit, masks) = ((id, start, count), &mut masks[..n]);
            self.engine
                .leaf_hit_masks(visit, &queries[..n], self.tolerance, masks, stats);
            cell.first = self.comps.len() as u32;
            push_local_components(masks, &qslot[..n], count, &mut self.comps);
            cell.len = self.comps.len() as u32 - cell.first;
            for (c, &slots) in (cell.first..).zip(&self.comps[cell.first as usize..]) {
                for j in bits(slots) {
                    self.of_point[vind[(start + j) as usize] as usize] = c;
                }
            }
        }
    }

    /// Step 3 for one pair of leaves: `a`'s queries against `b`.
    fn cross(&self, sets: &mut DisjointSets, a: u32, b: u32, stats: &mut SearchStats) {
        let (lanes, comps) = (&self.lanes, &self.comps);
        let (ca, cb) = (self.cells[a as usize], self.cells[b as usize]);
        let (a_comps, b_comps) = (ca.first..ca.first + ca.len, cb.first..cb.first + cb.len);
        if b_comps.is_empty() {
            return;
        }
        let mut rb = sets.find(cb.first);
        let whole = b_comps.clone().all(|d| sets.find(d) == rb);
        // Leaves that are one set already have nothing to link.
        if whole && a_comps.clone().all(|c| sets.find(c) == rb) {
            return;
        }
        let reach = lanes.reach(ca.start as usize, &cb.bounds, self.reach_sq) & ca.finite;
        let (b, tolerance) = ((b, cb.start, cb.count), self.tolerance);
        let mut block = [Point3::ZERO; BLOCK_SLOTS];
        let mut from = [0u32; BLOCK_SLOTS];
        let mut masks = [0u32; BLOCK_SLOTS];
        let mut m = 0;
        for c in a_comps {
            let q = comps[c as usize] & reach;
            if !whole {
                for j in bits(q) {
                    (block[m], from[m]) = (lanes.point((ca.start + j) as usize), c - ca.first);
                    m += 1;
                }
                continue;
            }
            if q == 0 || sets.find(c) == rb {
                continue;
            }
            // One hit links the component with all of `b`.
            for j in bits(q) {
                let query = [lanes.point((ca.start + j) as usize)];
                self.engine
                    .leaf_hit_masks(b, &query, tolerance, &mut masks[..1], stats);
                if masks[0] != 0 {
                    rb = sets.join(c, rb);
                    break;
                }
            }
        }
        if m == 0 {
            return;
        }
        self.engine
            .leaf_hit_masks(b, &block[..m], tolerance, &mut masks[..m], stats);
        // Per component of `a`, the slots of `b` its queries reach.
        let mut reached = [0u32; BLOCK_SLOTS];
        for (&c, &mask) in from[..m].iter().zip(&masks[..m]) {
            reached[c as usize] |= mask;
        }
        for (c, &hit) in (ca.first..).zip(&reached[..ca.len as usize]) {
            for d in b_comps.clone().filter(|&d| comps[d as usize] & hit != 0) {
                sets.join(c, d);
            }
        }
    }
}

/// Appends a leaf's local components to `comps`, merging the
/// overlapping hit masks of its self pair: query `k` (slot `qslot[k]`)
/// reaches the slots of `masks[k]`, so they share its component. A slot
/// no query reaches — a non-finite point out of every query's reach —
/// is a component of its own.
fn push_local_components(masks: &[u32], qslot: &[u8], count: u32, comps: &mut Vec<u32>) {
    let first = comps.len();
    for (&m, &q) in masks.iter().zip(qslot) {
        let mut s = m | 1 << q;
        let mut i = first;
        while i < comps.len() {
            if comps[i] & s != 0 {
                s |= comps.swap_remove(i);
            } else {
                i += 1;
            }
        }
        comps.push(s);
    }
    let covered = comps[first..].iter().fold(0, |a, &s| a | s);
    comps.extend(bits(!covered & ((1u32 << count) - 1)).map(|j| 1 << j));
}

/// Step 3's walk: hands every pair of leaves `(A, B)`, `A` at or before
/// `B` in pre-order (self pairs included), whose boxes lie within
/// `reach_sq` to `f` as soon as it finds it. Returns the node pairs it
/// visited.
fn leaf_pairs(nodes: &[Node], cells: &[Cell], reach_sq: f32, mut f: impl FnMut(u32, u32)) -> u64 {
    let children = |id: u32| match nodes[id as usize] {
        Node::Interior { left, right, .. } => Some((left, right)),
        Node::Leaf { .. } => None,
    };
    let mut visited = 0;
    let mut stack = vec![(0u32, 0u32)];
    while let Some((n, m)) = stack.pop() {
        visited += 1;
        if box_dist_sq(&cells[n as usize].bounds, &cells[m as usize].bounds) > reach_sq {
            continue;
        }
        match (children(n), children(m)) {
            (None, None) => f(n, m),
            (None, Some((l, r))) => stack.extend([(n, r), (n, l)]),
            (Some((l, r)), None) => stack.extend([(r, m), (l, m)]),
            (Some((l, r)), Some(_)) if n == m => stack.extend([(r, r), (l, r), (l, l)]),
            (Some((l, r)), Some((ml, mr))) => stack.extend([(r, mr), (r, ml), (l, mr), (l, ml)]),
        }
    }
    visited
}

/// Union-find over component ids. A set's root is its smallest member
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
        while self.parent[i as usize] != i {
            let g = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = g;
            i = g;
        }
        i
    }

    /// Joins the sets of `i` and `j`; returns the joined set's root.
    fn join(&mut self, i: u32, j: u32) -> u32 {
        let (a, b) = (self.find(i), self.find(j));
        self.parent[a.max(b) as usize] = a.min(b);
        a.min(b)
    }

    /// The points' sets as clusters (`roots[i]`: point `i`'s component
    /// on entry), size-filtered like the BFS: members ascending,
    /// clusters in order of their smallest member.
    fn into_clusters(mut self, mut roots: Vec<u32>, min: usize, max: usize) -> Vec<Vec<u32>> {
        let mut size = vec![0; self.parent.len()];
        for r in &mut roots {
            *r = self.find(*r);
            size[*r as usize] += 1;
        }
        // A set's smallest member meets its root first and opens its
        // cluster, or drops the set.
        let mut slot: Vec<Option<Option<usize>>> = vec![None; size.len()];
        let mut clusters: Vec<Vec<u32>> = Vec::new();
        for (i, &r) in (0..).zip(&roots) {
            let size = size[r as usize];
            let slot = slot[r as usize].get_or_insert_with(|| {
                (min..=max).contains(&size).then(|| {
                    clusters.push(Vec::with_capacity(size));
                    clusters.len() - 1
                })
            });
            if let Some(k) = *slot {
                clusters[k].push(i);
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
/// `stats` counts the join's own work: `nodes_visited` the node pairs
/// its walk visits, `leaf_visits` the leaf pairs it finds (self pairs
/// included), `points_inspected` the slots evaluated per (query, leaf)
/// pair, and `fallbacks` and `point_bytes_loaded` what the leaf blocks
/// count. A non-searchable `tolerance` finds no edge, as under the BFS.
pub(crate) fn self_join_clusters(
    engine: &RadiusSearchEngine<'_>,
    tolerance: f32,
    min_size: usize,
    max_size: usize,
    stats: &mut SearchStats,
) -> Vec<Vec<u32>> {
    let (nodes, points) = (engine.tree().nodes(), engine.tree().points());
    if nodes.is_empty() || !radius_is_searchable(tolerance) {
        let alone = (0..points.len() as u32).collect();
        return DisjointSets::new(points.len()).into_clusters(alone, min_size, max_size);
    }
    let join = SelfJoin::new(engine, tolerance, stats);
    let mut sets = DisjointSets::new(join.comps.len());
    // When `r²` overflows, infinite distances compare within it too:
    // nothing is pruned, and leaves pair in both directions (an infinite
    // point is never a query, but it is a hit).
    let unbounded = !(tolerance * tolerance).is_finite();
    let mut pairs = 0;
    stats.nodes_visited += leaf_pairs(nodes, &join.cells, join.reach_sq, |a, b| {
        pairs += 1;
        if a != b {
            join.cross(&mut sets, a, b, stats);
            if unbounded {
                join.cross(&mut sets, b, a, stats);
            }
        }
    });
    stats.leaf_visits += pairs;
    sets.into_clusters(join.of_point, min_size, max_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::bfs_connected_clusters;
    use bonsai_kdtree::{KdTree, KdTreeConfig};
    use bonsai_sim::SimEngine;

    /// `n` points in a `50 × 50 × 5` box, deterministic in `seed`.
    fn random_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        (0..n)
            .map(|_| Point3::new(next() * 50.0, next() * 50.0, next() * 5.0))
            .collect()
    }

    /// The leaves of `nodes` in pre-order, left first, by a stack walk.
    fn preorder_leaves(nodes: &[Node]) -> Vec<u32> {
        let (mut leaves, mut stack) = (Vec::new(), vec![0u32]);
        while let Some(id) = stack.pop() {
            match nodes[id as usize] {
                Node::Leaf { .. } => leaves.push(id),
                Node::Interior { left, right, .. } => stack.extend([right, left]),
            }
        }
        leaves
    }

    /// The box of the finite points under `id`, by recursion.
    fn subtree_box(tree: &KdTree, id: u32) -> Bounds {
        match tree.nodes()[id as usize] {
            Node::Leaf { start, count, .. } => {
                let mut b = EMPTY;
                for &i in &tree.vind()[start as usize..(start + count) as usize] {
                    let p = tree.points()[i as usize];
                    if query_is_searchable(p) {
                        insert(&mut b, p);
                    }
                }
                b
            }
            Node::Interior { left, right, .. } => {
                union(&subtree_box(tree, left), &subtree_box(tree, right))
            }
        }
    }

    fn tree_with_leaves(cloud: &[Point3], leaf: usize) -> KdTree {
        let cfg = KdTreeConfig {
            max_leaf_points: leaf,
            ..KdTreeConfig::default()
        };
        KdTree::build(cloud.to_vec(), cfg, &mut SimEngine::disabled())
    }

    #[test]
    fn sets_emit_clusters_by_smallest_member() {
        // Points 0..7 in components [2, 0, 3, 1, 0, 4, 5].
        let of_point = vec![2, 0, 3, 1, 0, 4, 5];
        let mut sets = DisjointSets::new(6);
        sets.join(0, 4);
        sets.join(1, 2);
        assert_eq!(
            sets.into_clusters(of_point, 1, 10),
            vec![vec![0, 3], vec![1, 4, 5], vec![2], vec![6]]
        );
    }

    #[test]
    fn size_filter_drops_small_and_large_sets() {
        let of_point = vec![0, 1, 2, 3, 4, 5, 6];
        let mut sets = DisjointSets::new(7);
        sets.join(0, 1);
        sets.join(2, 1);
        sets.join(3, 4);
        assert_eq!(sets.into_clusters(of_point, 2, 2), vec![vec![3, 4]]);
    }

    #[test]
    fn local_components_merge_overlapping_masks() {
        // Six slots; slots 2 and 5 are non-finite (no query). Slot 2 is
        // hit by the query at slot 3; slot 5 by none. The query at slot
        // 4 reaches slot 1, joining its component with {0, 1}. The
        // components land after the ones already there.
        let qslot = [0u8, 1, 3, 4];
        let masks = [0b00_0011, 0b00_0011, 0b00_1100, 0b01_0010];
        let mut comps = vec![0b1];
        push_local_components(&masks, &qslot, 6, &mut comps);
        assert_eq!(comps[0], 0b1);
        comps[1..].sort_unstable();
        assert_eq!(comps[1..], [0b00_1100, 0b01_0011, 0b10_0000]);
    }

    #[test]
    fn box_distances_treat_empty_boxes_as_unreachable() {
        let mut b = EMPTY;
        insert(&mut b, Point3::new(1.0, 2.0, 3.0));
        insert(&mut b, Point3::new(2.0, 2.0, 3.0));
        assert_eq!(box_dist_sq(&b, &b), 0.0);
        assert_eq!(box_dist_sq(&b, &EMPTY), f32::INFINITY);
        assert_eq!(box_dist_sq(&EMPTY, &EMPTY), f32::INFINITY);
        // Lanes: slot 0 inside `b`, slot 1 two units off, slot 2 three.
        let lane = |v: [f32; 3]| {
            let mut l = vec![0.0; 3 + BLOCK_SLOTS];
            l[..3].copy_from_slice(&v);
            l
        };
        let lanes = Lanes([lane([1.5, 4.0, 5.0]), lane([2.0; 3]), lane([3.0; 3])]);
        assert_eq!(lanes.reach(0, &b, 4.0) & 0b111, 0b011);
        assert_eq!(lanes.reach(0, &b, 9.0) & 0b111, 0b111);
        assert_eq!(lanes.reach(0, &EMPTY, 1e30) & 0b111, 0);
        assert_eq!(lanes.reach(0, &EMPTY, f32::INFINITY) & 0b111, 0b111);
    }

    /// The dual walk finds exactly the pairs of leaves `A ≤ B` (in
    /// pre-order) whose boxes pass the prune, as a loop over every pair
    /// does: random clouds, leaves of 1 to 16 points, leaves holding
    /// only non-finite points (empty boxes), and an unbounded radius.
    #[test]
    fn leaf_pairs_match_brute_force() {
        let mut clouds = vec![random_cloud(300, 1), random_cloud(57, 2)];
        let mut degenerate = random_cloud(80, 3);
        degenerate.extend([Point3::splat(f32::NAN); 20]);
        degenerate.extend([Point3::new(f32::INFINITY, 0.0, 0.0); 20]);
        degenerate.extend([Point3::new(1.0, f32::NEG_INFINITY, 2.0); 3]);
        clouds.push(degenerate);
        let mut empty_boxes = 0;
        for cloud in &clouds {
            for leaf in 1..=16 {
                let tree = tree_with_leaves(cloud, leaf);
                let engine = RadiusSearchEngine::baseline(&tree);
                let leaves = preorder_leaves(tree.nodes());
                for tolerance in [0.3, 2.0, 2e19] {
                    let join = SelfJoin::new(&engine, tolerance, &mut SearchStats::default());
                    let cells = &join.cells;
                    empty_boxes += leaves
                        .iter()
                        .filter(|&&id| cells[id as usize].bounds == EMPTY)
                        .count();
                    let mut walk = Vec::new();
                    leaf_pairs(tree.nodes(), cells, join.reach_sq, |a, b| walk.push((a, b)));
                    let mut brute = Vec::new();
                    for (i, &a) in leaves.iter().enumerate() {
                        for &b in &leaves[i..] {
                            let (ba, bb) = (&cells[a as usize].bounds, &cells[b as usize].bounds);
                            if box_dist_sq(ba, bb) <= join.reach_sq {
                                brute.push((a, b));
                            }
                        }
                    }
                    walk.sort_unstable();
                    brute.sort_unstable();
                    assert_eq!(walk, brute, "leaf {leaf}, r {tolerance}");
                }
            }
        }
        assert!(empty_boxes > 0, "no leaf held only non-finite points");
    }

    /// A tree grown by inserts and hollowed by deletes numbers its nodes
    /// out of pre-order, leaves some ids unreachable and holds points in
    /// no leaf: the layout still gives every reachable node its exact
    /// box, and the join finds the BFS's clusters over the live points,
    /// with each deleted point a cluster of its own.
    #[test]
    fn layout_and_join_follow_a_mutated_tree() {
        let mut sim = SimEngine::disabled();
        let cloud = random_cloud(400, 4);
        let mut tree = KdTree::build(cloud[..200].to_vec(), KdTreeConfig::default(), &mut sim);
        for &p in &cloud[200..] {
            tree.insert(&mut sim, p);
        }
        for idx in (0..400).step_by(7) {
            assert!(tree.delete(&mut sim, idx));
        }
        let (mut reachable, mut stack) = (Vec::new(), vec![0u32]);
        while let Some(id) = stack.pop() {
            reachable.push(id);
            if let Node::Interior { left, right, .. } = tree.nodes()[id as usize] {
                stack.extend([right, left]);
            }
        }
        let preorder_ids = (0..reachable.len() as u32).eq(reachable.iter().copied());
        assert!(!preorder_ids, "the mutated tree kept its pre-order ids");
        let engine = RadiusSearchEngine::baseline(&tree);
        let layout = SelfJoin::new(&engine, 1.0, &mut SearchStats::default());
        for &id in &reachable {
            assert_eq!(layout.cells[id as usize].bounds, subtree_box(&tree, id));
        }
        let n = tree.points().len() as u32;
        let alive: Vec<bool> = (0..n).map(|i| tree.is_live(i)).collect();
        for tolerance in [0.5, 1.5] {
            let join = self_join_clusters(
                &engine,
                tolerance,
                1,
                usize::MAX,
                &mut SearchStats::default(),
            );
            let mut want = bfs_connected_clusters(
                tree.points(),
                Some(&alive),
                1,
                usize::MAX,
                &mut SearchStats::default(),
                |queries, batch| engine.search_batch(queries, tolerance, batch),
            );
            want.extend((0..n).filter(|&i| !alive[i as usize]).map(|i| vec![i]));
            want.sort_unstable_by_key(|c| c[0]);
            assert_eq!(join, want, "r {tolerance}");
        }
    }
}
