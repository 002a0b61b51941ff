//! Sharded multi-tree radius-search serving.
//!
//! One tree per frame caps both the memory footprint a single
//! `CompressedDirectory` must hold and the rebuild latency a frame pays
//! before its first query. A [`ShardRouter`] instead median-cuts the
//! cloud into `K` spatial shards, builds an independent
//! [`KdTree`]/[`BonsaiTree`] per shard (fanned out over threads with the
//! `parallel` feature). Reads go through a [`RouterSnapshot`], which
//! serves a [`QueryBatch`] by routing every query to exactly the shards
//! whose bounding box intersects the query ball — the ikd-Tree idiom of
//! many independently updated and queried spatial regions.
//!
//! **Exactness.** Per-point membership is independent of tree shape in
//! every mode: the baseline scan computes the same `f32` distance from
//! the same coordinates, and the compressed scan classifies each point
//! from its f16 approximation and per-point error bound, falling back
//! to the exact `f32` point inside the shell. Routing never loses a
//! neighbor either, because [`Aabb::intersects_ball`] under-estimates
//! the distance to every contained point. The router therefore
//! returns, for every query, the same neighbor set as a single-tree
//! [`RadiusSearchEngine`] over the whole cloud, with bit-identical
//! baseline `dist_sq` values — property-tested at the workspace root
//! for both modes (Baseline / Bonsai). A compressed conclusive hit
//! reports the `d′²` of its *leaf-relative* f16 half, which also
//! depends on the origin of the leaf holding the point, so shard trees
//! may report other approximate distances than one tree: each is
//! exactly what the point's own leaf reports, within the shell's bound
//! of the exact one, and bit-identical wherever the leaf origins agree
//! ([`check_compressed_hits`](crate::shell::check_compressed_hits),
//! with [`RouterSnapshot::point_origins`]). Hits are emitted in ascending
//! global point index, a canonical order that is independent of the
//! shard layout (a single tree emits leaf order instead, so compare
//! after sorting). Traversal *counters* are aggregated per shard: they
//! equal the sum over shards of searching that shard's own engine with
//! the queries routed to it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bonsai_geom::{Aabb, Point3};
use bonsai_kdtree::{
    AuditViolation, BuildStats, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch,
    SearchStats, ViolationKind,
};
use bonsai_sim::SimEngine;

use crate::adapt::{
    find_best_split_plane_taxed, AdaptDecision, AdaptReport, AdaptState, LoadReport, RejectReason,
    ShardLoad, ShardLoadReport, ShardPolicy,
};
use crate::engine::{EngineMode, RadiusSearchEngine};
use crate::epoch::QueryError;
use crate::tree::BonsaiTree;

/// Sharding parameters of a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Desired shard count `K` (clamped to at least 1; a cloud with
    /// fewer points than shards gets one single-point shard per point).
    pub shards: usize,
    /// Threads used to build the shard trees: `0` uses the machine's
    /// available parallelism, `1` builds sequentially. Ignored (always
    /// sequential) without the `parallel` feature.
    pub build_threads: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            build_threads: 0,
        }
    }
}

impl ShardConfig {
    /// A configuration with `shards` shards and automatic build threads.
    pub fn with_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// One spatial shard: a contiguous region's points, their global
/// indices, and the per-shard tree.
///
/// `Clone` backs the copy-on-write epoch scheme: the router stores
/// `Arc<Shard>`, and a mutation clones a shard (via [`Arc::make_mut`])
/// only when a published [`RouterSnapshot`] still pins it — unpinned
/// shards mutate in place at zero copy cost.
#[derive(Debug, Clone)]
struct Shard {
    /// Tight bounding box of the shard's points (the routing test).
    aabb: Aabb,
    /// Shard-local point index → global cloud index (ascending after a
    /// build/rebuild; routed inserts append, possibly with recycled —
    /// smaller — global indices).
    global: Vec<u32>,
    tree: ShardTree,
    /// A quarantined shard is suspected corrupt: queries skip it
    /// (reported through [`ShardRouter::coverage`]), mutations never
    /// touch its tree, and
    /// [`rebuild_shards_from`](ShardRouter::rebuild_shards_from)
    /// re-admits it from authoritative coordinates.
    quarantined: bool,
    /// Deletes routed here while quarantined — the tree cannot be
    /// trusted to record them, so they are queued and resolved by the
    /// healing rebuild (which only re-admits points the caller lists as
    /// live).
    pending_deletes: Vec<u32>,
    /// Cumulative search-effort counters, shared by *identity*: the
    /// derived `Clone` clones the `Arc`, so copy-on-write copies and
    /// pinned snapshots keep charging the same accumulator, and the
    /// adaptive policy ([`ShardRouter::adapt_step`]) sees the load even
    /// when it arrived through a stale epoch. A rebuild/split/merge
    /// swaps in fresh counters with the fresh shard.
    load: Arc<ShardLoad>,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of shards per router
enum ShardTree {
    Baseline(KdTree),
    Bonsai(BonsaiTree),
}

impl ShardTree {
    fn kd(&self) -> &KdTree {
        match self {
            ShardTree::Baseline(t) => t,
            ShardTree::Bonsai(b) => b.kd_tree(),
        }
    }

    fn bonsai(&self) -> Option<&BonsaiTree> {
        match self {
            ShardTree::Baseline(_) => None,
            ShardTree::Bonsai(b) => Some(b),
        }
    }

    /// The borrowed single-tree engine that searches this shard.
    fn engine(&self) -> RadiusSearchEngine<'_> {
        match self {
            ShardTree::Baseline(t) => RadiusSearchEngine::baseline(t),
            ShardTree::Bonsai(b) => RadiusSearchEngine::bonsai(b),
        }
    }

    fn insert(&mut self, sim: &mut SimEngine, p: Point3) -> Option<u32> {
        match self {
            ShardTree::Baseline(t) => t.insert(sim, p),
            ShardTree::Bonsai(b) => b.insert(sim, p),
        }
    }

    fn delete(&mut self, sim: &mut SimEngine, local: u32) -> bool {
        match self {
            ShardTree::Baseline(t) => t.delete(sim, local),
            ShardTree::Bonsai(b) => b.delete(sim, local),
        }
    }

    /// Re-bakes pending dirty leaves (Bonsai) and drains the dirty log
    /// (baseline trees have no layered cache to invalidate).
    fn commit(&mut self, sim: &mut SimEngine) {
        match self {
            ShardTree::Baseline(t) => {
                t.drain_dirty_nodes();
            }
            ShardTree::Bonsai(b) => {
                b.commit(sim);
            }
        }
    }
}

/// Where one global point index lives: its shard and the shard-local
/// index.
#[derive(Debug, Clone, Copy)]
struct PointLoc {
    shard: u32,
    local: u32,
}

impl PointLoc {
    /// The entry of a dead point whose storage a shard rebuild
    /// reclaimed: the global index no longer resolves to any shard
    /// slot. Guarded in [`ShardRouter::delete`], because after a
    /// rebuild the old local index may name a *different* live point.
    const GONE: PointLoc = PointLoc {
        shard: u32::MAX,
        local: u32::MAX,
    };
}

/// When a [`ShardRouter`] shard is worth compacting — the
/// ikd-Tree-style criterion that triggers a rolling
/// [`rebuild_shard`](ShardRouter::rebuild_shard).
///
/// A shard's **waste** is its tree's abandoned `vind`/SoA slots
/// (`garbage_slots`) plus its dead points
/// (deleted entries still occupying the point array); its **footprint**
/// is total slots plus total points. The shard is rebuilt when
/// `waste ≥ garbage_ratio · footprint` and the footprint is at least
/// `min_points` (rebuilding a tiny shard costs more than the waste).
///
/// # Examples
///
/// ```
/// use bonsai_core::CompactionPolicy;
/// let policy = CompactionPolicy::default();
/// assert!(policy.should_compact(300, 1000));
/// assert!(!policy.should_compact(100, 1000));
/// assert!(!policy.should_compact(90, 100)); // below min_points
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Waste fraction that triggers a rebuild.
    pub garbage_ratio: f64,
    /// Minimum shard footprint (slots + points) worth rebuilding.
    pub min_points: usize,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            garbage_ratio: 0.25,
            min_points: 256,
        }
    }
}

impl CompactionPolicy {
    /// Whether a shard with `waste` wasted units out of a `footprint`
    /// total should be rebuilt under this policy.
    pub fn should_compact(&self, waste: usize, footprint: usize) -> bool {
        footprint >= self.min_points && waste as f64 >= self.garbage_ratio * footprint as f64
    }
}

/// What fraction of the indexed space a query answer covers: complete,
/// or missing the regions of quarantined shards.
///
/// Returned by [`ShardRouter::coverage`] and attached to every
/// streaming extraction so a downstream consumer can tell an
/// authoritative "no neighbors here" from "that region's shard is
/// offline pending a healing rebuild".
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// `true` when no shard is quarantined — results are exact over the
    /// whole live cloud.
    pub complete: bool,
    /// Bounding boxes of the quarantined shards' regions (empty when
    /// `complete`). Queries intersecting these boxes may be missing
    /// neighbors.
    pub offline: Vec<Aabb>,
}

impl Default for Coverage {
    fn default() -> Coverage {
        Coverage {
            complete: true,
            offline: Vec::new(),
        }
    }
}

/// A sharded multi-tree radius index: `K` spatial shards, each with
/// its own tree. The router owns mutation; every read goes through a
/// [`RouterSnapshot`] ([`snapshot`](ShardRouter::snapshot)), which has
/// the same batch API as the single-tree [`RadiusSearchEngine`].
///
/// See the module source docs (`core/src/shard.rs`) for the exactness
/// contract.
///
/// # Examples
///
/// ```
/// use bonsai_core::{ShardConfig, ShardRouter};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::{KdTreeConfig, QueryBatch};
///
/// let cloud: Vec<Point3> =
///     (0..400).map(|i| Point3::new((i % 20) as f32 * 0.3, (i / 20) as f32 * 0.3, 1.0)).collect();
/// let router = ShardRouter::bonsai(
///     &cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
/// assert_eq!(router.num_shards(), 4);
///
/// // Reads go through a point-in-time snapshot.
/// let mut batch = QueryBatch::new();
/// router.snapshot().search_batch(&cloud[..32], 0.5, &mut batch);
/// assert_eq!(batch.num_queries(), 32);
/// assert!(batch.results(0).iter().any(|n| n.index == 0));
/// ```
#[derive(Debug)]
pub struct ShardRouter {
    /// Copy-on-write shard storage: queries snapshot it with an O(K)
    /// `Arc` clone ([`snapshot`](ShardRouter::snapshot)), and mutations
    /// go through [`Arc::make_mut`] — in place while unpinned, a
    /// one-shard deep copy when a live snapshot still reads it.
    shards: Vec<Arc<Shard>>,
    mode: EngineMode,
    num_points: usize,
    /// Tree construction parameters, kept for shards created by
    /// inserts into an empty router.
    tree_cfg: KdTreeConfig,
    /// Global point index → owning shard and shard-local index
    /// (deleted points keep their entry until a shard rebuild retires
    /// it to [`PointLoc::GONE`]; the shard tree tracks liveness).
    locs: Vec<PointLoc>,
    /// Per-global-index generation tag, parallel to `locs`: bumped each
    /// time the index is retired to [`PointLoc::GONE`], so a consumer
    /// holding a stale global index can detect that the index was
    /// recycled for a different point.
    generations: Vec<u32>,
    /// Retired global indices available for reuse —
    /// [`insert`](ShardRouter::insert) pops from here before growing
    /// `locs`, so a long churn stream's directory stops growing once
    /// retirement keeps pace.
    free_globals: Vec<u32>,
    /// Round-robin cursor of [`compact_next`](ShardRouter::compact_next):
    /// which shard the next policy check inspects.
    compact_cursor: usize,
    /// Decayed per-shard load profiles and the split/merge decision log
    /// behind [`adapt_step`](ShardRouter::adapt_step).
    adapt: AdaptState,
}

impl ShardRouter {
    /// A router over uncompressed `f32` shard trees.
    ///
    /// `points` is borrowed: each shard copies exactly the points it
    /// serves, so the caller keeps (and can reuse) the original cloud
    /// without a second full copy.
    pub fn baseline(points: &[Point3], tree_cfg: KdTreeConfig, cfg: ShardConfig) -> ShardRouter {
        ShardRouter::build(points, tree_cfg, cfg, EngineMode::Baseline)
    }

    /// A router over Bonsai-compressed shard trees (exact membership).
    pub fn bonsai(points: &[Point3], tree_cfg: KdTreeConfig, cfg: ShardConfig) -> ShardRouter {
        ShardRouter::build(points, tree_cfg, cfg, EngineMode::Compressed)
    }

    fn build(
        points: &[Point3],
        tree_cfg: KdTreeConfig,
        cfg: ShardConfig,
        mode: EngineMode,
    ) -> ShardRouter {
        let num_points = points.len();
        let parts = median_cut(points, cfg.shards.max(1));
        let inputs: Vec<(Vec<u32>, Vec<Point3>)> = parts
            .into_iter()
            .map(|global| {
                let pts = global.iter().map(|&i| points[i as usize]).collect();
                (global, pts)
            })
            .collect();
        let shards: Vec<Arc<Shard>> = build_shards(inputs, tree_cfg, mode, cfg.build_threads)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut locs = vec![PointLoc { shard: 0, local: 0 }; num_points];
        for (si, shard) in shards.iter().enumerate() {
            for (local, &global) in shard.global.iter().enumerate() {
                locs[global as usize] = PointLoc {
                    shard: si as u32,
                    local: local as u32,
                };
            }
        }
        ShardRouter {
            shards,
            mode,
            num_points,
            tree_cfg,
            generations: vec![0; locs.len()],
            locs,
            free_globals: Vec::new(),
            compact_cursor: 0,
            adapt: AdaptState::default(),
        }
    }

    /// The leaf representation every shard scans.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of shards actually built (≤ the configured count when the
    /// cloud has fewer points than shards; 0 for an empty cloud).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total **live** points across all shards (inserts add, deletes
    /// subtract).
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Per-shard point counts, in shard order.
    pub fn shard_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|s| s.global.len())
    }

    /// Per-shard tight bounding boxes, in shard order.
    pub fn shard_bounds(&self) -> impl Iterator<Item = Aabb> + '_ {
        self.shards.iter().map(|s| s.aabb)
    }

    /// The global cloud indices shard `shard` serves — ascending after
    /// construction; routed inserts append past the build-time range
    /// (and deleted indices linger, tracked dead by the shard's tree).
    /// A shard's tree is built over exactly these points in exactly
    /// this order, so rebuilding a single-tree engine from them
    /// reproduces the shard's results and counters — the observability
    /// hook the router's property tests rest on.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_points(&self, shard: usize) -> &[u32] {
        &self.shards[shard].global
    }

    /// Aggregated shape statistics: leaf/interior counts summed over
    /// shards, `max_depth` the deepest shard's depth.
    pub fn build_stats(&self) -> BuildStats {
        let mut agg = BuildStats::default();
        for s in &self.shards {
            let b = s.tree.kd().build_stats();
            agg.num_leaves += b.num_leaves;
            agg.num_interior += b.num_interior;
            agg.max_depth = agg.max_depth.max(b.max_depth);
        }
        agg
    }

    /// Total compressed-structure bytes across shards, read from the
    /// leaf headers (0 in baseline mode).
    pub fn compressed_bytes(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.tree.bonsai())
            .map(|b| b.compression_stats().compressed_bytes)
            .sum()
    }

    // ------------------------------------------------------------------
    // Incremental updates (the ikd-Tree "many independently updated
    // regions" idiom): every mutation touches exactly one shard.
    // ------------------------------------------------------------------

    /// Inserts a point, routed to the shard whose bounding box is
    /// nearest (containing boxes have distance 0); an out-of-bounds
    /// insert **grows** that shard's box so later query routing keeps
    /// seeing the point — preferring an emptied shard, when one
    /// exists, over stretching a populated shard's box across a region
    /// it does not serve. Returns the point's new global index, or
    /// `None` for a non-finite point. An empty router grows its first
    /// single-point shard.
    ///
    /// Only the chosen shard's tree mutates; re-baking its compressed
    /// leaves is deferred to [`commit`](ShardRouter::commit) (or
    /// [`apply_update`](ShardRouter::apply_update)).
    pub fn insert(&mut self, p: Point3) -> Option<u32> {
        if !p.is_finite() {
            return None;
        }
        let global = self.alloc_global();
        let mut sim = SimEngine::disabled();
        let fresh = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.quarantined)
            .min_by(|(_, a), (_, b)| {
                a.aabb
                    .distance_squared_to(p)
                    .total_cmp(&b.aabb.distance_squared_to(p))
            })
            .map(|(i, _)| i);
        let Some(mut si) = fresh else {
            // No healthy shard exists (empty router, or every shard is
            // quarantined): bootstrap a new single-point shard rather
            // than mutating a suspect tree.
            let si = self.shards.len();
            self.shards.push(Arc::new(build_shard(
                vec![global],
                vec![p],
                self.tree_cfg,
                self.mode,
            )));
            self.set_loc(
                global,
                PointLoc {
                    shard: si as u32,
                    local: 0,
                },
            );
            self.num_points += 1;
            return Some(global);
        };
        if self.shards[si].aabb.distance_squared_to(p) > 0.0 {
            // No shard's box covers the point. Revive a *rebuilt-empty*
            // shard (its inverted sentinel box is infinitely far, so
            // distance routing alone would never pick it again) instead
            // of stretching a populated shard's box over a region it
            // does not serve. Delete-emptied but never-rebuilt shards
            // are deliberately excluded: their stale boxes still
            // describe the region they served, so ordinary distance
            // routing remains the better (and nearer) choice for them.
            if let Some(empty) = self
                .shards
                .iter()
                .position(|s| !s.quarantined && s.aabb.min.x > s.aabb.max.x)
            {
                si = empty;
            }
        }
        // lint: allow(cow-discipline) — insert IS the mutation that
        // creates the dirt; there is nothing to commit before cloning,
        // and a pinned snapshot must not see the new point anyway.
        let shard = Arc::make_mut(&mut self.shards[si]);
        shard.aabb.insert(p);
        // lint: allow(panic-free-serving) — the router's `insert`
        // rejected non-finite points before routing, and a finite
        // point is always accepted by the shard tree.
        let local = shard
            .tree
            .insert(&mut sim, p)
            .expect("finite point is accepted by the shard tree");
        debug_assert_eq!(local as usize, shard.global.len());
        shard.global.push(global);
        self.set_loc(
            global,
            PointLoc {
                shard: si as u32,
                local,
            },
        );
        self.num_points += 1;
        Some(global)
    }

    /// The next global index an insert will occupy: a retired
    /// (free-listed) index when one exists, else a fresh one past the
    /// directory.
    fn alloc_global(&mut self) -> u32 {
        match self.free_globals.pop() {
            Some(g) => g,
            None => self.locs.len() as u32,
        }
    }

    /// Records `global → loc`, growing the directory (and its
    /// generation tags) when `global` is fresh.
    fn set_loc(&mut self, global: u32, loc: PointLoc) {
        let gi = global as usize;
        if gi < self.locs.len() {
            debug_assert_eq!(
                self.locs[gi].shard,
                PointLoc::GONE.shard,
                "recycled global {global} still mapped"
            );
            self.locs[gi] = loc;
        } else {
            debug_assert_eq!(gi, self.locs.len());
            self.locs.push(loc);
            self.generations.push(0);
        }
    }

    /// Deletes global point `global`, routed to its owning shard.
    /// Returns `false` — without touching any shard tree beyond a
    /// constant-time liveness check — when the index is out of range,
    /// already deleted, or reclaimed by an earlier
    /// [`rebuild_shard`](ShardRouter::rebuild_shard). Shard boxes are
    /// left unshrunk (conservative: routing stays exact, merely less
    /// selective) until a rebuild re-tightens them.
    pub fn delete(&mut self, global: u32) -> bool {
        let Some(&loc) = self.locs.get(global as usize) else {
            return false;
        };
        if loc.shard == PointLoc::GONE.shard {
            return false;
        }
        let mut sim = SimEngine::disabled();
        // lint: allow(cow-discipline) — delete IS the mutation that
        // creates the dirt; the clone must happen before we can mark
        // anything dirty, so there is no gate to consult.
        let shard = Arc::make_mut(&mut self.shards[loc.shard as usize]);
        if shard.quarantined {
            // The tree is suspect — queue the delete instead of
            // mutating corrupt state. The healing rebuild resolves the
            // queue (it only re-admits points the authoritative live
            // set still contains). Liveness is judged from the alive
            // mask, which fault injection leaves intact.
            if shard.pending_deletes.contains(&global) {
                return false;
            }
            let kd = shard.tree.kd();
            let was_live = (loc.local as usize) < kd.points().len() && kd.is_live(loc.local);
            shard.pending_deletes.push(global);
            if was_live {
                self.num_points -= 1;
            }
            return was_live;
        }
        let deleted = shard.tree.delete(&mut sim, loc.local);
        if deleted {
            self.num_points -= 1;
        }
        deleted
    }

    /// Re-bakes every shard with pending mutations (a no-op for clean
    /// shards — only touched shards pay).
    pub fn commit(&mut self) {
        let mut sim = SimEngine::disabled();
        for shard in &mut self.shards {
            // Clean shards are checked read-only before `make_mut`:
            // otherwise a live snapshot pinning an untouched shard would
            // force a pointless deep copy on every commit.
            if shard.quarantined || !shard.tree.kd().has_dirty_nodes() {
                continue; // frozen until healed, or nothing pending
            }
            Arc::make_mut(shard).tree.commit(&mut sim);
        }
    }

    /// Applies one frame's diff: deletes `removed` (dead indices are
    /// skipped), inserts `added` (non-finite points are skipped), then
    /// re-bakes the touched shards. Returns the global indices of the
    /// accepted inserts, in `added` order.
    pub fn apply_update(&mut self, added: &[Point3], removed: &[u32]) -> Vec<u32> {
        for &idx in removed {
            self.delete(idx);
        }
        let inserted = added.iter().filter_map(|&p| self.insert(p)).collect();
        self.commit();
        inserted
    }

    // ------------------------------------------------------------------
    // Rolling compaction: criterion-triggered shard rebuilds bound the
    // memory a long churn stream can pin (the ikd-Tree re-building
    // idiom, one shard at a time so no frame pays for the whole index).
    // ------------------------------------------------------------------

    /// Rebuilds shard `shard` from scratch over its **live** points:
    /// dead point slots, abandoned `vind`/SoA ranges and retired pool
    /// nodes are all dropped, and the shard's bounding box is
    /// **re-tightened** to the live points (deletes only ever leave
    /// boxes over-grown — see [`delete`](ShardRouter::delete) — so
    /// stale boxes route queries into shards that cannot answer them).
    /// Global indices are preserved: every live point keeps its index,
    /// so query results are unchanged; only per-shard traversal
    /// counters may shrink with the tightened routing and the rebuilt
    /// shape. A shard whose points were all deleted collapses to an
    /// empty tree with a never-intersecting box (it revives on the next
    /// routed insert).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn rebuild_shard(&mut self, shard: usize) {
        // lint: allow(debug-assert-discipline) — rebuilding a
        // quarantined shard from its own suspect tree would launder
        // corruption into a "clean" index; this must hold in release
        // builds, where the chaos/heal machinery actually runs.
        assert!(
            !self.shards[shard].quarantined,
            "rebuilding quarantined shard {shard} from its own (suspect) tree; \
             use rebuild_shards_from with authoritative coordinates"
        );
        let (globals, pts, dead): (Vec<u32>, Vec<Point3>, Vec<u32>) = {
            let s = &self.shards[shard];
            let kd = s.tree.kd();
            let mut globals = Vec::with_capacity(kd.num_live());
            let mut pts = Vec::with_capacity(kd.num_live());
            let mut dead = Vec::new();
            for (local, &g) in s.global.iter().enumerate() {
                if kd.is_live(local as u32) {
                    globals.push(g);
                    pts.push(kd.points()[local]);
                } else {
                    dead.push(g);
                }
            }
            (globals, pts, dead)
        };
        for g in dead {
            self.retire_global(g);
        }
        if pts.is_empty() {
            // Keep the shard slot (locs store shard ids) but give it an
            // inverted box no ball can intersect; Aabb::insert heals it
            // on the next routed insert.
            let mut sim = SimEngine::disabled();
            let tree = match self.mode {
                EngineMode::Baseline => {
                    ShardTree::Baseline(KdTree::build(Vec::new(), self.tree_cfg, &mut sim))
                }
                EngineMode::Compressed => {
                    ShardTree::Bonsai(BonsaiTree::build(Vec::new(), self.tree_cfg, &mut sim))
                }
            };
            self.shards[shard] = Arc::new(Shard {
                aabb: Aabb {
                    min: Point3::splat(f32::INFINITY),
                    max: Point3::splat(f32::NEG_INFINITY),
                },
                global: Vec::new(),
                tree,
                quarantined: false,
                pending_deletes: Vec::new(),
                load: Arc::new(ShardLoad::default()),
            });
            return;
        }
        let inner_threads = if cfg!(feature = "parallel") {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        let rebuilt = build_shard_threaded(globals, pts, self.tree_cfg, self.mode, inner_threads);
        for (local, &g) in rebuilt.global.iter().enumerate() {
            self.locs[g as usize] = PointLoc {
                shard: shard as u32,
                local: local as u32,
            };
        }
        self.shards[shard] = Arc::new(rebuilt);
    }

    /// One amortized step of the rolling compaction: inspects the next
    /// shard in round-robin order and rebuilds it when `policy` says
    /// its waste warrants it. Returns the rebuilt shard's index, or
    /// `None` when the inspected shard (or an empty router) needed
    /// nothing. Call once per frame — over `num_shards()` frames every
    /// shard gets checked, so no single frame ever pays for more than
    /// one rebuild.
    pub fn compact_next(&mut self, policy: &CompactionPolicy) -> Option<usize> {
        if self.shards.is_empty() {
            return None;
        }
        let i = self.compact_cursor % self.shards.len();
        self.compact_cursor = (i + 1) % self.shards.len();
        if self.shards[i].quarantined {
            return None; // frozen until healed
        }
        let (waste, footprint) = self.shard_fragmentation(i);
        if policy.should_compact(waste, footprint) {
            self.rebuild_shard(i);
            Some(i)
        } else {
            None
        }
    }

    /// Shard `shard`'s `(waste, footprint)` pair: abandoned slots plus
    /// dead points, over total slots plus total points — the quantities
    /// [`CompactionPolicy::should_compact`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_fragmentation(&self, shard: usize) -> (usize, usize) {
        let kd = self.shards[shard].tree.kd();
        let dead = kd.points().len() - kd.num_live();
        (
            kd.garbage_slots() + dead,
            kd.vind().len() + kd.points().len(),
        )
    }

    /// Total abandoned `vind`/SoA slots across all shards (the
    /// fragmentation counter the soak bench plots).
    pub fn garbage_slots(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tree.kd().garbage_slots())
            .sum()
    }

    /// Total `vind`/SoA slots across all shards (live + garbage), the
    /// denominator of the garbage ratio.
    pub fn slot_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree.kd().vind().len()).sum()
    }

    /// Host-side memory footprint across all shards, in bytes (point
    /// arrays including dead points, slot arrays including garbage,
    /// node pools, leaf rows, leaf headers and any baked compressed
    /// directories) plus the global→shard directory.
    pub fn resident_bytes(&self) -> u64 {
        let shard_bytes: u64 = self
            .shards
            .iter()
            .map(|s| {
                let tree = match &s.tree {
                    ShardTree::Baseline(t) => t.resident_bytes(),
                    ShardTree::Bonsai(b) => b.resident_bytes(),
                };
                tree + s.global.len() as u64 * 4
            })
            .sum();
        shard_bytes + self.locs.len() as u64 * 8
    }

    /// Answers one query against a snapshot of the router's current
    /// state ([`RouterSnapshot::search_one`]): `out` cleared, hits from
    /// every shard whose box intersects the query ball, re-indexed to
    /// global cloud indices and sorted ascending. Each call takes a
    /// fresh snapshot (O(K) `Arc` clones plus a route-index build), so
    /// callers with many queries should search one snapshot instead.
    ///
    /// A non-positive or non-finite `radius` — or a query center with a
    /// non-finite coordinate — yields an empty result without touching
    /// any shard.
    pub fn search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        self.snapshot()
            .search_one(query, radius, scratch, out, stats);
    }

    /// An immutable point-in-time view of the router for concurrent
    /// serving: O(K) `Arc` clones of the shard list — no tree data is
    /// copied. The snapshot answers queries bit-identically to this
    /// router at the moment of the call, and **stays** bit-identical
    /// while the router keeps mutating (copy-on-write: a mutation
    /// deep-copies a shard only while a snapshot still pins it).
    ///
    /// Publish snapshots through an
    /// [`EpochPublisher`](crate::EpochPublisher) to serve queries while
    /// ingesting frames.
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            // The route BVH is immutable alongside the shard list it
            // indexes, so every query served off this snapshot routes
            // in O(log K) with zero per-query build cost.
            routes: Arc::new(RouteIndex::build(&self.shards)),
            shards: self.shards.clone(),
            mode: self.mode,
            num_points: self.num_points,
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance: deep audit, quarantine, healing rebuild.
    // ------------------------------------------------------------------

    /// Retires global index `g`: the directory entry goes to
    /// [`PointLoc::GONE`], its generation tag is bumped, and the index
    /// joins the free list for reuse by a later insert.
    fn retire_global(&mut self, g: u32) {
        self.locs[g as usize] = PointLoc::GONE;
        self.generations[g as usize] = self.generations[g as usize].wrapping_add(1);
        self.free_globals.push(g);
    }

    /// An empty shard slot: a never-intersecting inverted box over an
    /// empty tree, revived by the next routed insert.
    fn make_empty_shard(&self) -> Shard {
        let mut sim = SimEngine::disabled();
        let tree = match self.mode {
            EngineMode::Baseline => {
                ShardTree::Baseline(KdTree::build(Vec::new(), self.tree_cfg, &mut sim))
            }
            EngineMode::Compressed => {
                ShardTree::Bonsai(BonsaiTree::build(Vec::new(), self.tree_cfg, &mut sim))
            }
        };
        Shard {
            aabb: Aabb {
                min: Point3::splat(f32::INFINITY),
                max: Point3::splat(f32::NEG_INFINITY),
            },
            global: Vec::new(),
            tree,
            quarantined: false,
            pending_deletes: Vec::new(),
            load: Arc::new(ShardLoad::default()),
        }
    }

    /// Marks shard `shard` quarantined: queries skip it (the region is
    /// reported through [`coverage`](ShardRouter::coverage)), mutations
    /// never touch its tree (deletes are queued), and only
    /// [`rebuild_shards_from`](ShardRouter::rebuild_shards_from)
    /// re-admits it. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn quarantine(&mut self, shard: usize) {
        // lint: allow(cow-discipline) — a health-flag flip must copy
        // even a clean pinned shard: readers on older epochs keep
        // serving the pre-quarantine snapshot by design.
        Arc::make_mut(&mut self.shards[shard]).quarantined = true;
    }

    /// Whether shard `shard` is quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.shards[shard].quarantined
    }

    /// Indices of the quarantined shards, ascending.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// The coverage the next query would see: complete when no shard is
    /// quarantined, else the offline regions' bounding boxes.
    pub fn coverage(&self) -> Coverage {
        coverage_of(&self.shards)
    }

    /// The shard currently owning global index `global`, or `None` when
    /// the index is out of range or retired.
    pub fn shard_of(&self, global: u32) -> Option<usize> {
        let loc = self.locs.get(global as usize)?;
        if loc.shard == PointLoc::GONE.shard {
            None
        } else {
            Some(loc.shard as usize)
        }
    }

    /// Generation tag of global index `global` (bumped each time the
    /// index is retired and made reusable), or `None` out of range.
    pub fn generation(&self, global: u32) -> Option<u32> {
        self.generations.get(global as usize).copied()
    }

    /// Deep invariant audit of the whole router: every healthy shard's
    /// tree (its full [`KdTree`] invariant web plus, under Bonsai, the
    /// f16 rows and compressed directory), the global→(shard, local)
    /// directory ↔ per-shard live-set bijection, the free-list ↔
    /// retired-entry bijection, and the live-point accounting. Never
    /// panics on corrupt state — every finding comes back as a typed
    /// [`AuditViolation`] (shard-attributed where one is involved);
    /// an empty vector certifies the router.
    ///
    /// Quarantined shards are skipped: they are already known-suspect
    /// and frozen.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let tree_violations = match &shard.tree {
                ShardTree::Baseline(t) => t.audit(),
                ShardTree::Bonsai(b) => b.audit(),
            };
            for v in tree_violations {
                out.push(v.at_shard(si as u32));
            }
            let kd = shard.tree.kd();
            if shard.global.len() != kd.points().len() {
                out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "local→global map covers {} of {} tree points",
                            shard.global.len(),
                            kd.points().len()
                        ),
                    )
                    .at_shard(si as u32),
                );
            }
        }
        // Reverse pass: every live local slot of a healthy shard must be
        // claimed by exactly its directory entry.
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let kd = shard.tree.kd();
            for (local, &g) in shard.global.iter().enumerate() {
                if local >= kd.points().len() || !kd.is_live(local as u32) {
                    continue;
                }
                match self.locs.get(g as usize) {
                    Some(loc) if loc.shard == si as u32 && loc.local == local as u32 => {}
                    Some(loc) if loc.shard == PointLoc::GONE.shard => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!("live global {g} (shard {si} local {local}) is retired"),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                    Some(loc) => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!(
                                "live global {g} lives at shard {si} local {local} but the \
                                 directory claims shard {} local {}",
                                loc.shard, loc.local
                            ),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                    None => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!(
                                "live global {g} (shard {si} local {local}) is past the \
                                 directory ({} entries)",
                                self.locs.len()
                            ),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                }
            }
        }
        // Forward pass: every mapped directory entry must resolve to a
        // shard slot holding exactly that global index.
        let mut retired = 0usize;
        for (g, loc) in self.locs.iter().enumerate() {
            if loc.shard == PointLoc::GONE.shard {
                retired += 1;
                continue;
            }
            let Some(shard) = self.shards.get(loc.shard as usize) else {
                out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("global {g} maps to shard {} past the router", loc.shard),
                    )
                    .at_index(g as u32),
                );
                continue;
            };
            if shard.quarantined {
                continue;
            }
            match shard.global.get(loc.local as usize) {
                Some(&owner) if owner == g as u32 => {}
                Some(&owner) => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "global {g} maps to shard {} local {} but that slot holds \
                             global {owner}",
                            loc.shard, loc.local
                        ),
                    )
                    .at_shard(loc.shard)
                    .at_index(g as u32),
                ),
                None => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "global {g} maps to shard {} local {}, past the shard's {} slots",
                            loc.shard,
                            loc.local,
                            shard.global.len()
                        ),
                    )
                    .at_shard(loc.shard)
                    .at_index(g as u32),
                ),
            }
        }
        // Free list ↔ retired entries: a bijection.
        let mut seen = HashSet::new();
        for &g in &self.free_globals {
            match self.locs.get(g as usize) {
                None => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is past the directory"),
                    )
                    .at_index(g),
                ),
                Some(_) if !seen.insert(g) => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is listed twice"),
                    )
                    .at_index(g),
                ),
                Some(loc) if loc.shard != PointLoc::GONE.shard => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is still mapped to shard {}", loc.shard),
                    )
                    .at_index(g),
                ),
                Some(_) => {}
            }
        }
        if retired != self.free_globals.len() {
            out.push(AuditViolation::new(
                ViolationKind::ShardDirectory,
                format!(
                    "directory holds {retired} retired entries but the free list holds {}",
                    self.free_globals.len()
                ),
            ));
        }
        if self.generations.len() != self.locs.len() {
            out.push(AuditViolation::new(
                ViolationKind::ShardDirectory,
                format!(
                    "generation tags cover {} of {} directory entries",
                    self.generations.len(),
                    self.locs.len()
                ),
            ));
        }
        // Live accounting is only meaningful with every shard healthy —
        // deletes routed to a quarantined shard are counted from a
        // suspect alive mask until the heal recounts.
        if self.shards.iter().all(|s| !s.quarantined) {
            let live: usize = self.shards.iter().map(|s| s.tree.kd().num_live()).sum();
            if live != self.num_points {
                out.push(AuditViolation::new(
                    ViolationKind::Accounting,
                    format!(
                        "num_points is {} but shards hold {live} live points",
                        self.num_points
                    ),
                ));
            }
        }
        out
    }

    /// Heals shards from authoritative coordinates: quarantines every
    /// shard in `targets` (idempotent), then rebuilds each from the
    /// subset of `live` — the caller's authoritative `(global index,
    /// exact point)` live set, e.g. the streaming extractor's — that no
    /// healthy shard owns, and re-admits them. Directory entries of
    /// healthy-shard points are repaired in place, global indices
    /// vanished from the live set are retired (generation bumped, index
    /// free-listed), pending quarantine-time deletes are resolved by
    /// construction, and the live-point counter is recounted once no
    /// shard remains quarantined.
    ///
    /// Unclaimed live points go to the target their directory entry
    /// names when it names one, else to the nearest target by
    /// bounding-box distance; each target is rebuilt over its points in
    /// ascending global order, so healing is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any target index is `>= num_shards()`.
    pub fn rebuild_shards_from(&mut self, targets: &[usize], live: &[(u32, Point3)]) {
        if targets.is_empty() {
            return;
        }
        for &t in targets {
            // lint: allow(cow-discipline) — the heal replaces target
            // trees wholesale; any uncommitted dirt they carried is
            // superseded by the authoritative rebuild that follows.
            Arc::make_mut(&mut self.shards[t]).quarantined = true;
        }
        // Reverse map over the healthy shards: which globals they own
        // (live slots only). Points the healthy half owns must NOT be
        // adopted into a rebuilt target — that would double-store them.
        let mut owned: HashMap<u32, PointLoc> = HashMap::new();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let kd = shard.tree.kd();
            for (local, &g) in shard.global.iter().enumerate() {
                if local < kd.points().len() && kd.is_live(local as u32) {
                    owned.insert(
                        g,
                        PointLoc {
                            shard: si as u32,
                            local: local as u32,
                        },
                    );
                }
            }
        }
        // Partition the unclaimed live points among the targets.
        let mut assign: Vec<Vec<(u32, Point3)>> = vec![Vec::new(); targets.len()];
        for &(g, p) in live {
            if let Some(&loc) = owned.get(&g) {
                // A healthy shard owns it — repair the directory entry
                // in place if corruption redirected it.
                if (g as usize) < self.locs.len() {
                    self.locs[g as usize] = loc;
                }
                continue;
            }
            let claimed = self
                .locs
                .get(g as usize)
                .filter(|loc| loc.shard != PointLoc::GONE.shard)
                .and_then(|loc| targets.iter().position(|&t| t == loc.shard as usize));
            let ti = claimed.unwrap_or_else(|| {
                targets
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        self.shards[a]
                            .aabb
                            .distance_squared_to(p)
                            .total_cmp(&self.shards[b].aabb.distance_squared_to(p))
                    })
                    .map(|(i, _)| i)
                    // lint: allow(panic-free-serving) — `targets` is
                    // the non-empty rebuild set computed above; a min
                    // over it always exists.
                    .expect("targets is non-empty")
            });
            assign[ti].push((g, p));
        }
        let inner_threads = if cfg!(feature = "parallel") {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        for (ti, &t) in targets.iter().enumerate() {
            let mut items = std::mem::take(&mut assign[ti]);
            items.sort_unstable_by_key(|&(g, _)| g);
            if items.is_empty() {
                self.shards[t] = Arc::new(self.make_empty_shard());
                continue;
            }
            let globals: Vec<u32> = items.iter().map(|&(g, _)| g).collect();
            let pts: Vec<Point3> = items.iter().map(|&(_, p)| p).collect();
            let rebuilt =
                build_shard_threaded(globals, pts, self.tree_cfg, self.mode, inner_threads);
            for (local, &g) in rebuilt.global.iter().enumerate() {
                if (g as usize) >= self.locs.len() {
                    // An authoritative global past the directory (the
                    // directory itself was corrupt): grow to cover it.
                    self.locs.resize(g as usize + 1, PointLoc::GONE);
                    self.generations.resize(g as usize + 1, 0);
                }
                self.locs[g as usize] = PointLoc {
                    shard: t as u32,
                    local: local as u32,
                };
            }
            self.shards[t] = Arc::new(rebuilt);
        }
        // Retirement sweep: directory entries no shard slot holds any
        // more (dead points the rebuild dropped, quarantine-time
        // deletes) are retired with a generation bump. Entries present
        // in any shard — live or dead — are left alone; the owning
        // shard's own rebuild retires its dead ones later.
        let mut present = vec![false; self.locs.len()];
        for shard in &self.shards {
            for &g in &shard.global {
                if let Some(slot) = present.get_mut(g as usize) {
                    *slot = true;
                }
            }
        }
        for (g, here) in present.iter().enumerate() {
            if !here && self.locs[g].shard != PointLoc::GONE.shard {
                self.locs[g] = PointLoc::GONE;
                self.generations[g] = self.generations[g].wrapping_add(1);
            }
        }
        // Re-derive the free list as exactly the retired entries — the
        // heal may have both retired entries and revived free-listed
        // ones (a repaired directory entry).
        self.free_globals = self
            .locs
            .iter()
            .enumerate()
            .filter(|(_, loc)| loc.shard == PointLoc::GONE.shard)
            .map(|(g, _)| g as u32)
            .collect();
        if self.shards.iter().all(|s| !s.quarantined) {
            self.num_points = self.shards.iter().map(|s| s.tree.kd().num_live()).sum();
        }
    }

    // ------------------------------------------------------------------
    // Query-load-adaptive topology: observed-load split/merge with an
    // SAH-style cost model (see `core/src/adapt.rs` for the policy).
    // ------------------------------------------------------------------

    /// Whether shard `shard` may take part in a topology change right
    /// now: in range and not quarantined. A quarantined shard has a
    /// heal in progress — its tree is suspect, and repartitioning it
    /// would launder corruption into a "clean" layout — so it is never
    /// chosen. This is the guard every split/merge entry point
    /// delegates to.
    pub fn shard_is_adaptable(&self, shard: usize) -> Result<(), RejectReason> {
        match self.shards.get(shard) {
            None => Err(RejectReason::OutOfRange { shard }),
            Some(s) if s.quarantined => Err(RejectReason::Quarantined { shard }),
            Some(_) => Ok(()),
        }
    }

    /// Splits shard `shard` at `plane` on `axis`: live points with
    /// coordinate `< plane` keep the slot, the rest move to a sibling
    /// slot (a rebuilt-empty slot when one exists, else a freshly
    /// appended one — existing slots are never renumbered, because the
    /// global directory stores shard ids). Returns the sibling's index.
    ///
    /// This is [`rebuild_shard`](ShardRouter::rebuild_shard)'s targeted
    /// machinery run once per child: every live point keeps its global
    /// index, dead entries are retired to the generation-tagged free
    /// list, both children's boxes are re-tightened, and previously
    /// published [`RouterSnapshot`]s keep answering from the pre-split
    /// topology (their shard `Arc`s are untouched) — query results keep
    /// their membership and order (compressed hits' approximate
    /// distances follow the children's leaf origins); traversal
    /// counters may change with the tighter routing.
    ///
    /// Refuses — typed, with **no** state change — a quarantined or
    /// out-of-range shard ([`shard_is_adaptable`](ShardRouter::shard_is_adaptable)),
    /// an axis ≥ 3 or non-finite plane, and a plane that fails to put
    /// at least one live point on each side.
    pub fn split_shard(
        &mut self,
        shard: usize,
        axis: usize,
        plane: f32,
    ) -> Result<usize, RejectReason> {
        self.shard_is_adaptable(shard)?;
        if axis >= 3 || !plane.is_finite() {
            return Err(RejectReason::NoGain { shard });
        }
        // Collect the live set and verify the plane separates it
        // *before* mutating anything: retiring dead globals while their
        // slots still linger in the shard would corrupt the directory.
        let (mut lower, mut upper, dead) = {
            let s = &self.shards[shard];
            let kd = s.tree.kd();
            let mut lower: Vec<(u32, Point3)> = Vec::new();
            let mut upper: Vec<(u32, Point3)> = Vec::new();
            let mut dead = Vec::new();
            for (local, &g) in s.global.iter().enumerate() {
                if kd.is_live(local as u32) {
                    let p = kd.points()[local];
                    if p[axis] < plane {
                        lower.push((g, p));
                    } else {
                        upper.push((g, p));
                    }
                } else {
                    dead.push(g);
                }
            }
            (lower, upper, dead)
        };
        if lower.is_empty() || upper.is_empty() {
            return Err(RejectReason::NoGain { shard });
        }
        for g in dead {
            self.retire_global(g);
        }
        // The upper half lands in a rebuilt-empty slot when one exists
        // (the same free slots `insert` revives), else a new one.
        let sibling = match self
            .shards
            .iter()
            .position(|s| !s.quarantined && s.global.is_empty() && s.aabb.min.x > s.aabb.max.x)
        {
            Some(i) => i,
            None => {
                let empty = self.make_empty_shard();
                self.shards.push(Arc::new(empty));
                self.shards.len() - 1
            }
        };
        lower.sort_unstable_by_key(|&(g, _)| g);
        upper.sort_unstable_by_key(|&(g, _)| g);
        let inner_threads = if cfg!(feature = "parallel") {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        for (slot, half) in [(shard, lower), (sibling, upper)] {
            let globals: Vec<u32> = half.iter().map(|&(g, _)| g).collect();
            let pts: Vec<Point3> = half.iter().map(|&(_, p)| p).collect();
            let rebuilt =
                build_shard_threaded(globals, pts, self.tree_cfg, self.mode, inner_threads);
            for (local, &g) in rebuilt.global.iter().enumerate() {
                self.locs[g as usize] = PointLoc {
                    shard: slot as u32,
                    local: local as u32,
                };
            }
            self.shards[slot] = Arc::new(rebuilt);
        }
        Ok(sibling)
    }

    /// Merges shards `a` and `b`: their live points are rebuilt into
    /// the lower-indexed slot (in ascending global order) and the other
    /// slot becomes a rebuilt-empty shard — slots are never removed,
    /// because the global directory stores shard ids, and the emptied
    /// slot is the first candidate for a later split or out-of-box
    /// insert. Returns the kept slot. Same preservation contract as
    /// [`split_shard`](ShardRouter::split_shard): global indices, free
    /// list, pinned snapshots and query results are all unaffected.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<usize, RejectReason> {
        if a == b {
            return Err(RejectReason::SameShard { shard: a });
        }
        self.shard_is_adaptable(a)?;
        self.shard_is_adaptable(b)?;
        let kept = a.min(b);
        let emptied = a.max(b);
        let mut merged: Vec<(u32, Point3)> = Vec::new();
        let mut dead = Vec::new();
        for slot in [a, b] {
            let s = &self.shards[slot];
            let kd = s.tree.kd();
            for (local, &g) in s.global.iter().enumerate() {
                if kd.is_live(local as u32) {
                    merged.push((g, kd.points()[local]));
                } else {
                    dead.push(g);
                }
            }
        }
        for g in dead {
            self.retire_global(g);
        }
        merged.sort_unstable_by_key(|&(g, _)| g);
        self.shards[emptied] = Arc::new(self.make_empty_shard());
        if merged.is_empty() {
            self.shards[kept] = Arc::new(self.make_empty_shard());
            return Ok(kept);
        }
        let inner_threads = if cfg!(feature = "parallel") {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        let globals: Vec<u32> = merged.iter().map(|&(g, _)| g).collect();
        let pts: Vec<Point3> = merged.iter().map(|&(_, p)| p).collect();
        let rebuilt = build_shard_threaded(globals, pts, self.tree_cfg, self.mode, inner_threads);
        for (local, &g) in rebuilt.global.iter().enumerate() {
            self.locs[g as usize] = PointLoc {
                shard: kept as u32,
                local: local as u32,
            };
        }
        self.shards[kept] = Arc::new(rebuilt);
        Ok(kept)
    }

    /// One step of the load-adaptive policy: fold the newest per-shard
    /// counter window into the decaying profile, then propose — and,
    /// when every guard passes, execute — at most **one** topology
    /// change. The hottest shard is split when its decayed work exceeds
    /// `split_ratio ×` the populated-shard mean, at the plane a binned SAH
    /// sweep over its live points picks — provided the sweep's gain
    /// also beats the `dispatch_cost ×` populated-shard tax (every
    /// shard slot makes every routed query test one more box).
    /// Otherwise the two nearest cold shards (both below
    /// `merge_ratio ×` the mean) are merged; when the profile is flat
    /// (`flat_ratio`) across more than `flat_floor` populated shards,
    /// the nearest adaptable pair merges even without a cold shard, so
    /// a uniform stream walks an over-split fleet back down.
    /// Every refused proposal lands in the returned [`AdaptReport`] and
    /// the [`load_report`](ShardRouter::load_report) decision log as a
    /// typed [`RejectReason`]; quarantined (heal-in-progress) shards
    /// and routers whose readers lag beyond `policy.max_epoch_lag` are
    /// never chosen for topology changes.
    ///
    /// `epoch_lag` is the caller's reader-staleness observation —
    /// [`EpochPublisher::epoch_lag`](crate::EpochPublisher::epoch_lag)
    /// when snapshots are published, `0` when the router is unshared.
    pub fn adapt_step(&mut self, policy: &ShardPolicy, epoch_lag: u64) -> AdaptReport {
        self.adapt.step += 1;
        let samples: Vec<_> = self.shards.iter().map(|s| s.load.sample()).collect();
        self.adapt.absorb_window(policy.decay, &samples);
        let mut report = AdaptReport::default();
        let k = self.shards.len();
        if k == 0 {
            return report;
        }
        let total_queries: f64 = self.adapt.profile[..k].iter().map(|p| p.queries).sum();
        if total_queries < policy.min_queries {
            return report; // not enough signal to act on yet
        }
        // The reference mean is over *populated* shards: emptied slots
        // (merges, rebuilds) carry zero work forever, and letting them
        // dilute the mean makes every live shard look split-hot — a
        // freshly merged shard would ping-pong straight back into a
        // split.
        let pop_count = (0..k)
            .filter(|&i| self.shards[i].tree.kd().num_live() > 0)
            .count()
            .max(1);
        let mean = (0..k)
            .filter(|&i| self.shards[i].tree.kd().num_live() > 0)
            .map(|i| self.adapt.profile[i].work())
            .sum::<f64>()
            / pop_count as f64;
        let step = self.adapt.step;
        let hot = (0..k).max_by(|&a, &b| {
            self.adapt.profile[a]
                .work()
                .total_cmp(&self.adapt.profile[b].work())
        });
        let mut acted = false;
        if let Some(hot) = hot {
            if self.adapt.profile[hot].work() > policy.split_ratio * mean {
                let decision = match self.try_split(hot, policy, epoch_lag) {
                    Ok((sibling, axis, plane)) => {
                        self.adapt.splits += 1;
                        report.splits += 1;
                        acted = true;
                        AdaptDecision::Split {
                            step,
                            shard: hot,
                            sibling,
                            axis,
                            plane,
                        }
                    }
                    Err(reason) => {
                        self.adapt.rejected += 1;
                        report.rejected += 1;
                        AdaptDecision::Rejected { step, reason }
                    }
                };
                self.adapt.log(decision);
                report.decisions.push(decision);
            }
        }
        if !acted {
            // Steady state (nothing cold enough) is Ok(None): no
            // decision to log, not a rejection.
            match self.try_merge(policy, epoch_lag, mean) {
                Ok(Some((kept, emptied))) => {
                    self.adapt.merges += 1;
                    report.merges += 1;
                    let decision = AdaptDecision::Merge {
                        step,
                        kept,
                        emptied,
                    };
                    self.adapt.log(decision);
                    report.decisions.push(decision);
                }
                Ok(None) => {}
                Err(reason) => {
                    self.adapt.rejected += 1;
                    report.rejected += 1;
                    let decision = AdaptDecision::Rejected { step, reason };
                    self.adapt.log(decision);
                    report.decisions.push(decision);
                }
            }
        }
        report
    }

    /// The split half of [`adapt_step`](ShardRouter::adapt_step):
    /// guards, the SAH plane sweep, execution, profile bookkeeping.
    fn try_split(
        &mut self,
        shard: usize,
        policy: &ShardPolicy,
        epoch_lag: u64,
    ) -> Result<(usize, usize, f32), RejectReason> {
        self.shard_is_adaptable(shard)?;
        if epoch_lag > policy.max_epoch_lag {
            return Err(RejectReason::StalePins {
                epoch_lag,
                bound: policy.max_epoch_lag,
            });
        }
        // Rebuilt-empty slots don't count against the budget: splitting
        // into one adds no new slot.
        let populated = self
            .shards
            .iter()
            .filter(|s| !(s.global.is_empty() && s.aabb.min.x > s.aabb.max.x))
            .count();
        if populated >= policy.max_shards {
            return Err(RejectReason::ShardLimit { shards: populated });
        }
        let pts: Vec<Point3> = {
            let kd = self.shards[shard].tree.kd();
            (0..kd.points().len() as u32)
                .filter(|&l| kd.is_live(l))
                .map(|l| kd.points()[l as usize])
                .collect()
        };
        if pts.len() < policy.min_split_points {
            return Err(RejectReason::TooSmall {
                shard,
                points: pts.len(),
            });
        }
        // Every populated shard already charges each query one box
        // test, so the split's SAH gain must also cover the dispatch
        // slot it adds — the tax grows with the fleet.
        let tax = policy.dispatch_cost * populated as f64;
        let plane = find_best_split_plane_taxed(&pts, policy.bins, tax)
            .ok_or(RejectReason::NoGain { shard })?;
        let sibling = self.split_shard(shard, plane.axis, plane.position)?;
        self.adapt.on_split(shard, sibling);
        Ok((sibling, plane.axis, plane.position))
    }

    /// The merge half of [`adapt_step`](ShardRouter::adapt_step):
    /// pick the nearest pair of cold shards, guard, execute.
    fn try_merge(
        &mut self,
        policy: &ShardPolicy,
        epoch_lag: u64,
        mean: f64,
    ) -> Result<Option<(usize, usize)>, RejectReason> {
        let k = self.shards.len();
        let populated = self
            .shards
            .iter()
            .filter(|s| s.tree.kd().num_live() > 0)
            .count();
        if populated <= policy.min_shards {
            return Ok(None);
        }
        // A flat profile over many shards is itself a reason to merge:
        // no shard is hot enough to justify the per-query dispatch cost
        // of the fine partition, so any adaptable pair is fair game —
        // repeated steps walk the fleet back down toward `flat_floor`.
        let max_work = (0..k)
            .filter(|&i| self.shards[i].tree.kd().num_live() > 0)
            .map(|i| self.adapt.profile[i].work())
            .fold(0.0f64, f64::max);
        let flat = populated > policy.flat_floor && max_work <= policy.flat_ratio * mean;
        let cold: Vec<usize> = (0..k)
            .filter(|&i| {
                self.shard_is_adaptable(i).is_ok()
                    && self.shards[i].tree.kd().num_live() > 0
                    && (flat || self.adapt.profile[i].work() < policy.merge_ratio * mean)
            })
            .collect();
        if cold.len() < 2 {
            return Ok(None);
        }
        if epoch_lag > policy.max_epoch_lag {
            return Err(RejectReason::StalePins {
                epoch_lag,
                bound: policy.max_epoch_lag,
            });
        }
        // "Adjacent" = the cold pair whose boxes sit nearest: merging
        // far-apart shards would blanket dead space with one huge box
        // that every query's ball test then has to reject point by
        // point.
        let mut best: Option<(usize, usize, f32)> = None;
        for (ii, &i) in cold.iter().enumerate() {
            for &j in &cold[ii + 1..] {
                let d = self.shards[i]
                    .aabb
                    .center()
                    .distance_squared(self.shards[j].aabb.center());
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = best else {
            return Ok(None);
        };
        let kept = self.merge_shards(i, j)?;
        let emptied = if kept == i { j } else { i };
        self.adapt.on_merge(kept, emptied);
        Ok(Some((kept, emptied)))
    }

    /// Point-in-time load observability: each shard's decayed profile
    /// and raw lifetime counters, the policy's lifetime
    /// split/merge/rejection totals, and the bounded recent-decision
    /// log (oldest first).
    pub fn load_report(&self) -> LoadReport {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardLoadReport {
                profile: self.adapt.profile.get(i).copied().unwrap_or_default(),
                lifetime: s.load.sample(),
                points: s.tree.kd().num_live(),
                quarantined: s.quarantined,
            })
            .collect();
        LoadReport {
            shards,
            splits: self.adapt.splits,
            merges: self.adapt.merges,
            rejected: self.adapt.rejected,
            recent: self.adapt.decisions.clone(),
        }
    }
}

/// A pinned, immutable view of a [`ShardRouter`]'s searchable state:
/// the shard list (shared `Arc`s), mode and route index — everything
/// queries touch, nothing mutation needs. It is the router's only read
/// path.
///
/// Obtained from [`ShardRouter::snapshot`] and typically published
/// through an [`EpochPublisher`](crate::EpochPublisher): readers pin an
/// epoch's snapshot and search it from any thread
/// (`RouterSnapshot: Send + Sync`) while the live router ingests the
/// next frame. Results — values, order and [`SearchStats`] — depend
/// only on the shard `Arc`s frozen at snapshot time.
///
/// Drop a snapshot before the router's next mutation when it is not
/// published: a live snapshot pins every shard, so the mutation would
/// copy each shard it touches.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    shards: Vec<Arc<Shard>>,
    mode: EngineMode,
    num_points: usize,
    /// Route BVH over the healthy shard boxes, frozen with them.
    routes: Arc<RouteIndex>,
}

impl RouterSnapshot {
    /// The leaf representation every shard scans.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of shards in the snapshot.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live points at snapshot time.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// The coverage this snapshot serves — frozen at snapshot time.
    pub fn coverage(&self) -> Coverage {
        coverage_of(&self.shards)
    }

    /// The origin of the leaf holding each live point, indexed by
    /// global index ([`KdTree::point_origins`] through every shard's
    /// local → global map; `Point3::ZERO` for an index no live point
    /// holds).
    pub fn point_origins(&self) -> Vec<Point3> {
        let len = self
            .shards
            .iter()
            .flat_map(|s| s.global.iter())
            .max()
            .map_or(0, |&g| g as usize + 1);
        let mut origins = vec![Point3::ZERO; len];
        for shard in &self.shards {
            let kd = shard.tree.kd();
            for (local, origin) in kd.point_origins().into_iter().enumerate() {
                match shard.global.get(local) {
                    Some(&g) if kd.is_live(local as u32) => origins[g as usize] = origin,
                    _ => {}
                }
            }
        }
        origins
    }

    /// The typed no-coverage gate of the serving boundary:
    /// [`QueryError::NoCoverage`] exactly when the snapshot is
    /// non-empty and **every** shard is quarantined — the one state
    /// where a search's empty answer would be silently wrong rather
    /// than authoritative. Partial quarantine passes (the healthy
    /// shards answer; [`coverage`](RouterSnapshot::coverage) reports
    /// the offline regions), and an empty snapshot is legitimately
    /// empty, not an error.
    pub fn coverage_gate(&self) -> Result<(), QueryError> {
        if !self.shards.is_empty() && self.shards.iter().all(|s| s.quarantined) {
            return Err(QueryError::NoCoverage {
                offline: self.shards.iter().map(|s| s.aabb).collect(),
            });
        }
        Ok(())
    }

    /// Answers one query, clearing `out` first: hits re-indexed to
    /// global indices, canonical ascending order. Allocation-free once
    /// `scratch` and `out` are warm.
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

    /// The appending per-query kernel (the closure shape
    /// [`QueryBatch::push_query`] consumes): hits append to `out`
    /// without clearing it, in canonical order per query. This is the
    /// entry point the `bonsai-serve` batch executor drives.
    pub fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        append_routed(
            &self.shards,
            &self.routes,
            query,
            radius,
            scratch,
            out,
            stats,
        );
    }

    /// Answers every query in one call, filling `batch` (reset first),
    /// with [`QueryBatch::stats`] aggregating the whole batch across
    /// shards.
    pub fn search_batch(&self, queries: &[Point3], radius: f32, batch: &mut QueryBatch) {
        batch.reset();
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                self.search_append(query, radius, scratch, out, stats);
            });
        }
    }

    /// [`search_batch`](RouterSnapshot::search_batch) fanned out over
    /// scoped worker threads, identical output and stats.
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

    /// The shard-per-worker partition of this snapshot's healthy
    /// shards: a longest-processing-time assignment over each shard's
    /// observed load (the same counters
    /// [`ShardRouter::adapt_step`] rebalances on; point counts before
    /// any load has been seen). Returns at most `workers` non-empty
    /// ownership sets, together covering every healthy shard exactly
    /// once. Each set is one worker's slice for
    /// [`search_batch_shards`](RouterSnapshot::search_batch_shards),
    /// and the quality of the balance is exactly what the adaptive
    /// policy buys: a static topology's hot shard is one indivisible
    /// bin entry, while an adapted topology spreads the same load over
    /// many small shards the assignment can interleave.
    pub fn worker_partition(&self, workers: usize) -> Vec<Vec<usize>> {
        balance_shards_by_load(&self.shards, workers.max(1))
    }

    /// Answers every query against only the listed shards — one
    /// worker's slice of the shard-per-worker serving model, filling
    /// `batch` (reset first) with that slice's exact hits in canonical
    /// ascending-global-index order. Out-of-range and duplicate
    /// entries in `subset` are ignored; quarantined shards are skipped
    /// as everywhere else. Concatenating the per-query results of the
    /// slices of a [`worker_partition`](RouterSnapshot::worker_partition)
    /// and re-sorting by global index reproduces
    /// [`search_batch`](RouterSnapshot::search_batch) bit for bit.
    pub fn search_batch_shards(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
        subset: &[usize],
    ) {
        batch.reset();
        let routes = RouteIndex::build_subset(&self.shards, subset);
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                append_routed(&self.shards, &routes, query, radius, scratch, out, stats);
            });
        }
    }
}

/// A flat skip-pointer BVH over the healthy shards' bounding boxes:
/// the routing accelerator that keeps per-query dispatch `O(log K +
/// hits)` instead of a linear scan of all `K` shard boxes — the cost
/// that would otherwise cancel the adaptive policy's traversal savings
/// once it splits a hot region into many small shards.
///
/// Nodes are stored in preorder; `skip` jumps past a node's whole
/// subtree when the query ball misses its box. A leaf carries the
/// shard's position in the shard list and **its exact bounding box**,
/// so the accepted shard set is exactly the healthy shards whose box
/// passes `intersects_ball` (interior boxes are unions, so they only
/// ever prune shards the leaf test would also reject). Quarantined and
/// empty shards are excluded at build time.
///
/// Built once per [`RouterSnapshot`] and frozen with its shard list
/// (the serving path routes single queries, so it must not pay a
/// per-query build); a worker's shard subset gets its own per-call
/// index.
#[derive(Debug)]
struct RouteIndex {
    nodes: Vec<RouteNode>,
}

#[derive(Debug, Clone, Copy)]
struct RouteNode {
    aabb: Aabb,
    /// Preorder index just past this node's subtree: where the walk
    /// resumes when the query ball misses `aabb`.
    skip: u32,
    /// Leaf payload — the shard's index in the shard list — or
    /// `u32::MAX` for an interior node.
    shard: u32,
}

impl RouteIndex {
    fn build(shards: &[Arc<Shard>]) -> RouteIndex {
        let mut entries: Vec<(u32, Aabb)> = shards
            .iter()
            .enumerate()
            // An empty shard's inverted box can never intersect a ball;
            // a quarantined shard must not be searched.
            .filter(|(_, s)| !s.quarantined && s.aabb.min.x <= s.aabb.max.x)
            .map(|(i, s)| (i as u32, s.aabb))
            .collect();
        RouteIndex::from_entries(&mut entries)
    }

    /// A route index over only the listed shard positions (a worker's
    /// ownership set in the shard-per-worker paths), with the same
    /// quarantine/empty exclusions as [`build`](RouteIndex::build).
    /// Out-of-range and duplicate positions are ignored, so a stale
    /// caller-held partition can never panic the serving path or
    /// duplicate hits.
    fn build_subset(shards: &[Arc<Shard>], subset: &[usize]) -> RouteIndex {
        let mut seen = vec![false; shards.len()];
        let mut entries: Vec<(u32, Aabb)> = subset
            .iter()
            .filter(|&&i| i < shards.len() && !std::mem::replace(&mut seen[i], true))
            .map(|&i| (i, &shards[i]))
            .filter(|(_, s)| !s.quarantined && s.aabb.min.x <= s.aabb.max.x)
            .map(|(i, s)| (i as u32, s.aabb))
            .collect();
        RouteIndex::from_entries(&mut entries)
    }

    fn from_entries(entries: &mut [(u32, Aabb)]) -> RouteIndex {
        let mut nodes = Vec::with_capacity(entries.len().saturating_mul(2));
        if !entries.is_empty() {
            build_route_nodes(entries, &mut nodes);
        }
        RouteIndex { nodes }
    }

    /// Calls `f` for every indexed shard whose box the query ball
    /// intersects, in preorder.
    fn for_each_hit(&self, query: Point3, r_sq: f32, mut f: impl FnMut(usize)) {
        let mut i = 0usize;
        while let Some(n) = self.nodes.get(i) {
            if n.aabb.intersects_ball(query, r_sq) {
                if n.shard != u32::MAX {
                    f(n.shard as usize);
                }
                i += 1;
            } else {
                i = n.skip as usize;
            }
        }
    }
}

/// Longest-processing-time assignment of the healthy shards to
/// `workers` bins: shards sorted by observed cost descending, each
/// placed in the currently lightest bin. Cost is the same signal the
/// adaptive policy splits on — cumulative nodes visited plus points
/// inspected — falling back to the shard's point count before any load
/// has been recorded (a capacity prior), so a cold router still gets a
/// sensible partition. Empty bins are dropped (fewer healthy shards
/// than workers).
fn balance_shards_by_load(shards: &[Arc<Shard>], workers: usize) -> Vec<Vec<usize>> {
    let mut cost: Vec<(u64, usize)> = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.quarantined && s.aabb.min.x <= s.aabb.max.x)
        .map(|(i, s)| {
            let l = s.load.sample();
            let observed = l.nodes_visited + l.points_inspected;
            let c = if observed > 0 {
                observed
            } else {
                s.global.len() as u64
            };
            (c.max(1), i)
        })
        .collect();
    cost.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut totals = vec![0u64; workers];
    for (c, i) in cost {
        let w = (0..workers).min_by_key(|&w| totals[w]).unwrap_or(0);
        totals[w] += c;
        bins[w].push(i);
    }
    bins.retain(|b| !b.is_empty());
    bins
}

/// Recursive preorder build: union box, median split of the entries by
/// box center along the union's widest axis. `entries` is never empty.
fn build_route_nodes(entries: &mut [(u32, Aabb)], nodes: &mut Vec<RouteNode>) {
    let aabb = entries[1..]
        .iter()
        .fold(entries[0].1, |acc, (_, b)| acc.union(b));
    let me = nodes.len();
    nodes.push(RouteNode {
        aabb,
        skip: 0,
        shard: if entries.len() == 1 {
            entries[0].0
        } else {
            u32::MAX
        },
    });
    if entries.len() > 1 {
        let axis = aabb.widest_axis();
        let mid = entries.len() / 2;
        entries.select_nth_unstable_by(mid, |a, b| {
            a.1.center()[axis].total_cmp(&b.1.center()[axis])
        });
        let (lo, hi) = entries.split_at_mut(mid);
        build_route_nodes(lo, nodes);
        build_route_nodes(hi, nodes);
    }
    nodes[me].skip = nodes.len() as u32;
}

/// The coverage a shard list serves: complete when no shard is
/// quarantined, else the offline regions' bounding boxes.
fn coverage_of(shards: &[Arc<Shard>]) -> Coverage {
    let offline: Vec<Aabb> = shards
        .iter()
        .filter(|s| s.quarantined)
        .map(|s| s.aabb)
        .collect();
    Coverage {
        complete: offline.is_empty(),
        offline,
    }
}

/// The routed per-query kernel of [`RouterSnapshot`]: searches every
/// shard the route index accepts for the query ball, re-indexes its
/// hits to global indices, sorts the query's merged hits into canonical
/// ascending-index order.
fn append_routed(
    shards: &[Arc<Shard>],
    routes: &RouteIndex,
    query: Point3,
    radius: f32,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    // Same up-front rejection as the traversal layer, so a
    // degenerate radius or a non-finite query center skips even the
    // AABB walk. Without the center guard the router could diverge
    // from the single-tree engine: `Aabb::intersects_ball` with a
    // NaN center is false for every box (no shard searched), while
    // an ∞ center makes the distance arithmetic produce NaN
    // (∞ − ∞) for boxes that "contain" the coordinate.
    if !bonsai_kdtree::radius_is_searchable(radius) || !bonsai_kdtree::query_is_searchable(query) {
        return;
    }
    let start = out.len();
    routes.for_each_hit(query, radius * radius, |i| {
        let shard = &shards[i];
        let before = out.len();
        let nodes_before = stats.nodes_visited;
        let points_before = stats.points_inspected;
        shard
            .tree
            .engine()
            .search_append(query, radius, scratch, out, stats);
        // Charge the traversal effort to the shard's identity-shared
        // load accumulator (relaxed atomics; a statistic, not a
        // synchronization edge) — the signal `adapt_step` rebalances on.
        shard.load.record(
            stats.nodes_visited - nodes_before,
            stats.points_inspected - points_before,
        );
        for n in &mut out[before..] {
            n.index = shard.global[n.index as usize];
        }
    });
    // Global indices are unique, so the sort key is total and the
    // canonical order is independent of the shard layout.
    out[start..].sort_unstable_by_key(|n| n.index);
}

/// Deterministic fault-injection hooks for the chaos test suite: each
/// corrupts live router state in a way the audit is contracted to
/// catch, returning the shard attributed (or `None` when the router
/// offers no applicable site). Never compiled into default builds.
#[cfg(feature = "chaos")]
impl ShardRouter {
    /// Tries the per-tree fault on each healthy shard (starting from a
    /// seeded pick) until one applies.
    fn chaos_try(
        &mut self,
        rng: &mut bonsai_kdtree::ChaosRng,
        mut f: impl FnMut(&mut ShardTree, &mut bonsai_kdtree::ChaosRng) -> bool,
    ) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].quarantined)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let start = rng.below(candidates.len());
        for k in 0..candidates.len() {
            let si = candidates[(start + k) % candidates.len()];
            // lint: allow(cow-discipline) — seeded fault injection
            // deliberately mutates a live tree to plant corruption;
            // bypassing the dirty gate is the point of the exercise.
            if f(&mut Arc::make_mut(&mut self.shards[si]).tree, rng) {
                return Some(si);
            }
        }
        None
    }

    /// Duplicates a `vind` entry inside one shard tree's leaf.
    pub fn chaos_duplicate_vind(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_duplicate_vind(rng),
            ShardTree::Bonsai(b) => b.chaos_duplicate_vind(rng),
        })
    }

    /// Skews one interior divider past its split value.
    pub fn chaos_skew_divider(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_skew_divider(rng),
            ShardTree::Bonsai(b) => b.chaos_skew_divider(rng),
        })
    }

    /// Skews one shard tree's garbage-slot counter.
    pub fn chaos_skew_garbage(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_skew_garbage(rng),
            ShardTree::Bonsai(b) => b.chaos_skew_garbage(rng),
        })
    }

    /// Flips one f16-approximate row bit (Bonsai shards only).
    pub fn chaos_flip_f16(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(_) => false,
            ShardTree::Bonsai(b) => b.chaos_flip_f16(rng),
        })
    }

    /// Shifts one live leaf's origin off its grid (Bonsai shards only:
    /// baseline scans never read an origin).
    pub fn chaos_skew_origin(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(_) => false,
            ShardTree::Bonsai(b) => b.chaos_skew_origin(rng),
        })
    }

    /// Flips one bit of one live leaf header (Bonsai shards only).
    pub fn chaos_corrupt_header(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(_) => false,
            ShardTree::Bonsai(b) => b.chaos_corrupt_header(rng),
        })
    }

    /// Breaks one global→(shard, local) directory entry: a mapped
    /// global routed to a healthy shard gets a local index no shard
    /// slot can hold.
    pub fn chaos_break_directory(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        let candidates: Vec<usize> = self
            .locs
            .iter()
            .enumerate()
            .filter(|(_, loc)| {
                loc.shard != PointLoc::GONE.shard
                    && (loc.shard as usize) < self.shards.len()
                    && !self.shards[loc.shard as usize].quarantined
            })
            .map(|(g, _)| g)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let g = candidates[rng.below(candidates.len())];
        let si = self.locs[g].shard as usize;
        self.locs[g].local = u32::MAX - 1;
        Some(si)
    }
}

/// Median-cut spatial partition: repeatedly splits the most populous
/// part at the median of its bounding box's widest axis until `k`
/// non-empty parts exist (or every part is a single point). Each part's
/// global indices are returned sorted ascending, and the parts
/// themselves ordered by their smallest index, so the layout is
/// deterministic.
fn median_cut(points: &[Point3], k: usize) -> Vec<Vec<u32>> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut parts: Vec<Vec<u32>> = vec![(0..points.len() as u32).collect()];
    while parts.len() < k {
        let (widest, _) = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            // lint: allow(panic-free-serving) — `parts` starts with
            // one partition and only ever splits; it is never empty.
            .expect("parts is non-empty");
        if parts[widest].len() < 2 {
            break; // Only single-point parts remain.
        }
        let mut part = parts.swap_remove(widest);
        // lint: allow(panic-free-serving) — the split-candidate part
        // was just checked to hold ≥ 2 points, so its box exists.
        let bbox =
            Aabb::from_points(part.iter().map(|&i| points[i as usize])).expect("non-empty part");
        let axis = bbox.widest_axis();
        let mid = part.len() / 2;
        part.select_nth_unstable_by(mid, |&a, &b| {
            points[a as usize][axis].total_cmp(&points[b as usize][axis])
        });
        let right = part.split_off(mid);
        parts.push(part);
        parts.push(right);
    }
    for p in &mut parts {
        p.sort_unstable();
    }
    parts.sort_unstable_by_key(|p| p[0]);
    parts
}

/// Builds one shard's tree (and, under Bonsai, its compressed
/// directory) from its owned point set.
fn build_shard(global: Vec<u32>, pts: Vec<Point3>, cfg: KdTreeConfig, mode: EngineMode) -> Shard {
    build_shard_threaded(global, pts, cfg, mode, 1)
}

/// [`build_shard`] with `inner_threads` workers fanning the top levels
/// of the single shard's build recursion (the dinotree idiom; the
/// resulting tree is identical to the sequential build's). Used when
/// the router has fewer shards than threads — e.g. a one-shard
/// streaming index on a many-core box.
fn build_shard_threaded(
    global: Vec<u32>,
    pts: Vec<Point3>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    inner_threads: usize,
) -> Shard {
    // lint: allow(panic-free-serving) — the median cut never emits an
    // empty shard, so the bounding box always exists.
    let aabb = Aabb::from_points(pts.iter().copied()).expect("shards are non-empty");
    let tree = if inner_threads > 1 {
        match mode {
            EngineMode::Baseline => {
                ShardTree::Baseline(KdTree::build_parallel(pts, cfg, inner_threads))
            }
            EngineMode::Compressed => {
                ShardTree::Bonsai(BonsaiTree::build_parallel(pts, cfg, inner_threads))
            }
        }
    } else {
        let mut sim = SimEngine::disabled();
        match mode {
            EngineMode::Baseline => ShardTree::Baseline(KdTree::build(pts, cfg, &mut sim)),
            EngineMode::Compressed => ShardTree::Bonsai(BonsaiTree::build(pts, cfg, &mut sim)),
        }
    };
    Shard {
        aabb,
        global,
        tree,
        quarantined: false,
        pending_deletes: Vec::new(),
        load: Arc::new(ShardLoad::default()),
    }
}

/// Builds every shard, fanning out over scoped threads when the
/// `parallel` feature is enabled and more than one thread is requested.
#[cfg(feature = "parallel")]
fn build_shards(
    inputs: Vec<(Vec<u32>, Vec<Point3>)>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    threads: usize,
) -> Vec<Shard> {
    let requested = crate::fanout::requested_threads(threads);
    let threads = crate::fanout::resolve_threads(threads, inputs.len());
    if threads == 1 {
        // Fewer shards than workers: give each shard's own build
        // recursion the leftover parallelism (subtree fan-out).
        let inner = (requested / inputs.len().max(1)).max(1);
        return inputs
            .into_iter()
            .map(|(global, pts)| build_shard_threaded(global, pts, cfg, mode, inner))
            .collect();
    }
    let chunk = inputs.len().div_ceil(threads);
    let mut chunks: Vec<Vec<(Vec<u32>, Vec<Point3>)>> = Vec::with_capacity(threads);
    let mut iter = inputs.into_iter();
    loop {
        let c: Vec<_> = iter.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    // Workers beyond one-per-shard go into each shard's own build
    // recursion (e.g. 2 shards on an 8-core box: 2 workers × 4 inner
    // threads instead of 6 idle cores).
    let inner = (requested / threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(move || -> Vec<Shard> {
                    c.into_iter()
                        .map(|(global, pts)| build_shard_threaded(global, pts, cfg, mode, inner))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panic-free-serving) — join() only fails when
            // the worker itself panicked; re-raising that panic is the
            // correct propagation, not an input condition.
            .flat_map(|h| h.join().expect("shard build worker panicked"))
            .collect()
    })
}

#[cfg(not(feature = "parallel"))]
fn build_shards(
    inputs: Vec<(Vec<u32>, Vec<Point3>)>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    _threads: usize,
) -> Vec<Shard> {
    inputs
        .into_iter()
        .map(|(global, pts)| build_shard(global, pts, cfg, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::find_best_split_plane;
    use crate::shell::check_compressed_hits;
    use crate::RadiusSearchEngine;

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

    fn sorted(mut hits: Vec<Neighbor>) -> Vec<Neighbor> {
        hits.sort_unstable_by_key(|n| n.index);
        hits
    }

    /// Asserts that two trees over the same points — sharded vs
    /// single, mutated vs fresh, before vs after a split or a rebuild —
    /// answered `query` alike: a compressed hit classified from its
    /// leaf-relative half reports a `d′²` that depends on its leaf's
    /// origin, so each side is held to what its own leaves report
    /// ([`check_compressed_hits`]); `got` and `want` pair the hits with
    /// the leaf origins of every point (global index space).
    #[track_caller]
    fn assert_same_hits(
        query: Point3,
        radius: f32,
        points: &[Point3],
        got: (&[Neighbor], &[Point3]),
        want: (&[Neighbor], &[Point3]),
        what: &str,
    ) {
        if let Err(e) = check_compressed_hits(query, radius, points, got.0, got.1, want.0, want.1) {
            panic!("{what}: {e:?}");
        }
    }

    /// Every live point of `router`, indexed by global index.
    fn global_points(router: &ShardRouter) -> Vec<Point3> {
        let mut points = vec![Point3::ZERO; router.locs.len()];
        for shard in &router.shards {
            let kd = shard.tree.kd();
            for (local, &global) in shard.global.iter().enumerate() {
                if kd.is_live(local as u32) {
                    points[global as usize] = kd.points()[local];
                }
            }
        }
        points
    }

    #[test]
    fn median_cut_partitions_every_point_once() {
        let cloud = urban_cloud(1000, 1);
        for k in [1, 2, 3, 7, 16] {
            let parts = median_cut(&cloud, k);
            assert_eq!(parts.len(), k);
            let mut seen = vec![false; cloud.len()];
            for p in &parts {
                assert!(!p.is_empty());
                for &i in p {
                    assert!(!seen[i as usize], "point {i} in two shards");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
            // Median splits keep shards balanced within 2×.
            let min = parts.iter().map(Vec::len).min().unwrap();
            let max = parts.iter().map(Vec::len).max().unwrap();
            assert!(max <= 2 * min, "k {k}: {min}..{max}");
        }
    }

    #[test]
    fn more_shards_than_points_caps_at_one_point_each() {
        let cloud = urban_cloud(5, 2);
        let parts = median_cut(&cloud, 64);
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn empty_cloud_builds_an_empty_router() {
        let router = ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(4));
        assert_eq!(router.num_shards(), 0);
        let mut batch = QueryBatch::new();
        router
            .snapshot()
            .search_batch(&[Point3::ZERO], 1.0, &mut batch);
        assert_eq!(batch.num_queries(), 1);
        assert_eq!(batch.total_matches(), 0);
    }

    #[test]
    fn router_matches_single_tree_engine_values() {
        let cloud = urban_cloud(3000, 3);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(6));
        let queries: Vec<Point3> = cloud.iter().step_by(17).copied().collect();

        let mut single = QueryBatch::new();
        engine.search_batch(&queries, 1.2, &mut single);
        let mut sharded = QueryBatch::new();
        router.snapshot().search_batch(&queries, 1.2, &mut sharded);

        assert_eq!(sharded.num_queries(), single.num_queries());
        for i in 0..single.num_queries() {
            assert_eq!(
                sharded.results(i),
                &sorted(single.results(i).to_vec())[..],
                "query {i}"
            );
        }
    }

    #[test]
    fn degenerate_radii_are_empty_through_the_router() {
        let cloud = urban_cloud(500, 4);
        let router = ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::default());
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(cloud[0], 1.0, &mut scratch, &mut out, &mut stats);
        assert!(!out.is_empty());
        for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut stats = SearchStats::default();
            router.search_one(cloud[0], r, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "radius {r}");
            assert_eq!(stats, SearchStats::default(), "radius {r}");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_router_batch_is_identical_to_sequential() {
        let cloud = urban_cloud(2000, 9);
        let router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(5));
        let mut sequential = QueryBatch::new();
        router.snapshot().search_batch(&cloud, 0.9, &mut sequential);
        for threads in [0, 1, 2, 3, 7] {
            let mut parallel = QueryBatch::new();
            router
                .snapshot()
                .search_batch_parallel(&cloud, 0.9, &mut parallel, threads);
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

    /// The shard-per-worker serving model must stay bit-identical to
    /// the sequential batch — values, order, and aggregate stats — for
    /// every worker count, on a load-skewed, partially quarantined,
    /// policy-adapted topology (the states the LPT assignment and the
    /// per-worker subset route index must handle): each worker answers
    /// every query against its `worker_partition` slice on its own
    /// thread, and the per-query hits merge in canonical order.
    #[test]
    fn shard_parallel_batch_is_identical_to_sequential() {
        let cloud = urban_cloud(3000, 13);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(5));
        // Skew the load so the LPT balancer sees uneven costs and the
        // policy splits at least one hot shard.
        let hot: Vec<Point3> = cloud.iter().copied().take(200).collect();
        let policy = ShardPolicy {
            min_split_points: 64,
            min_queries: 16.0,
            max_shards: 12,
            ..ShardPolicy::default()
        };
        let mut batch = QueryBatch::new();
        for _ in 0..8 {
            router.snapshot().search_batch(&hot, 1.0, &mut batch);
            router.adapt_step(&policy, 0);
        }
        router.quarantine(1);
        let snap = router.snapshot();
        let mut sequential = QueryBatch::new();
        snap.search_batch(&cloud, 0.9, &mut sequential);
        let per_worker = |queries: &[Point3], radius: f32, workers: usize| -> QueryBatch {
            let partition = snap.worker_partition(workers);
            let mut parts: Vec<QueryBatch> = partition.iter().map(|_| QueryBatch::new()).collect();
            std::thread::scope(|scope| {
                for (part, own) in parts.iter_mut().zip(&partition) {
                    let snap = &snap;
                    scope.spawn(move || snap.search_batch_shards(queries, radius, part, own));
                }
            });
            let mut merged = QueryBatch::new();
            merged.reset();
            for i in 0..queries.len() {
                merged.push_query(|_, out, stats| {
                    if i == 0 {
                        for part in &parts {
                            *stats += *part.stats();
                        }
                    }
                    let start = out.len();
                    for part in &parts {
                        out.extend_from_slice(part.results(i));
                    }
                    out[start..].sort_unstable_by_key(|n| n.index);
                });
            }
            merged
        };
        for threads in [0, 1, 2, 3, 7, 64] {
            let parallel = per_worker(&cloud, 0.9, threads);
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
        // Degenerate inputs short-circuit identically.
        let empty = per_worker(&[], 0.9, 4);
        assert_eq!(empty.num_queries(), 0);
        let empty = per_worker(&cloud[..16], f32::NAN, 4);
        assert_eq!(empty.num_queries(), 16);
        assert_eq!(empty.total_matches(), 0);

        // The public shard-per-worker surface: the partition covers
        // every healthy shard exactly once, and concatenating the
        // slices' per-query hits re-sorted by global index reproduces
        // the sequential batch bit for bit.
        let partition = snap.worker_partition(3);
        assert!(partition.len() <= 3 && partition.iter().all(|b| !b.is_empty()));
        let mut owned: Vec<usize> = partition.iter().flatten().copied().collect();
        owned.sort_unstable();
        owned.dedup();
        let healthy = (0..router.num_shards())
            .filter(|&s| s != 1 && !router.shard_points(s).is_empty())
            .count();
        assert_eq!(
            owned.len(),
            partition.iter().map(Vec::len).sum::<usize>(),
            "a shard was assigned twice"
        );
        assert_eq!(owned.len(), healthy, "a healthy shard went unassigned");
        let slices: Vec<QueryBatch> = partition
            .iter()
            .map(|own| {
                let mut b = QueryBatch::new();
                snap.search_batch_shards(&cloud, 0.9, &mut b, own);
                b
            })
            .collect();
        for i in 0..sequential.num_queries() {
            let mut merged: Vec<Neighbor> = slices
                .iter()
                .flat_map(|b| b.results(i).iter().copied())
                .collect();
            merged.sort_unstable_by_key(|n| n.index);
            assert_eq!(&merged[..], sequential.results(i), "slice union, query {i}");
        }
        // A stale subset (out-of-range, duplicates) neither panics nor
        // double-counts.
        let mut stale = QueryBatch::new();
        snap.search_batch_shards(&cloud[..64], 0.9, &mut stale, &[0, 0, 999]);
        let mut clean = QueryBatch::new();
        snap.search_batch_shards(&cloud[..64], 0.9, &mut clean, &[0]);
        for i in 0..64 {
            assert_eq!(
                stale.results(i),
                clean.results(i),
                "stale subset, query {i}"
            );
        }
    }

    /// Routed incremental updates must keep the router's membership
    /// identical to a fresh single-tree engine over the live points.
    #[test]
    fn routed_updates_match_fresh_single_tree() {
        let cloud = urban_cloud(2000, 21);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(5));
        let added = urban_cloud(250, 22);
        let removed: Vec<u32> = (0..250u32).map(|i| i * 13 % 2000).collect();
        let inserted = router.apply_update(&added, &removed);
        assert_eq!(inserted.len(), 250);
        assert_eq!(router.num_points(), 2000 - removed.len() + 250);

        // The live global cloud, by ascending global index.
        let mut live: Vec<(u32, Point3)> = Vec::new();
        for (si, shard) in router.shards.iter().enumerate() {
            for (local, &global) in shard.global.iter().enumerate() {
                if shard.tree.kd().is_live(local as u32) {
                    let p = shard.tree.kd().points()[local];
                    live.push((global, p));
                    assert_eq!(router.locs[global as usize].shard, si as u32);
                }
            }
        }
        live.sort_unstable_by_key(|&(g, _)| g);
        assert_eq!(live.len(), router.num_points());
        let live_pts: Vec<Point3> = live.iter().map(|&(_, p)| p).collect();
        let mut sim = SimEngine::disabled();
        let fresh = BonsaiTree::build(live_pts, KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&fresh);
        let points = global_points(&router);
        let router_origins = router.snapshot().point_origins();
        let mut fresh_origins = vec![Point3::ZERO; points.len()];
        for (i, o) in fresh.kd_tree().point_origins().into_iter().enumerate() {
            fresh_origins[live[i].0 as usize] = o;
        }

        let mut scratch = SearchScratch::new();
        let mut got = Vec::new();
        let mut expect = Vec::new();
        for (qi, q) in urban_cloud(30, 23).into_iter().enumerate() {
            let mut stats = SearchStats::default();
            router.search_one(q, 1.4, &mut scratch, &mut got, &mut stats);
            let mut fresh_stats = SearchStats::default();
            engine.search_one(q, 1.4, &mut scratch, &mut expect, &mut fresh_stats);
            let remapped = sorted(
                expect
                    .iter()
                    .map(|n| Neighbor {
                        index: live[n.index as usize].0,
                        dist_sq: n.dist_sq,
                    })
                    .collect(),
            );
            assert_same_hits(
                q,
                1.4,
                &points,
                (&got, &router_origins),
                (&remapped, &fresh_origins),
                &format!("query {qi}"),
            );
        }
    }

    /// An insert outside every shard box grows the nearest shard's box
    /// so query routing keeps finding the point.
    #[test]
    fn out_of_bounds_insert_grows_a_shard_box() {
        let cloud = urban_cloud(600, 25);
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let far = Point3::new(500.0, 500.0, 50.0);
        assert!(router.shard_bounds().all(|b| !b.intersects_ball(far, 0.01)));
        let idx = router.insert(far).unwrap();
        router.commit();
        assert!(router.shard_bounds().any(|b| b.intersects_ball(far, 0.0)));
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(far, 1.0, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
    }

    /// Inserting into an empty router bootstraps a shard; non-finite
    /// inserts and dead deletes stay rejected.
    #[test]
    fn empty_router_bootstraps_and_guards_degenerate_mutations() {
        let mut router =
            ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(4));
        assert!(router.insert(Point3::new(f32::NAN, 0.0, 0.0)).is_none());
        assert!(!router.delete(0), "delete on an empty router");
        let idx = router.insert(Point3::new(1.0, 2.0, 3.0)).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(router.num_shards(), 1);
        router.commit();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(
            Point3::new(1.0, 2.0, 3.0),
            0.5,
            &mut scratch,
            &mut out,
            &mut stats,
        );
        assert_eq!(out.len(), 1);
        assert!(router.delete(idx));
        assert!(!router.delete(idx), "double delete");
        assert_eq!(router.num_points(), 0);
    }

    /// Regression (query-center guard): a NaN center must be empty with
    /// zero stats — before the guard `intersects_ball` was false for
    /// every box under NaN (silently empty by accident) while an ∞
    /// center made the box distance arithmetic produce NaN, so the
    /// router's behavior was undefined relative to the single-tree
    /// engine's.
    #[test]
    fn non_finite_query_centers_are_empty_through_the_router() {
        let cloud = urban_cloud(600, 6);
        let router = ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::default());
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        for q in [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        ] {
            let mut stats = SearchStats::default();
            router.search_one(q, 1.0, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "query {q:?}");
            assert_eq!(stats, SearchStats::default(), "query {q:?} did work");
        }
        let mut batch = QueryBatch::new();
        router
            .snapshot()
            .search_batch(&[Point3::new(f32::NAN, 0.0, 0.0)], 1.0, &mut batch);
        assert_eq!(batch.num_queries(), 1);
        assert_eq!(batch.total_matches(), 0);
        assert_eq!(*batch.stats(), SearchStats::default());
    }

    /// The satellite pinning test: deletes leave shard boxes over-grown
    /// (queries in the emptied region still pay traversal work), and a
    /// rolling rebuild re-tightens them back to the rebuilt-router
    /// baseline — here, a region whose points are all gone routes **no**
    /// work at all afterwards.
    #[test]
    fn rebuild_retightens_overgrown_shard_boxes() {
        // Two well-separated blobs → 2 shards, one per blob.
        let mut cloud: Vec<Point3> = (0..400)
            .map(|i| Point3::new((i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0))
            .collect();
        let far_base = cloud.len() as u32;
        cloud.extend(
            (0..400)
                .map(|i| Point3::new(500.0 + (i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0)),
        );
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        let probe = Point3::new(500.5, 0.5, 1.0);

        // Delete the whole far blob.
        for g in far_base..far_base + 400 {
            assert!(router.delete(g));
        }
        router.commit();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stale_stats = SearchStats::default();
        router.search_one(probe, 0.5, &mut scratch, &mut out, &mut stale_stats);
        assert!(out.is_empty());
        assert!(
            stale_stats.nodes_visited > 0,
            "the over-grown box should still route the probe into the emptied shard"
        );

        // Rolling rebuild over every shard re-tightens the boxes.
        for i in 0..router.num_shards() {
            router.rebuild_shard(i);
        }
        let mut tight_stats = SearchStats::default();
        router.search_one(probe, 0.5, &mut scratch, &mut out, &mut tight_stats);
        assert!(out.is_empty());
        assert_eq!(
            tight_stats,
            SearchStats::default(),
            "after re-tightening, the emptied region routes no work — the rebuilt-router baseline"
        );

        // Near-blob queries still answer identically, and the emptied
        // shard revives on insert.
        let near = cloud[30];
        let mut stats = SearchStats::default();
        router.search_one(near, 0.3, &mut scratch, &mut out, &mut stats);
        assert!(out.iter().any(|n| n.index == 30));
        let idx = router.insert(probe).unwrap();
        router.commit();
        router.search_one(probe, 0.1, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
    }

    /// Rolling rebuilds keep result membership identical, reclaim dead
    /// points + garbage slots, and keep later mutations safe (a dead
    /// global must not resolve to a recycled local slot).
    #[test]
    fn rebuild_shard_preserves_results_and_guards_dead_globals() {
        let cloud = urban_cloud(2000, 31);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let added = urban_cloud(300, 32);
        let removed: Vec<u32> = (0..300u32).map(|i| i * 11 % 2000).collect();
        router.apply_update(&added, &removed);

        let queries: Vec<Point3> = cloud.iter().step_by(37).copied().collect();
        let mut before = QueryBatch::new();
        router.snapshot().search_batch(&queries, 1.3, &mut before);
        let bytes_before = router.resident_bytes();
        let points = global_points(&router);
        let origins_before = router.snapshot().point_origins();

        for i in 0..router.num_shards() {
            router.rebuild_shard(i);
        }
        assert_eq!(router.garbage_slots(), 0, "rebuilds drop garbage slots");
        assert!(
            router.resident_bytes() < bytes_before,
            "rebuilds reclaim dead-point storage"
        );
        let mut after = QueryBatch::new();
        router.snapshot().search_batch(&queries, 1.3, &mut after);
        let origins_after = router.snapshot().point_origins();
        for i in 0..before.num_queries() {
            assert_same_hits(
                queries[i],
                1.3,
                &points,
                (after.results(i), &origins_after),
                (before.results(i), &origins_before),
                &format!("query {i} moved"),
            );
        }

        // Dead globals stay dead (their reclaimed local slots now name
        // other live points — deleting them again must be a no-op)…
        for &g in removed.iter().take(50) {
            assert!(!router.delete(g), "dead global {g} deleted twice");
        }
        // …and live globals keep routing.
        let live_probe = (0..2000u32).find(|g| !removed.contains(g)).unwrap();
        assert!(router.delete(live_probe));
        assert!(!router.delete(live_probe));
        router.commit();
    }

    /// An emptied-and-rebuilt shard (inverted box, infinitely far from
    /// everything under distance routing) must be revived by the next
    /// out-of-box insert instead of a populated shard's box stretching
    /// across the emptied region — otherwise the over-broad routing the
    /// re-tightening fixed would silently come back, permanently.
    #[test]
    fn out_of_box_inserts_revive_emptied_shards() {
        let mut cloud: Vec<Point3> = (0..300)
            .map(|i| Point3::new((i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0))
            .collect();
        let far_base = cloud.len() as u32;
        cloud.extend(
            (0..300)
                .map(|i| Point3::new(500.0 + (i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0)),
        );
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        for g in far_base..far_base + 300 {
            assert!(router.delete(g));
        }
        router.commit();
        router.rebuild_shard(1); // the far shard empties
        assert_eq!(router.shard_sizes().nth(1), Some(0));

        // The stream resumes in the far region: the emptied shard must
        // take the inserts, and the near shard's box must stay tight.
        let near_box_before = router.shard_bounds().next().unwrap();
        let p = Point3::new(500.5, 0.5, 1.0);
        let idx = router.insert(p).unwrap();
        router.commit();
        assert_eq!(
            router.shard_sizes().nth(1),
            Some(1),
            "insert did not revive the emptied shard"
        );
        assert_eq!(
            router.shard_bounds().next().unwrap(),
            near_box_before,
            "near shard's box stretched across the emptied region"
        );
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(p, 0.5, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
        // An in-box insert still routes to its covering shard, not the
        // (now single-point) revived one.
        let covered = cloud[30];
        router.insert(covered).unwrap();
        router.commit();
        assert_eq!(router.shard_sizes().next(), Some(301));
    }

    /// The round-robin policy only pays when a shard's waste crosses
    /// the threshold, and one call never rebuilds more than one shard.
    #[test]
    fn compact_next_is_criterion_triggered_and_amortized() {
        let cloud = urban_cloud(1600, 41);
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let policy = CompactionPolicy::default();
        // Fresh router: a full round of checks rebuilds nothing.
        for _ in 0..router.num_shards() {
            assert_eq!(router.compact_next(&policy), None);
        }
        // Delete most points: every shard crosses the waste threshold;
        // each call rebuilds exactly one shard, round robin.
        for g in 0..1400u32 {
            router.delete(g);
        }
        router.commit();
        let mut rebuilt = Vec::new();
        for _ in 0..router.num_shards() {
            if let Some(i) = router.compact_next(&policy) {
                rebuilt.push(i);
            }
        }
        assert_eq!(
            rebuilt.len(),
            router.num_shards(),
            "all shards hollowed out"
        );
        let mut sorted_ids = rebuilt.clone();
        sorted_ids.sort_unstable();
        sorted_ids.dedup();
        assert_eq!(
            sorted_ids.len(),
            rebuilt.len(),
            "a shard rebuilt twice in one round"
        );
        // After the round, everything is clean again.
        for _ in 0..router.num_shards() {
            assert_eq!(router.compact_next(&policy), None);
        }
        // Never-compact policy never fires.
        let off = CompactionPolicy {
            garbage_ratio: f64::INFINITY,
            min_points: usize::MAX,
        };
        assert_eq!(router.compact_next(&off), None);
    }

    #[test]
    fn query_outside_every_shard_box_touches_nothing() {
        let cloud = urban_cloud(800, 5);
        let router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let far = Point3::new(1.0e6, 1.0e6, 1.0e6);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(far, 1.0, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty());
        // No shard box intersects, so not even a root node is visited.
        assert_eq!(stats, SearchStats::default());
    }

    /// Regression: an all-quarantined router used to answer queries
    /// with a silent empty result — indistinguishable from "nothing in
    /// range" even though *zero* indexed space was searched. The
    /// snapshot's coverage gate (the serving boundary's admission
    /// check) must surface that as the typed [`QueryError::NoCoverage`]
    /// instead.
    #[test]
    fn all_quarantined_router_is_a_typed_error_not_silent_empty() {
        let cloud = urban_cloud(900, 6);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
        let probe = cloud[0];
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();

        // Healthy: the gate admits and the search answers.
        let snap = router.snapshot();
        snap.coverage_gate().expect("healthy router serves");
        snap.search_one(probe, 1.0, &mut scratch, &mut out, &mut stats);
        assert!(!out.is_empty());
        drop(snap);

        for s in 0..router.num_shards() {
            router.quarantine(s);
        }
        // The plain search: silently empty (kept for the
        // partial-quarantine case where skipping IS correct).
        router.search_one(probe, 1.0, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty());
        // The gate: typed, with the offline regions attached.
        let snap = router.snapshot();
        match snap.coverage_gate() {
            Err(QueryError::NoCoverage { offline }) => assert_eq!(offline.len(), 3),
            other => panic!("expected NoCoverage, got {other:?}"),
        }
        drop(snap);

        // An empty router is legitimately empty, not an error.
        let empty = ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(3));
        empty
            .snapshot()
            .coverage_gate()
            .expect("empty index admits");

        // Partial quarantine is coverage, not an error: one healed
        // shard serves again.
        let live: Vec<(u32, Point3)> = (0..100u32).map(|g| (g, cloud[g as usize])).collect();
        router.rebuild_shards_from(&[0], &live);
        router
            .snapshot()
            .coverage_gate()
            .expect("partial coverage serves");
    }

    /// A snapshot is a point-in-time view: mutations after `snapshot()`
    /// must not leak into it (copy-on-write), and its answers must be
    /// bit-identical to the router as it stood at the snapshot.
    #[test]
    fn snapshot_is_immutable_under_router_mutation() {
        let cloud = urban_cloud(1200, 7);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let probe = cloud[42];
        let mut scratch = SearchScratch::new();

        let snap = router.snapshot();
        let mut frozen = Vec::new();
        let mut stats_a = SearchStats::default();
        snap.search_one(probe, 1.1, &mut scratch, &mut frozen, &mut stats_a);
        assert!(frozen.iter().any(|n| n.index == 42));
        assert_eq!(snap.num_points(), router.num_points());

        // Mutate the router hard: delete the probe's own point, insert
        // new ones, commit, rebuild a shard.
        assert!(router.delete(42));
        router.apply_update(&[Point3::new(9.0, 9.0, 9.0)], &[]);
        router.commit();
        router.rebuild_shard(1);

        // The live router no longer returns 42 …
        let mut live = Vec::new();
        let mut stats_b = SearchStats::default();
        router.search_one(probe, 1.1, &mut scratch, &mut live, &mut stats_b);
        assert!(live.iter().all(|n| n.index != 42));

        // … but the pinned snapshot still answers exactly as before,
        // values AND instrumentation.
        let mut again = Vec::new();
        let mut stats_c = SearchStats::default();
        snap.search_one(probe, 1.1, &mut scratch, &mut again, &mut stats_c);
        assert_eq!(frozen, again, "snapshot mutated under the reader");
        assert_eq!(stats_a, stats_c, "snapshot work changed under the reader");
    }

    /// Splits and merges are targeted rebuilds: results keep the
    /// single-tree engine's membership, the audit web stays
    /// certified, slots are never removed, and a rebuilt-empty slot is
    /// reused by the next split.
    #[test]
    fn split_and_merge_preserve_results_and_the_directory() {
        let cloud = urban_cloud(2400, 31);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let queries: Vec<Point3> = cloud.iter().step_by(13).copied().collect();
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let mut expect_batch = QueryBatch::new();
        engine.search_batch(&queries, 1.3, &mut expect_batch);
        let tree_origins = tree.kd_tree().point_origins();
        let check = |router: &ShardRouter, label: &str| {
            let audit = router.audit();
            assert!(audit.is_empty(), "{label}: {audit:?}");
            let mut batch = QueryBatch::new();
            router.snapshot().search_batch(&queries, 1.3, &mut batch);
            let router_origins = router.snapshot().point_origins();
            for i in 0..batch.num_queries() {
                assert_same_hits(
                    queries[i],
                    1.3,
                    &cloud,
                    (batch.results(i), &router_origins),
                    (&sorted(expect_batch.results(i).to_vec()), &tree_origins),
                    &format!("{label} query {i}"),
                );
            }
        };
        check(&router, "before");

        // Split the most populous shard on its SAH plane.
        let big = (0..router.num_shards())
            .max_by_key(|&i| router.shard_points(i).len())
            .unwrap();
        let pts: Vec<Point3> = router
            .shard_points(big)
            .iter()
            .map(|&g| cloud[g as usize])
            .collect();
        let plane = find_best_split_plane(&pts, 16).expect("a populous shard splits");
        let sibling = router
            .split_shard(big, plane.axis, plane.position)
            .expect("split");
        assert_eq!(router.num_shards(), 5);
        assert!(!router.shard_points(big).is_empty());
        assert!(!router.shard_points(sibling).is_empty());
        check(&router, "after split");

        // Merge it back: the loser slot empties but is never removed.
        let kept = router.merge_shards(big, sibling).expect("merge");
        assert_eq!(kept, big.min(sibling));
        assert_eq!(router.num_shards(), 5, "slots are stable");
        let emptied = big.max(sibling);
        assert!(router.shard_points(emptied).is_empty());
        check(&router, "after merge");

        // A second split reuses the rebuilt-empty slot, not a new one.
        let pts: Vec<Point3> = router
            .shard_points(kept)
            .iter()
            .map(|&g| cloud[g as usize])
            .collect();
        let plane = find_best_split_plane(&pts, 16).expect("still splits");
        let sib2 = router
            .split_shard(kept, plane.axis, plane.position)
            .expect("resplit");
        assert_eq!(sib2, emptied, "rebuilt-empty slot must be reused");
        assert_eq!(router.num_shards(), 5);
        check(&router, "after resplit");

        // Typed refusals, all with zero state change.
        assert_eq!(
            router.split_shard(99, 0, 0.0),
            Err(RejectReason::OutOfRange { shard: 99 })
        );
        assert_eq!(
            router.split_shard(kept, 7, 0.0),
            Err(RejectReason::NoGain { shard: kept })
        );
        assert_eq!(
            router.split_shard(kept, 0, f32::NAN),
            Err(RejectReason::NoGain { shard: kept })
        );
        assert_eq!(
            router.split_shard(kept, 0, 1.0e9),
            Err(RejectReason::NoGain { shard: kept }),
            "a plane past every point leaves one side empty"
        );
        assert_eq!(
            router.merge_shards(kept, kept),
            Err(RejectReason::SameShard { shard: kept })
        );
        check(&router, "after refusals");
    }

    /// A split's rebuild retires the shard's dead globals to the
    /// generation-tagged free list, exactly like `rebuild_shard`.
    #[test]
    fn split_retires_dead_globals_for_recycling() {
        let cloud = urban_cloud(1200, 33);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
        for g in 0..200u32 {
            router.delete(g);
        }
        router.commit();
        let before_live = router.num_points();
        for s in 0..3 {
            let pts: Vec<Point3> = {
                let kd = router.shards[s].tree.kd();
                (0..kd.points().len() as u32)
                    .filter(|&l| kd.is_live(l))
                    .map(|l| kd.points()[l as usize])
                    .collect()
            };
            if let Some(plane) = find_best_split_plane(&pts, 8) {
                router
                    .split_shard(s, plane.axis, plane.position)
                    .expect("split");
            }
        }
        assert_eq!(
            router.num_points(),
            before_live,
            "splits must not lose points"
        );
        let audit = router.audit();
        assert!(audit.is_empty(), "{audit:?}");
        // The dead band's globals were retired with a generation bump
        // and are recycled by the next insert.
        let g = router.insert(Point3::new(0.5, 0.5, 0.5)).unwrap();
        assert!(g < 200, "expected a recycled global, got fresh {g}");
        assert_eq!(router.generation(g), Some(1), "retirement bumps the tag");
    }

    /// Closed loop: hammering one neighborhood must drive `adapt_step`
    /// to split the hot shard, while results keep the single-tree
    /// engine's membership and the decision log stays observable.
    #[test]
    fn adapt_step_splits_the_hot_shard_and_stays_exact() {
        let cloud = urban_cloud(4000, 35);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let policy = ShardPolicy {
            min_split_points: 64,
            min_queries: 16.0,
            max_shards: 16,
            ..ShardPolicy::default()
        };
        let ego = cloud[0];
        let hot_queries: Vec<Point3> = cloud
            .iter()
            .copied()
            .filter(|p| p.distance_squared(ego) < 64.0)
            .take(256)
            .collect();
        assert!(hot_queries.len() > 32, "seed produced too small a hot set");
        let mut batch = QueryBatch::new();
        let mut executed = 0u64;
        for _ in 0..12 {
            router
                .snapshot()
                .search_batch(&hot_queries, 1.0, &mut batch);
            let report = router.adapt_step(&policy, 0);
            executed += report.splits + report.merges;
        }
        let lr = router.load_report();
        assert!(lr.splits >= 1, "no split under heavy skew: {lr:?}");
        assert_eq!(lr.splits + lr.merges, executed);
        assert!(!lr.recent.is_empty(), "decisions must be logged");
        assert!(lr.shards.iter().any(|s| s.lifetime.queries > 0));
        let audit = router.audit();
        assert!(audit.is_empty(), "{audit:?}");

        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let queries: Vec<Point3> = cloud.iter().step_by(29).copied().collect();
        let mut single = QueryBatch::new();
        engine.search_batch(&queries, 1.2, &mut single);
        let mut routed = QueryBatch::new();
        router.snapshot().search_batch(&queries, 1.2, &mut routed);
        let (router_origins, tree_origins) = (
            router.snapshot().point_origins(),
            tree.kd_tree().point_origins(),
        );
        for i in 0..single.num_queries() {
            assert_same_hits(
                queries[i],
                1.2,
                &cloud,
                (routed.results(i), &router_origins),
                (&sorted(single.results(i).to_vec()), &tree_origins),
                &format!("query {i} diverged after adaptation"),
            );
        }
    }

    /// A uniform query stream over an over-split fleet must walk the
    /// topology back down: a flat load profile earns nothing from a
    /// fine partition, while every populated shard taxes every routed
    /// query with one more box test.
    #[test]
    fn flat_profile_over_split_fleet_merges_back_down() {
        // A regular grid, not `urban_cloud`: the clustered cloud has
        // genuine hot spots, while this test needs per-shard work that
        // is actually flat.
        let mut cloud = Vec::with_capacity(16 * 16 * 16);
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    cloud.push(Point3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        let mut router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(16),
        );
        // split_ratio is raised above the default: a freshly merged
        // shard inherits both halves' profiles (~2× the populated
        // mean), and decay noise around the default 2.0 threshold
        // could tip it into a spurious re-split.
        let policy = ShardPolicy {
            min_queries: 16.0,
            split_ratio: 3.0,
            flat_ratio: 2.0,
            flat_floor: 4,
            ..ShardPolicy::default()
        };
        let queries: Vec<Point3> = cloud.iter().step_by(17).copied().collect();
        let before_live = router.num_points();
        let mut batch = QueryBatch::new();
        let mut merges = 0u64;
        for _ in 0..20 {
            router.snapshot().search_batch(&queries, 1.0, &mut batch);
            let report = router.adapt_step(&policy, 0);
            assert_eq!(report.splits, 0, "uniform load must never split");
            merges += report.merges;
        }
        assert!(merges >= 2, "flat profile over 16 shards must merge");
        let populated = router
            .load_report()
            .shards
            .iter()
            .filter(|s| s.points > 0)
            .count();
        assert!(
            populated >= policy.flat_floor.min(policy.min_shards.max(2)),
            "merging must respect the floors, populated {populated}"
        );
        assert!(
            populated < 16,
            "fleet must actually shrink, populated {populated}"
        );
        assert_eq!(
            router.num_points(),
            before_live,
            "merges must not lose points"
        );
        let audit = router.audit();
        assert!(audit.is_empty(), "{audit:?}");
    }

    /// The guard-fix satellite, as a regression test: a quarantined
    /// (heal-in-progress) shard is never chosen for a topology change,
    /// and neither is anything else while pinned readers lag beyond the
    /// policy's staleness bound — both land in the report as typed
    /// rejections, and the identical proposal executes once the guard
    /// clears.
    #[test]
    fn heal_in_progress_and_stale_pins_block_topology_changes() {
        let cloud = urban_cloud(3000, 37);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        // split_ratio is lowered so the hot shard stays decisively
        // above the populated-shard mean across the decay the blocked
        // steps cost it — this test exercises the guards, not the
        // hotness threshold.
        let policy = ShardPolicy {
            min_split_points: 64,
            min_queries: 16.0,
            split_ratio: 1.5,
            ..ShardPolicy::default()
        };
        let ego = cloud[0];
        let hot_queries: Vec<Point3> = cloud
            .iter()
            .copied()
            .filter(|p| p.distance_squared(ego) < 64.0)
            .take(128)
            .collect();
        let mut batch = QueryBatch::new();
        router
            .snapshot()
            .search_batch(&hot_queries, 1.0, &mut batch);

        // Identify the hot shard from the load report, then put it
        // into heal-in-progress state.
        let lr = router.load_report();
        let hot = (0..lr.shards.len())
            .max_by_key(|&i| {
                lr.shards[i].lifetime.nodes_visited + lr.shards[i].lifetime.points_inspected
            })
            .unwrap();
        router.quarantine(hot);
        assert_eq!(
            router.shard_is_adaptable(hot),
            Err(RejectReason::Quarantined { shard: hot })
        );

        let shards_before = router.num_shards();
        let report = router.adapt_step(&policy, 0);
        assert_eq!(report.splits, 0);
        assert_eq!(
            router.num_shards(),
            shards_before,
            "topology changed under quarantine"
        );
        assert!(
            report.decisions.iter().any(|d| matches!(
                d,
                AdaptDecision::Rejected {
                    reason: RejectReason::Quarantined { shard },
                    ..
                } if *shard == hot
            )),
            "missing the typed quarantine rejection: {report:?}"
        );

        // Direct attempts are refused identically, with no state change.
        assert_eq!(
            router.split_shard(hot, 0, 0.0),
            Err(RejectReason::Quarantined { shard: hot })
        );
        assert_eq!(
            router.merge_shards(hot, (hot + 1) % shards_before),
            Err(RejectReason::Quarantined { shard: hot })
        );

        // Heal the shard; now only stale pinned readers block topology.
        let live: Vec<(u32, Point3)> = router
            .shard_points(hot)
            .iter()
            .map(|&g| (g, cloud[g as usize]))
            .collect();
        router.rebuild_shards_from(&[hot], &live);
        assert!(router.shard_is_adaptable(hot).is_ok());
        router
            .snapshot()
            .search_batch(&hot_queries, 1.0, &mut batch);
        let report = router.adapt_step(&policy, policy.max_epoch_lag + 1);
        assert_eq!(report.splits + report.merges, 0);
        assert_eq!(router.num_shards(), shards_before);
        assert!(
            report.decisions.iter().any(|d| matches!(
                d,
                AdaptDecision::Rejected {
                    reason: RejectReason::StalePins { .. },
                    ..
                }
            )),
            "missing the typed staleness rejection: {report:?}"
        );

        // Readers caught up: the same proposal now executes.
        router
            .snapshot()
            .search_batch(&hot_queries, 1.0, &mut batch);
        let report = router.adapt_step(&policy, policy.max_epoch_lag);
        assert!(
            report.splits >= 1,
            "guarded proposal never executed: {report:?}"
        );
        let audit = router.audit();
        assert!(audit.is_empty(), "{audit:?}");
    }
}
