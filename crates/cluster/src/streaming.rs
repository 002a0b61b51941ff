//! Streaming frame-to-frame cluster extraction: diff-and-update
//! instead of rebuild-per-frame.
//!
//! Consecutive LiDAR frames share most of their (preprocessed) points,
//! yet [`FramePipeline::run`](crate::FramePipeline::run) pays a full
//! tree build + Bonsai compression per frame. The
//! [`StreamingExtractor`] keeps a mutable sharded index alive across
//! frames instead: frame 0 builds it (median-cut shards, parallel
//! construction), every later frame is **diffed** against the live
//! point set ([`FrameUpdate`]: exact-coordinate multiset matching) and
//! only the difference is applied — deletions and insertions routed to
//! their shards, touched leaves lazily re-baked, everything else
//! untouched.
//!
//! Clusters extracted from the incremental index are **identical** to
//! a from-scratch rebuild over the same frame in all three
//! [`TreeMode`]s: euclidean clusters are the connected components of
//! the tolerance graph, and the mutated trees' per-query neighbor sets
//! are bit-identical to fresh builds (property-tested at the workspace
//! root). [`StreamingPipeline`] wires this into the frame pipeline and
//! reproduces [`FramePipeline::run`]'s `FrameResult` end to end.
//!
//! [`FramePipeline::run`]: crate::FramePipeline::run

use std::collections::HashMap;

use bonsai_core::{
    AdaptReport, CompactionPolicy, RouterSnapshot, ShardConfig, ShardPolicy, ShardRouter,
};
use bonsai_geom::Point3;
use bonsai_kdtree::{AuditViolation, KdTreeConfig, SearchStats};

use crate::extract::{bfs_connected_clusters, router_for, ClusterOutput, TreeMode};
use crate::pipeline::PipelineError;

/// One frame's difference against the live point set: coordinates to
/// insert and global indices to delete. Produced by
/// [`StreamingExtractor::diff`], consumed by
/// [`StreamingExtractor::apply`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameUpdate {
    /// Points present in the new frame but not in the live set.
    pub added: Vec<Point3>,
    /// Global indices of live points absent from the new frame.
    pub removed: Vec<u32>,
}

impl FrameUpdate {
    /// Total mutations this update carries.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// A persistent, incrementally-updated cluster extractor.
///
/// Global point indices are assigned at insertion and stay valid until
/// the point is deleted; the live set after
/// [`ingest_frame`](StreamingExtractor::ingest_frame) is exactly the
/// frame's point multiset. A *deleted* index may later be recycled for
/// a new point once a shard rebuild retires its slot (generation-
/// tagged free lists keep long streams from growing one entry per
/// insert ever), so hold indices only while their points are live —
/// [`try_point`](StreamingExtractor::try_point) distinguishes the
/// cases.
///
/// # Examples
///
/// ```
/// use bonsai_cluster::{StreamingExtractor, TreeMode};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::KdTreeConfig;
///
/// let frame0: Vec<Point3> =
///     (0..60).map(|i| Point3::new((i % 10) as f32 * 0.1, (i / 10) as f32 * 0.1, 1.0)).collect();
/// let mut ex = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 2);
/// ex.ingest_frame(&frame0);
/// // Frame 1: one point moved.
/// let mut frame1 = frame0.clone();
/// frame1[7].x += 0.01;
/// let update = ex.diff(&frame1);
/// assert_eq!(update.churn(), 2); // one removal + one insertion
/// ex.ingest_frame(&frame1);
/// let out = ex.extract(0.3, 1, 10_000);
/// assert_eq!(out.clusters.iter().map(|c| c.len()).sum::<usize>(), 60);
/// ```
#[derive(Debug)]
pub struct StreamingExtractor {
    mode: TreeMode,
    tree_cfg: KdTreeConfig,
    shards: usize,
    router: ShardRouter,
    /// Every point ever inserted, by global index (deleted points keep
    /// their slot so indices stay stable).
    coords: Vec<Point3>,
    alive: Vec<bool>,
    num_live: usize,
    /// Live global indices per exact coordinate bits, each list
    /// ascending — the frame matcher, maintained across mutations so
    /// [`diff`](StreamingExtractor::diff) is `O(frame + churn)`
    /// instead of re-hashing the whole live set per frame.
    matcher: HashMap<[u32; 3], Vec<u32>>,
}

impl StreamingExtractor {
    /// An empty extractor serving `mode` through `shards` spatial
    /// shards (`0` and `1` both mean a single shard).
    pub fn new(mode: TreeMode, tree_cfg: KdTreeConfig, shards: usize) -> StreamingExtractor {
        let shards = shards.max(1);
        StreamingExtractor {
            mode,
            tree_cfg,
            shards,
            router: router_for(mode, &[], tree_cfg, ShardConfig::with_shards(shards)),
            coords: Vec::new(),
            alive: Vec::new(),
            num_live: 0,
            matcher: HashMap::new(),
        }
    }

    /// The leaf-inspection mode.
    pub fn mode(&self) -> TreeMode {
        self.mode
    }

    /// Live points currently indexed.
    pub fn num_live(&self) -> usize {
        self.num_live
    }

    /// Total global indices ever assigned (live + deleted); all global
    /// indices are `< points_ever()`.
    pub fn points_ever(&self) -> usize {
        self.coords.len()
    }

    /// The live global indices, ascending.
    pub fn live_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
    }

    /// The coordinates of global point `idx`. Valid while the point is
    /// live; a deleted index keeps reporting its last coordinates only
    /// until a shard rebuild recycles the slot (use
    /// [`try_point`](StreamingExtractor::try_point) when liveness is
    /// not guaranteed).
    ///
    /// # Panics
    ///
    /// Panics if `idx` was never assigned.
    pub fn point(&self, idx: u32) -> Point3 {
        self.coords[idx as usize]
    }

    /// The coordinates of global point `idx`, or
    /// [`PipelineError::PointNotLive`] when the index is out of range
    /// or its point has been deleted — never panics, the serving-path
    /// form of [`point`](StreamingExtractor::point).
    pub fn try_point(&self, idx: u32) -> Result<Point3, PipelineError> {
        let i = idx as usize;
        if i < self.coords.len() && self.alive[i] {
            Ok(self.coords[i])
        } else {
            Err(PipelineError::PointNotLive(idx))
        }
    }

    /// The underlying sharded index (bounds, per-shard stats,
    /// fragmentation).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// An immutable point-in-time view of the index, suitable for
    /// publication as an epoch
    /// ([`EpochPublisher`](bonsai_core::EpochPublisher)): the shards
    /// are shared copy-on-write, so taking a snapshot is `O(shards)`
    /// pointer clones and later mutations pay the deep copy only for
    /// the shards they actually touch while this snapshot is alive.
    pub fn snapshot(&self) -> RouterSnapshot {
        self.router.snapshot()
    }

    /// One amortized rolling-compaction step (see
    /// [`ShardRouter::compact_next`]): checks the next shard against
    /// `policy` and rebuilds it — dropping its dead points and garbage
    /// slots and re-tightening its bounding box — when the waste
    /// criterion fires. Global indices are stable across rebuilds, so
    /// the live set, the frame matcher and every extracted cluster are
    /// unaffected; only memory and routed traversal work shrink.
    /// Returns the rebuilt shard's index, if any.
    pub fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<usize> {
        self.router.compact_next(policy)
    }

    /// One load-adaptive topology step (see
    /// [`ShardRouter::adapt_step`]): folds the per-shard query counters
    /// accumulated since the last step into the decaying load profile
    /// and executes at most one SAH-guided split of a hot shard or
    /// merge of two cold shards. `epoch_lag` is the staleness of the
    /// oldest still-pinned epoch
    /// ([`EpochPublisher::epoch_lag`](bonsai_core::EpochPublisher::epoch_lag));
    /// the policy refuses topology changes while readers lag too far.
    /// Global indices are stable across the targeted rebuilds, so
    /// extraction output and the frame matcher are unaffected.
    pub fn maybe_adapt(&mut self, policy: &ShardPolicy, epoch_lag: u64) -> AdaptReport {
        self.router.adapt_step(policy, epoch_lag)
    }

    /// Diffs a new frame against the live set by exact coordinate bits
    /// (multiset semantics: duplicates match one-for-one, earliest
    /// global index first). The returned update turns the live set
    /// into exactly `next`'s multiset.
    ///
    /// Cost is `O(frame + churn)` per call: the coordinate multimap is
    /// **maintained across mutations** (one list edit per insert or
    /// delete in [`apply`](StreamingExtractor::apply)) rather than
    /// re-hashed over the whole live set every frame, so a quiet frame
    /// pays only its own length.
    pub fn diff(&self, next: &[Point3]) -> FrameUpdate {
        let (update, _) = self.diff_with_positions(next);
        update
    }

    /// [`diff`](StreamingExtractor::diff), also returning for each
    /// frame position either the matched live global index or `None`
    /// (the position is an insertion).
    fn diff_with_positions(&self, next: &[Point3]) -> (FrameUpdate, Vec<Option<u32>>) {
        // The maintained lists are ascending; consume from the front.
        let mut cursors: HashMap<[u32; 3], usize> = HashMap::new();
        let mut matched: Vec<Option<u32>> = Vec::with_capacity(next.len());
        let mut added = Vec::new();
        for &p in next {
            let key = coord_key(p);
            let hit = match self.matcher.get(&key) {
                Some(list) => {
                    let cur = cursors.entry(key).or_insert(0);
                    if *cur < list.len() {
                        let g = list[*cur];
                        *cur += 1;
                        Some(g)
                    } else {
                        None
                    }
                }
                None => None,
            };
            if hit.is_none() {
                added.push(p);
            }
            matched.push(hit);
        }
        let mut removed = Vec::new();
        for (key, list) in &self.matcher {
            let consumed = cursors.get(key).copied().unwrap_or(0);
            removed.extend_from_slice(&list[consumed..]);
        }
        removed.sort_unstable();
        (FrameUpdate { added, removed }, matched)
    }

    /// Rebuilds the frame matcher from the live set (the reference the
    /// maintained map is tested against, and the frame-0 bootstrap).
    fn rebuilt_matcher(&self) -> HashMap<[u32; 3], Vec<u32>> {
        let mut by_bits: HashMap<[u32; 3], Vec<u32>> = HashMap::new();
        for idx in self.live_indices() {
            let p = self.coords[idx as usize];
            by_bits.entry(coord_key(p)).or_default().push(idx);
        }
        by_bits
    }

    /// Records just-inserted global index `g` in the matcher. `g` may
    /// be a recycled slot (smaller than indices already listed), so the
    /// list position is found by binary search to keep it ascending.
    fn matcher_insert(&mut self, g: u32) {
        let key = coord_key(self.coords[g as usize]);
        let list = self.matcher.entry(key).or_default();
        match list.binary_search(&g) {
            Ok(_) => unreachable!("global index {g} inserted twice"),
            Err(pos) => list.insert(pos, g),
        }
    }

    /// Removes global index `g` from the matcher (it was just
    /// deleted); drops the list when it empties so the map tracks the
    /// live set's distinct coordinates.
    fn matcher_remove(&mut self, g: u32) {
        let key = coord_key(self.coords[g as usize]);
        let Some(list) = self.matcher.get_mut(&key) else {
            unreachable!("deleted a live point the matcher never saw");
        };
        // lint: allow(panic-free-serving) — matcher lists are sorted
        // and hold exactly the live points of their coordinate key; a
        // miss is internal index corruption, which the deep auditor
        // (not silent continuation) is the recovery path for.
        let pos = list
            .binary_search(&g)
            .expect("live point present in its matcher list");
        list.remove(pos);
        if list.is_empty() {
            self.matcher.remove(&key);
        }
    }

    /// Applies an update: deletions and insertions are routed to their
    /// shards, then the touched shards' leaves are re-baked. Returns
    /// one entry per `update.added` point, in order: its assigned
    /// global index, or `None` for a non-finite point (rejected by
    /// every mutation entry point — it can never be routed or found).
    pub fn apply(&mut self, update: &FrameUpdate) -> Vec<Option<u32>> {
        for &idx in &update.removed {
            if self.router.delete(idx) {
                self.alive[idx as usize] = false;
                self.num_live -= 1;
                self.matcher_remove(idx);
            }
        }
        let mut inserted = Vec::with_capacity(update.added.len());
        for &p in &update.added {
            let assigned = self.router.insert(p);
            if let Some(g) = assigned {
                let gi = g as usize;
                if gi < self.coords.len() {
                    // Recycled slot: a shard rebuild retired this
                    // index after its point died.
                    debug_assert!(!self.alive[gi], "router recycled a live index");
                    self.coords[gi] = p;
                    self.alive[gi] = true;
                } else {
                    debug_assert_eq!(gi, self.coords.len());
                    self.coords.push(p);
                    self.alive.push(true);
                }
                self.num_live += 1;
                self.matcher_insert(g);
            }
            inserted.push(assigned);
        }
        self.router.commit();
        inserted
    }

    /// Global-index sentinel `ingest_frame` reports for a frame
    /// position holding a non-finite point: such points are never
    /// indexed (no search could find them), so they own no global
    /// index.
    pub const UNINDEXED: u32 = u32::MAX;

    /// Makes the live (finite) points equal to `next`'s: the first
    /// frame builds the sharded index from scratch (median-cut,
    /// parallel shard builds), every later frame diffs and applies
    /// only the change. Returns the global index of each frame
    /// position; positions holding non-finite points report
    /// [`UNINDEXED`](StreamingExtractor::UNINDEXED).
    pub fn ingest_frame(&mut self, next: &[Point3]) -> Vec<u32> {
        if self.coords.is_empty() {
            // Frame 0: a real build beats point-by-point insertion and
            // gives the median-cut shard layout every later mutation
            // routes into. Non-finite points are dropped up front so
            // frame 0 obeys the same mutation guard as every later
            // frame.
            let finite: Vec<Point3> = next.iter().copied().filter(|p| p.is_finite()).collect();
            let cfg = ShardConfig::with_shards(self.shards);
            self.router = router_for(self.mode, &finite, self.tree_cfg, cfg);
            self.coords = finite;
            self.alive = vec![true; self.coords.len()];
            self.num_live = self.coords.len();
            self.matcher = self.rebuilt_matcher();
            let mut g = 0u32;
            return next
                .iter()
                .map(|p| {
                    if p.is_finite() {
                        g += 1;
                        g - 1
                    } else {
                        Self::UNINDEXED
                    }
                })
                .collect();
        }
        let (update, matched) = self.diff_with_positions(next);
        let inserted = self.apply(&update);
        let mut inserted_iter = inserted.into_iter();
        matched
            .into_iter()
            .map(|m| match m {
                Some(g) => g,
                // lint: allow(panic-free-serving) — `apply()` returns
                // exactly one entry per unmatched position by
                // construction of the diff; a shortfall is a diff bug,
                // not an input condition.
                None => inserted_iter
                    .next()
                    .expect("one apply() entry per unmatched position")
                    .unwrap_or(Self::UNINDEXED),
            })
            .collect()
    }

    /// Extracts euclidean clusters from the live set, in **global**
    /// index space: identical membership to a from-scratch extraction
    /// over the live points, for every mode and shard count.
    ///
    /// With shards quarantined (see [`heal`](StreamingExtractor::heal))
    /// their points are **offline**: they neither seed nor join
    /// clusters, and the output's `coverage` names the offline regions
    /// so consumers know the result is partial.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive tolerance; see
    /// [`try_extract`](StreamingExtractor::try_extract) for the
    /// `Result` form.
    pub fn extract(
        &self,
        tolerance: f32,
        min_cluster_size: usize,
        max_cluster_size: usize,
    ) -> ClusterOutput {
        assert!(tolerance > 0.0, "cluster tolerance must be positive");
        let coverage = self.router.coverage();
        // Quarantined shards are unsearchable; their points must not
        // seed clusters either, or singleton fragments would appear.
        let masked: Vec<bool>;
        let alive: &[bool] = if coverage.complete {
            &self.alive
        } else {
            masked = self
                .alive
                .iter()
                .enumerate()
                .map(|(g, &a)| {
                    a && self
                        .router
                        .shard_of(g as u32)
                        .is_some_and(|s| !self.router.is_quarantined(s))
                })
                .collect();
            &masked
        };
        // One snapshot serves every frontier; it drops on return, before
        // any mutation it would otherwise force to copy shards.
        let snapshot = self.router.snapshot();
        let mut search_stats = SearchStats::default();
        let clusters = bfs_connected_clusters(
            &self.coords,
            Some(alive),
            min_cluster_size,
            max_cluster_size,
            &mut search_stats,
            |queries, batch| snapshot.search_batch(queries, tolerance, batch),
        );
        ClusterOutput {
            clusters,
            search_stats,
            build_stats: self.router.build_stats(),
            compressed_bytes: self.router.compressed_bytes(),
            coverage,
        }
    }

    /// [`extract`](StreamingExtractor::extract) behind the serving
    /// `Result` boundary: a degenerate tolerance is an error, never a
    /// panic.
    pub fn try_extract(
        &self,
        tolerance: f32,
        min_cluster_size: usize,
        max_cluster_size: usize,
    ) -> Result<ClusterOutput, PipelineError> {
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(PipelineError::DegenerateTolerance(tolerance));
        }
        Ok(self.extract(tolerance, min_cluster_size, max_cluster_size))
    }

    /// [`ingest_frame`](StreamingExtractor::ingest_frame) behind the
    /// serving `Result` boundary: before mutating, the extractor's
    /// live count is checked against the router's — an `O(1)` tripwire
    /// for directory corruption that would otherwise surface as a
    /// panic deep inside the diff apply. (The full corruption check is
    /// [`audit`](StreamingExtractor::audit); this guard only catches
    /// drift the cheap counters already disagree on.)
    pub fn try_ingest_frame(&mut self, next: &[Point3]) -> Result<Vec<u32>, PipelineError> {
        if self.router.num_points() != self.num_live {
            return Err(PipelineError::CorruptionUnrecovered(vec![
                AuditViolation::new(
                    bonsai_kdtree::ViolationKind::Accounting,
                    format!(
                        "router holds {} live points but the extractor tracks {}",
                        self.router.num_points(),
                        self.num_live
                    ),
                ),
            ]));
        }
        Ok(self.ingest_frame(next))
    }

    /// Runs the deep invariant audit over the whole serving stack: the
    /// router's directory/free-list/accounting web plus every healthy
    /// shard's full tree (and, under Bonsai, compressed-layer) walk.
    /// Empty means certified; never panics on corrupt state.
    pub fn audit(&self) -> Vec<AuditViolation> {
        self.router.audit()
    }

    /// Audits, and if anything is wrong, quarantines every implicated
    /// shard and rebuilds it from the extractor's own coordinates —
    /// the authoritative copy the index is derived from. A violation
    /// that names no shard implicates the global directory itself, so
    /// every shard is rebuilt. Already-quarantined shards are rebuilt
    /// and re-admitted too.
    ///
    /// After a clean heal the index serves **bit-identical** results
    /// to a never-corrupted twin: same clusters, full coverage.
    pub fn heal(&mut self) -> HealReport {
        let violations = self.audit();
        let pre = self.router.quarantined_shards();
        if violations.is_empty() && pre.is_empty() {
            return HealReport {
                violations,
                rebuilt: Vec::new(),
                clean: true,
            };
        }
        let mut rebuilt: Vec<usize> = if violations.iter().any(|v| v.shard.is_none()) {
            (0..self.router.num_shards()).collect()
        } else {
            violations
                .iter()
                .filter_map(|v| v.shard.map(|s| s as usize))
                .chain(pre)
                .collect()
        };
        rebuilt.sort_unstable();
        rebuilt.dedup();
        for &s in &rebuilt {
            self.router.quarantine(s);
        }
        let live: Vec<(u32, Point3)> = self
            .live_indices()
            .map(|g| (g, self.coords[g as usize]))
            .collect();
        self.router.rebuild_shards_from(&rebuilt, &live);
        let clean = self.audit().is_empty();
        HealReport {
            violations,
            rebuilt,
            clean,
        }
    }

    /// Injects a seeded state fault into the live router (the chaos
    /// harness's entry point at this layer). Returns the attributed
    /// shard, or `None` when no site applies.
    #[cfg(feature = "chaos")]
    pub fn chaos_inject(
        &mut self,
        plan: &mut bonsai_core::FaultPlan,
        kind: bonsai_core::FaultKind,
    ) -> Option<usize> {
        plan.inject(&mut self.router, kind)
    }

    /// Mutable router access for the chaos suite (direct quarantine,
    /// hand-crafted corruption).
    #[cfg(feature = "chaos")]
    pub fn chaos_router_mut(&mut self) -> &mut ShardRouter {
        &mut self.router
    }
}

/// What one [`StreamingExtractor::heal`] call found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct HealReport {
    /// Everything the triggering audit reported (empty = the index was
    /// already certified and nothing was quarantined).
    pub violations: Vec<AuditViolation>,
    /// Shards quarantined and rebuilt from the authoritative
    /// coordinates, ascending.
    pub rebuilt: Vec<usize>,
    /// Whether the post-heal audit certified the index.
    pub clean: bool,
}

fn coord_key(p: Point3) -> [u32; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_euclidean_clusters_batched;

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

    fn scene(shift: f32, seed: u64) -> Vec<Point3> {
        let mut pts = blob(Point3::new(5.0 + shift, 0.0, 1.0), 120, 0.8, 1);
        pts.extend(blob(Point3::new(12.0 + shift, 6.0, 1.0), 80, 0.7, 2));
        pts.extend(blob(Point3::new(-8.0, -4.0 + shift, 1.0), 150, 0.9, seed));
        pts
    }

    /// Normalizes a global-index cluster set to its member coordinates
    /// so it compares against a fresh extraction's local indices.
    fn cluster_coords(ex: &StreamingExtractor, clusters: &[Vec<u32>]) -> Vec<Vec<[u32; 3]>> {
        let mut out: Vec<Vec<[u32; 3]>> = clusters
            .iter()
            .map(|c| {
                let mut v: Vec<[u32; 3]> = c.iter().map(|&i| coord_key(ex.point(i))).collect();
                v.sort_unstable();
                v
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn diff_is_exact_and_minimal() {
        let f0 = scene(0.0, 3);
        let mut ex = StreamingExtractor::new(TreeMode::Baseline, KdTreeConfig::default(), 3);
        assert_eq!(ex.diff(&f0).churn(), f0.len(), "everything added initially");
        ex.ingest_frame(&f0);
        assert_eq!(ex.diff(&f0), FrameUpdate::default(), "identical frame");
        let mut f1 = f0.clone();
        f1.truncate(f0.len() - 10);
        f1.push(Point3::new(100.0, 100.0, 1.0));
        let u = ex.diff(&f1);
        assert_eq!(u.added.len(), 1);
        assert_eq!(u.removed.len(), 10);
    }

    /// Regression: a non-finite point arriving in a later frame must
    /// not panic or shift any other position's global index — it is
    /// reported as `UNINDEXED`, never indexed, and extraction is
    /// unaffected.
    #[test]
    fn non_finite_frame_points_are_unindexed_not_fatal() {
        let f0 = scene(0.0, 3);
        let mut ex = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 2);
        ex.ingest_frame(&f0);

        let mut f1 = f0.clone();
        let fresh = Point3::new(50.0, 50.0, 1.0);
        f1.insert(0, Point3::new(f32::NAN, 0.0, 0.0));
        f1.push(fresh);
        f1.push(Point3::new(0.0, f32::INFINITY, 0.0));
        let globals = ex.ingest_frame(&f1);

        assert_eq!(globals.len(), f1.len());
        assert_eq!(globals[0], StreamingExtractor::UNINDEXED);
        assert_eq!(*globals.last().unwrap(), StreamingExtractor::UNINDEXED);
        assert_eq!(ex.num_live(), f0.len() + 1, "only the finite add is live");
        // Every finite position maps to its own coordinates.
        for (pos, &g) in globals.iter().enumerate() {
            if g != StreamingExtractor::UNINDEXED {
                assert_eq!(coord_key(ex.point(g)), coord_key(f1[pos]), "position {pos}");
            }
        }
        // The finite insertion is searchable; extraction still runs.
        let out = ex.extract(0.5, 1, 100_000);
        let total: usize = out.clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, ex.num_live());

        // Frame 0 obeys the same guard.
        let mut ex0 = StreamingExtractor::new(TreeMode::Baseline, KdTreeConfig::default(), 1);
        let globals0 = ex0.ingest_frame(&f1);
        assert_eq!(globals0[0], StreamingExtractor::UNINDEXED);
        assert_eq!(ex0.num_live(), f1.len() - 2);
        assert_eq!(globals0[1], 0, "finite positions number densely");
    }

    /// The maintained frame matcher must equal a from-scratch rebuild
    /// of the coordinate multimap after arbitrary churn — including
    /// duplicate coordinates, deletes of one duplicate, re-inserts of
    /// previously-deleted coordinates, and rejected non-finite points.
    #[test]
    fn maintained_matcher_equals_rebuilt_map() {
        let mut ex = StreamingExtractor::new(TreeMode::Baseline, KdTreeConfig::default(), 2);
        let mut f0 = scene(0.0, 5);
        f0.push(f0[3]); // exact duplicate: multiset semantics
        f0.push(f0[3]);
        ex.ingest_frame(&f0);
        assert_eq!(ex.matcher, ex.rebuilt_matcher(), "after frame 0");

        for frame in 1..6 {
            let mut next = scene(frame as f32 * 0.4, 5 + frame);
            if frame % 2 == 0 {
                next.push(next[7]); // re-appearing duplicates
                next.push(f0[3]); // a coordinate deleted in frame 1
                next.push(Point3::new(f32::NAN, 0.0, 0.0)); // never indexed
            }
            ex.ingest_frame(&next);
            assert_eq!(ex.matcher, ex.rebuilt_matcher(), "after frame {frame}");
            for list in ex.matcher.values() {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "lists ascending");
            }
        }
        // The maintained map also keeps diff() exact: an identical
        // frame is a no-op.
        let last = scene(5.0 * 0.4, 10);
        ex.ingest_frame(&last);
        assert_eq!(ex.diff(&last), FrameUpdate::default());
    }

    /// Rolling compaction is invisible to extraction (same clusters as
    /// an uncompacted twin, frame after frame) while actually firing
    /// and bounding the index's waste on a churny stream.
    #[test]
    fn rolling_compaction_is_output_neutral_and_bounds_waste() {
        let mut plain = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 3);
        let mut compacted = StreamingExtractor::new(TreeMode::Bonsai, KdTreeConfig::default(), 3);
        let policy = CompactionPolicy {
            garbage_ratio: 0.15,
            min_points: 64,
        };
        let mut fired = 0usize;
        for frame in 0..30 {
            let cloud = scene((frame % 7) as f32 * 0.9, 11 + frame % 5);
            plain.ingest_frame(&cloud);
            compacted.ingest_frame(&cloud);
            if compacted.maybe_compact(&policy).is_some() {
                fired += 1;
            }
            let a = plain.extract(0.5, 1, 100_000);
            let b = compacted.extract(0.5, 1, 100_000);
            assert_eq!(
                cluster_coords(&plain, &a.clusters),
                cluster_coords(&compacted, &b.clusters),
                "frame {frame}: compaction changed extraction output"
            );
        }
        assert!(fired > 0, "the churny stream never triggered a rebuild");
        assert!(
            compacted.router().resident_bytes() < plain.router().resident_bytes(),
            "compaction did not reclaim memory: {} vs {}",
            compacted.router().resident_bytes(),
            plain.router().resident_bytes()
        );
    }

    #[test]
    fn streaming_extraction_matches_fresh_rebuild_across_frames() {
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            for shards in [1, 4] {
                let mut ex = StreamingExtractor::new(mode, KdTreeConfig::default(), shards);
                for frame in 0..4 {
                    let cloud = scene(frame as f32 * 0.35, 3 + frame);
                    ex.ingest_frame(&cloud);
                    assert_eq!(ex.num_live(), cloud.len());
                    let streamed = ex.extract(0.5, 10, 10_000);
                    let fresh = extract_euclidean_clusters_batched(
                        cloud.clone(),
                        0.5,
                        10,
                        10_000,
                        KdTreeConfig::default(),
                        mode,
                    );
                    // Compare by member coordinates: global and
                    // frame-local indices differ, the point multisets
                    // must not.
                    let got = cluster_coords(&ex, &streamed.clusters);
                    let mut expect: Vec<Vec<[u32; 3]>> = fresh
                        .clusters
                        .iter()
                        .map(|c| {
                            let mut w: Vec<[u32; 3]> =
                                c.iter().map(|&i| coord_key(cloud[i as usize])).collect();
                            w.sort_unstable();
                            w
                        })
                        .collect();
                    expect.sort_unstable();
                    assert_eq!(got, expect, "{mode:?} shards {shards} frame {frame}");
                }
            }
        }
    }
}
