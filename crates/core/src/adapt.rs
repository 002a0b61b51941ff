//! Query-load-adaptive sharding: the policy layer that turns observed
//! per-shard search effort into online **split** / **merge** proposals.
//!
//! The sharded router partitions by median cut over point counts, which
//! balances *storage* but not *work*: an AD query stream hammers the
//! ego-vehicle's neighborhood, so one shard absorbs most of the
//! traversal while the far-field shards idle. This module closes the
//! loop. Every routed query already produces [`SearchStats`]-style
//! counters; the router accumulates them per shard ([`ShardLoad`],
//! identity-following `Arc`'d atomics so stale snapshots keep charging
//! the same shard), and [`ShardRouter::adapt_step`] folds the counter
//! deltas into a decaying per-shard load profile. A hot shard is split
//! along the plane chosen by a binned surface-area-heuristic sweep
//! ([`find_best_split_plane`]) — the BVH builder's
//! `cost = count × half_area(child)` objective with observed query
//! density standing in for ray density — and adjacent cold shards are
//! merged back. Both actions are targeted rebuilds through the same
//! machinery as `rebuild_shard`, so stable global indices, the
//! generation-tagged free list, quarantine state and epoch isolation
//! are preserved: a pinned pre-split epoch keeps answering from the old
//! topology, bit-identically, while new epochs see the rebalance.
//!
//! Every proposal that is *not* executed is recorded with a typed
//! [`RejectReason`] — quarantined shards (heal in progress) and routers
//! with pinned epochs lagging beyond [`ShardPolicy::max_epoch_lag`] are
//! never chosen for topology changes.
//!
//! [`SearchStats`]: bonsai_kdtree::SearchStats
//! [`ShardRouter::adapt_step`]: crate::ShardRouter::adapt_step

use std::sync::atomic::{AtomicU64, Ordering};

use bonsai_geom::{Aabb, Point3};

/// How many past decisions [`LoadReport::recent`] retains.
const DECISION_LOG: usize = 32;

/// Knobs for the adaptive split/merge policy, applied by
/// [`ShardRouter::adapt_step`](crate::ShardRouter::adapt_step).
///
/// The defaults are deliberately conservative: act only on a clear hot
/// spot, never on a shard that is small, quarantined, or visible to a
/// badly lagging pinned epoch, and change at most one thing per step so
/// each rebuild stays amortizable against the query stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Per-step exponential decay applied to the load profile before
    /// folding in the newest window (0 = only the last window counts,
    /// 1 = never forget). Defaults to 0.5.
    pub decay: f64,
    /// A shard is split-hot when its decayed work exceeds this multiple
    /// of the mean per-shard work. Defaults to 2.0.
    pub split_ratio: f64,
    /// A shard is merge-cold when its decayed work is below this
    /// multiple of the mean per-shard work. Defaults to 0.25.
    pub merge_ratio: f64,
    /// Never split a shard holding fewer live points than this.
    /// Defaults to 256.
    pub min_split_points: usize,
    /// Never split past this many shard slots. Defaults to 32.
    pub max_shards: usize,
    /// Never merge below this many populated shards. Defaults to 2.
    pub min_shards: usize,
    /// Bin count for the SAH plane sweep. Defaults to 16.
    pub bins: usize,
    /// Topology changes are refused while the oldest live pinned epoch
    /// lags the current epoch by more than this many publishes: a
    /// reader that far behind is mid-recovery or wedged, and stacking a
    /// topology change on top only widens the window it must catch up
    /// across. Defaults to 8.
    pub max_epoch_lag: u64,
    /// Do nothing until the decayed profile has absorbed at least this
    /// many queries in total — prevents adapting to noise right after a
    /// build or rebalance. Defaults to 64.
    pub min_queries: f64,
    /// Per-populated-shard dispatch tax on split proposals, as a
    /// fraction of the no-split SAH cost. Every extra shard makes
    /// *every* routed query test one more bounding box, so a split must
    /// beat not just its own SAH cost but the fleet-wide dispatch
    /// overhead it adds: a candidate plane is accepted only when
    /// `split_cost < no_split_cost × (1 − dispatch_cost × populated)`.
    /// At the default 0.002 a split into the 64th shard must win by
    /// ~13% — the measured single-threaded dispatch overhead at that
    /// shard count — while splits among a handful of shards pay under
    /// 1%. Set to 0 to restore the untaxed sweep. Defaults to 0.002.
    pub dispatch_cost: f64,
    /// The load profile counts as *flat* when the hottest populated
    /// shard's work is at most this multiple of the mean — no shard is
    /// worth chasing, so topology should shrink toward cheap dispatch
    /// rather than hold a fine partition nobody needs. Defaults to
    /// 1.25.
    pub flat_ratio: f64,
    /// When the profile is flat and more than this many shards are
    /// populated, the nearest adaptable pair is merged even though
    /// neither is `merge_ratio`-cold — uniform load over many shards
    /// pays dispatch for nothing. Below this floor a flat profile is
    /// left alone. Defaults to 8.
    pub flat_floor: usize,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy {
            decay: 0.5,
            split_ratio: 2.0,
            merge_ratio: 0.25,
            min_split_points: 256,
            max_shards: 32,
            min_shards: 2,
            bins: 16,
            max_epoch_lag: 8,
            min_queries: 64.0,
            dispatch_cost: 0.002,
            flat_ratio: 1.25,
            flat_floor: 8,
        }
    }
}

/// Per-shard cumulative search-effort counters, shared by identity.
///
/// The counters live behind an `Arc` inside each shard, so the
/// copy-on-write snapshots the router publishes keep charging the same
/// accumulator: queries served from a stale pinned epoch still inform
/// the live router's load profile. Relaxed ordering is sufficient —
/// the profile is a statistic, not a synchronization edge.
#[derive(Debug, Default)]
pub(crate) struct ShardLoad {
    queries: AtomicU64,
    nodes_visited: AtomicU64,
    points_inspected: AtomicU64,
}

impl ShardLoad {
    /// Charge one routed query's traversal effort to this shard.
    pub(crate) fn record(&self, nodes_visited: u64, points_inspected: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.nodes_visited
            .fetch_add(nodes_visited, Ordering::Relaxed);
        self.points_inspected
            .fetch_add(points_inspected, Ordering::Relaxed);
    }

    pub(crate) fn sample(&self) -> LoadSample {
        LoadSample {
            queries: self.queries.load(Ordering::Relaxed),
            nodes_visited: self.nodes_visited.load(Ordering::Relaxed),
            points_inspected: self.points_inspected.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of one shard's cumulative load counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSample {
    /// Routed queries whose ball intersected this shard's box.
    pub queries: u64,
    /// Tree nodes visited inside this shard on behalf of those queries.
    pub nodes_visited: u64,
    /// Candidate points distance-tested inside this shard.
    pub points_inspected: u64,
}

impl LoadSample {
    /// Counter delta since `earlier`. A targeted rebuild outside
    /// `adapt_step` (rolling compaction, a heal) swaps in fresh
    /// counters; that reads as a counter going backwards, in which case
    /// the whole reading is the new baseline's window — not clamped to
    /// zero, which would swallow every window until the fresh counters
    /// caught up to the stale ones.
    fn delta(&self, earlier: LoadSample) -> LoadSample {
        if self.queries < earlier.queries
            || self.nodes_visited < earlier.nodes_visited
            || self.points_inspected < earlier.points_inspected
        {
            return *self;
        }
        LoadSample {
            queries: self.queries - earlier.queries,
            nodes_visited: self.nodes_visited - earlier.nodes_visited,
            points_inspected: self.points_inspected - earlier.points_inspected,
        }
    }
}

/// One shard's exponentially decayed load profile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoadProfile {
    /// Decayed query count.
    pub queries: f64,
    /// Decayed node-visit count.
    pub nodes_visited: f64,
    /// Decayed point-inspection count.
    pub points_inspected: f64,
}

impl ShardLoadProfile {
    /// The scalar the policy ranks shards by: traversal plus sweep
    /// effort. Queries are not added in — a query that is pruned at the
    /// shard box costs nothing worth rebalancing over.
    pub fn work(&self) -> f64 {
        self.nodes_visited + self.points_inspected
    }

    fn absorb(&mut self, decay: f64, window: LoadSample) {
        self.queries = self.queries * decay + window.queries as f64;
        self.nodes_visited = self.nodes_visited * decay + window.nodes_visited as f64;
        self.points_inspected = self.points_inspected * decay + window.points_inspected as f64;
    }

    fn scaled(&self, s: f64) -> ShardLoadProfile {
        ShardLoadProfile {
            queries: self.queries * s,
            nodes_visited: self.nodes_visited * s,
            points_inspected: self.points_inspected * s,
        }
    }
}

/// Why a split/merge proposal was refused. Every variant is observable
/// through [`LoadReport::recent`] and counted in rejected-proposal
/// totals — a policy that silently does nothing is undebuggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The shard index does not exist.
    OutOfRange {
        /// The offending shard index.
        shard: usize,
    },
    /// The shard is quarantined: a heal/rebuild is in progress and its
    /// contents are not trustworthy enough to repartition.
    Quarantined {
        /// The quarantined shard.
        shard: usize,
    },
    /// A live pinned epoch lags the current epoch beyond the policy
    /// bound; topology changes wait until readers catch up.
    StalePins {
        /// Observed lag (current epoch − oldest live pinned epoch).
        epoch_lag: u64,
        /// The policy's `max_epoch_lag` bound that was exceeded.
        bound: u64,
    },
    /// The hot shard holds too few live points to be worth splitting.
    TooSmall {
        /// The shard that was proposed for splitting.
        shard: usize,
        /// Its live point count.
        points: usize,
    },
    /// Splitting would exceed the policy's `max_shards` slot budget.
    ShardLimit {
        /// Current shard slot count.
        shards: usize,
    },
    /// The SAH sweep found no plane cheaper than not splitting after
    /// the dispatch tax (e.g. all points coincide, or the gain is
    /// smaller than the per-query cost of one more shard box test), or
    /// the requested plane puts every live point on one side.
    NoGain {
        /// The shard that was proposed for splitting.
        shard: usize,
    },
    /// Merging was proposed but no pair of distinct, adaptable, cold
    /// shards exists (or merging would go below `min_shards`).
    NoColdPair,
    /// A merge of a shard with itself was requested.
    SameShard {
        /// The repeated shard index.
        shard: usize,
    },
}

/// One entry in the adaptive policy's decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptDecision {
    /// `shard` was split at `plane` on `axis`; the upper half landed in
    /// slot `sibling`.
    Split {
        /// Policy step at which the split executed.
        step: u64,
        /// The shard that was split (keeps the lower half).
        shard: usize,
        /// Slot that received the upper half.
        sibling: usize,
        /// Split axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Split plane position along `axis`.
        plane: f32,
    },
    /// `emptied` was merged into `kept`; `emptied`'s slot becomes an
    /// empty shard (slots are stable, never removed).
    Merge {
        /// Policy step at which the merge executed.
        step: u64,
        /// Slot that received the union of both live sets.
        kept: usize,
        /// Slot that was emptied.
        emptied: usize,
    },
    /// A proposal was refused.
    Rejected {
        /// Policy step at which the proposal was refused.
        step: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
}

/// What one [`adapt_step`](crate::ShardRouter::adapt_step) did:
/// executed topology changes plus every typed rejection. Feed it to
/// `bonsai-serve`'s `Server::record_adapt` to surface the counters in
/// `ServeMetrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptReport {
    /// Splits executed this step (0 or 1: one action per step).
    pub splits: u64,
    /// Merges executed this step (0 or 1).
    pub merges: u64,
    /// Proposals refused this step.
    pub rejected: u64,
    /// The step's decisions, in the order they were made.
    pub decisions: Vec<AdaptDecision>,
}

/// Point-in-time observability snapshot from
/// [`ShardRouter::load_report`](crate::ShardRouter::load_report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Per-shard load, indexed by shard slot.
    pub shards: Vec<ShardLoadReport>,
    /// Splits executed over the router's lifetime.
    pub splits: u64,
    /// Merges executed over the router's lifetime.
    pub merges: u64,
    /// Proposals refused over the router's lifetime.
    pub rejected: u64,
    /// The most recent decisions, oldest first (bounded log).
    pub recent: Vec<AdaptDecision>,
}

/// One shard's row in a [`LoadReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoadReport {
    /// Decayed profile as of the last `adapt_step`.
    pub profile: ShardLoadProfile,
    /// Raw cumulative counters (including traffic since the last step).
    pub lifetime: LoadSample,
    /// Live points currently indexed in the shard.
    pub points: usize,
    /// Whether the shard is quarantined (excluded from adaptation).
    pub quarantined: bool,
}

/// Decayed profiles, cumulative counters and the decision log — the
/// router-private state behind the adaptive policy.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptState {
    /// Decayed per-shard profile, indexed by shard slot.
    pub(crate) profile: Vec<ShardLoadProfile>,
    /// Counter values at the end of the previous step, per slot.
    pub(crate) last: Vec<LoadSample>,
    /// Monotonic step counter (first `adapt_step` is step 1).
    pub(crate) step: u64,
    /// Lifetime executed splits.
    pub(crate) splits: u64,
    /// Lifetime executed merges.
    pub(crate) merges: u64,
    /// Lifetime rejected proposals.
    pub(crate) rejected: u64,
    /// Bounded decision log, oldest first.
    pub(crate) decisions: Vec<AdaptDecision>,
}

impl AdaptState {
    /// Grow the per-slot vectors to `n` slots (new slots start cold).
    pub(crate) fn ensure_slots(&mut self, n: usize) {
        if self.profile.len() < n {
            self.profile.resize(n, ShardLoadProfile::default());
            self.last.resize(n, LoadSample::default());
        }
    }

    pub(crate) fn log(&mut self, decision: AdaptDecision) {
        if self.decisions.len() == DECISION_LOG {
            self.decisions.remove(0);
        }
        self.decisions.push(decision);
    }

    /// Post-split bookkeeping: the parent's decayed profile is split
    /// evenly between the two children, and both slots restart their
    /// counter baseline at zero (the rebuild swapped in fresh
    /// counters).
    pub(crate) fn on_split(&mut self, shard: usize, sibling: usize) {
        self.ensure_slots(sibling + 1);
        let half = self.profile[shard].scaled(0.5);
        self.profile[shard] = half;
        self.profile[sibling] = half;
        self.last[shard] = LoadSample::default();
        self.last[sibling] = LoadSample::default();
    }

    /// Post-merge bookkeeping: the kept slot inherits both profiles,
    /// the emptied slot goes cold.
    pub(crate) fn on_merge(&mut self, kept: usize, emptied: usize) {
        self.ensure_slots(kept.max(emptied) + 1);
        let other = self.profile[emptied];
        let p = &mut self.profile[kept];
        p.queries += other.queries;
        p.nodes_visited += other.nodes_visited;
        p.points_inspected += other.points_inspected;
        self.profile[emptied] = ShardLoadProfile::default();
        self.last[kept] = LoadSample::default();
        self.last[emptied] = LoadSample::default();
    }

    /// Fold the newest counter window into the decayed profiles.
    pub(crate) fn absorb_window(&mut self, decay: f64, samples: &[LoadSample]) {
        self.ensure_slots(samples.len());
        for (i, &cur) in samples.iter().enumerate() {
            let window = cur.delta(self.last[i]);
            self.profile[i].absorb(decay, window);
            self.last[i] = cur;
        }
    }
}

/// Half surface area of a box — the SAH's cost weight. Degenerate
/// (inverted/empty) boxes cost zero.
fn half_area(aabb: &Aabb) -> f64 {
    let e = aabb.extent();
    if !(e.x >= 0.0 && e.y >= 0.0 && e.z >= 0.0) {
        return 0.0;
    }
    f64::from(e.x) * f64::from(e.y)
        + f64::from(e.y) * f64::from(e.z)
        + f64::from(e.z) * f64::from(e.x)
}

/// The winning plane of a binned SAH sweep over one shard's points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitPlane {
    /// Split axis (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// Plane position: points with `p[axis] < position` go left.
    pub position: f32,
    /// SAH cost of the split: `nL·half_area(L) + nR·half_area(R)`.
    pub split_cost: f64,
    /// SAH cost of leaving the shard whole: `n·half_area(total)`.
    pub no_split_cost: f64,
}

/// Binned SAH sweep: for each axis, bucket the points into
/// `bins` equal-width bins and evaluate every bin boundary as a
/// candidate plane with cost `nL·half_area(boxL) + nR·half_area(boxR)`
/// over *tight* child boxes. Returns the cheapest plane that actually
/// separates the points, or `None` when no finite-extent axis exists
/// (all points coincide) or no candidate beats not splitting.
///
/// This is the BVH builder's triangle-count heuristic with points in
/// the role of primitives; the adaptive policy multiplies the result by
/// observed query density implicitly, by only sweeping shards the load
/// profile already marked hot.
pub fn find_best_split_plane(points: &[Point3], bins: usize) -> Option<SplitPlane> {
    find_best_split_plane_taxed(points, bins, 0.0)
}

/// [`find_best_split_plane`] with a dispatch tax: a candidate plane is
/// accepted only when its SAH cost beats `no_split_cost × (1 − tax)`,
/// so the split's traversal gain must also cover the router-level
/// overhead of testing one more shard box per query. `tax` is the
/// policy's `dispatch_cost × populated` (a tax ≥ 1 refuses every
/// split); the reported `split_cost`/`no_split_cost` stay untaxed so
/// observers compare raw SAH numbers.
pub fn find_best_split_plane_taxed(points: &[Point3], bins: usize, tax: f64) -> Option<SplitPlane> {
    let aabb = Aabb::from_points(points.iter().copied())?;
    let n = points.len();
    if n < 2 || bins < 2 {
        return None;
    }
    let no_split_cost = n as f64 * half_area(&aabb);
    let accept_below = no_split_cost * (1.0 - tax).max(0.0);
    let mut best: Option<SplitPlane> = None;
    for axis in 0..3usize {
        let lo = aabb.min[axis];
        let width = aabb.max[axis] - lo;
        if !width.is_finite() || width <= 0.0 {
            continue;
        }
        // Bucket counts and tight per-bin boxes.
        let mut counts = vec![0usize; bins];
        let mut boxes: Vec<Option<Aabb>> = vec![None; bins];
        let scale = bins as f32 / width;
        for &p in points {
            let b = (((p[axis] - lo) * scale) as usize).min(bins - 1);
            counts[b] += 1;
            match &mut boxes[b] {
                Some(bb) => bb.insert(p),
                slot => *slot = Some(Aabb::new(p, p)),
            }
        }
        // Sweep the bins - 1 interior boundaries: prefix pass collects
        // left cost, suffix pass right cost.
        let mut left_cost = vec![0.0f64; bins];
        let mut acc: Option<Aabb> = None;
        let mut cnt = 0usize;
        for b in 0..bins {
            if let Some(bb) = &boxes[b] {
                acc = Some(acc.map_or(*bb, |a| a.union(bb)));
                cnt += counts[b];
            }
            left_cost[b] = match &acc {
                Some(a) => cnt as f64 * half_area(a),
                None => 0.0,
            };
        }
        let mut acc: Option<Aabb> = None;
        let mut right = 0usize;
        let mut left = n;
        for b in (1..bins).rev() {
            if let Some(bb) = &boxes[b] {
                acc = Some(acc.map_or(*bb, |a| a.union(bb)));
                right += counts[b];
                left -= counts[b];
            }
            if left == 0 || right == 0 {
                continue;
            }
            let cost = left_cost[b - 1]
                + match &acc {
                    Some(a) => right as f64 * half_area(a),
                    None => 0.0,
                };
            if cost < accept_below && best.as_ref().is_none_or(|p| cost < p.split_cost) {
                best = Some(SplitPlane {
                    axis,
                    position: lo + width * (b as f32 / bins as f32),
                    split_cost: cost,
                    no_split_cost,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sah_plane_separates_two_blobs_on_the_right_axis() {
        let mut pts = Vec::new();
        for i in 0..50 {
            let o = (i % 10) as f32 * 0.05;
            pts.push(Point3::new(-10.0 + o, o, 0.5 + o));
            pts.push(Point3::new(10.0 + o, o, 0.5 + o));
        }
        let plane = find_best_split_plane(&pts, 16).expect("two blobs must split");
        assert_eq!(plane.axis, 0, "split must pick the separating axis");
        assert!(
            plane.position > -9.0 && plane.position < 10.0,
            "plane {} must fall between the blobs",
            plane.position
        );
        assert!(plane.split_cost < plane.no_split_cost);
        let left = pts.iter().filter(|p| p.x < plane.position).count();
        assert_eq!(left, 50, "plane must put one blob on each side");
    }

    #[test]
    fn sah_refuses_degenerate_inputs() {
        assert!(find_best_split_plane(&[], 16).is_none());
        assert!(find_best_split_plane(&[Point3::new(1.0, 2.0, 3.0)], 16).is_none());
        // Coincident points: no axis has extent, no plane separates.
        let same = vec![Point3::new(1.0, 2.0, 3.0); 40];
        assert!(find_best_split_plane(&same, 16).is_none());
        // Too few bins to form an interior boundary.
        let pts = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(5.0, 0.0, 0.0)];
        assert!(find_best_split_plane(&pts, 1).is_none());
    }

    #[test]
    fn sah_cost_accounts_every_point_exactly_once() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        let pts: Vec<Point3> = (0..500)
            .map(|_| Point3::new(next() * 30.0, next() * 8.0, next() * 2.0))
            .collect();
        let plane = find_best_split_plane(&pts, 16).expect("spread cloud splits");
        let left = pts
            .iter()
            .filter(|p| p[plane.axis] < plane.position)
            .count();
        let right = pts.len() - left;
        assert!(left > 0 && right > 0, "plane must be interior");
        // Uniform cloud: splitting on the longest axis halves the
        // dominant face, so the SAH must see a real gain.
        assert!(plane.split_cost < plane.no_split_cost);
        assert_eq!(plane.axis, 0, "x is the widest axis of this cloud");
    }

    #[test]
    fn dispatch_tax_vetoes_marginal_splits() {
        let mut pts = Vec::new();
        for i in 0..50 {
            let o = (i % 10) as f32 * 0.05;
            pts.push(Point3::new(-10.0 + o, o, 0.5 + o));
            pts.push(Point3::new(10.0 + o, o, 0.5 + o));
        }
        let untaxed = find_best_split_plane_taxed(&pts, 16, 0.0).expect("two blobs split");
        let gain = 1.0 - untaxed.split_cost / untaxed.no_split_cost;
        assert!(gain > 0.0 && gain < 1.0);
        // A tax below the winning plane's gain keeps it — with the
        // reported costs untaxed, identical to the plain sweep.
        let taxed = find_best_split_plane_taxed(&pts, 16, gain * 0.5).expect("survives tax");
        assert_eq!(taxed, untaxed);
        // A tax above the best gain refuses every plane; so does the
        // degenerate tax ≥ 1.
        assert!(find_best_split_plane_taxed(&pts, 16, gain * 1.01).is_none());
        assert!(find_best_split_plane_taxed(&pts, 16, 1.0).is_none());
        assert!(find_best_split_plane_taxed(&pts, 16, 7.5).is_none());
    }

    #[test]
    fn decayed_profile_tracks_windows_and_split_merge_bookkeeping() {
        let mut st = AdaptState::default();
        st.absorb_window(
            0.5,
            &[
                LoadSample {
                    queries: 10,
                    nodes_visited: 100,
                    points_inspected: 50,
                },
                LoadSample::default(),
            ],
        );
        assert_eq!(st.profile[0].work(), 150.0);
        assert_eq!(st.profile[1].work(), 0.0);
        // Second window: old work decays by 0.5, new delta folds in.
        st.absorb_window(
            0.5,
            &[
                LoadSample {
                    queries: 10,
                    nodes_visited: 140,
                    points_inspected: 70,
                },
                LoadSample::default(),
            ],
        );
        assert_eq!(st.profile[0].work(), 75.0 + 40.0 + 20.0);
        // A rebuild resets the counters; the saturating delta reads 0.
        st.absorb_window(0.5, &[LoadSample::default(), LoadSample::default()]);
        assert_eq!(st.profile[0].work(), 67.5);

        st.on_split(0, 1);
        assert_eq!(st.profile[0].work(), 33.75);
        assert_eq!(st.profile[0], st.profile[1]);
        st.on_merge(0, 1);
        assert_eq!(st.profile[0].work(), 67.5);
        assert_eq!(st.profile[1].work(), 0.0);
    }

    #[test]
    fn decision_log_is_bounded() {
        let mut st = AdaptState::default();
        for step in 0..(DECISION_LOG as u64 + 9) {
            st.log(AdaptDecision::Rejected {
                step,
                reason: RejectReason::NoColdPair,
            });
        }
        assert_eq!(st.decisions.len(), DECISION_LOG);
        match st.decisions[0] {
            AdaptDecision::Rejected { step, .. } => assert_eq!(step, 9),
            ref other => panic!("unexpected head {other:?}"),
        }
    }
}
