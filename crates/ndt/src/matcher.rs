use bonsai_core::{BonsaiLeafProcessor, BonsaiTree, RadiusSearchEngine};
use bonsai_geom::{Mat3, Mat6, Point3, Pose, Vec6};
use bonsai_isa::Machine;
use bonsai_kdtree::{
    BaselineLeafProcessor, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch, SearchStats,
};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::map::{NdtMap, CELL_STRIDE};

/// Which leaf path the matcher's radius searches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NdtSearchMode {
    /// Uncompressed `f32` leaves.
    #[default]
    Baseline,
    /// Bonsai-compressed leaves.
    Bonsai,
}

/// Matcher parameters (defaults follow Autoware's `ndt_matching`).
#[derive(Debug, Clone, PartialEq)]
pub struct NdtConfig {
    /// Newton iterations cap.
    pub max_iterations: u32,
    /// Convergence threshold on the update norm.
    pub epsilon: f64,
    /// Magnusson's outlier ratio (mixes a uniform distribution into the
    /// per-cell Gaussians).
    pub outlier_ratio: f64,
    /// Levenberg damping added to the Hessian diagonal.
    pub damping: f64,
    /// Maximum Newton step norm per iteration (PCL's `step_size`
    /// safeguard, in meters/radians of the 6-vector).
    pub max_step: f64,
    /// Use every `stride`-th scan point (Autoware downsamples scans
    /// before matching).
    pub scan_stride: usize,
}

impl Default for NdtConfig {
    fn default() -> NdtConfig {
        NdtConfig {
            max_iterations: 30,
            epsilon: 1e-4,
            outlier_ratio: 0.55,
            damping: 1e-3,
            max_step: 0.1,
            scan_stride: 1,
        }
    }
}

/// The outcome of one alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignResult {
    /// The estimated map-from-vehicle pose.
    pub pose: Pose,
    /// Newton iterations executed.
    pub iterations: u32,
    /// Final NDT score (more negative = better fit).
    pub score: f64,
    /// Whether the update norm fell below epsilon.
    pub converged: bool,
    /// Radius-search work counters.
    pub search_stats: SearchStats,
}

impl AlignResult {
    /// Translation distance between the estimate and a reference pose.
    pub fn translation_error(&self, reference: &Pose) -> f32 {
        self.pose.translation.distance(reference.translation)
    }
}

/// The k-d tree over the map's cell centroids, in the matcher's mode.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per matcher
enum CentroidTree {
    Baseline(KdTree),
    Bonsai(BonsaiTree),
}

impl CentroidTree {
    /// The uninstrumented batch engine over this tree.
    fn engine(&self) -> RadiusSearchEngine<'_> {
        match self {
            CentroidTree::Baseline(tree) => RadiusSearchEngine::baseline(tree),
            CentroidTree::Bonsai(tree) => RadiusSearchEngine::bonsai(tree),
        }
    }
}

/// The instrumented walker of a simulated alignment: the tree plus the
/// mode's leaf processor. One per alignment (stateful scratch;
/// per-query construction would poison the cache model with cold
/// regions).
enum Walker<'a> {
    Baseline(&'a KdTree, BaselineLeafProcessor),
    Bonsai(&'a KdTree, BonsaiLeafProcessor<'a>),
}

impl<'a> Walker<'a> {
    fn new(sim: &mut SimEngine, tree: &'a CentroidTree, machine: &'a mut Machine) -> Walker<'a> {
        match tree {
            CentroidTree::Baseline(tree) => {
                Walker::Baseline(tree, BaselineLeafProcessor::new(sim, tree))
            }
            CentroidTree::Bonsai(tree) => Walker::Bonsai(
                tree.kd_tree(),
                BonsaiLeafProcessor::new(tree.directory(), machine),
            ),
        }
    }

    /// One instrumented radius search, replacing `out`'s contents.
    fn search(
        &mut self,
        sim: &mut SimEngine,
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) {
        match self {
            Walker::Baseline(tree, proc) => {
                tree.radius_search_scratch(sim, proc, query, radius, out, stats, scratch)
            }
            Walker::Bonsai(tree, proc) => {
                tree.radius_search_scratch(sim, proc, query, radius, out, stats, scratch)
            }
        }
    }
}

/// Magnusson's Gaussian + uniform mixture constants (2009, Eq. 6.8).
#[derive(Debug, Clone, Copy)]
struct Mixture {
    d1: f64,
    d2: f64,
}

impl Mixture {
    fn new(resolution: f32, outlier_ratio: f64) -> Mixture {
        // PCL's `gauss_d1_` is negative (it maximizes score); we minimize
        // `f = Σ −d1·exp(−d2/2·qᵀBq)` with the positive magnitude.
        let c = resolution as f64;
        let gauss_c1 = 10.0 * (1.0 - outlier_ratio);
        let gauss_c2 = outlier_ratio / (c * c * c);
        let gauss_d3 = -(gauss_c2).ln();
        let d1_pcl = -((gauss_c1 + gauss_c2).ln()) - gauss_d3;
        let d2 = -2.0 * ((-(gauss_c1 * (-0.5f64).exp() + gauss_c2).ln() - gauss_d3) / d1_pcl).ln();
        Mixture { d1: -d1_pcl, d2 }
    }
}

/// One Newton iteration's objective: score, gradient and Hessian,
/// accumulated point by point, neighbour by neighbour.
struct Terms {
    score: f64,
    gradient: Vec6,
    hessian: Mat6,
}

impl Terms {
    fn new() -> Terms {
        Terms {
            score: 0.0,
            gradient: Vec6::ZERO,
            hessian: Mat6::ZERO,
        }
    }

    /// Adds the terms of the transformed point `x = rotated + t`
    /// against each neighbouring cell, in `neighbors` order.
    fn add_point(
        &mut self,
        map: &NdtMap,
        mix: Mixture,
        x: Point3,
        rotated: Point3,
        neighbors: &[Neighbor],
    ) {
        for nb in neighbors {
            let cell = &map.cells()[nb.index as usize];
            let q = [
                (x.x - cell.mean.x) as f64,
                (x.y - cell.mean.y) as f64,
                (x.z - cell.mean.z) as f64,
            ];
            let b: &Mat3 = &cell.inv_cov;
            let bq = b.mul_vec(q);
            let u = q[0] * bq[0] + q[1] * bq[1] + q[2] * bq[2];
            let e = (-0.5 * mix.d2 * u).exp();
            self.score -= mix.d1 * e;
            let w = mix.d1 * mix.d2 * e;

            // Jacobian columns: translation = I, rotation = −[v]×
            // with v = R·p.
            let v = [rotated.x as f64, rotated.y as f64, rotated.z as f64];
            let mut jt_bq = [0.0f64; 6]; // (Jᵀ B q)
            jt_bq[0] = bq[0];
            jt_bq[1] = bq[1];
            jt_bq[2] = bq[2];
            // (−[v]×)ᵀ B q = (v × Bq) … column k of −[v]× is e_k×v.
            jt_bq[3] = v[1] * bq[2] - v[2] * bq[1];
            jt_bq[4] = v[2] * bq[0] - v[0] * bq[2];
            jt_bq[5] = v[0] * bq[1] - v[1] * bq[0];

            for r in 0..6 {
                self.gradient[r] += w * jt_bq[r];
            }
            // Positive-semidefinite Gauss–Newton Hessian
            // `Σ w·JᵀBJ`. The exact Newton Hessian subtracts
            // `d2·(JᵀBq)(JᵀBq)ᵀ`, which is indefinite away from
            // the optimum; PCL compensates with a More–Thuente
            // line search, we keep the PSD form instead
            // (documented deviation, same fixed point).
            let jbj = jt_b_j(b, v);
            for r in 0..6 {
                for cc in 0..6 {
                    self.hessian[(r, cc)] += w * jbj[r][cc];
                }
            }
        }
    }
}

/// NDT scan-to-map matching with k-d-tree neighbour gathering.
///
/// See the [crate docs](crate) for the algorithm notes and an example.
#[derive(Debug)]
pub struct NdtMatcher {
    map: NdtMap,
    cfg: NdtConfig,
    tree: CentroidTree,
    machine: Machine,
    mixture: Mixture,
    /// Engine path: the iteration's transformed scan points.
    xs: Vec<Point3>,
    /// Engine path: the iteration's neighbour lists.
    batch: QueryBatch,
    /// Instrumented path: one query's neighbours.
    neighbors: Vec<Neighbor>,
    /// Instrumented path: traversal scratch.
    scratch: SearchScratch,
}

impl NdtMatcher {
    /// Builds the matcher: fits the centroid k-d tree in the requested
    /// mode and precomputes Magnusson's mixture constants. Search
    /// buffers start empty and grow on the first alignment.
    pub fn new(
        sim: &mut SimEngine,
        map: NdtMap,
        cfg: NdtConfig,
        mode: NdtSearchMode,
    ) -> NdtMatcher {
        let centroids = map.centroids();
        let tree = match mode {
            NdtSearchMode::Baseline => {
                CentroidTree::Baseline(KdTree::build(centroids, KdTreeConfig::default(), sim))
            }
            NdtSearchMode::Bonsai => {
                CentroidTree::Bonsai(BonsaiTree::build(centroids, KdTreeConfig::default(), sim))
            }
        };
        let mixture = Mixture::new(map.resolution(), cfg.outlier_ratio);
        NdtMatcher {
            map,
            cfg,
            tree,
            machine: Machine::new(),
            mixture,
            xs: Vec::new(),
            batch: QueryBatch::new(),
            neighbors: Vec::new(),
            scratch: SearchScratch::new(),
        }
    }

    /// The map.
    pub fn map(&self) -> &NdtMap {
        &self.map
    }

    /// Aligns `scan` (vehicle frame) to the map starting from `guess`,
    /// returning the refined pose.
    ///
    /// With the simulator disabled, neighbours are gathered through
    /// [`RadiusSearchEngine`] — baseline or Bonsai leaves per the
    /// matcher's [`NdtSearchMode`] — as **one batch per Newton
    /// iteration** (the pose is fixed within an iteration), and a warm
    /// alignment allocates nothing. With the simulator enabled, every
    /// point goes through the instrumented walker
    /// (`radius_search_scratch` and the mode's leaf processor), so the
    /// simulated cost model sees each search. Both paths return the
    /// same [`AlignResult`] bit for bit, `search_stats` included: the
    /// engine's hits, their order and its counters equal the
    /// instrumented processors', and the objective is accumulated in
    /// the same point and neighbour order.
    pub fn align(&mut self, sim: &mut SimEngine, scan: &[Point3], guess: &Pose) -> AlignResult {
        let NdtMatcher {
            map,
            cfg,
            tree,
            machine,
            mixture,
            xs,
            batch,
            neighbors,
            scratch,
        } = self;
        let stride = cfg.scan_stride.max(1);
        let radius = map.resolution();
        let mut walker = sim.is_enabled().then(|| {
            let scan_addr = sim.alloc(scan.len() as u64 * 16, 64);
            (scan_addr, Walker::new(sim, tree, machine))
        });
        let mut pose = *guess;
        let mut stats = SearchStats::default();
        let mut iterations = 0;
        let mut converged = false;
        let mut score = 0.0;

        for _ in 0..cfg.max_iterations {
            iterations += 1;
            let mut terms = Terms::new();
            // Neighbour gathering, the radius search of Figure 2: one
            // engine batch per iteration (the pose is fixed within it),
            // or the instrumented walker point by point.
            match walker.as_mut() {
                None => {
                    xs.clear();
                    xs.extend(
                        scan.iter()
                            .step_by(stride)
                            .map(|&p| pose.rotation.mul_point(p) + pose.translation),
                    );
                    tree.engine().search_batch(xs, radius, batch);
                    stats += *batch.stats();
                    let points = scan.iter().step_by(stride).zip(xs.iter());
                    for (k, (&p, &x)) in points.enumerate() {
                        let rotated = pose.rotation.mul_point(p);
                        terms.add_point(map, *mixture, x, rotated, batch.results(k));
                    }
                }
                Some((scan_addr, walker)) => {
                    for (i, p) in scan.iter().enumerate().step_by(stride) {
                        // Transform the point with the current estimate.
                        sim.set_kernel(Kernel::NdtMath);
                        sim.load(*scan_addr + i as u64 * 16, 12);
                        sim.exec(OpClass::FpAlu, 18);
                        let rotated = pose.rotation.mul_point(*p);
                        let x = rotated + pose.translation;

                        walker.search(sim, x, radius, neighbors, &mut stats, scratch);

                        sim.set_kernel(Kernel::NdtMath);
                        for nb in neighbors.iter() {
                            sim.load(map.cell_addr(nb.index), CELL_STRIDE as u32);
                            sim.exec(OpClass::FpAlu, 90); // q, Bq, score, J products
                        }
                        terms.add_point(map, *mixture, x, rotated, neighbors);
                    }
                }
            }
            score = terms.score;

            sim.set_kernel(Kernel::NdtMath);
            sim.exec(OpClass::FpAlu, 300); // 6×6 solve
            terms.hessian.add_diagonal(cfg.damping + 1e-9);
            let Some(mut delta) = terms.hessian.solve(terms.gradient * -1.0) else {
                break;
            };
            // Step safeguard (PCL clamps the Newton step the same way).
            let norm = delta.norm();
            if norm > cfg.max_step {
                delta = delta * (cfg.max_step / norm);
            }
            // Apply: t += δt; R = ΔR(δω)·R.
            let delta_rot = Mat3::from_euler(delta[3], delta[4], delta[5]);
            let new_rot = delta_rot * pose.rotation;
            let new_t =
                pose.translation + Point3::new(delta[0] as f32, delta[1] as f32, delta[2] as f32);
            pose = pose_from_parts(new_rot, new_t);
            if delta.norm() < cfg.epsilon {
                converged = true;
                break;
            }
        }
        sim.set_kernel(Kernel::Other);
        AlignResult {
            pose,
            iterations,
            score,
            converged,
            search_stats: stats,
        }
    }
}

/// `Jᵀ B J` for `J = [I | −[v]×]`, returned as a dense 6×6.
fn jt_b_j(b: &Mat3, v: [f64; 3]) -> [[f64; 6]; 6] {
    // Columns of J: c0..c2 = e0..e2, c3..c5 = e_k × v.
    let cols: [[f64; 3]; 6] = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -v[2], v[1]], // e0 × v
        [v[2], 0.0, -v[0]], // e1 × v
        [-v[1], v[0], 0.0], // e2 × v
    ];
    let mut out = [[0.0f64; 6]; 6];
    for r in 0..6 {
        let b_cr = b.mul_vec(cols[r]);
        for c in 0..6 {
            out[r][c] = cols[c][0] * b_cr[0] + cols[c][1] * b_cr[1] + cols[c][2] * b_cr[2];
        }
    }
    out
}

/// Builds a pose from rotation matrix + translation (recovering Euler
/// angles for reporting).
fn pose_from_parts(rotation: Mat3, translation: Point3) -> Pose {
    // Pose stores Euler angles alongside the matrix; recover them.
    let pitch = (-rotation[(2, 0)]).asin();
    let roll = rotation[(2, 1)].atan2(rotation[(2, 2)]);
    let yaw = rotation[(1, 0)].atan2(rotation[(0, 0)]);
    let mut pose = Pose::from_translation_euler(translation, roll, pitch, yaw);
    // Keep the exact matrix (from_euler re-derives an equivalent one, but
    // exactness helps iteration-to-iteration stability).
    pose.rotation = rotation;
    pose
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_sim::CpuConfig;

    /// A structured scene: floor, side walls and cross walls — enough
    /// constraint in all six degrees of freedom (a corridor without the
    /// cross walls leaves x observable only through its ends: the
    /// aperture problem, under which any NDT converges slowly).
    fn structured_cloud() -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..80 {
            for j in 0..10 {
                let x = i as f32 * 0.4;
                pts.push(Point3::new(x, j as f32 * 0.35, 0.0)); // floor
                pts.push(Point3::new(x, 0.0, j as f32 * 0.3)); // left wall
                pts.push(Point3::new(x, 12.0, j as f32 * 0.3)); // right wall
            }
        }
        // Cross walls every 8 m give x-translation a strong gradient.
        for k in 0..5 {
            let x = k as f32 * 8.0;
            for j in 0..24 {
                for h in 0..8 {
                    pts.push(Point3::new(x, j as f32 * 0.5, h as f32 * 0.3));
                }
            }
        }
        pts
    }

    fn align_from(guess: Pose, mode: NdtSearchMode) -> AlignResult {
        let cloud = structured_cloud();
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        let mut matcher = NdtMatcher::new(&mut sim, map, NdtConfig::default(), mode);
        matcher.align(&mut sim, &cloud, &guess)
    }

    /// The regression oracle for the engine switch: an uninstrumented
    /// alignment (batched `RadiusSearchEngine`) returns the simulated
    /// one's (instrumented walker) `AlignResult` bit for bit, in both
    /// modes, at the origin and at map-scale offsets. Leaf-relative f16
    /// rows keep the compressed distance checks conclusive kilometres
    /// out: under 5 % fall back, at the origin and at 3–7 km alike.
    #[test]
    fn engine_path_equals_instrumented_walker_bit_for_bit() {
        let cloud = structured_cloud();
        let cfg = NdtConfig {
            scan_stride: 3,
            ..NdtConfig::default()
        };
        for offset in [
            Point3::ZERO,
            Point3::new(3000.0, -1200.0, 15.0),
            Point3::new(-7000.0, 2500.0, 40.0),
        ] {
            let map_cloud: Vec<Point3> = cloud.iter().map(|&p| p + offset).collect();
            let guess = Pose::from_translation_euler(
                offset + Point3::new(0.3, -0.2, 0.05),
                0.0,
                0.0,
                0.015,
            );
            for mode in [NdtSearchMode::Baseline, NdtSearchMode::Bonsai] {
                let mut setup = SimEngine::disabled();
                let map = NdtMap::build(&mut setup, &map_cloud, 2.0);
                let mut matcher = NdtMatcher::new(&mut setup, map, cfg.clone(), mode);
                let mut simulated = SimEngine::new(&CpuConfig::a72_like());
                let instrumented = matcher.align(&mut simulated, &cloud, &guess);
                assert!(instrumented.search_stats.points_inspected > 0);
                let mut off = SimEngine::disabled();
                for pass in 0..2 {
                    let engine = matcher.align(&mut off, &cloud, &guess);
                    assert_eq!(engine, instrumented, "{mode:?} at {offset:?}, pass {pass}");
                }
                let fallbacks = instrumented.search_stats.fallback_ratio();
                if mode == NdtSearchMode::Bonsai {
                    assert!(fallbacks < 0.05, "{offset:?}: fallback share {fallbacks}");
                }
            }
        }
    }

    #[test]
    fn identity_guess_stays_put() {
        let r = align_from(Pose::identity(), NdtSearchMode::Baseline);
        assert!(
            r.translation_error(&Pose::identity()) < 0.05,
            "drift {}",
            r.translation_error(&Pose::identity())
        );
    }

    #[test]
    fn recovers_small_perturbations() {
        let guess = Pose::from_translation_euler(Point3::new(0.4, -0.3, 0.1), 0.0, 0.0, 0.02);
        let r = align_from(guess, NdtSearchMode::Baseline);
        assert!(
            r.converged,
            "did not converge in {} iterations",
            r.iterations
        );
        assert!(
            r.translation_error(&Pose::identity()) < 0.1,
            "residual {}",
            r.translation_error(&Pose::identity())
        );
    }

    #[test]
    fn bonsai_mode_matches_baseline_alignment() {
        let guess = Pose::from_translation_euler(Point3::new(0.3, 0.2, 0.0), 0.0, 0.0, -0.015);
        let a = align_from(guess, NdtSearchMode::Baseline);
        let b = align_from(guess, NdtSearchMode::Bonsai);
        // Identical membership in every radius search ⇒ identical Newton
        // trajectory ⇒ identical pose.
        assert!(a.pose.translation.distance(b.pose.translation) < 1e-5);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn alignment_performs_radius_searches() {
        let r = align_from(Pose::identity(), NdtSearchMode::Baseline);
        assert!(r.search_stats.points_inspected > 100);
        assert!(r.search_stats.leaf_visits > 10);
    }

    #[test]
    fn score_improves_with_alignment_quality() {
        let good = align_from(Pose::identity(), NdtSearchMode::Baseline);
        let cloud = structured_cloud();
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        let mut matcher = NdtMatcher::new(
            &mut sim,
            map,
            NdtConfig {
                max_iterations: 1,
                ..NdtConfig::default()
            },
            NdtSearchMode::Baseline,
        );
        let far_guess = Pose::from_translation_euler(Point3::new(3.0, 2.0, 0.5), 0.1, 0.1, 0.4);
        let bad = matcher.align(&mut sim, &cloud, &far_guess);
        assert!(
            good.score < bad.score,
            "good {} vs bad {}",
            good.score,
            bad.score
        );
    }
}
