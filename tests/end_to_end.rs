//! Cross-crate integration tests: the full pipeline, end to end, on
//! synthetic frames — equality across tree modes, experiment smoke
//! runs, and the paper's headline result shapes.

use kd_bonsai::cluster::{ClusterParams, FramePipeline, TreeMode};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::pipeline::{ExperimentConfig, FrameRunner};
use kd_bonsai::sim::SimEngine;

#[test]
fn all_tree_modes_produce_identical_clusters_on_real_frames() {
    let seq = DrivingSequence::new(SequenceConfig::small_test());
    let pipeline = FramePipeline::new(ClusterParams::default());
    for i in [0usize, 7, 15] {
        let frame = seq.frame(i);
        let mut results = Vec::new();
        for mode in [
            TreeMode::Baseline,
            TreeMode::Bonsai,
            TreeMode::SoftwareCodec,
        ] {
            let mut sim = SimEngine::disabled();
            results.push(pipeline.run(&mut sim, &frame, mode));
        }
        assert_eq!(
            results[0].output.clusters, results[1].output.clusters,
            "bonsai clusters differ on frame {i}"
        );
        assert_eq!(
            results[0].output.clusters, results[2].output.clusters,
            "software-codec clusters differ on frame {i}"
        );
        assert_eq!(
            results[0].boxes, results[1].boxes,
            "boxes differ on frame {i}"
        );
        assert!(
            !results[0].output.clusters.is_empty(),
            "frame {i} found nothing"
        );
    }
}

#[test]
fn headline_result_shapes_hold_on_a_quick_run() {
    use kd_bonsai::pipeline::experiments::{
        fig11::Fig11Result, fig12::Fig12Result, fig9::Fig9Result, paired::PairedRun,
    };
    let run = PairedRun::run(ExperimentConfig::quick());

    // Figure 9a signs: time, instructions, loads, stores, L1 accesses
    // all improve.
    let f9 = Fig9Result::from_paired(&run);
    assert!(f9.execution_time_pct < 0.0);
    assert!(f9.committed_instructions_pct < 0.0);
    assert!(f9.committed_loads_pct < 0.0);
    assert!(f9.committed_stores_pct < 0.0);
    assert!(f9.l1d_accesses_pct < 0.0);
    // Figure 9b: compressed point bytes around the paper's ~37 %.
    let ratio = f9.first_frame_bonsai_bytes as f64 / f9.first_frame_baseline_bytes as f64;
    assert!(ratio > 0.25 && ratio < 0.6, "byte ratio {ratio}");
    // §V-B: fallbacks in the sub-percent range.
    assert!(
        f9.fallback_ratio < 0.02,
        "fallback ratio {}",
        f9.fallback_ratio
    );

    // Figure 11/12: latency and energy means improve.
    assert!(Fig11Result::from_paired(&run).mean_change_pct() < 0.0);
    assert!(Fig12Result::from_paired(&run).mean_change_pct() < 0.0);
}

#[test]
fn frame_metrics_are_self_consistent() {
    let runner = FrameRunner::new(ExperimentConfig::quick());
    let frames = runner.sampled_frames();
    let metrics = runner.run_frames(TreeMode::Bonsai, &frames[..2]);
    for m in &metrics {
        // Kernel groups nest: radius search ⊆ extract ⊆ end-to-end.
        assert!(m.radius_search.cycles <= m.extract.cycles);
        assert!(m.extract.cycles <= m.end_to_end.cycles);
        assert!(m.extract.counters.micro_ops() <= m.end_to_end.counters.micro_ops());
        // Work happened in every group.
        assert!(m.radius_search.cycles > 0.0);
        assert!(m.search.points_inspected > 0);
        assert!(m.visits_per_leaf() > 1.0);
        assert!(m.end_to_end.energy_j > 0.0);
    }
}

#[test]
fn experiments_render_without_panicking() {
    use kd_bonsai::pipeline::experiments::{table1::Table1Result, table5::Table5Result};
    let cfg = ExperimentConfig::quick();
    let t1 = Table1Result::run(cfg, 1, 19);
    assert!(t1.render().contains("Table I"));
    assert!(Table5Result::run().render().contains("Table V"));
}

/// Every cell of an NDT map built from drive frames carries an exactly
/// symmetric information matrix: the matcher's gradient `B·q` and its
/// Hessian assume a symmetric B. (Each covariance entry rounds
/// `n·mean[r]·mean[c]`, which differs from `n·mean[c]·mean[r]` in the
/// last bit, so the map build computes the upper triangle and mirrors
/// it.)
#[test]
fn ndt_drive_map_information_matrices_are_exactly_symmetric() {
    use kd_bonsai::cluster::filters;
    use kd_bonsai::ndt::NdtMap;

    let seq = DrivingSequence::new(SequenceConfig::small_test());
    let mut sim = SimEngine::disabled();
    let mut world = Vec::new();
    for i in 0..seq.num_frames().min(8) {
        let pose = seq.pose(i);
        world.extend(seq.frame(i).into_iter().map(|p| pose.apply(p)));
    }
    let map_cloud = filters::voxel_downsample(&mut sim, &world, 0.4);
    for resolution in [1.0, 2.0] {
        let map = NdtMap::build(&mut sim, &map_cloud, resolution);
        assert!(map.cells().len() > 100, "{} cells", map.cells().len());
        for (k, cell) in map.cells().iter().enumerate() {
            let b = cell.inv_cov;
            for r in 0..3 {
                for c in r + 1..3 {
                    assert_eq!(
                        b[(r, c)].to_bits(),
                        b[(c, r)].to_bits(),
                        "cell {k} at {resolution} m: B[{r}][{c}] {} vs B[{c}][{r}] {}",
                        b[(r, c)],
                        b[(c, r)]
                    );
                }
            }
        }
    }
}
