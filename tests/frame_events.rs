//! Pinned simulator events of one instrumented frame.
//!
//! One `FramePipeline::run` on frame 0 of the paper drive, Bonsai mode,
//! under an enabled simulator: the `Preprocess` (ingest, crop, voxel
//! grid, ground removal), `Build` (k-d construction and reorder) and
//! `Compress` (leaf compression) kernels must charge exactly the events
//! recorded here. A host-side speedup of those stages that moves, drops
//! or adds a charge changes a count.

use kd_bonsai::cluster::{ClusterParams, FramePipeline, TreeMode};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::{Counters, CpuConfig, Kernel, OpClass, SimEngine};

/// The pinned part of a kernel's counters: micro-ops per `OpClass`,
/// memory micro-ops and branches.
type Pinned = ([u64; OpClass::COUNT], u64, u64);

fn pinned(c: &Counters) -> Pinned {
    (c.ops, c.mem_ops(), c.branches)
}

#[test]
fn frame_sim_events_are_pinned() {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::new(&CpuConfig::a72_like());
    pipeline.run(&mut sim, &seq.frame(0), TreeMode::Bonsai);
    // Recorded before the k-d builders shared one split step and the
    // voxel grid kept one record per cell.
    let want: [(Kernel, Pinned); 3] = [
        (
            Kernel::Preprocess,
            (
                [612_298, 897_458, 0, 234_387, 131_003, 121_147, 0, 0],
                365_390,
                121_147,
            ),
        ),
        (
            Kernel::Build,
            (
                [621_020, 515_120, 0, 257_560, 36_442, 57_951, 0, 0],
                294_002,
                57_951,
            ),
        ),
        (
            Kernel::Compress,
            ([14_926, 0, 0, 12_878, 1_831, 0, 7_463, 0], 14_709, 0),
        ),
    ];
    for (kernel, expect) in want {
        assert_eq!(pinned(sim.kernel_counters(kernel)), expect, "{kernel:?}");
    }
}
