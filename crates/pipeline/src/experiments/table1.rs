//! Table I: radius-search classification error of the reduced
//! floating-point representations, against the `f32` baseline
//! (paper: f16 0.076 %, bfloat16 0.61 %, float24 0.0003 %).

use std::collections::HashSet;

use bonsai_cluster::FramePipeline;
use bonsai_core::ReducedUncheckedProcessor;
use bonsai_floatfmt::ReducedFormat;
use bonsai_kdtree::{BaselineLeafProcessor, KdTree, SearchStats};
use bonsai_sim::SimEngine;

use crate::report::Table;
use crate::runner::{ExperimentConfig, FrameRunner};

/// One Table I row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// The evaluated format.
    pub format: ReducedFormat,
    /// Per-point classification decisions taken.
    pub decisions: u64,
    /// Decisions that flipped relative to the baseline.
    pub flips: u64,
}

impl Table1Row {
    /// Misclassification rate.
    pub fn rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.flips as f64 / self.decisions as f64
        }
    }
}

/// The Table I sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One row per format, in paper order.
    pub rows: Vec<Table1Row>,
    /// The radius used (the cluster tolerance).
    pub radius: f32,
}

impl Table1Result {
    /// Sweeps all formats over `frame_count` sub-sampled frames, one
    /// radius search per cloud point, `query_stride` apart.
    pub fn run(cfg: ExperimentConfig, frame_count: usize, query_stride: usize) -> Table1Result {
        let runner = FrameRunner::new(cfg.clone());
        let pipeline = FramePipeline::new(cfg.cluster.clone());
        let frames = runner.sampled_frames();
        let take = frame_count.clamp(1, frames.len());
        let radius = cfg.cluster.tolerance;

        let mut rows: Vec<Table1Row> = ReducedFormat::ALL
            .iter()
            .map(|&format| Table1Row {
                format,
                decisions: 0,
                flips: 0,
            })
            .collect();

        let mut sim = SimEngine::disabled();
        for &idx in &frames[..take] {
            let cloud = pipeline.preprocess(&mut sim, &runner.raw_frame(idx));
            let tree = KdTree::build(cloud, cfg.cluster.tree, &mut sim);
            let mut base_proc = BaselineLeafProcessor::new(&mut sim, &tree);
            let mut reduced_procs: Vec<ReducedUncheckedProcessor> = ReducedFormat::ALL
                .iter()
                .map(|&f| ReducedUncheckedProcessor::new(&mut sim, f))
                .collect();

            let mut base_out = Vec::new();
            let mut red_out = Vec::new();
            for qi in (0..tree.points().len()).step_by(query_stride.max(1)) {
                let q = tree.points()[qi];
                let mut base_stats = SearchStats::default();
                tree.radius_search(
                    &mut sim,
                    &mut base_proc,
                    q,
                    radius,
                    &mut base_out,
                    &mut base_stats,
                );
                let base_set: HashSet<u32> = base_out.iter().map(|n| n.index).collect();
                for (row, proc) in rows.iter_mut().zip(&mut reduced_procs) {
                    let mut stats = SearchStats::default();
                    tree.radius_search(&mut sim, proc, q, radius, &mut red_out, &mut stats);
                    let red_set: HashSet<u32> = red_out.iter().map(|n| n.index).collect();
                    row.decisions += stats.points_inspected;
                    row.flips += base_set.symmetric_difference(&red_set).count() as u64;
                }
            }
        }
        Table1Result { rows, radius }
    }

    /// The row for a format.
    pub fn row(&self, format: ReducedFormat) -> &Table1Row {
        self.rows
            .iter()
            .find(|r| r.format == format)
            // lint: allow(panic-free-serving) — the sweep constructs
            // one row per `ReducedFormat` variant, so lookup succeeds.
            .expect("all formats are swept")
    }

    /// Renders the Table I comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table I — misclassified points with reduced representations",
            &["format", "bits", "measured", "paper"],
        );
        t.row(&["IEEE-754 32-bits", "32", "0% (baseline)", "0% (baseline)"]);
        let paper = ["0.076%", "0.61%", "0.0003%"];
        for (row, paper) in self.rows.iter().zip(paper) {
            t.row(&[
                row.format.paper_name(),
                &row.format.bits().to_string(),
                &format!("{:.4}%", row.rate() * 100.0),
                paper,
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "decisions per format: {}   radius: {} m\n",
            self.rows[0].decisions, self.radius
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_ordering_matches_table1() {
        let r = Table1Result::run(ExperimentConfig::quick(), 1, 7);
        let f16 = r.row(ReducedFormat::Ieee16).rate();
        let bf = r.row(ReducedFormat::BFloat16).rate();
        let f24 = r.row(ReducedFormat::Custom24).rate();
        assert!(r.rows[0].decisions > 1_000, "too few decisions");
        assert!(bf > f16, "bfloat {bf} vs f16 {f16}");
        assert!(f16 > f24, "f16 {f16} vs f24 {f24}");
        assert!(f16 < 0.01, "f16 rate {f16} should be sub-percent");
        assert!(r.render().contains("bfloat"));
    }
}
