//! Section III-A: how often do all points of a k-d tree leaf share the
//! `<sign, exponent>` of their `f32` coordinates? (Paper: 78 % of leaves
//! for x, 83 % for y, over 37 M points.)

use bonsai_cluster::FramePipeline;
use bonsai_floatfmt::sign_exponent_key;
use bonsai_kdtree::{KdTree, Node};
use bonsai_sim::SimEngine;

use crate::report::Table;
use crate::runner::{ExperimentConfig, FrameRunner};

/// The leaf-similarity census.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sec3aResult {
    /// Leaves analysed.
    pub leaves: u64,
    /// Points analysed.
    pub points: u64,
    /// Leaves with a uniform x `<sign, exponent>`.
    pub x_uniform: u64,
    /// Same for y.
    pub y_uniform: u64,
    /// Same for z.
    pub z_uniform: u64,
}

impl Sec3aResult {
    /// Censuses the trees of `frame_count` sub-sampled frames.
    pub fn run(cfg: ExperimentConfig, frame_count: usize) -> Sec3aResult {
        let runner = FrameRunner::new(cfg.clone());
        let pipeline = FramePipeline::new(cfg.cluster.clone());
        let frames = runner.sampled_frames();
        let take = frame_count.clamp(1, frames.len());

        let mut out = Sec3aResult::default();
        let mut sim = SimEngine::disabled();
        for &idx in &frames[..take] {
            let cloud = pipeline.preprocess(&mut sim, &runner.raw_frame(idx));
            let tree = KdTree::build(cloud, cfg.cluster.tree, &mut sim);
            out.absorb(&tree);
        }
        out
    }

    /// Adds one tree's leaves to the census.
    pub fn absorb(&mut self, tree: &KdTree) {
        for node in tree.nodes() {
            let Node::Leaf { start, count, .. } = node else {
                continue;
            };
            self.leaves += 1;
            self.points += *count as u64;
            let mut uniform = [true; 3];
            let first = tree.points()[tree.vind()[*start as usize] as usize];
            for i in *start + 1..start + count {
                let p = tree.points()[tree.vind()[i as usize] as usize];
                for c in 0..3 {
                    if sign_exponent_key(p[c]) != sign_exponent_key(first[c]) {
                        uniform[c] = false;
                    }
                }
            }
            self.x_uniform += uniform[0] as u64;
            self.y_uniform += uniform[1] as u64;
            self.z_uniform += uniform[2] as u64;
        }
    }

    /// Fraction of leaves uniform on coordinate `c` (0 = x, 1 = y,
    /// 2 = z).
    pub fn fraction(&self, c: usize) -> f64 {
        if self.leaves == 0 {
            return 0.0;
        }
        let n = [self.x_uniform, self.y_uniform, self.z_uniform][c];
        n as f64 / self.leaves as f64
    }

    /// Renders the census table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Section III-A — leaves with uniform f32 <sign, exponent>",
            &["coordinate", "measured", "paper"],
        );
        t.row(&["x", &format!("{:.0}%", self.fraction(0) * 100.0), "78%"]);
        t.row(&["y", &format!("{:.0}%", self.fraction(1) * 100.0), "83%"]);
        t.row(&[
            "z",
            &format!("{:.0}%", self.fraction(2) * 100.0),
            "(not reported)",
        ]);
        let mut out = t.render();
        out.push_str(&format!(
            "census size: {} leaves / {} points\n",
            self.leaves, self.points
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_paper_shape() {
        let r = Sec3aResult::run(ExperimentConfig::quick(), 2);
        assert!(r.leaves > 50, "only {} leaves", r.leaves);
        // The majority of leaves are uniform on the planar coordinates,
        // as in the paper's 78 %/83 %.
        assert!(r.fraction(0) > 0.5, "x fraction {:.2}", r.fraction(0));
        assert!(r.fraction(1) > 0.5, "y fraction {:.2}", r.fraction(1));
        assert!(r.render().contains("78%"));
    }

    #[test]
    fn empty_census_renders_zeros() {
        let r = Sec3aResult::default();
        assert_eq!(r.fraction(0), 0.0);
        assert!(r.render().contains("0%"));
    }
}
