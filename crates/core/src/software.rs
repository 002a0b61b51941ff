use bonsai_floatfmt::{Half, PartErrorMem};
use bonsai_geom::Point3;
use bonsai_isa::software;
use bonsai_kdtree::{KdTree, LeafId, LeafProcessor, Neighbor, SearchStats};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::directory::CompressedDirectory;
use crate::shell::{classify, ShellClass};

/// The software-only strawman of Section IV-A: compressed leaves are
/// decompressed with ordinary scalar instructions instead of `LDDCP`, and
/// distances/error bounds are computed scalar too.
///
/// Semantically identical to
/// [`BonsaiLeafProcessor`](crate::BonsaiLeafProcessor) (same structures,
/// same shell, same fallback), but each leaf costs hundreds of scalar
/// micro-ops — the paper measures radius search ~7× slower than the
/// baseline this way, which is why the ISA extensions exist. Regenerated
/// by the `ablation_software_codec` bench.
#[derive(Debug)]
pub struct SoftwareCodecProcessor<'a> {
    directory: &'a CompressedDirectory,
    lut: PartErrorMem,
    /// Simulated address of the software `part_error_mem` table (a real
    /// in-memory array here, unlike the FU-internal ROM).
    lut_addr: u64,
    out_addr: u64,
}

impl<'a> SoftwareCodecProcessor<'a> {
    /// Creates a processor over a tree's compressed directory.
    pub fn new(
        sim: &mut SimEngine,
        directory: &'a CompressedDirectory,
    ) -> SoftwareCodecProcessor<'a> {
        SoftwareCodecProcessor {
            lut: PartErrorMem::new(),
            lut_addr: sim.alloc(32 * 8, 64),
            out_addr: directory.result_addr(),
            directory,
        }
    }
}

impl LeafProcessor for SoftwareCodecProcessor<'_> {
    fn process_leaf(
        &mut self,
        sim: &mut SimEngine,
        tree: &KdTree,
        leaf: LeafId,
        start: u32,
        count: u32,
        query: Point3,
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        if count == 0 {
            // A fully-deleted leaf owns no compressed structure.
            return;
        }
        // lint: allow(panic-free-serving) — baking invariant: every
        // non-empty leaf of a baked Bonsai tree has a directory entry.
        let leaf_ref = self
            .directory
            .leaf_ref(leaf)
            .expect("SoftwareCodecProcessor requires a compressed leaf");
        stats.points_inspected += count as u64;
        stats.point_bytes_loaded += leaf_ref.padded_len() as u64;
        sim.exec(OpClass::IntAlu, 2);

        // Software decompression (charges the documented scalar model).
        let mut decoded = [[0f32; 3]; bonsai_isa::MAX_POINTS];
        let bytes = self.directory.bytes_of(leaf);
        software::decompress_sw(
            sim,
            bytes,
            count as usize,
            self.directory.addr_of(leaf),
            &mut decoded,
        );

        // The structure holds `p − origin`: translate the query into the
        // leaf's frame once per visit (one vector subtract, as in the
        // LDDCP path).
        let q = query - tree.origin_of(leaf);
        sim.exec(OpClass::VecAlu, 1);

        for i in 0..count {
            let p16 = decoded[i as usize];
            // Scalar distance + error-bound evaluation: per coordinate a
            // sub, two muls, two adds, plus a LUT load.
            let mut d_sq = 0.0f32;
            let mut t_err = 0.0f32;
            for c in 0..3 {
                let b = p16[c];
                let diff = q[c] - b;
                d_sq += diff * diff;
                let exp_field = Half::from_f32(b).exponent_field();
                sim.load(self.lut_addr + exp_field as u64 * 8, 8);
                t_err += self.lut.max_squared_difference_error(diff.abs(), exp_field);
            }
            sim.exec(OpClass::FpAlu, 15);
            sim.exec(OpClass::IntAlu, 6);

            let class = classify(d_sq, t_err, r_sq);
            sim.branch(0x40, class != ShellClass::Recompute);
            match class {
                ShellClass::In => {
                    sim.load(tree.vind_entry_addr(start + i), 4);
                    sim.store(self.out_addr + out.len() as u64 * 8, 8);
                    sim.store(self.out_addr, 8); // result-set size fields
                    let idx = tree.vind()[(start + i) as usize];
                    out.push(Neighbor {
                        index: idx,
                        dist_sq: d_sq,
                    });
                }
                ShellClass::Out => {}
                ShellClass::Recompute => {
                    stats.fallbacks += 1;
                    stats.point_bytes_loaded += 12;
                    let prev = sim.set_kernel(Kernel::Fallback);
                    sim.load(tree.vind_entry_addr(start + i), 4);
                    let idx = tree.vind()[(start + i) as usize];
                    sim.load(tree.point_addr(idx), 12);
                    sim.exec(OpClass::FpAlu, 8);
                    sim.exec(OpClass::IntAlu, 3);
                    let exact = tree.points()[idx as usize].distance_squared(query);
                    let inside = exact <= r_sq;
                    sim.branch(0x41, inside);
                    if inside {
                        sim.store(self.out_addr + out.len() as u64 * 8, 8);
                        sim.store(self.out_addr, 8); // result-set size fields
                        out.push(Neighbor {
                            index: idx,
                            dist_sq: exact,
                        });
                    }
                    sim.set_kernel(prev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BonsaiTree;
    use bonsai_kdtree::KdTreeConfig;
    use bonsai_sim::CpuConfig;

    fn cloud(n: usize) -> Vec<Point3> {
        let mut state = 0x5DEECE66Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| Point3::new((next() - 0.5) * 70.0, (next() - 0.5) * 70.0, next() * 2.0))
            .collect()
    }

    #[test]
    fn software_path_matches_baseline_membership() {
        let pts = cloud(1500);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(pts.clone(), KdTreeConfig::default(), &mut sim);
        let mut proc = SoftwareCodecProcessor::new(&mut sim, tree.directory());
        let base_tree = KdTree::build(pts.clone(), KdTreeConfig::default(), &mut sim);
        for qi in [0usize, 100, 700, 1400] {
            let mut out = Vec::new();
            let mut stats = SearchStats::default();
            tree.kd_tree()
                .radius_search(&mut sim, &mut proc, pts[qi], 1.8, &mut out, &mut stats);
            let mut got: Vec<u32> = out.iter().map(|n| n.index).collect();
            let mut expect: Vec<u32> = base_tree
                .radius_search_simple(pts[qi], 1.8)
                .iter()
                .map(|n| n.index)
                .collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "query {qi}");
        }
    }

    #[test]
    fn software_codec_costs_several_times_the_baseline_scan() {
        let pts = cloud(2000);
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        let tree = BonsaiTree::build(pts.clone(), KdTreeConfig::default(), &mut sim);

        // Software-codec scan cost.
        sim.reset_counters();
        let mut sw = SoftwareCodecProcessor::new(&mut sim, tree.directory());
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for qi in (0..2000).step_by(40) {
            tree.kd_tree()
                .radius_search(&mut sim, &mut sw, pts[qi], 1.5, &mut out, &mut stats);
        }
        let sw_scan = sim.kernel_counters(Kernel::LeafScan).micro_ops();

        // Baseline scan cost over the identical queries, on the
        // f32-row tree of the same points.
        let base_tree = KdTree::build(pts.clone(), KdTreeConfig::default(), &mut sim);
        sim.reset_counters();
        let mut base = bonsai_kdtree::BaselineLeafProcessor::new(&mut sim, &base_tree);
        for qi in (0..2000).step_by(40) {
            base_tree.radius_search(&mut sim, &mut base, pts[qi], 1.5, &mut out, &mut stats);
        }
        let base_scan = sim.kernel_counters(Kernel::LeafScan).micro_ops();

        let factor = sw_scan as f64 / base_scan as f64;
        assert!(factor > 3.0, "software scan only {factor:.1}× the baseline");
    }
}
