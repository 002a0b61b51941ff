use bonsai_floatfmt::Half;
use bonsai_geom::Point3;
use bonsai_isa::Machine;
use bonsai_kdtree::{KdTree, KdTreeConfig, Neighbor, Node, SearchScratch, SearchStats};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::directory::CompressedDirectory;
use crate::processor::BonsaiLeafProcessor;

/// The f16 padding sentinel: binary16 `+∞`.
pub(crate) const PAD_HALF: u16 = 0x7C00;

/// Leaf-contiguous SoA of the points' raw binary16 bit patterns, baked
/// at build time: slot `i` mirrors the tree's `vind()[i]` slot, 6 B per
/// slot. The fast (uninstrumented) compressed scan sweeps these rows
/// linearly instead of running the instruction-level decode per leaf
/// visit, decoding each half to the `f32` value `LDDCP` would
/// materialize in a vector register (F16C `vcvtph2ps` in the AVX2
/// kernel, [`Half::to_f32`] in the scalar loop — the decode is exact,
/// so both agree bit for bit). The f16 exponent field, the
/// `part_error_mem` LUT key of Eq. 9, is bits 10..14 of each half, so
/// it needs no row of its own.
///
/// The rows mirror the tree's lane-padded layout too: every leaf's
/// padding slots hold f16 `+∞` ([`PAD_HALF`]), so the SIMD shell sweep
/// can load whole lane groups; the sentinel lanes are clipped before
/// classification.
#[derive(Debug, Clone, Default)]
pub(crate) struct ApproxSoa {
    pub x: Vec<u16>,
    pub y: Vec<u16>,
    pub z: Vec<u16>,
}

/// The f16 bit patterns of a point's coordinates.
fn halves(p: Point3) -> [u16; 3] {
    [p.x, p.y, p.z].map(|c| Half::from_f32(c).to_bits())
}

impl ApproxSoa {
    fn bake(tree: &KdTree) -> ApproxSoa {
        let n = tree.vind().len();
        let mut soa = ApproxSoa {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
        };
        for &idx in tree.vind() {
            let [hx, hy, hz] = if idx == bonsai_kdtree::simd::PAD_SLOT {
                [PAD_HALF; 3]
            } else {
                halves(tree.points()[idx as usize])
            };
            soa.x.push(hx);
            soa.y.push(hy);
            soa.z.push(hz);
        }
        soa
    }

    /// Number of slots the rows cover.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// The three halves of slot `i`.
    pub fn slot(&self, i: usize) -> [u16; 3] {
        [self.x[i], self.y[i], self.z[i]]
    }

    /// Bytes the compressed structures of `tree`'s leaves occupy in a
    /// freshly filled directory: each leaf's
    /// [`codec::padded_len`](bonsai_isa::codec::padded_len) over its
    /// baked halves.
    fn structure_bytes(&self, tree: &KdTree) -> usize {
        let mut leaf = [[0u16; 3]; bonsai_isa::MAX_POINTS];
        tree.nodes()
            .iter()
            .filter_map(|node| match *node {
                Node::Leaf { start, count } if count > 0 => Some((start as usize, count as usize)),
                _ => None,
            })
            .map(|(start, count)| {
                for (k, h) in leaf[..count].iter_mut().enumerate() {
                    *h = self.slot(start + k);
                }
                bonsai_isa::codec::padded_len(&leaf[..count])
            })
            .sum()
    }

    /// Grows the rows to cover `n` slots (new slots hold the padding
    /// sentinel until their leaf is re-baked). Never shrinks.
    fn ensure_slots(&mut self, n: usize) {
        if n > self.len() {
            self.x.resize(n, PAD_HALF);
            self.y.resize(n, PAD_HALF);
            self.z.resize(n, PAD_HALF);
        }
    }

    /// Writes the halves `[hx, hy, hz]` into slot `i`.
    fn set_slot(&mut self, i: usize, [hx, hy, hz]: [u16; 3]) {
        self.x[i] = hx;
        self.y[i] = hy;
        self.z[i] = hz;
    }
}

/// A k-d tree whose leaves carry Bonsai-compressed copies of their
/// points.
///
/// Construction builds the PCL-style tree, then walks its leaves and
/// compresses each through the Bonsai instruction sequence (`LDSPZPB` per
/// point, `CPRZPB`, `STZPB`), filling the [`CompressedDirectory`]. The
/// compression work is charged to the `Compress` kernel — the paper's
/// build-time overhead that the ~52 search visits per leaf amortize.
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// `Clone` is deliberate: the epoch publication scheme
/// ([`EpochPublisher`](crate::EpochPublisher)) builds the next epoch's
/// tree off to the side as a deep copy while readers keep scanning the
/// published one.
#[derive(Debug, Clone)]
pub struct BonsaiTree {
    tree: KdTree,
    directory: CompressedDirectory,
    approx: ApproxSoa,
}

/// Aggregate compression statistics of a built tree (Sections III-A and
/// V-B numbers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompressionStats {
    /// Number of compressed leaves.
    pub leaves: u32,
    /// Total points stored in leaves.
    pub points: u64,
    /// Slice-padded bytes of the `cmprsd_strct_array`.
    pub compressed_bytes: u64,
    /// Useful baseline bytes for the same points (12 B per point).
    pub baseline_bytes: u64,
    /// Leaves whose x coordinate shares one `<sign, exp>`.
    pub x_compressed: u32,
    /// Leaves whose y coordinate shares one `<sign, exp>`.
    pub y_compressed: u32,
    /// Leaves whose z coordinate shares one `<sign, exp>`.
    pub z_compressed: u32,
}

impl CompressionStats {
    /// Compressed size as a fraction of the baseline point bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 / self.baseline_bytes as f64
        }
    }

    /// Fraction of leaves with a uniform `<sign, exp>` on the given
    /// coordinate (0 = x, 1 = y, 2 = z) — the paper's 78 % / 83 %
    /// observation.
    pub fn uniform_fraction(&self, coord: usize) -> f64 {
        if self.leaves == 0 {
            return 0.0;
        }
        let n = match coord {
            0 => self.x_compressed,
            1 => self.y_compressed,
            2 => self.z_compressed,
            // lint: allow(panic-free-serving) — stats accessor API
            // misuse (coord is 0..3 by its doc contract), not a
            // serving-path input condition.
            _ => panic!("coordinate index {coord} out of range"),
        };
        n as f64 / self.leaves as f64
    }
}

impl BonsaiTree {
    /// Builds the tree and compresses every leaf.
    ///
    /// Tree construction charges the `Build` kernel; leaf compression
    /// charges `Compress`.
    pub fn build(points: Vec<Point3>, cfg: KdTreeConfig, sim: &mut SimEngine) -> BonsaiTree {
        let tree = KdTree::build(points, cfg, sim);
        BonsaiTree::compress_whole(tree, sim)
    }

    /// [`build`](BonsaiTree::build) with the tree construction fanned
    /// out across scoped worker threads (see
    /// [`KdTree::build_parallel`]); the compression pass is unchanged.
    /// Uninstrumented — no simulator events are recorded.
    pub fn build_parallel(points: Vec<Point3>, cfg: KdTreeConfig, threads: usize) -> BonsaiTree {
        let tree = KdTree::build_parallel(points, cfg, threads);
        BonsaiTree::compress_whole(tree, &mut SimEngine::disabled())
    }

    fn compress_whole(tree: KdTree, sim: &mut SimEngine) -> BonsaiTree {
        let approx = ApproxSoa::bake(&tree);
        let mut directory = CompressedDirectory::new(sim, tree.nodes().len());
        directory.reserve_exact(approx.structure_bytes(&tree));
        let mut machine = Machine::new();
        let prev = sim.set_kernel(Kernel::Compress);
        for id in 0..tree.nodes().len() {
            let Node::Leaf { start, count } = tree.nodes()[id] else {
                continue;
            };
            compress_leaf_structure(
                sim,
                &mut machine,
                &tree,
                &mut directory,
                id as u32,
                start,
                count,
                false,
            );
        }
        sim.set_kernel(prev);
        BonsaiTree {
            tree,
            directory,
            approx,
        }
    }

    /// Inserts a point (see [`KdTree::insert`]), returning its new
    /// cloud index, or `None` for a non-finite point. The touched
    /// leaf's compressed structure and f16 rows are **not** re-baked
    /// here — they are marked dirty and re-compressed once by the next
    /// [`commit`](BonsaiTree::commit), so a burst of mutations pays one
    /// re-bake per touched leaf instead of one per mutation.
    pub fn insert(&mut self, sim: &mut SimEngine, p: Point3) -> Option<u32> {
        self.tree.insert(sim, p)
    }

    /// Deletes point `idx` (see [`KdTree::delete`]); `false` is a
    /// constant-time no-op. Like [`insert`](BonsaiTree::insert), the
    /// re-bake of the touched leaf is deferred to
    /// [`commit`](BonsaiTree::commit).
    pub fn delete(&mut self, sim: &mut SimEngine, idx: u32) -> bool {
        self.tree.delete(sim, idx)
    }

    /// Whether mutations are pending a [`commit`](BonsaiTree::commit).
    /// Searching while pending is a contract violation — the
    /// compressed search entry points and the
    /// [`directory`](BonsaiTree::directory) accessor panic on it, in
    /// release builds too, because the compressed structures of dirty
    /// leaves still describe their pre-mutation points and would be
    /// served silently otherwise.
    pub fn has_pending_rebake(&self) -> bool {
        self.tree.has_dirty_nodes()
    }

    /// Re-bakes every dirty leaf — and only the dirty leaves: their
    /// f16-approximate SoA rows are recomputed and their compressed
    /// structures re-encoded (`LDSPZPB`/`CPRZPB`/`STZPB`, charged to
    /// the `Compress` kernel); directory entries of nodes that stopped
    /// being live leaves are cleared. Untouched leaves keep their baked
    /// bytes. Returns the number of leaves re-compressed.
    pub fn commit(&mut self, sim: &mut SimEngine) -> usize {
        if !self.tree.has_dirty_nodes() {
            return 0;
        }
        let dirty = self.tree.drain_dirty_nodes();
        self.approx.ensure_slots(self.tree.vind().len());
        self.directory.ensure_nodes(self.tree.nodes().len());
        let mut machine = Machine::new();
        let prev = sim.set_kernel(Kernel::Compress);
        let mut rebaked = 0;
        for id in dirty {
            match self.tree.nodes()[id as usize] {
                Node::Leaf { start, count } if count > 0 => {
                    for i in start as usize..(start + count) as usize {
                        let idx = self.tree.vind()[i];
                        self.approx
                            .set_slot(i, halves(self.tree.points()[idx as usize]));
                    }
                    // Re-sentinel the lane-padding tail: deletions may
                    // have shrunk the leaf, leaving stale f16 rows a
                    // SIMD lane group would otherwise load.
                    let fp = self.tree.leaf_slot_footprint(id) as usize;
                    for i in (start + count) as usize..start as usize + fp {
                        self.approx.set_slot(i, [PAD_HALF; 3]);
                    }
                    compress_leaf_structure(
                        sim,
                        &mut machine,
                        &self.tree,
                        &mut self.directory,
                        id,
                        start,
                        count,
                        true,
                    );
                    rebaked += 1;
                }
                Node::Leaf { start, .. } => {
                    // A hollowed-out (count = 0) leaf owns no
                    // compressed structure, but it still owns its slot
                    // footprint — re-sentinel it so the f16 rows never
                    // carry stale points under a live leaf.
                    let fp = self.tree.leaf_slot_footprint(id) as usize;
                    for i in start as usize..start as usize + fp {
                        self.approx.set_slot(i, [PAD_HALF; 3]);
                    }
                    self.directory.clear(id);
                }
                // Retired slots and leaf→interior splits no longer own
                // a compressed structure (their abandoned slot ranges
                // are garbage no sweep can reach).
                Node::Interior { .. } => self.directory.clear(id),
            }
        }
        sim.set_kernel(prev);
        rebaked
    }

    /// Applies a frame diff in one call: deletes `removed` (dead
    /// indices are skipped), inserts `added` (non-finite points are
    /// skipped), then [`commit`](BonsaiTree::commit)s the touched
    /// leaves. Returns the new cloud indices of the accepted inserts,
    /// in `added` order.
    pub fn update(&mut self, sim: &mut SimEngine, added: &[Point3], removed: &[u32]) -> Vec<u32> {
        for &idx in removed {
            self.delete(sim, idx);
        }
        let inserted = added.iter().filter_map(|&p| self.insert(sim, p)).collect();
        self.commit(sim);
        inserted
    }

    /// Compacts the tree's fragmented storage and replays the move
    /// through the compressed layers: the underlying
    /// [`KdTree::compact`] repacks `vind`/SoA slots and the node pool,
    /// then the f16-approximate rows are permuted through the slot map
    /// and the [`CompressedDirectory`] through the node map. Baked
    /// bytes only **move** — no leaf is re-encoded — so searches,
    /// their order and every
    /// [`SearchStats`](bonsai_kdtree::SearchStats) counter are
    /// bit-identical before and after in all three modes, while
    /// `garbage_slots()` drops to zero, the directory sheds the bytes
    /// its incremental `replace` calls abandoned, and the lane-padding
    /// invariant holds. Returns the number of `vind` slots reclaimed.
    ///
    /// Dead *points* keep their slots (cloud indices must stay stable
    /// for reported neighbors); the shard router's rolling
    /// [`rebuild_shard`](crate::ShardRouter::rebuild_shard) reclaims
    /// those, because it owns the local→global index translation.
    ///
    /// # Panics
    ///
    /// Panics when mutations are pending a
    /// [`commit`](BonsaiTree::commit): compacting around stale
    /// directory structures would bake the staleness in.
    pub fn compact(&mut self, sim: &mut SimEngine) -> usize {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds (PR 3 hardening).
        assert!(
            !self.tree.has_dirty_nodes(),
            "compacting a BonsaiTree with uncommitted mutations; call commit() first"
        );
        let old_slots = self.tree.vind().len();
        let remap = self.tree.compact(sim);
        let new_slots = self.tree.vind().len();

        // Permute the f16 rows: the bits move with their slots, nothing
        // is re-quantized, so the approximate coordinates (and thus
        // shell classifications) cannot drift.
        let mut approx = ApproxSoa {
            x: vec![PAD_HALF; new_slots],
            y: vec![PAD_HALF; new_slots],
            z: vec![PAD_HALF; new_slots],
        };
        for (old, &new) in remap.slot_map.iter().enumerate() {
            if new == bonsai_kdtree::CompactRemap::DROPPED || old >= self.approx.len() {
                continue;
            }
            approx.set_slot(new as usize, self.approx.slot(old));
        }
        self.approx = approx;
        self.directory
            .compact_remap(&remap.node_map, self.tree.nodes().len());
        old_slots - new_slots
    }

    /// Host-side memory footprint, in bytes: the underlying tree's
    /// [`resident_bytes`](KdTree::resident_bytes) plus the f16 rows
    /// (6 B per slot) and the compressed directory's
    /// [`resident_bytes`](CompressedDirectory::resident_bytes) (its
    /// array, garbage bytes included, and its per-node reference
    /// table).
    pub fn resident_bytes(&self) -> u64 {
        self.tree.resident_bytes()
            + self.approx.len() as u64 * 3 * 2
            + self.directory.resident_bytes() as u64
    }

    /// The underlying k-d tree (baseline searches, structure access).
    pub fn kd_tree(&self) -> &KdTree {
        &self.tree
    }

    /// The compressed-structure directory.
    ///
    /// # Panics
    ///
    /// Panics when mutations are pending a
    /// [`commit`](BonsaiTree::commit) — dirty leaves' structures still
    /// encode their pre-mutation points, so handing the directory to a
    /// leaf processor would silently produce stale results.
    pub fn directory(&self) -> &CompressedDirectory {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds (PR 3 hardening).
        assert!(
            !self.tree.has_dirty_nodes(),
            "reading a BonsaiTree directory with uncommitted mutations; call commit() first"
        );
        &self.directory
    }

    /// The baked f16-approximate SoA rows (fast-scan substrate).
    ///
    /// # Panics
    ///
    /// Panics when mutations are pending a
    /// [`commit`](BonsaiTree::commit): the rows still describe the
    /// pre-mutation points, and silently serving them would return
    /// stale neighbor sets. The check is one `Vec::is_empty`, so it is
    /// enforced in release builds too.
    pub(crate) fn approx_soa(&self) -> &ApproxSoa {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds (PR 3 hardening).
        assert!(
            !self.tree.has_dirty_nodes(),
            "searching a BonsaiTree with uncommitted mutations; call commit() first"
        );
        &self.approx
    }

    /// Radius search over compressed leaves (exact membership; see
    /// [`BonsaiLeafProcessor`]).
    pub fn radius_search(
        &self,
        sim: &mut SimEngine,
        machine: &mut Machine,
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds (PR 3 hardening).
        assert!(
            !self.tree.has_dirty_nodes(),
            "searching a BonsaiTree with uncommitted mutations; call commit() first"
        );
        let mut proc = BonsaiLeafProcessor::new(&self.directory, machine);
        self.tree
            .radius_search(sim, &mut proc, query, radius, out, stats);
    }

    /// [`radius_search`](BonsaiTree::radius_search) with a caller-owned
    /// [`SearchScratch`] — allocation-free once warm.
    #[allow(clippy::too_many_arguments)] // mirrors radius_search + scratch
    pub fn radius_search_scratch(
        &self,
        sim: &mut SimEngine,
        machine: &mut Machine,
        query: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds (PR 3 hardening).
        assert!(
            !self.tree.has_dirty_nodes(),
            "searching a BonsaiTree with uncommitted mutations; call commit() first"
        );
        let mut proc = BonsaiLeafProcessor::new(&self.directory, machine);
        self.tree
            .radius_search_scratch(sim, &mut proc, query, radius, out, stats, scratch);
    }

    /// Convenience: uninstrumented compressed radius search.
    pub fn radius_search_simple(&self, query: Point3, radius: f32) -> Vec<Neighbor> {
        let mut sim = SimEngine::disabled();
        let mut machine = Machine::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.radius_search(&mut sim, &mut machine, query, radius, &mut out, &mut stats);
        out
    }

    /// Validates the lane-padding invariant on the tree **and** its
    /// f16 rows: the underlying [`KdTree::assert_lane_padding`] holds,
    /// the approximate rows span every `vind` slot, and each leaf's
    /// padding tail holds the `+∞` sentinel there too. A test/debug
    /// aid (callable with a pending commit — the padding contract
    /// covers the committed prefix of the rows, which mutation only
    /// extends).
    ///
    /// # Panics
    ///
    /// Panics describing the first violation found.
    pub fn assert_lane_padding(&self) {
        self.tree.assert_lane_padding();
        let slots = self.tree.vind().len();
        // lint: allow(debug-assert-discipline) — documented panicking
        // audit helper: reporting the first violation via panic is its
        // API, in release builds too.
        assert!(
            self.approx.len() >= slots || self.tree.has_dirty_nodes(),
            "f16 rows cover {} of {slots} committed slots",
            self.approx.len()
        );
        if self.tree.has_dirty_nodes() {
            // Dirty leaves' rows are stale by design until commit.
            return;
        }
        for (id, node) in self.tree.nodes().iter().enumerate() {
            let Node::Leaf { start, count } = *node else {
                continue;
            };
            let fp = self.tree.leaf_slot_footprint(id as u32) as usize;
            for i in start as usize + count as usize..start as usize + fp {
                // lint: allow(debug-assert-discipline) — documented
                // panicking audit helper; see above.
                assert!(
                    self.approx.slot(i) == [PAD_HALF; 3],
                    "leaf {id} slot {i}: f16 rows not padded"
                );
            }
        }
    }

    /// Aggregate compression statistics.
    pub fn compression_stats(&self) -> CompressionStats {
        let mut s = CompressionStats::default();
        for (_, r) in self.directory.refs() {
            s.leaves += 1;
            s.points += r.num_pts as u64;
            s.compressed_bytes += r.padded_len() as u64;
            s.baseline_bytes += r.num_pts as u64 * 12;
            if r.flags.x {
                s.x_compressed += 1;
            }
            if r.flags.y {
                s.y_compressed += 1;
            }
            if r.flags.z {
                s.z_compressed += 1;
            }
        }
        s
    }
}

/// Deterministic fault-injection hooks for the chaos test suite: each
/// corrupts one structure the auditor certifies, and returns `false`
/// when the tree offers no applicable site. Never compiled into
/// default builds.
#[cfg(feature = "chaos")]
impl BonsaiTree {
    /// Duplicates a `vind` entry inside one leaf (see
    /// [`KdTree::chaos_duplicate_vind`]).
    pub fn chaos_duplicate_vind(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        self.tree.chaos_duplicate_vind(rng)
    }

    /// Skews one interior divider past its split value (see
    /// [`KdTree::chaos_skew_divider`]).
    pub fn chaos_skew_divider(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        self.tree.chaos_skew_divider(rng)
    }

    /// Skews the garbage-slot counter (see
    /// [`KdTree::chaos_skew_garbage`]).
    pub fn chaos_skew_garbage(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        self.tree.chaos_skew_garbage(rng)
    }

    /// Flips the low mantissa bit of one live slot's f16 row — the
    /// audit's bit-compare against the point's true f16 encoding
    /// catches it.
    pub fn chaos_flip_f16(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        if self.tree.has_dirty_nodes() {
            return false;
        }
        let mut slots: Vec<usize> = Vec::new();
        for node in self.tree.nodes() {
            let Node::Leaf { start, count } = *node else {
                continue;
            };
            for i in start as usize..(start + count) as usize {
                if i < self.approx.len() {
                    slots.push(i);
                }
            }
        }
        if slots.is_empty() {
            return false;
        }
        let i = slots[rng.below(slots.len())];
        match rng.below(3) {
            0 => self.approx.x[i] ^= 1,
            1 => self.approx.y[i] ^= 1,
            _ => self.approx.z[i] ^= 1,
        }
        true
    }

    /// Redirects one compressed-directory reference past the byte
    /// array (see `CompressedDirectory::chaos_corrupt_ref`).
    pub fn chaos_truncate_directory(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        if self.tree.has_dirty_nodes() {
            return false;
        }
        self.directory.chaos_corrupt_ref(rng.next_u64() as usize)
    }
}

/// The Bonsai compress-instruction sequence over one leaf: `LDSPZPB`
/// each point into the ZipPts buffer (one vind load to find it, then
/// the point load inside the instruction), `CPRZPB`, `STZPB` into the
/// directory's next free slice, then the leaf-field/next-free update.
/// Shared by the build-time whole-tree pass (`replace == false`) and
/// the incremental per-dirty-leaf re-bake (`replace == true`).
#[allow(clippy::too_many_arguments)] // the flattened compression state
fn compress_leaf_structure(
    sim: &mut SimEngine,
    machine: &mut Machine,
    tree: &KdTree,
    directory: &mut CompressedDirectory,
    id: u32,
    start: u32,
    count: u32,
    replace: bool,
) {
    for (slot, i) in (start..start + count).enumerate() {
        sim.load(tree.vind_entry_addr(i), 4);
        sim.exec(OpClass::IntAlu, 2);
        let idx = tree.vind()[i as usize];
        machine.ldspzpb(
            sim,
            slot,
            tree.point_addr(idx),
            tree.points()[idx as usize].to_array(),
        );
    }
    machine.cprzpb(sim, count as usize);
    let addr = directory.next_addr();
    let compressed = machine.stzpb(sim, addr);
    let placed = if replace {
        directory.replace(id, &compressed)
    } else {
        directory.insert(id, &compressed)
    };
    debug_assert_eq!(placed, addr);
    // Update the leaf's (union-reused) fields and the next-free index.
    sim.exec(OpClass::IntAlu, 4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_floatfmt::Half;
    use bonsai_isa::codec;

    fn urban_like_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| {
                // Clustered surfaces at various ranges, like LiDAR returns.
                let cluster = (next() * 12.0).floor();
                let cx = (cluster - 6.0) * 15.0;
                Point3::new(cx + next() * 3.0, (next() - 0.5) * 60.0, next() * 2.5)
            })
            .collect()
    }

    #[test]
    fn every_leaf_gets_a_structure() {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(urban_like_cloud(2000, 1), KdTreeConfig::default(), &mut sim);
        let leaves = tree.kd_tree().build_stats().num_leaves;
        let stats = tree.compression_stats();
        assert_eq!(stats.leaves, leaves);
        assert_eq!(stats.points, 2000);
    }

    #[test]
    fn directory_structures_decode_to_the_leaf_points() {
        let mut sim = SimEngine::disabled();
        let cloud = urban_like_cloud(500, 2);
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        for (id, node) in tree.kd_tree().nodes().iter().enumerate() {
            let Node::Leaf { start, count } = node else {
                continue;
            };
            let r = tree.directory().leaf_ref(id as u32).unwrap();
            let mut decoded = [[0u16; 3]; 16];
            codec::decompress(
                tree.directory().bytes_of(id as u32),
                r.num_pts as usize,
                &mut decoded,
            );
            for (slot, i) in (*start..start + count).enumerate() {
                let idx = tree.kd_tree().vind()[i as usize] as usize;
                let p = cloud[idx];
                for c in 0..3 {
                    assert_eq!(
                        decoded[slot][c],
                        Half::from_f32(p[c]).to_bits(),
                        "leaf {id} slot {slot} coord {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn compression_ratio_is_paper_scale() {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(
            urban_like_cloud(20_000, 3),
            KdTreeConfig::default(),
            &mut sim,
        );
        let stats = tree.compression_stats();
        let ratio = stats.compression_ratio();
        // Fully-compressible leaves reach 64/180 ≈ 0.356; mixed clouds sit
        // a bit above. The paper's frame-1 figure is ~0.37.
        assert!(ratio > 0.3 && ratio < 0.6, "ratio {ratio}");
        // Most leaves compress on most coordinates for clustered data.
        assert!(
            stats.uniform_fraction(0) > 0.5,
            "x {}",
            stats.uniform_fraction(0)
        );
    }

    #[test]
    fn build_charges_compress_kernel() {
        let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
        BonsaiTree::build(urban_like_cloud(1000, 4), KdTreeConfig::default(), &mut sim);
        let comp = *sim.kernel_counters(Kernel::Compress);
        assert!(
            comp.ops_of(OpClass::BonsaiCodec) > 0,
            "LDSPZPB/CPRZPB charged"
        );
        assert!(comp.stores > 0, "STZPB slice stores charged");
        assert!(sim.kernel_counters(Kernel::Build).micro_ops() > 0);
    }

    /// Incremental mutations + commit must reproduce a from-scratch
    /// build over the live points bit-for-bit (sorted; index remapped).
    #[test]
    fn incremental_updates_match_fresh_build_bit_for_bit() {
        let cloud = urban_like_cloud(2500, 7);
        let mut sim = SimEngine::disabled();
        let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let added = urban_like_cloud(300, 8);
        let removed: Vec<u32> = (0..300u32).map(|i| i * 7 % 2500).collect();
        let inserted = tree.update(&mut sim, &added, &removed);
        assert_eq!(inserted.len(), 300);
        assert!(!tree.has_pending_rebake());

        let live: Vec<u32> = tree.kd_tree().live_indices().collect();
        let live_pts: Vec<Point3> = live
            .iter()
            .map(|&i| tree.kd_tree().points()[i as usize])
            .collect();
        let fresh = BonsaiTree::build(live_pts, KdTreeConfig::default(), &mut sim);
        for (qi, q) in urban_like_cloud(20, 9).into_iter().enumerate() {
            let mut got: Vec<(u32, u32)> = tree
                .radius_search_simple(q, 1.5)
                .iter()
                .map(|n| (n.index, n.dist_sq.to_bits()))
                .collect();
            got.sort_unstable();
            let mut expect: Vec<(u32, u32)> = fresh
                .radius_search_simple(q, 1.5)
                .iter()
                .map(|n| (live[n.index as usize], n.dist_sq.to_bits()))
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "query {qi}");
        }
    }

    /// The lazy re-bake touches only dirty leaves: a single insert
    /// re-compresses a handful of leaves, not the whole tree.
    #[test]
    fn commit_rebakes_only_touched_leaves() {
        let mut sim = SimEngine::disabled();
        let mut tree =
            BonsaiTree::build(urban_like_cloud(5000, 3), KdTreeConfig::default(), &mut sim);
        let total_leaves = tree.kd_tree().build_stats().num_leaves as usize;
        tree.insert(&mut sim, Point3::new(1.0, 2.0, 1.0)).unwrap();
        assert!(tree.has_pending_rebake());
        let rebaked = tree.commit(&mut sim);
        assert!(rebaked >= 1);
        assert!(
            rebaked < total_leaves / 10,
            "rebaked {rebaked} of {total_leaves} leaves"
        );
        assert_eq!(tree.commit(&mut sim), 0, "clean commit is free");
    }

    /// Directory structures of mutated leaves decode to the mutated
    /// points (the build-time decode invariant survives churn).
    #[test]
    fn mutated_directory_structures_stay_decodable() {
        let mut sim = SimEngine::disabled();
        let cloud = urban_like_cloud(600, 5);
        let mut tree = BonsaiTree::build(cloud, KdTreeConfig::default(), &mut sim);
        for i in 0..200u32 {
            tree.delete(&mut sim, i * 3 % 600);
        }
        let added = urban_like_cloud(120, 6);
        for &p in &added {
            tree.insert(&mut sim, p).unwrap();
        }
        tree.commit(&mut sim);
        for (id, node) in tree.kd_tree().nodes().iter().enumerate() {
            let Node::Leaf { start, count } = *node else {
                continue;
            };
            if count == 0 {
                continue;
            }
            let Some(r) = tree.directory().leaf_ref(id as u32) else {
                // Retired pool slots are empty leaves and were skipped
                // above; a live leaf must own a structure.
                panic!("live leaf {id} has no structure");
            };
            assert_eq!(r.num_pts as u32, count, "leaf {id}");
            let mut decoded = [[0u16; 3]; 16];
            codec::decompress(
                tree.directory().bytes_of(id as u32),
                count as usize,
                &mut decoded,
            );
            for (slot, i) in (start..start + count).enumerate() {
                let idx = tree.kd_tree().vind()[i as usize] as usize;
                let p = tree.kd_tree().points()[idx];
                for c in 0..3 {
                    assert_eq!(
                        decoded[slot][c],
                        Half::from_f32(p[c]).to_bits(),
                        "leaf {id} slot {slot} coord {c}"
                    );
                }
            }
        }
    }

    /// Churns a compressed tree until it fragments.
    fn churned_bonsai(n: usize, seed: u64) -> BonsaiTree {
        let mut sim = SimEngine::disabled();
        let mut tree =
            BonsaiTree::build(urban_like_cloud(n, seed), KdTreeConfig::default(), &mut sim);
        let extra = urban_like_cloud(n, seed + 1);
        for round in 0..4usize {
            for k in 0..n / 8 {
                tree.delete(&mut sim, ((round * 13 + k * 7) % n) as u32);
            }
            for k in 0..n / 8 {
                tree.insert(&mut sim, extra[(round * n / 8 + k) % extra.len()])
                    .unwrap();
            }
            tree.commit(&mut sim);
        }
        tree
    }

    /// The tentpole contract: compaction reclaims every garbage slot
    /// and the directory's abandoned bytes while keeping compressed
    /// searches (hits, order, stats) bit-identical.
    #[test]
    fn compact_is_invisible_to_compressed_searches() {
        let mut tree = churned_bonsai(1800, 21);
        assert!(tree.kd_tree().garbage_slots() > 0, "churn never fragmented");
        let dir_bytes_before = tree.directory().total_bytes();
        let queries = urban_like_cloud(40, 23);

        let mut sim = SimEngine::disabled();
        let mut machine = Machine::new();
        let mut before = Vec::new();
        for &q in &queries {
            let mut out = Vec::new();
            let mut stats = bonsai_kdtree::SearchStats::default();
            tree.radius_search(&mut sim, &mut machine, q, 1.5, &mut out, &mut stats);
            before.push((out, stats));
        }

        let reclaimed = tree.compact(&mut sim);
        assert!(reclaimed > 0);
        assert_eq!(tree.kd_tree().garbage_slots(), 0);
        assert!(
            tree.directory().total_bytes() < dir_bytes_before,
            "directory kept its replace() garbage"
        );
        tree.assert_lane_padding();

        for (qi, &q) in queries.iter().enumerate() {
            let mut out = Vec::new();
            let mut stats = bonsai_kdtree::SearchStats::default();
            tree.radius_search(&mut sim, &mut machine, q, 1.5, &mut out, &mut stats);
            assert_eq!(out, before[qi].0, "query {qi}: hits moved");
            assert_eq!(stats, before[qi].1, "query {qi}: stats moved");
        }
    }

    /// Directory structures still decode to their leaves' exact points
    /// after the repack (bytes moved, never re-encoded).
    #[test]
    fn compacted_directory_structures_stay_decodable() {
        let mut tree = churned_bonsai(700, 31);
        let mut sim = SimEngine::disabled();
        tree.compact(&mut sim);
        for (id, node) in tree.kd_tree().nodes().iter().enumerate() {
            let Node::Leaf { start, count } = *node else {
                continue;
            };
            if count == 0 {
                continue;
            }
            let r = tree
                .directory()
                .leaf_ref(id as u32)
                .expect("live leaf lost its structure in the repack");
            assert_eq!(r.num_pts as u32, count, "leaf {id}");
            let mut decoded = [[0u16; 3]; 16];
            codec::decompress(
                tree.directory().bytes_of(id as u32),
                count as usize,
                &mut decoded,
            );
            for (slot, i) in (start..start + count).enumerate() {
                let idx = tree.kd_tree().vind()[i as usize] as usize;
                let p = tree.kd_tree().points()[idx];
                for c in 0..3 {
                    assert_eq!(
                        decoded[slot][c],
                        Half::from_f32(p[c]).to_bits(),
                        "leaf {id} slot {slot} coord {c}"
                    );
                }
            }
        }
        // The compacted tree keeps mutating + committing cleanly.
        tree.insert(&mut sim, Point3::new(0.5, 0.5, 0.5)).unwrap();
        tree.commit(&mut sim);
        tree.assert_lane_padding();
    }

    #[test]
    #[should_panic(expected = "uncommitted mutations")]
    fn compact_with_pending_commit_panics() {
        let mut sim = SimEngine::disabled();
        let mut tree =
            BonsaiTree::build(urban_like_cloud(200, 9), KdTreeConfig::default(), &mut sim);
        tree.insert(&mut sim, Point3::new(1.0, 1.0, 1.0)).unwrap();
        tree.compact(&mut sim);
    }

    #[test]
    fn compression_stats_uniform_fraction_bounds() {
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(urban_like_cloud(800, 5), KdTreeConfig::default(), &mut sim);
        let s = tree.compression_stats();
        for c in 0..3 {
            let f = s.uniform_fraction(c);
            assert!((0.0..=1.0).contains(&f));
        }
        assert_eq!(CompressionStats::default().uniform_fraction(0), 0.0);
        assert_eq!(CompressionStats::default().compression_ratio(), 0.0);
    }
}
