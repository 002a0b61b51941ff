use std::sync::OnceLock;

use bonsai_geom::Point3;
use bonsai_isa::{codec, CoordFlags, Machine, MAX_POINTS, SLICE_BYTES};
use bonsai_kdtree::{KdTree, KdTreeConfig, Neighbor, Node, SearchScratch, SearchStats};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::directory::{CompressedDirectory, DirectorySpace};
use crate::processor::BonsaiLeafProcessor;

/// One leaf's header byte: the compressed structure's [`CoordFlags`]
/// in bits 0..2 and its 128-bit slice count in bits 3..7 (a structure
/// of at most 16 points spans at most 7 slices). `0` marks a node
/// without a structure — an interior node or an emptied leaf.
///
/// The header is what the serving path needs of the paper's
/// `cmprsd_strct_array` without keeping the array: the slice count is
/// the leaf's compressed footprint (the bytes `LDDCP` would move, which
/// [`SearchStats::point_bytes_loaded`] counts) and the flags feed
/// [`CompressionStats`]. It is derived from the leaf's f16 rows with
/// the codec's own size formula, so it always agrees with the
/// structure the compress instructions would produce.
pub(crate) fn leaf_header(halves: &[[u16; 3]]) -> u8 {
    let flags = codec::choose_flags(halves);
    let bytes = codec::compressed_size_bits(halves.len(), flags).div_ceil(8);
    flags.to_bits() | (codec::slices_for_bytes(bytes) as u8) << 3
}

/// The slice-padded bytes of the structure a header describes.
pub(crate) fn header_bytes(header: u8) -> usize {
    (header >> 3) as usize * SLICE_BYTES
}

/// The header of node `id` of `tree`, computed from its f16 rows
/// (`halves` is scratch).
fn node_header(tree: &KdTree, id: usize, halves: &mut [[u16; 3]; MAX_POINTS]) -> u8 {
    let Node::Leaf { start, count, .. } = tree.nodes()[id] else {
        return 0;
    };
    if count == 0 {
        return 0;
    }
    let (hx, hy, hz) = tree.leaf_halves();
    let leaf = &mut halves[..count as usize];
    for (k, h) in leaf.iter_mut().enumerate() {
        let i = start as usize + k;
        *h = [hx[i], hy[i], hz[i]];
    }
    leaf_header(leaf)
}

/// A k-d tree whose leaves are stored once, as Bonsai's f16
/// approximations, with exact `f32` fallbacks read from the cloud.
///
/// The halves are **leaf-relative**: slot `i` of leaf `L` holds
/// [`encode_halves`](bonsai_kdtree::encode_halves)`(p, o)`, the f16
/// bits of `p − o` against the leaf's grid
/// [origin](bonsai_kdtree::Node::Leaf::origin) `o`, so every axis of a
/// leaf shares one sign and exponent and the f16 step follows the
/// leaf's extent wherever it sits — map-frame clouds kilometres from
/// the origin compress (and classify conclusively) as well as
/// ego-centred ones. Searches translate the query by `o` once per leaf
/// visit; the [shell](crate::shell) bound covers the rounding of both
/// translations.
///
/// The tree holds, per point of a drive frame (one `vind` slot, since
/// leaves are packed, and ≈0.18 nodes):
///
/// | part | bytes |
/// |---|---|
/// | `points`, the exact cloud (fallbacks, mutation) | 12 / point |
/// | `alive`, the liveness mask | 1 / point |
/// | `vind`, the reordered index array | 4 / slot |
/// | the f16 leaf rows, the only copy of the leaves | 6 / slot |
/// | node pool and its mutation metadata | 36 / node |
/// | the leaf header table | 1 / node |
///
/// — 31.7 B/pt on paper-drive frames, against ≈38.6 B/pt for a
/// [`KdTree`] over the same points, whose `f32` rows take 12 B per
/// slot.
///
/// The paper's compressed-structure array ([`CompressedDirectory`],
/// built with `LDSPZPB`/`CPRZPB`/`STZPB`) is **not** part of that
/// footprint: the uninstrumented search never reads it. It exists
/// when the simulator is enabled at [`build`](BonsaiTree::build) —
/// the compression is then charged to the `Compress` kernel, the
/// build-time overhead that the ~52 search visits per leaf amortize —
/// and otherwise the first [`directory`](BonsaiTree::directory) call
/// bakes it (once, uncharged) for the instrumented leaf processors.
/// [`commit`](BonsaiTree::commit) and
/// [`compact`](BonsaiTree::compact) keep an existing directory current.
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// `Clone` is deliberate: the epoch publication scheme
/// ([`EpochPublisher`](crate::EpochPublisher)) builds the next epoch's
/// tree off to the side as a deep copy while readers keep scanning the
/// published one.
#[derive(Debug, Clone)]
pub struct BonsaiTree {
    /// The k-d tree with f16 leaf rows ([`KdTree::build_f16`]).
    tree: KdTree,
    /// One [leaf header](leaf_header) per node-pool slot.
    headers: Vec<u8>,
    /// The compressed-structure array, when baked.
    directory: OnceLock<CompressedDirectory>,
    /// The simulated addresses reserved for the directory at build
    /// time, so a directory baked later sits where an eager one would.
    space: DirectorySpace,
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

    /// Counts one compressed leaf of `num_pts` points occupying
    /// `padded_len` bytes under `flags`.
    fn add_leaf(&mut self, num_pts: u64, padded_len: usize, flags: CoordFlags) {
        self.leaves += 1;
        self.points += num_pts;
        self.compressed_bytes += padded_len as u64;
        self.baseline_bytes += num_pts * 12;
        self.x_compressed += flags.x as u32;
        self.y_compressed += flags.y as u32;
        self.z_compressed += flags.z as u32;
    }
}

impl BonsaiTree {
    /// Builds the tree with f16 leaf rows and bakes its leaf headers.
    ///
    /// Tree construction charges the `Build` kernel. When `sim` is
    /// enabled the leaves are also compressed into the
    /// [`CompressedDirectory`] right away, charging `Compress`; a
    /// disabled `sim` leaves the directory to the first
    /// [`directory`](BonsaiTree::directory) call.
    pub fn build(points: Vec<Point3>, cfg: KdTreeConfig, sim: &mut SimEngine) -> BonsaiTree {
        let tree = KdTree::build_f16(points, cfg, sim);
        BonsaiTree::from_tree(tree, sim)
    }

    /// [`build`](BonsaiTree::build) with the tree construction fanned
    /// out across scoped worker threads (see
    /// [`KdTree::build_parallel`]). Uninstrumented — no simulator
    /// events are recorded, and the directory is baked on demand.
    pub fn build_parallel(points: Vec<Point3>, cfg: KdTreeConfig, threads: usize) -> BonsaiTree {
        let tree = KdTree::build_parallel_f16(points, cfg, threads);
        BonsaiTree::from_tree(tree, &mut SimEngine::disabled())
    }

    fn from_tree(tree: KdTree, sim: &mut SimEngine) -> BonsaiTree {
        let space = DirectorySpace::reserve(sim, tree.nodes().len());
        let mut halves = [[0u16; 3]; MAX_POINTS];
        let headers = (0..tree.nodes().len())
            .map(|id| node_header(&tree, id, &mut halves))
            .collect();
        let mut bonsai = BonsaiTree {
            tree,
            headers,
            directory: OnceLock::new(),
            space,
        };
        if sim.is_enabled() {
            bonsai.directory = OnceLock::from(bonsai.compress_directory(sim));
        }
        bonsai
    }

    /// Runs the Bonsai compress-instruction sequence over every leaf
    /// into a new directory, charging `sim`'s `Compress` kernel.
    fn compress_directory(&self, sim: &mut SimEngine) -> CompressedDirectory {
        let nodes = self.tree.nodes();
        let mut directory = CompressedDirectory::in_space(self.space, nodes.len());
        directory.reserve_exact(self.headers.iter().map(|&h| header_bytes(h)).sum());
        let mut machine = Machine::new();
        let prev = sim.set_kernel(Kernel::Compress);
        for id in 0..nodes.len() {
            compress_leaf_structure(sim, &mut machine, &self.tree, &mut directory, id as u32);
        }
        sim.set_kernel(prev);
        directory
    }

    /// Inserts a point (see [`KdTree::insert`]), returning its new
    /// cloud index, or `None` for a non-finite point. The touched
    /// leaf's f16 rows are written at once; its header (and, when
    /// baked, its compressed structure) is **not** — the leaf is
    /// marked dirty and re-baked once by the next
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
    /// release builds too, because the headers and structures of dirty
    /// leaves still describe their pre-mutation points and would be
    /// served silently otherwise.
    pub fn has_pending_rebake(&self) -> bool {
        self.tree.has_dirty_nodes()
    }

    /// Re-bakes every dirty leaf — and only the dirty leaves: their
    /// headers are recomputed from their f16 rows and, when the
    /// directory exists, their compressed structures are re-encoded
    /// (`LDSPZPB`/`CPRZPB`/`STZPB`, charged to the `Compress` kernel).
    /// Nodes that stopped being live leaves lose their header and
    /// directory entry. Untouched leaves keep their baked bytes.
    /// Returns the number of leaves re-baked.
    pub fn commit(&mut self, sim: &mut SimEngine) -> usize {
        if !self.tree.has_dirty_nodes() {
            return 0;
        }
        let dirty = self.tree.drain_dirty_nodes();
        let num_nodes = self.tree.nodes().len();
        self.headers.resize(num_nodes, 0);
        let mut directory = self.directory.get_mut();
        if let Some(d) = directory.as_deref_mut() {
            d.ensure_nodes(num_nodes);
        }
        let mut halves = [[0u16; 3]; MAX_POINTS];
        let mut machine = Machine::new();
        let prev = sim.set_kernel(Kernel::Compress);
        let mut rebaked = 0;
        for id in dirty {
            let header = node_header(&self.tree, id as usize, &mut halves);
            self.headers[id as usize] = header;
            if let Some(d) = directory.as_deref_mut() {
                // The old structure, if any, becomes garbage in the
                // array; a live leaf gets a freshly encoded one.
                d.clear(id);
                compress_leaf_structure(sim, &mut machine, &self.tree, d, id);
            }
            rebaked += usize::from(header != 0);
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
    /// [`KdTree::compact`] repacks `vind`, the f16 rows and the node
    /// pool, then the header table — and the [`CompressedDirectory`],
    /// when it exists — follow the node map. Baked bytes only
    /// **move** — no leaf is re-encoded — so searches, their order and
    /// every [`SearchStats`](bonsai_kdtree::SearchStats) counter are
    /// bit-identical before and after in all three modes, while
    /// `garbage_slots()` drops to zero, the directory sheds the bytes
    /// its incremental re-bakes abandoned, and [`audit`](BonsaiTree::audit)
    /// still comes back empty. Returns the number of `vind` slots reclaimed.
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
    /// headers would bake the staleness in.
    pub fn compact(&mut self, sim: &mut SimEngine) -> usize {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds.
        assert!(
            !self.tree.has_dirty_nodes(),
            "compacting a BonsaiTree with uncommitted mutations; call commit() first"
        );
        let old_slots = self.tree.vind().len();
        let remap = self.tree.compact(sim);
        let num_nodes = self.tree.nodes().len();
        let mut headers = vec![0; num_nodes];
        for (&header, &new) in self.headers.iter().zip(&remap.node_map) {
            if new != bonsai_kdtree::CompactRemap::DROPPED {
                headers[new as usize] = header;
            }
        }
        self.headers = headers;
        if let Some(d) = self.directory.get_mut() {
            d.compact_remap(&remap.node_map, num_nodes);
        }
        old_slots - self.tree.vind().len()
    }

    /// Host-side memory footprint, in bytes: the underlying tree's
    /// [`resident_bytes`](KdTree::resident_bytes) (f16 rows at 6 B per
    /// slot), the header table (1 B per node) and — only once it has
    /// been baked — the compressed directory's
    /// [`resident_bytes`](CompressedDirectory::resident_bytes).
    pub fn resident_bytes(&self) -> u64 {
        self.tree.resident_bytes()
            + self.headers.len() as u64
            + self
                .directory
                .get()
                .map_or(0, |d| d.resident_bytes() as u64)
    }

    /// The underlying k-d tree (structure access; its leaf rows are
    /// f16, so baseline scans need a [`KdTree::build`] of their own).
    pub fn kd_tree(&self) -> &KdTree {
        &self.tree
    }

    /// Consumes the tree and hands back its point cloud (see
    /// [`KdTree::into_points`]) without a copy.
    pub fn into_points(self) -> Vec<Point3> {
        self.tree.into_points()
    }

    /// The compressed-structure directory, baked on the first call
    /// when the tree was not built under an enabled simulator (the
    /// bake is uncharged and allocates the array once; later calls
    /// return the same directory).
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
        // deliberately enforced in release builds.
        assert!(
            !self.tree.has_dirty_nodes(),
            "reading a BonsaiTree directory with uncommitted mutations; call commit() first"
        );
        self.directory
            .get_or_init(|| self.compress_directory(&mut SimEngine::disabled()))
    }

    /// The baked directory, if any — without baking one.
    pub(crate) fn baked_directory(&self) -> Option<&CompressedDirectory> {
        self.directory.get()
    }

    /// The per-node leaf headers (the fast sweep's
    /// `point_bytes_loaded` source).
    ///
    /// # Panics
    ///
    /// Panics when mutations are pending a
    /// [`commit`](BonsaiTree::commit): dirty leaves' headers still
    /// describe the pre-mutation points, and silently serving them
    /// would misreport their work. The check is one `Vec::is_empty`,
    /// so it is enforced in release builds too.
    pub(crate) fn leaf_headers(&self) -> &[u8] {
        // lint: allow(debug-assert-discipline) — stale-serving guard:
        // serving pre-mutation structures would silently return wrong
        // neighbors, and the check is one Vec::is_empty, so it is
        // deliberately enforced in release builds.
        assert!(
            !self.tree.has_dirty_nodes(),
            "searching a BonsaiTree with uncommitted mutations; call commit() first"
        );
        &self.headers
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
        let mut proc = BonsaiLeafProcessor::new(self.directory(), machine);
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
        let mut proc = BonsaiLeafProcessor::new(self.directory(), machine);
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

    /// Aggregate compression statistics, read from the leaf headers —
    /// the same numbers a baked [`CompressedDirectory`]'s references
    /// give.
    pub fn compression_stats(&self) -> CompressionStats {
        let mut s = CompressionStats::default();
        for (node, &header) in self.tree.nodes().iter().zip(&self.headers) {
            match *node {
                Node::Leaf { count, .. } if header != 0 => {
                    let flags = CoordFlags::from_bits(header & 0b111);
                    s.add_leaf(count as u64, header_bytes(header), flags);
                }
                _ => {}
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

    /// Flips the low mantissa bit of one live slot's f16 row (see
    /// [`KdTree::chaos_flip_row`]) — the audit's bit-compare against
    /// the point's true f16 encoding catches it.
    pub fn chaos_flip_f16(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        !self.tree.has_dirty_nodes() && self.tree.chaos_flip_row(rng)
    }

    /// Shifts one live leaf's origin off its grid (see
    /// [`KdTree::chaos_skew_origin`]) — the audit's origin-rule check
    /// catches it, and the stale f16 rows no longer match.
    pub fn chaos_skew_origin(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        !self.tree.has_dirty_nodes() && self.tree.chaos_skew_origin(rng)
    }

    /// Flips one bit of one live leaf's header — the audit recomputes
    /// every header from the leaf's points and catches it.
    pub fn chaos_corrupt_header(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> bool {
        if self.tree.has_dirty_nodes() {
            return false;
        }
        let live: Vec<usize> = (0..self.headers.len())
            .filter(|&id| self.headers[id] != 0)
            .collect();
        if live.is_empty() {
            return false;
        }
        let id = live[rng.below(live.len())];
        self.headers[id] ^= 1 << rng.below(8);
        true
    }
}

/// The Bonsai compress-instruction sequence over one leaf: `LDSPZPB`
/// each point into the ZipPts buffer (one vind load to find it, then
/// the point load inside the instruction), `CPRZPB`, `STZPB` into the
/// directory's next free slice, then the leaf-field/next-free update.
/// Shared by the whole-tree pass and the incremental per-dirty-leaf
/// re-bake (whose caller clears the leaf's old entry first); interior
/// nodes and empty leaves get no structure.
///
/// The buffer receives the leaf-relative coordinates `p − o`, so the
/// structure holds exactly the leaf's f16 rows. The subtraction is
/// modelled inside `LDSPZPB`'s `f32 → f16` convert stage, at no extra
/// charge: the origin is a per-leaf constant next to the
/// leaf-field reads the sequence already pays for.
fn compress_leaf_structure(
    sim: &mut SimEngine,
    machine: &mut Machine,
    tree: &KdTree,
    directory: &mut CompressedDirectory,
    id: u32,
) {
    let Node::Leaf {
        start,
        count,
        origin,
    } = tree.nodes()[id as usize]
    else {
        return;
    };
    if count == 0 {
        return;
    }
    for (slot, i) in (start..start + count).enumerate() {
        sim.load(tree.vind_entry_addr(i), 4);
        sim.exec(OpClass::IntAlu, 2);
        let idx = tree.vind()[i as usize];
        machine.ldspzpb(
            sim,
            slot,
            tree.point_addr(idx),
            (tree.points()[idx as usize] - origin).to_array(),
        );
    }
    machine.cprzpb(sim, count as usize);
    let addr = directory.next_addr();
    let compressed = machine.stzpb(sim, addr);
    let placed = directory.insert(id, &compressed);
    debug_assert_eq!(placed, addr);
    // Update the leaf's (union-reused) fields and the next-free index.
    sim.exec(OpClass::IntAlu, 4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::check_compressed_hits;
    use bonsai_isa::codec;
    use bonsai_kdtree::encode_halves;

    /// Every live leaf's compressed structure decodes to the f16 bits of
    /// its points relative to its origin, in slot order.
    fn assert_structures_decode_to_leaves(tree: &BonsaiTree) {
        for (id, node) in tree.kd_tree().nodes().iter().enumerate() {
            let Node::Leaf {
                start,
                count,
                origin,
            } = *node
            else {
                continue;
            };
            if count == 0 {
                continue;
            }
            let r = tree
                .directory()
                .leaf_ref(id as u32)
                .unwrap_or_else(|| panic!("live leaf {id} has no structure"));
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
                assert_eq!(
                    decoded[slot],
                    encode_halves(p, origin),
                    "leaf {id} slot {slot}"
                );
            }
        }
    }

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
        let tree = BonsaiTree::build(urban_like_cloud(500, 2), KdTreeConfig::default(), &mut sim);
        assert_structures_decode_to_leaves(&tree);
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

    /// Leaf-relative halves make compression position-independent: the
    /// same clustered cloud compresses to the same ratio at the origin
    /// and moved 5 km out, where absolute halves would need a 4 m f16
    /// step.
    #[test]
    fn compression_ratio_is_position_independent() {
        let cloud = urban_like_cloud(20_000, 3);
        let offset = Point3::new(5000.0, -5000.0, 40.0);
        let ratio = |cloud: Vec<Point3>| {
            let mut sim = SimEngine::disabled();
            let tree = BonsaiTree::build(cloud, KdTreeConfig::default(), &mut sim);
            tree.compression_stats().compression_ratio()
        };
        let at_origin = ratio(cloud.clone());
        let at_5km = ratio(cloud.iter().map(|&p| p + offset).collect());
        eprintln!("compression ratio: {at_origin:.4} at the origin, {at_5km:.4} at 5 km");
        assert!(
            (at_5km - at_origin).abs() <= 0.01 * at_origin,
            "ratio {at_origin} at the origin vs {at_5km} at 5 km"
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
    /// build over the live points (sorted; index remapped): the same
    /// neighbours, each `dist_sq` what its own leaf reports
    /// ([`check_compressed_hits`]), and bit-identical `dist_sq` for
    /// every hit whose leaf has the same origin in both trees — at
    /// least a quarter of them here: a point's approximate
    /// distance depends on its own coordinates and its leaf's origin
    /// only, and the grid rule keeps many origins stable under churn.
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
        let points = tree.kd_tree().points();
        let mutated_origins = tree.kd_tree().point_origins();
        let mut fresh_origins = vec![Point3::ZERO; points.len()];
        for (i, o) in fresh.kd_tree().point_origins().into_iter().enumerate() {
            fresh_origins[live[i] as usize] = o;
        }
        let (mut compared, mut total) = (0, 0);
        for (qi, q) in urban_like_cloud(20, 9).into_iter().enumerate() {
            let mut got = tree.radius_search_simple(q, 1.5);
            got.sort_unstable_by_key(|n| n.index);
            let mut expect: Vec<Neighbor> = fresh
                .radius_search_simple(q, 1.5)
                .iter()
                .map(|n| Neighbor {
                    index: live[n.index as usize],
                    dist_sq: n.dist_sq,
                })
                .collect();
            expect.sort_unstable_by_key(|n| n.index);
            let checked = check_compressed_hits(
                q,
                1.5,
                points,
                &got,
                &mutated_origins,
                &expect,
                &fresh_origins,
            );
            assert_eq!(checked, Ok(()), "query {qi}");
            for (g, w) in got.iter().zip(&expect) {
                total += 1;
                if mutated_origins[g.index as usize] == fresh_origins[w.index as usize] {
                    assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits(), "query {qi}");
                    compared += 1;
                }
            }
        }
        assert!(
            compared * 4 > total,
            "only {compared} hits of {total} shared a leaf origin"
        );
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
        assert_structures_decode_to_leaves(&tree);
    }

    /// Churns a compressed tree until it fragments. Its directory is
    /// baked up front, so every commit maintains it and it collects
    /// the bytes its re-bakes abandon.
    fn churned_bonsai(n: usize, seed: u64) -> BonsaiTree {
        let mut sim = SimEngine::disabled();
        let mut tree =
            BonsaiTree::build(urban_like_cloud(n, seed), KdTreeConfig::default(), &mut sim);
        tree.directory();
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
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());

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
        assert_structures_decode_to_leaves(&tree);
        // The compacted tree keeps mutating + committing cleanly.
        tree.insert(&mut sim, Point3::new(0.5, 0.5, 0.5)).unwrap();
        tree.commit(&mut sim);
        assert!(tree.audit().is_empty(), "{:?}", tree.audit());
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

    /// The statistics a baked directory's references give.
    fn directory_stats(dir: &CompressedDirectory) -> CompressionStats {
        let mut s = CompressionStats::default();
        for (_, r) in dir.refs() {
            s.add_leaf(r.num_pts as u64, r.padded_len(), r.flags);
        }
        s
    }

    /// A directory baked on demand under a disabled simulator is the
    /// one an enabled-simulator build bakes eagerly: same array, same
    /// references and flags, same simulated addresses.
    #[test]
    fn lazy_directory_is_byte_identical_to_the_eager_one() {
        for (n, seed) in [(1, 3), (700, 4), (5000, 5)] {
            let cloud = urban_like_cloud(n, seed);
            let cfg = KdTreeConfig::default();
            let lazy = BonsaiTree::build(cloud.clone(), cfg, &mut SimEngine::disabled());
            let mut sim = SimEngine::new(&bonsai_sim::CpuConfig::a72_like());
            let eager = BonsaiTree::build(cloud, cfg, &mut sim);
            assert!(
                lazy.baked_directory().is_none(),
                "n {n}: baked without a simulator"
            );
            assert!(
                eager.baked_directory().is_some(),
                "n {n}: not baked under the simulator"
            );
            assert!(lazy.resident_bytes() < eager.resident_bytes());
            let (a, b) = (lazy.directory(), eager.directory());
            assert_eq!(a.bytes(), b.bytes(), "n {n}: arrays");
            assert_eq!(
                a.refs().collect::<Vec<_>>(),
                b.refs().collect::<Vec<_>>(),
                "n {n}"
            );
            assert_eq!(a.result_addr(), b.result_addr(), "n {n}: result region");
            for (leaf, _) in a.refs() {
                assert_eq!(a.addr_of(leaf), b.addr_of(leaf), "n {n} leaf {leaf}");
            }
            assert_eq!(lazy.resident_bytes(), eager.resident_bytes(), "n {n}");
        }
    }

    /// The header table alone answers `compression_stats()` with the
    /// numbers a baked directory gives — after the build, after churn
    /// and commit (with the directory maintained through the commits,
    /// or baked only afterwards), and after compaction.
    #[test]
    fn header_stats_equal_directory_stats_through_churn_and_compaction() {
        let mut sim = SimEngine::disabled();
        let cloud = urban_like_cloud(3000, 41);
        let extra = urban_like_cloud(600, 42);
        let mut maintained = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let mut late = maintained.clone();
        let check = |tree: &BonsaiTree, at: &str| {
            assert_eq!(
                tree.compression_stats(),
                directory_stats(tree.directory()),
                "{at}"
            );
        };
        check(&maintained, "build");
        for round in 0..3usize {
            for (k, tree) in [&mut maintained, &mut late].into_iter().enumerate() {
                for i in 0..150 {
                    tree.delete(&mut sim, ((round * 151 + i * 11) % cloud.len()) as u32);
                }
                for &p in &extra[round * 200..(round + 1) * 200] {
                    tree.insert(&mut sim, p).unwrap();
                }
                assert!(tree.commit(&mut sim) > 0, "round {round} tree {k}");
            }
            check(&maintained, "churn, maintained directory");
        }
        assert!(late.baked_directory().is_none());
        check(&late, "churn, directory baked afterwards");
        assert_eq!(late.compression_stats(), maintained.compression_stats());
        assert!(
            maintained.kd_tree().garbage_slots() > 0,
            "churn never fragmented"
        );
        for tree in [&mut maintained, &mut late] {
            tree.compact(&mut sim);
            check(tree, "compact");
            assert!(tree.audit().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "uncommitted mutations")]
    fn directory_with_pending_commit_panics() {
        let mut sim = SimEngine::disabled();
        let mut tree =
            BonsaiTree::build(urban_like_cloud(200, 9), KdTreeConfig::default(), &mut sim);
        tree.insert(&mut sim, Point3::new(1.0, 1.0, 1.0)).unwrap();
        tree.directory();
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
