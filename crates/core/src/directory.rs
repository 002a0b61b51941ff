use bonsai_isa::{CompressedLeaf, CoordFlags, SLICE_BYTES};
use bonsai_kdtree::LeafId;
use bonsai_sim::SimEngine;

/// Reference to one compressed structure — the information the paper
/// stores in the leaf node via C unions (start index and length in the
/// `cmprsd_strct_array`, plus the point count it encodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRef {
    /// Byte offset of the structure in the array (16-byte aligned: the
    /// array is filled by `STZPB` slice stores).
    pub offset: u32,
    /// Unpadded structure length in bytes.
    pub len: u16,
    /// Number of points encoded.
    pub num_pts: u8,
    /// The coordinate compression flags (also encoded in the structure's
    /// first 3 bits; duplicated here for statistics without decoding).
    pub flags: CoordFlags,
}

impl LeafRef {
    /// Number of 128-bit slices covering the structure.
    pub fn slices(&self) -> usize {
        (self.len as usize).div_ceil(SLICE_BYTES)
    }

    /// Bytes the structure occupies in memory (slice-padded).
    pub fn padded_len(&self) -> usize {
        self.slices() * SLICE_BYTES
    }
}

/// The `cmprsd_strct_array`: one contiguous byte array holding every
/// leaf's compressed structure consecutively, in leaf-creation order
/// (paper Section IV-C), plus the per-leaf directory of [`LeafRef`]s.
///
/// # Examples
///
/// ```
/// use bonsai_core::CompressedDirectory;
/// use bonsai_isa::codec;
/// use bonsai_sim::SimEngine;
///
/// let mut sim = SimEngine::disabled();
/// let mut dir = CompressedDirectory::new(&mut sim, 4);
/// let leaf = codec::compress(&[[0x3C00, 0x4000, 0x4200]]);
/// dir.insert(2, &leaf);
/// assert_eq!(dir.leaf_ref(2).unwrap().num_pts, 1);
/// assert_eq!(dir.bytes_of(2).len(), leaf.len());
/// ```
#[derive(Debug, Clone)]
pub struct CompressedDirectory {
    data: Vec<u8>,
    refs: Vec<Option<LeafRef>>,
    base_addr: u64,
    result_addr: u64,
}

/// The simulated address space of one tree's directory: the structure
/// array's worst-case range and the shared result-set region. A
/// `BonsaiTree` reserves it when it is built, so a directory baked
/// later occupies the same addresses an eagerly baked one would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectorySpace {
    base_addr: u64,
    result_addr: u64,
}

impl DirectorySpace {
    /// Reserves the space for a tree of `num_nodes` nodes.
    pub fn reserve(sim: &mut SimEngine, num_nodes: usize) -> DirectorySpace {
        let capacity = num_nodes as u64 * bonsai_isa::MAX_COMPRESSED_BYTES as u64;
        DirectorySpace {
            base_addr: sim.alloc(capacity.max(SLICE_BYTES as u64), 64),
            result_addr: sim.alloc(64 * 1024, 64),
        }
    }
}

impl CompressedDirectory {
    /// Creates an empty directory able to describe `num_nodes` tree
    /// nodes, reserving simulated address space for the worst case —
    /// including the shared result-set region every search over this
    /// tree writes its packed `(index, dist²)` pairs to. Allocating
    /// that region once per tree (instead of once per search) keeps
    /// the simulated address space bounded when one engine serves many
    /// searches.
    pub fn new(sim: &mut SimEngine, num_nodes: usize) -> CompressedDirectory {
        CompressedDirectory::in_space(DirectorySpace::reserve(sim, num_nodes), num_nodes)
    }

    /// An empty directory for `num_nodes` nodes in already reserved
    /// `space`.
    pub(crate) fn in_space(space: DirectorySpace, num_nodes: usize) -> CompressedDirectory {
        CompressedDirectory {
            data: Vec::new(),
            refs: vec![None; num_nodes],
            base_addr: space.base_addr,
            result_addr: space.result_addr,
        }
    }

    /// Simulated base of the per-tree result-set region searches store
    /// hits to.
    pub fn result_addr(&self) -> u64 {
        self.result_addr
    }

    /// The simulated address the *next* inserted structure will occupy —
    /// the "next free index" the paper's modified PCL tracks, used as the
    /// `STZPB` target before the insertion is recorded.
    pub fn next_addr(&self) -> u64 {
        self.base_addr + self.data.len() as u64
    }

    /// Appends a compressed structure for leaf `leaf` at the next free
    /// (slice-aligned) index and records its [`LeafRef`].
    ///
    /// Returns the simulated address the structure was placed at (the
    /// `STZPB` target).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range or already has a structure.
    // lint: allow(guard-dataflow) — directory baking API: it consumes
    // an already-encoded leaf and takes no query point or radius from
    // outside the crate, so there is no degenerate input to guard.
    pub fn insert(&mut self, leaf: LeafId, compressed: &CompressedLeaf) -> u64 {
        let slot = &mut self.refs[leaf as usize];
        assert!(slot.is_none(), "leaf {leaf} compressed twice");
        let offset = self.data.len();
        debug_assert_eq!(offset % SLICE_BYTES, 0);
        self.data.extend_from_slice(compressed.bytes());
        // STZPB stores whole slices: pad to the slice boundary.
        let padded = compressed.slices() * SLICE_BYTES;
        self.data.resize(offset + padded, 0);
        *slot = Some(LeafRef {
            offset: offset as u32,
            len: compressed.len() as u16,
            num_pts: compressed.num_pts() as u8,
            flags: compressed.flags(),
        });
        self.base_addr + offset as u64
    }

    /// Reserves room for exactly `bytes` more structure bytes, so a
    /// build that sized its leaves beforehand (with
    /// [`codec::padded_len`](bonsai_isa::codec::padded_len)) fills the
    /// array without regrowing it and leaves no spare capacity.
    pub fn reserve_exact(&mut self, bytes: usize) {
        self.data.reserve_exact(bytes);
    }

    /// Replaces (or first creates) leaf `leaf`'s structure: the new
    /// bytes are appended at the next free slice-aligned index and the
    /// leaf's reference is rewritten. The old structure's bytes become
    /// unreachable garbage in the array — the incremental-update
    /// fragmentation a full rebuild reclaims.
    ///
    /// Returns the simulated address the structure was placed at.
    pub fn replace(&mut self, leaf: LeafId, compressed: &CompressedLeaf) -> u64 {
        self.refs[leaf as usize] = None;
        self.insert(leaf, compressed)
    }

    /// Forgets leaf `leaf`'s structure (the node stopped being a live
    /// leaf). A missing entry is fine — clearing is idempotent.
    pub fn clear(&mut self, leaf: LeafId) {
        if let Some(slot) = self.refs.get_mut(leaf as usize) {
            *slot = None;
        }
    }

    /// Grows the per-node reference table to cover `num_nodes` tree
    /// nodes (mutations may append node-pool slots past the build-time
    /// size). Never shrinks.
    pub fn ensure_nodes(&mut self, num_nodes: usize) {
        if num_nodes > self.refs.len() {
            self.refs.resize(num_nodes, None);
        }
    }

    /// Replays a tree compaction through the directory: every surviving
    /// leaf's reference moves to its new node id (`node_map[old]`,
    /// [`CompactRemap::DROPPED`](bonsai_kdtree::CompactRemap::DROPPED)
    /// entries vanish) and the byte array is repacked in ascending new-id
    /// order, dropping the unreachable bytes earlier
    /// [`replace`](CompressedDirectory::replace) calls abandoned. Baked
    /// bytes are **moved**, never re-encoded, so every structure decodes
    /// bit-identically afterwards. The reference table is resized to
    /// exactly `new_nodes`.
    pub fn compact_remap(&mut self, node_map: &[u32], new_nodes: usize) {
        let mut moves: Vec<(u32, LeafRef)> = self
            .refs
            .iter()
            .enumerate()
            .filter_map(|(old_id, r)| {
                let r = (*r)?;
                match node_map.get(old_id).copied() {
                    Some(new_id) if new_id != bonsai_kdtree::CompactRemap::DROPPED => {
                        Some((new_id, r))
                    }
                    _ => None,
                }
            })
            .collect();
        moves.sort_unstable_by_key(|&(id, _)| id);
        let mut refs = vec![None; new_nodes];
        let mut data = Vec::with_capacity(self.data.len());
        for (new_id, mut r) in moves {
            let offset = data.len();
            debug_assert_eq!(offset % SLICE_BYTES, 0);
            data.extend_from_slice(
                &self.data[r.offset as usize..r.offset as usize + r.padded_len()],
            );
            r.offset = offset as u32;
            refs[new_id as usize] = Some(r);
        }
        self.data = data;
        self.refs = refs;
    }

    /// The reference for leaf `leaf`, if it was compressed.
    pub fn leaf_ref(&self, leaf: LeafId) -> Option<LeafRef> {
        self.refs.get(leaf as usize).copied().flatten()
    }

    /// The packed bytes of leaf `leaf`'s structure.
    ///
    /// # Panics
    ///
    /// Panics if the leaf has no structure.
    pub fn bytes_of(&self, leaf: LeafId) -> &[u8] {
        // lint: allow(panic-free-serving) — documented `# Panics`
        // contract of this accessor; callers hold a baked directory.
        let r = self.leaf_ref(leaf).expect("leaf not compressed");
        &self.data[r.offset as usize..r.offset as usize + r.len as usize]
    }

    /// The simulated address of leaf `leaf`'s structure.
    ///
    /// # Panics
    ///
    /// Panics if the leaf has no structure.
    pub fn addr_of(&self, leaf: LeafId) -> u64 {
        // lint: allow(panic-free-serving) — same documented contract
        // as `bytes_of`: callers hold a baked directory.
        let r = self.leaf_ref(leaf).expect("leaf not compressed");
        self.base_addr + r.offset as u64
    }

    /// Total bytes occupied by the array (slice-padded, the memory
    /// footprint).
    pub fn total_bytes(&self) -> usize {
        self.data.len()
    }

    /// The whole structure array, garbage bytes included.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Host-side memory footprint, in bytes: the array
    /// ([`total_bytes`](CompressedDirectory::total_bytes), garbage
    /// included) plus the per-node reference table.
    pub fn resident_bytes(&self) -> usize {
        self.data.len() + self.refs.len() * std::mem::size_of::<Option<LeafRef>>()
    }

    /// Iterator over all recorded leaf references.
    pub fn refs(&self) -> impl Iterator<Item = (LeafId, LeafRef)> + '_ {
        self.refs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (i as LeafId, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_isa::codec;

    fn sample_leaf(n: usize) -> CompressedLeaf {
        let pts: Vec<[u16; 3]> = (0..n)
            .map(|i| [0x3C00 + i as u16, 0x4000, 0x4200])
            .collect();
        codec::compress(&pts)
    }

    #[test]
    fn structures_are_slice_aligned_and_consecutive() {
        let mut sim = SimEngine::disabled();
        let mut dir = CompressedDirectory::new(&mut sim, 10);
        let a = sample_leaf(15);
        let b = sample_leaf(7);
        let addr_a = dir.insert(0, &a);
        let addr_b = dir.insert(3, &b);
        assert_eq!(addr_a % 16, 0);
        assert_eq!(addr_b, addr_a + (a.slices() * SLICE_BYTES) as u64);
        assert_eq!(dir.bytes_of(0), a.bytes());
        assert_eq!(dir.bytes_of(3), b.bytes());
        assert_eq!(dir.total_bytes(), (a.slices() + b.slices()) * SLICE_BYTES);
    }

    #[test]
    fn refs_report_slices_and_padding() {
        let leaf = sample_leaf(15); // 59 bytes → 4 slices
        let r = LeafRef {
            offset: 0,
            len: leaf.len() as u16,
            num_pts: 15,
            flags: leaf.flags(),
        };
        assert_eq!(r.slices(), 4);
        assert_eq!(r.padded_len(), 64);
    }

    #[test]
    fn missing_leaf_is_none() {
        let mut sim = SimEngine::disabled();
        let dir = CompressedDirectory::new(&mut sim, 4);
        assert!(dir.leaf_ref(2).is_none());
        assert!(dir.leaf_ref(99).is_none());
    }

    #[test]
    #[should_panic(expected = "compressed twice")]
    fn double_insert_panics() {
        let mut sim = SimEngine::disabled();
        let mut dir = CompressedDirectory::new(&mut sim, 4);
        let leaf = sample_leaf(3);
        dir.insert(1, &leaf);
        dir.insert(1, &leaf);
    }

    #[test]
    fn compact_remap_moves_refs_and_drops_garbage_bytes() {
        let mut sim = SimEngine::disabled();
        let mut dir = CompressedDirectory::new(&mut sim, 6);
        let a = sample_leaf(15);
        let b = sample_leaf(7);
        let c = sample_leaf(3);
        dir.insert(1, &a);
        dir.insert(4, &b);
        dir.insert(5, &c);
        // Replacing leaf 1 abandons its original bytes in the array.
        dir.replace(1, &b);
        let garbage = a.slices() * SLICE_BYTES;
        let live = 2 * b.slices() * SLICE_BYTES + c.slices() * SLICE_BYTES;
        assert_eq!(dir.total_bytes(), garbage + live);

        // Old 1 → new 0, old 4 → dropped, old 5 → new 2.
        let node_map = [u32::MAX, 0, u32::MAX, u32::MAX, u32::MAX, 2];
        dir.compact_remap(&node_map, 3);
        assert_eq!(dir.bytes_of(0), b.bytes());
        assert_eq!(dir.bytes_of(2), c.bytes());
        assert!(dir.leaf_ref(1).is_none());
        assert_eq!(
            dir.total_bytes(),
            (b.slices() + c.slices()) * SLICE_BYTES,
            "garbage and dropped leaves reclaimed"
        );
        // Repacked in ascending new-id order from offset 0.
        assert_eq!(dir.leaf_ref(0).unwrap().offset, 0);
    }

    #[test]
    fn refs_iterator_yields_inserted_leaves() {
        let mut sim = SimEngine::disabled();
        let mut dir = CompressedDirectory::new(&mut sim, 8);
        dir.insert(5, &sample_leaf(2));
        dir.insert(1, &sample_leaf(4));
        let ids: Vec<LeafId> = dir.refs().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 5]);
    }
}
