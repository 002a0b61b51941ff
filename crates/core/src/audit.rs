//! Deep invariant audit of the compressed layers.
//!
//! [`BonsaiTree::audit`] extends the underlying
//! [`KdTree::audit`](bonsai_kdtree::KdTree::audit) walk to the two
//! structures this crate adds on top of the tree:
//!
//! * **F16Mismatch** — every live slot's f16 SoA row must be
//!   bit-identical to the f16 encoding of its exact point, and every
//!   padding slot must hold the f16 `+∞` sentinel.
//! * **DirectoryBytes** — every live leaf owns exactly one compressed
//!   structure whose reference is sound (slice-aligned offset, byte
//!   range inside the array, point count matching the leaf, header
//!   flags matching the recorded flags, recorded length matching the
//!   codec's size formula) and whose decoded coordinates are the f16
//!   bits of the leaf's points; no empty leaf, interior node or
//!   out-of-pool id holds a structure.
//!
//! Like the tree-level auditor, the walk never panics on corrupt
//! state: every reference is range-checked before its bytes are
//! touched, and the structure is only decoded once its recorded length
//! provably matches what the bit reader will consume.

use bonsai_floatfmt::Half;
use bonsai_isa::{codec, CoordFlags, MAX_POINTS, SLICE_BYTES};
use bonsai_kdtree::simd::PAD_SLOT;
use bonsai_kdtree::{AuditViolation, Node, ViolationKind};

use crate::tree::{BonsaiTree, PAD_HALF};

impl BonsaiTree {
    /// Deep invariant audit: the underlying tree's full invariant web
    /// (see [`KdTree::audit`](bonsai_kdtree::KdTree::audit)) plus the
    /// f16-approximate rows and the compressed directory. Returns every
    /// violation found — an empty vector certifies the tree. Never
    /// panics on corrupt state.
    ///
    /// With mutations pending a [`commit`](BonsaiTree::commit), only
    /// the tree walk runs: dirty leaves' rows and structures are stale
    /// *by design* until the commit re-bakes them.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = self.kd_tree().audit();
        if self.has_pending_rebake() {
            return out;
        }
        let t = self.kd_tree();
        let soa = self.approx_soa();
        let dir = self.directory();
        let slots = t.vind().len();
        let row_len = soa.x.len().min(soa.y.len()).min(soa.z.len());
        if row_len < slots {
            out.push(AuditViolation::new(
                ViolationKind::F16Mismatch,
                format!("f16 rows cover {row_len} of {slots} slots"),
            ));
            return out;
        }
        if out.iter().any(|v| v.kind == ViolationKind::Structure) {
            // The meta table (and thus every leaf footprint) is
            // unsound; the per-leaf walk below would index on garbage.
            return out;
        }
        let mut decoded = [[0u16; 3]; MAX_POINTS];
        for (id, node) in t.nodes().iter().enumerate() {
            let id32 = id as u32;
            if let Node::Interior { .. } = node {
                if dir.leaf_ref(id32).is_some() {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            "interior node holds a compressed structure",
                        )
                        .at_node(id32),
                    );
                }
                continue;
            }
            let Node::Leaf { start, count } = *node else {
                continue;
            };
            let (s, c) = (start as usize, count as usize);
            let fp = t.leaf_slot_footprint(id32) as usize;
            if s.checked_add(fp).is_none_or(|end| end > slots) {
                continue; // the tree audit already reported the range
            }
            // f16 rows: live slots bit-match their points' f16 encoding…
            for i in s..s + c {
                let idx = t.vind()[i];
                if idx == PAD_SLOT || (idx as usize) >= t.points().len() {
                    continue; // the tree audit already reported the slot
                }
                let p = t.points()[idx as usize];
                let row = soa.slot(i);
                for (a, coord) in [p.x, p.y, p.z].into_iter().enumerate() {
                    if row[a] != Half::from_f32(coord).to_bits() {
                        out.push(
                            AuditViolation::new(
                                ViolationKind::F16Mismatch,
                                format!(
                                    "slot {i} axis {a}: f16 row is not the f16 encoding of \
                                     point {idx}"
                                ),
                            )
                            .at_node(id32)
                            .at_index(i as u32),
                        );
                        break;
                    }
                }
            }
            // …and padding slots hold the sentinel.
            for i in s + c..s + fp {
                if soa.slot(i) != [PAD_HALF; 3] {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::F16Mismatch,
                            format!("slot {i}: f16 rows of a padding slot lost the sentinel"),
                        )
                        .at_node(id32)
                        .at_index(i as u32),
                    );
                }
            }
            // Compressed structure: existence…
            let r = match dir.leaf_ref(id32) {
                Some(r) if c == 0 => {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            format!(
                                "empty leaf still holds a {}-point compressed structure",
                                r.num_pts
                            ),
                        )
                        .at_node(id32),
                    );
                    continue;
                }
                None if c > 0 => {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            format!("live {c}-point leaf has no compressed structure"),
                        )
                        .at_node(id32),
                    );
                    continue;
                }
                None => continue,
                Some(r) => r,
            };
            // …reference sanity (everything checked before any byte of
            // the structure is touched)…
            let mut sound = true;
            if r.num_pts as usize != c || c == 0 || c > MAX_POINTS {
                out.push(
                    AuditViolation::new(
                        ViolationKind::DirectoryBytes,
                        format!(
                            "structure encodes {} points but the leaf holds {c}",
                            r.num_pts
                        ),
                    )
                    .at_node(id32),
                );
                sound = false;
            }
            if !(r.offset as usize).is_multiple_of(SLICE_BYTES) {
                out.push(
                    AuditViolation::new(
                        ViolationKind::DirectoryBytes,
                        format!("structure offset {} is not slice-aligned", r.offset),
                    )
                    .at_node(id32),
                );
                sound = false;
            }
            if (r.offset as usize)
                .checked_add(r.padded_len())
                .is_none_or(|end| end > dir.total_bytes())
            {
                out.push(
                    AuditViolation::new(
                        ViolationKind::DirectoryBytes,
                        format!(
                            "structure bytes {}..+{} overrun the {}-byte array",
                            r.offset,
                            r.padded_len(),
                            dir.total_bytes()
                        ),
                    )
                    .at_node(id32),
                );
                sound = false;
            }
            if sound {
                let expected = codec::compressed_size_bits(r.num_pts as usize, r.flags).div_ceil(8);
                if r.len as usize != expected {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            format!(
                                "structure length {} does not match the codec's {expected} bytes \
                                 for {} points under its flags",
                                r.len, r.num_pts
                            ),
                        )
                        .at_node(id32),
                    );
                    sound = false;
                }
            }
            if sound {
                let bytes = dir.bytes_of(id32);
                let header = CoordFlags::from_bits(bytes[0] & 0b111);
                if header != r.flags {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            "structure header flags disagree with the recorded reference",
                        )
                        .at_node(id32),
                    );
                    sound = false;
                }
            }
            if !sound {
                continue;
            }
            // …and only now, a decode compare: the structure must hold
            // exactly the f16 bits of the leaf's points, in slot order.
            codec::decompress(dir.bytes_of(id32), c, &mut decoded);
            for (k, i) in (s..s + c).enumerate() {
                let idx = t.vind()[i];
                if idx == PAD_SLOT || (idx as usize) >= t.points().len() {
                    continue;
                }
                let p = t.points()[idx as usize];
                let want = [
                    Half::from_f32(p.x).to_bits(),
                    Half::from_f32(p.y).to_bits(),
                    Half::from_f32(p.z).to_bits(),
                ];
                if decoded[k] != want {
                    out.push(
                        AuditViolation::new(
                            ViolationKind::DirectoryBytes,
                            format!("decoded point {k} disagrees with the f16 bits of point {idx}"),
                        )
                        .at_node(id32)
                        .at_index(i as u32),
                    );
                }
            }
        }
        // Structures on ids past the node pool are unreachable garbage
        // with a live reference — flag them.
        for (leaf, _) in dir.refs() {
            if (leaf as usize) >= t.nodes().len() {
                out.push(
                    AuditViolation::new(
                        ViolationKind::DirectoryBytes,
                        format!(
                            "reference names node {leaf}, past the {}-node pool",
                            t.nodes().len()
                        ),
                    )
                    .at_node(leaf),
                );
            }
        }
        out
    }
}
