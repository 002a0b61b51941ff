//! Deep invariant audit of the compressed layers.
//!
//! [`BonsaiTree::audit`] extends the underlying
//! [`KdTree::audit`](bonsai_kdtree::KdTree::audit) walk — which already
//! certifies every leaf origin against the grid rule (**LeafOrigin**)
//! and the f16 leaf rows bit for bit against the leaf-relative f16
//! encodings of their points (**F16Mismatch**) — to the structures this
//! crate adds on top of the tree, both reported as **DirectoryBytes**:
//!
//! * **Leaf headers** — the table covers every node; every live leaf's
//!   header holds the flags and slice count the codec derives from the
//!   f16 encodings of the leaf's points; interior nodes and empty
//!   leaves hold `0`.
//! * **The compressed directory**, when it has been baked — every live
//!   leaf owns exactly one compressed structure whose reference is
//!   sound (slice-aligned offset, byte range inside the array, point
//!   count matching the leaf, header flags matching the recorded
//!   flags, recorded length matching the codec's size formula) and
//!   whose decoded coordinates are the f16 bits of the leaf's points
//!   relative to its origin;
//!   no empty leaf, interior node or out-of-pool id holds a structure.
//!
//! Like the tree-level auditor, the walk never panics on corrupt
//! state: every reference is range-checked before its bytes are
//! touched, and the structure is only decoded once its recorded length
//! provably matches what the bit reader will consume.

use bonsai_geom::Point3;
use bonsai_isa::{codec, CoordFlags, MAX_POINTS, SLICE_BYTES};
use bonsai_kdtree::{encode_halves, AuditViolation, KdTree, Node, ViolationKind, PAD_SLOT};

use crate::directory::CompressedDirectory;
use crate::tree::{leaf_header, BonsaiTree};

/// The f16 encodings, against `origin`, of the points under slots
/// `s..s + c`, or `None` when a slot holds no valid point (the tree
/// audit reports those).
fn point_halves(t: &KdTree, s: usize, c: usize, origin: Point3) -> Option<[[u16; 3]; MAX_POINTS]> {
    let mut halves = [[0u16; 3]; MAX_POINTS];
    for (k, i) in (s..s + c).enumerate() {
        let idx = *t.vind().get(i)?;
        if idx == PAD_SLOT {
            return None;
        }
        halves[k] = encode_halves(*t.points().get(idx as usize)?, origin);
    }
    Some(halves)
}

impl BonsaiTree {
    /// Deep invariant audit: the underlying tree's full invariant web
    /// (see [`KdTree::audit`](bonsai_kdtree::KdTree::audit)), f16 rows
    /// included, plus the leaf headers and, when baked, the compressed
    /// directory. Returns every violation found — an empty vector
    /// certifies the tree. Never panics on corrupt state.
    ///
    /// With mutations pending a [`commit`](BonsaiTree::commit), only
    /// the tree walk runs: dirty leaves' headers and structures are
    /// stale *by design* until the commit re-bakes them.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = self.kd_tree().audit();
        if self.has_pending_rebake() || out.iter().any(|v| v.kind == ViolationKind::Structure) {
            // Pending: stale by design. Structure: the meta table (and
            // thus every leaf footprint) is unsound, and the per-leaf
            // walks below would index on garbage.
            return out;
        }
        self.audit_headers(&mut out);
        if let Some(dir) = self.baked_directory() {
            self.audit_directory(dir, &mut out);
        }
        out
    }

    fn audit_headers(&self, out: &mut Vec<AuditViolation>) {
        let t = self.kd_tree();
        let headers = self.leaf_headers();
        if headers.len() != t.nodes().len() {
            out.push(AuditViolation::new(
                ViolationKind::DirectoryBytes,
                format!(
                    "header table covers {} of {} nodes",
                    headers.len(),
                    t.nodes().len()
                ),
            ));
            return;
        }
        for (id, (node, &header)) in t.nodes().iter().zip(headers).enumerate() {
            let want = match *node {
                Node::Leaf {
                    start,
                    count,
                    origin,
                } if (1..=MAX_POINTS as u32).contains(&count) => {
                    let (s, c) = (start as usize, count as usize);
                    match point_halves(t, s, c, origin) {
                        Some(halves) => leaf_header(&halves[..c]),
                        None => continue,
                    }
                }
                Node::Leaf { count, .. } if count > 0 => continue,
                _ => 0,
            };
            if header != want {
                out.push(
                    AuditViolation::new(
                        ViolationKind::DirectoryBytes,
                        format!("leaf header {header:#04x} should be {want:#04x}"),
                    )
                    .at_node(id as u32),
                );
            }
        }
    }

    fn audit_directory(&self, dir: &CompressedDirectory, out: &mut Vec<AuditViolation>) {
        let t = self.kd_tree();
        let slots = t.vind().len();
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
            let Node::Leaf {
                start,
                count,
                origin,
            } = *node
            else {
                continue;
            };
            let (s, c) = (start as usize, count as usize);
            let fp = t.leaf_slot_footprint(id32) as usize;
            if s.checked_add(fp).is_none_or(|end| end > slots) {
                continue; // the tree audit already reported the range
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
            // exactly the f16 bits of the leaf's points relative to its
            // origin, in slot order.
            codec::decompress(dir.bytes_of(id32), c, &mut decoded);
            for (k, i) in (s..s + c).enumerate() {
                let idx = t.vind()[i];
                if idx == PAD_SLOT || (idx as usize) >= t.points().len() {
                    continue;
                }
                let want = encode_halves(t.points()[idx as usize], origin);
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
    }
}
