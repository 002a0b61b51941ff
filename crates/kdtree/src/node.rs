use bonsai_geom::{Axis, Point3};

/// Index of a node in the tree's node pool.
pub type NodeId = u32;

/// Identifier of a leaf — its [`NodeId`]. Side tables (e.g. the
/// compressed-leaf directory of `bonsai-core`) are indexed by this.
pub type LeafId = u32;

/// One k-d tree node.
///
/// The paper's modified PCL reuses interior-node fields on leaves (via C
/// unions) to store the compressed-structure reference without growing
/// the tree. In Rust an `enum` expresses the same storage: both variants
/// occupy one 24-byte pool slot, and `bonsai-core` keeps its per-leaf
/// reference in a side table indexed by [`LeafId`] whose footprint
/// corresponds to those reused fields (accounted in the simulated
/// layout). A leaf spends the room its interior twin gives the split
/// value and dividers on its f16 [`origin`](Node::Leaf::origin), so the
/// pool does not grow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// An interior node splitting space on `axis`.
    Interior {
        /// The splitting coordinate.
        axis: Axis,
        /// The split threshold: points with `p[axis] <= split_val` went
        /// left.
        split_val: f32,
        /// Maximum `axis` value in the left subtree (the paper's
        /// "distance to each sub-tree" bookkeeping).
        div_low: f32,
        /// Minimum `axis` value in the right subtree.
        div_high: f32,
        /// Left child node id.
        left: NodeId,
        /// Right child node id.
        right: NodeId,
    },
    /// A leaf holding `count` points: `vind[start .. start + count]`.
    Leaf {
        /// First index into the tree's reordered index array.
        start: u32,
        /// Number of points in the leaf.
        count: u32,
        /// The leaf's coordinate origin: f16 leaf rows hold
        /// `f16(p − origin)`, and compressed scans translate the query
        /// by it once per visit. In an f16-row tree always
        /// [`leaf_origin`](crate::leaf_origin) of the leaf's live
        /// points (`Point3::ZERO` for an empty leaf); in an `f32`-row
        /// tree always `Point3::ZERO` (its rows are exact and never
        /// read it).
        origin: Point3,
    },
}

impl Node {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// An empty leaf (no slots, origin at zero): the placeholder of a
    /// reserved or retired pool slot.
    pub(crate) const EMPTY_LEAF: Node = Node::Leaf {
        start: 0,
        count: 0,
        origin: Point3::ZERO,
    };
}

/// Simulated size of one pool node in bytes.
///
/// The FLANN node holds a discriminant/axis, the split value, the two
/// divider values and two child pointers — 24 bytes packed; we round to
/// 24 (the vind range of a leaf reuses the same space, as in the paper's
/// union layout).
pub const NODE_BYTES: u64 = 24;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_predicate() {
        let leaf = Node::Leaf {
            start: 0,
            count: 5,
            origin: Point3::ZERO,
        };
        let interior = Node::Interior {
            axis: Axis::X,
            split_val: 0.0,
            div_low: -1.0,
            div_high: 1.0,
            left: 1,
            right: 2,
        };
        assert!(leaf.is_leaf());
        assert!(!interior.is_leaf());
    }

    #[test]
    fn node_fits_declared_footprint() {
        // The leaf origin rides in the room an interior node spends on
        // its split value and dividers: the pool slot stays 24 bytes,
        // exactly the simulated layout.
        assert_eq!(std::mem::size_of::<Node>() as u64, NODE_BYTES);
    }
}
