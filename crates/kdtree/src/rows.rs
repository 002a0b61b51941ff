//! The leaf-contiguous coordinate rows, one layout per tree mode.
//!
//! FLANN's reorder pass copies the cloud into `vind` order so a leaf
//! scan streams instead of gathering. The host keeps that copy as three
//! SoA rows — slot `i` holds the coordinates of `points[vind[i]]` — in
//! exactly **one** element type per tree:
//!
//! * [`RowLayout::F32`] — the baseline tree ([`KdTree::build`]): the
//!   exact `f32` coordinates, 12 B per slot, swept by the baseline
//!   scans (its leaves' origins stay `Point3::ZERO`, unread);
//! * [`RowLayout::F16`] — the tree under a `bonsai-core` `BonsaiTree`
//!   ([`KdTree::build_f16`]): **leaf-relative** binary16 halves, 6 B
//!   per slot, swept by the compressed shell scan. Slot `i` of leaf
//!   `L` holds [`encode_halves`]`(points[vind[i]], origin(L))`, the
//!   raw bits of `f16(p − o)` per axis, where `o` is the leaf's
//!   [`origin`](crate::Node::Leaf::origin). Exact fallbacks read
//!   `points`, so no `f32` copy is kept.
//!
//! # Leaf origins
//!
//! f16 of an *absolute* coordinate has a 1 m step past 1024 m and
//! saturates past 65 504 m, so a map-frame leaf far from the origin
//! would fall back to `f32` on nearly every point. The paper's premise
//! (Sec. III-A) is that a leaf's points share sign and exponent because
//! leaves are small; [`leaf_origin`] makes that hold anywhere on the
//! map. Per axis of an f16-row leaf, with `[lo, hi]` the leaf's
//! live-point box:
//!
//! ```text
//! E = 2^⌈log2 max(hi − lo, 2⁻²⁰·max(|lo|, |hi|), 2⁻¹⁵)⌉
//! o = (⌊lo / (E/2)⌋ − 4) · E/2
//! ```
//!
//! so `lo − o ∈ [2E, 2.5E)` and every `p − o ∈ [2E, 3.5E)`: one binade
//! per axis, whose sign and exponent the ZipPts codec stores once, and
//! an f16 step of `E·2⁻⁹` wherever the leaf sits. The two floors keep
//! `|lo / (E/2)| ≤ 2²¹`, so `o` is computed exactly and is an exact
//! `f32`, and keep `2E` an f16 normal. A leaf whose extent passes
//! 16 384 m, or whose box is not finite, gets `o = 0`; its halves may
//! then overflow to f16 `∞`, which forces the exact fallback, as a
//! saturating absolute coordinate did before. The rounding of `p − o`
//! and of the per-visit query translation `q − o` is covered by the
//! shell test's error bound (see `bonsai-core`'s `shell` module).
//!
//! Every slot operation of the builders and the mutation layer writes
//! through [`LeafRows`], so the layout never forks the code that keeps
//! the rows in step with `vind`. Only a leaf's live slots
//! `start..start + count` carry meaning: the contents of its slots past
//! `count` (a mutated leaf's slack) are unspecified, and no sweep reads
//! them.
//!
//! [`KdTree::build`]: crate::KdTree::build
//! [`KdTree::build_f16`]: crate::KdTree::build_f16

use bonsai_floatfmt::Half;
use bonsai_geom::{Aabb, Point3};

use crate::build::Rec;
use crate::node::Node;

/// The origin rule of the module docs for a leaf whose live points span
/// the box `[lo, hi]`; `Point3::ZERO` for an empty leaf is the
/// builders' convention (no box).
///
/// # Examples
///
/// ```
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::leaf_origin;
///
/// // A 0.4 m leaf 5 km out: E = 0.5, so every relative coordinate
/// // lies in [1, 1.75) — one f16 binade with a 2⁻¹⁰ m step.
/// let lo = Point3::new(5000.1, -3200.3, 12.0);
/// let hi = Point3::new(5000.5, -3200.0, 12.2);
/// let o = leaf_origin(lo, hi);
/// for (l, h, o) in [(lo.x, hi.x, o.x), (lo.y, hi.y, o.y)] {
///     assert!(l - o >= 1.0 && h - o < 1.75);
/// }
/// ```
pub fn leaf_origin(lo: Point3, hi: Point3) -> Point3 {
    Point3::new(
        axis_origin(lo.x, hi.x),
        axis_origin(lo.y, hi.y),
        axis_origin(lo.z, hi.z),
    )
}

/// One axis of [`leaf_origin`], evaluated in `f64`, where every step is
/// exact for `f32` inputs.
fn axis_origin(lo: f32, hi: f32) -> f32 {
    if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
        return 0.0;
    }
    let (lo, hi) = (f64::from(lo), f64::from(hi));
    let magnitude = lo.abs().max(hi.abs());
    let e = pow2_at_least(
        (hi - lo)
            .max(magnitude * 2f64.powi(-20))
            .max(2f64.powi(-15)),
    );
    if e > 2f64.powi(14) {
        // 2E would overflow f16: the leaf's halves saturate whatever
        // the origin, so keep the absolute encoding.
        return 0.0;
    }
    let grid = e / 2.0;
    (((lo / grid).floor() - 4.0) * grid) as f32
}

/// The smallest power of two `≥ x`, for a positive normal `x`.
fn pow2_at_least(x: f64) -> f64 {
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7FF;
    let exact = bits & ((1u64 << 52) - 1) == 0;
    f64::from_bits((exp + u64::from(!exact)) << 52)
}

/// The f16 leaf-row encoding of point `p` in a leaf whose origin is
/// `origin`: the raw binary16 bits of `p − origin`, per axis (the
/// subtraction in `f32`, then one round-to-nearest-even conversion).
/// The single encode site of the f16 rows, the compressed directory
/// and the auditors.
pub fn encode_halves(p: Point3, origin: Point3) -> [u16; 3] {
    Rows::<u16>::encode(p, origin)
}

/// The element type of a tree's leaf rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowLayout {
    /// Exact `f32` coordinates (the baseline tree).
    F32,
    /// Raw binary16 bit patterns of the leaf-relative coordinates (the
    /// compressed tree's only copy of its leaves).
    F16,
}

impl RowLayout {
    /// The origin a leaf whose live points span `[lo, hi]` gets in this
    /// layout: [`leaf_origin`] for f16 rows, `Point3::ZERO` for `f32`
    /// rows, which hold exact coordinates and never read it.
    pub(crate) fn origin(self, lo: Point3, hi: Point3) -> Point3 {
        match self {
            RowLayout::F32 => Point3::ZERO,
            RowLayout::F16 => leaf_origin(lo, hi),
        }
    }

    /// [`origin`](Self::origin) of the box of `points`
    /// (`Point3::ZERO` for none).
    pub(crate) fn origin_of(self, points: impl IntoIterator<Item = Point3>) -> Point3 {
        match self {
            RowLayout::F32 => Point3::ZERO,
            RowLayout::F16 => {
                Aabb::from_points(points).map_or(Point3::ZERO, |b| leaf_origin(b.min, b.max))
            }
        }
    }
}

/// One row element: how a coordinate is stored.
pub(crate) trait Elem: Copy + Default {
    /// Encodes one exact coordinate `c` of a leaf whose origin on that
    /// axis is `o`.
    fn encode(c: f32, o: f32) -> Self;
}

impl Elem for f32 {
    /// The exact coordinate: `f32` rows ignore the origin.
    fn encode(c: f32, _o: f32) -> f32 {
        c
    }
}

impl Elem for u16 {
    fn encode(c: f32, o: f32) -> u16 {
        Half::from_f32(c - o).to_bits()
    }
}

/// Three slot-parallel rows of one element type.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows<T> {
    pub x: Vec<T>,
    pub y: Vec<T>,
    pub z: Vec<T>,
}

impl<T: Elem> Rows<T> {
    fn with_capacity(n: usize) -> Rows<T> {
        Rows {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
        }
    }

    fn set(&mut self, i: usize, [x, y, z]: [T; 3]) {
        self.x[i] = x;
        self.y[i] = y;
        self.z[i] = z;
    }

    fn get(&self, i: usize) -> [T; 3] {
        [self.x[i], self.y[i], self.z[i]]
    }

    fn encode(p: Point3, o: Point3) -> [T; 3] {
        [
            T::encode(p.x, o.x),
            T::encode(p.y, o.y),
            T::encode(p.z, o.z),
        ]
    }

    fn pad_to(&mut self, n: usize) {
        self.x.resize(n, T::default());
        self.y.resize(n, T::default());
        self.z.resize(n, T::default());
    }

    fn permuted(&self, slot_map: &[u32], new_len: usize) -> Rows<T> {
        let mut out = Rows {
            x: vec![T::default(); new_len],
            y: vec![T::default(); new_len],
            z: vec![T::default(); new_len],
        };
        for (old, &new) in slot_map.iter().enumerate() {
            if new != crate::CompactRemap::DROPPED {
                out.set(new as usize, self.get(old));
            }
        }
        out
    }

    fn lens(&self) -> [usize; 3] {
        [self.x.len(), self.y.len(), self.z.len()]
    }

    #[cfg(test)]
    fn capacities(&self) -> [usize; 3] {
        [self.x.capacity(), self.y.capacity(), self.z.capacity()]
    }
}

/// A tree's leaf rows in its one layout.
#[derive(Debug, Clone)]
pub(crate) enum LeafRows {
    F32(Rows<f32>),
    F16(Rows<u16>),
}

/// Runs `$body` with `$r` bound to the rows of whichever layout
/// `$rows` holds (the element type is generic in the body).
macro_rules! each_layout {
    ($rows:expr, $r:ident => $body:expr) => {
        match $rows {
            LeafRows::F32($r) => $body,
            LeafRows::F16($r) => $body,
        }
    };
}

impl LeafRows {
    /// Empty rows of `layout` with room for `n` slots.
    pub fn with_capacity(layout: RowLayout, n: usize) -> LeafRows {
        match layout {
            RowLayout::F32 => LeafRows::F32(Rows::with_capacity(n)),
            RowLayout::F16 => LeafRows::F16(Rows::with_capacity(n)),
        }
    }

    /// Rows mirroring the builders' records `slots` (slot `i` holds
    /// `slots[i].p`, the point `vind[i]` names), each leaf of `nodes`
    /// encoded against its origin (slots no live leaf slot covers are
    /// left unspecified), sized exactly. The records are read in slot
    /// order, with no gather through `vind`.
    pub fn bake(layout: RowLayout, nodes: &[Node], slots: &[Rec]) -> LeafRows {
        let mut rows = LeafRows::with_capacity(layout, slots.len());
        rows.pad_to(slots.len());
        each_layout!(&mut rows, r => {
            for node in nodes {
                if let Node::Leaf {
                    start,
                    count,
                    origin,
                } = *node
                {
                    for i in start as usize..(start + count) as usize {
                        r.set(i, Rows::encode(slots[i].p, origin));
                    }
                }
            }
        });
        rows
    }

    pub fn layout(&self) -> RowLayout {
        match self {
            LeafRows::F32(_) => RowLayout::F32,
            LeafRows::F16(_) => RowLayout::F16,
        }
    }

    /// Slots covered (the shortest row, should the rows disagree).
    pub fn len(&self) -> usize {
        self.lens().into_iter().min().unwrap_or(0)
    }

    /// Per-row lengths `[x, y, z]`.
    pub fn lens(&self) -> [usize; 3] {
        each_layout!(self, r => r.lens())
    }

    /// Per-row capacities `[x, y, z]`.
    #[cfg(test)]
    pub fn capacities(&self) -> [usize; 3] {
        each_layout!(self, r => r.capacities())
    }

    /// Host bytes per slot across the three rows.
    pub fn bytes_per_slot(&self) -> u64 {
        match self {
            LeafRows::F32(_) => 3 * 4,
            LeafRows::F16(_) => 3 * 2,
        }
    }

    /// Grows the rows to `n` slots (never shrinks); the new slots'
    /// contents are unspecified until a leaf writes them.
    pub fn pad_to(&mut self, n: usize) {
        if n > self.len() {
            each_layout!(self, r => r.pad_to(n))
        }
    }

    /// Overwrites slot `i` with `p`'s encoding in a leaf whose origin
    /// is `origin`.
    pub fn set_point(&mut self, i: usize, p: Point3, origin: Point3) {
        each_layout!(self, r => r.set(i, Rows::encode(p, origin)))
    }

    /// Whether slot `i` holds exactly `p`'s encoding against `origin`
    /// (bit for bit).
    pub fn holds(&self, i: usize, p: Point3, origin: Point3) -> bool {
        match self {
            LeafRows::F32(r) => r.get(i).map(f32::to_bits) == [p.x, p.y, p.z].map(f32::to_bits),
            LeafRows::F16(r) => r.get(i) == Rows::<u16>::encode(p, origin),
        }
    }

    /// Slot `i` rendered for audit messages.
    pub fn describe(&self, i: usize) -> String {
        match self {
            LeafRows::F32(r) => format!("{:?}", r.get(i)),
            LeafRows::F16(r) => format!("{:04x?}", r.get(i)),
        }
    }

    /// The rows with every slot moved to `slot_map[old]`
    /// ([`CompactRemap::DROPPED`](crate::CompactRemap::DROPPED) slots
    /// vanish); unfilled slots are unspecified. Bits move, nothing is
    /// re-encoded.
    pub fn permuted(&self, slot_map: &[u32], new_len: usize) -> LeafRows {
        match self {
            LeafRows::F32(r) => LeafRows::F32(r.permuted(slot_map, new_len)),
            LeafRows::F16(r) => LeafRows::F16(r.permuted(slot_map, new_len)),
        }
    }

    pub fn clear(&mut self) {
        each_layout!(self, r => {
            r.x.clear();
            r.y.clear();
            r.z.clear();
        })
    }

    /// Flips the low bit of slot `i`'s `axis` element.
    #[cfg(feature = "chaos")]
    pub fn flip_low_bit(&mut self, i: usize, axis: usize) {
        match self {
            LeafRows::F32(r) => {
                if let Some(c) = [&mut r.x, &mut r.y, &mut r.z][axis].get_mut(i) {
                    *c = f32::from_bits(c.to_bits() ^ 1);
                }
            }
            LeafRows::F16(r) => {
                if let Some(h) = [&mut r.x, &mut r.y, &mut r.z][axis].get_mut(i) {
                    *h ^= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_layouts_encode_pad_and_permute_alike() {
        let p = Point3::new(1.5, -2.25, 1000.1);
        let o = Point3::new(1.0, -3.0, 999.5);
        for layout in [RowLayout::F32, RowLayout::F16] {
            let mut rows = LeafRows::with_capacity(layout, 4);
            rows.pad_to(3);
            rows.set_point(0, p, o);
            assert_eq!(rows.layout(), layout);
            assert_eq!(rows.len(), 3);
            assert!(rows.holds(0, p, o) && !rows.holds(1, p, o));
            let moved = rows.permuted(&[2, crate::CompactRemap::DROPPED, 0], 3);
            assert_eq!(moved.len(), 3);
            assert!(moved.holds(2, p, o) && !moved.holds(0, p, o));
        }
        // The f16 rows hold the halves of p − o; the f32 rows ignore o.
        let mut half = LeafRows::with_capacity(RowLayout::F16, 1);
        half.pad_to(1);
        half.set_point(0, p, o);
        let LeafRows::F16(r) = &half else {
            unreachable!()
        };
        assert_eq!(r.z[0], Half::from_f32(1000.1 - 999.5).to_bits());
        assert_eq!(r.get(0), encode_halves(p, o));
        assert!(!half.holds(0, p, Point3::ZERO));
        assert_eq!(half.bytes_per_slot(), 6);
    }

    /// The grid rule of the module docs: one binade `[2E, 4E)` per
    /// axis, an exact `f32` origin on the `E/2` grid, whatever the
    /// offset of the leaf.
    #[test]
    fn origins_put_every_axis_in_one_binade() {
        let mut state = 0x5EED_0F0A_1D00u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20_000 {
            let offset = (next() - 0.5) * 2.0e5 * [0.0, 1e-3, 1.0][trial % 3];
            let extent = 10f64.powf(next() * 6.0 - 4.0) * f64::from(trial % 7 != 0);
            let lo = (offset + (next() - 0.5) * 50.0) as f32;
            let hi = (f64::from(lo) + extent) as f32;
            let o = axis_origin(lo, hi);
            let binade = Half::from_f32(lo - o).exponent_field();
            for c in [lo, hi, 0.5 * (lo + hi)] {
                let h = Half::from_f32(c - o);
                assert_eq!(h.exponent_field(), binade, "lo {lo} hi {hi} o {o} c {c}");
                assert_eq!(
                    h.to_bits() >> 15,
                    0,
                    "negative: lo {lo} hi {hi} o {o} c {c}"
                );
                assert!(h.exponent_field() != 0, "subnormal: lo {lo} hi {hi} o {o}");
            }
            let e = pow2_at_least(
                f64::from(hi - lo)
                    .max(f64::from(lo.abs().max(hi.abs())) * 2f64.powi(-20))
                    .max(2f64.powi(-15)),
            );
            assert_eq!(
                f64::from(o) % (e / 2.0),
                0.0,
                "off grid: lo {lo} hi {hi} o {o}"
            );
            assert!(f64::from(lo - o) >= 2.0 * e && f64::from(lo - o) <= 2.5 * e);
        }
        // Non-finite and overflowing boxes keep the absolute encoding.
        assert_eq!(axis_origin(f32::NEG_INFINITY, 1.0), 0.0);
        assert_eq!(axis_origin(f32::NAN, 1.0), 0.0);
        assert_eq!(axis_origin(-1e20, 1.0), 0.0);
        assert_eq!(pow2_at_least(0.75), 1.0);
        assert_eq!(pow2_at_least(4.0), 4.0);
    }
}
