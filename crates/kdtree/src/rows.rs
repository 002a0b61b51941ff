//! The leaf-contiguous coordinate rows, one layout per tree mode.
//!
//! FLANN's reorder pass copies the cloud into `vind` order so a leaf
//! scan streams instead of gathering. The host keeps that copy as three
//! SoA rows — slot `i` holds the coordinates of `points[vind[i]]` — in
//! exactly **one** element type per tree:
//!
//! * [`RowLayout::F32`] — the baseline tree ([`KdTree::build`]): the
//!   exact `f32` coordinates, 12 B per slot, swept by the baseline
//!   scans;
//! * [`RowLayout::F16`] — the tree under a `bonsai-core` `BonsaiTree`
//!   ([`KdTree::build_f16`]): the raw binary16 bit patterns of the
//!   coordinates, 6 B per slot, swept by the compressed shell scan.
//!   Exact fallbacks read `points`, so no `f32` copy is kept.
//!
//! Every slot operation of the builders and the mutation layer writes
//! through [`LeafRows`], so the layout never forks the code that keeps
//! the rows in step with `vind`. Padding slots hold the layout's `+∞`
//! sentinel ([`PAD_COORD`] or [`PAD_HALF`]).
//!
//! [`KdTree::build`]: crate::KdTree::build
//! [`KdTree::build_f16`]: crate::KdTree::build_f16

use bonsai_floatfmt::Half;
use bonsai_geom::Point3;

use crate::simd::{PAD_COORD, PAD_HALF};

/// The element type of a tree's leaf rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowLayout {
    /// Exact `f32` coordinates (the baseline tree).
    F32,
    /// Raw binary16 bit patterns of the coordinates (the compressed
    /// tree's only copy of its leaves).
    F16,
}

/// One row element: how a coordinate is stored and what pads a slot.
pub(crate) trait Elem: Copy + PartialEq {
    /// The padding sentinel (`+∞` in the element's format).
    const PAD: Self;
    /// Encodes one exact coordinate.
    fn encode(c: f32) -> Self;
}

impl Elem for f32 {
    const PAD: f32 = PAD_COORD;
    fn encode(c: f32) -> f32 {
        c
    }
}

impl Elem for u16 {
    const PAD: u16 = PAD_HALF;
    fn encode(c: f32) -> u16 {
        Half::from_f32(c).to_bits()
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

    fn push(&mut self, [x, y, z]: [T; 3]) {
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
    }

    fn set(&mut self, i: usize, [x, y, z]: [T; 3]) {
        self.x[i] = x;
        self.y[i] = y;
        self.z[i] = z;
    }

    fn get(&self, i: usize) -> [T; 3] {
        [self.x[i], self.y[i], self.z[i]]
    }

    fn encode(p: Point3) -> [T; 3] {
        [T::encode(p.x), T::encode(p.y), T::encode(p.z)]
    }

    fn pad_to(&mut self, n: usize) {
        self.x.resize(n, T::PAD);
        self.y.resize(n, T::PAD);
        self.z.resize(n, T::PAD);
    }

    fn permuted(&self, slot_map: &[u32], new_len: usize) -> Rows<T> {
        let mut out = Rows {
            x: vec![T::PAD; new_len],
            y: vec![T::PAD; new_len],
            z: vec![T::PAD; new_len],
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

    /// Rows mirroring `vind` over `points` (padding slots get the
    /// sentinel), sized exactly.
    pub fn bake(layout: RowLayout, points: &[Point3], vind: &[u32]) -> LeafRows {
        let mut rows = LeafRows::with_capacity(layout, vind.len());
        for &idx in vind {
            if idx == crate::simd::PAD_SLOT {
                rows.pad_to(rows.len() + 1);
            } else {
                rows.push_point(points[idx as usize]);
            }
        }
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

    /// Appends one slot holding `p`.
    pub fn push_point(&mut self, p: Point3) {
        each_layout!(self, r => r.push(Rows::encode(p)))
    }

    /// Grows the rows to `n` slots with padding sentinels (never
    /// shrinks).
    pub fn pad_to(&mut self, n: usize) {
        if n > self.len() {
            each_layout!(self, r => r.pad_to(n))
        }
    }

    /// Overwrites slot `i` with `p`.
    pub fn set_point(&mut self, i: usize, p: Point3) {
        each_layout!(self, r => r.set(i, Rows::encode(p)))
    }

    /// Overwrites slot `i` with the padding sentinel.
    pub fn set_pad(&mut self, i: usize) {
        each_layout!(self, r => r.set(i, [Elem::PAD; 3]))
    }

    /// Whether slot `i` holds the padding sentinel in all three rows
    /// (compared bit for bit).
    pub fn is_pad(&self, i: usize) -> bool {
        match self {
            LeafRows::F32(r) => r.get(i).map(f32::to_bits) == [PAD_COORD.to_bits(); 3],
            LeafRows::F16(r) => r.get(i) == [PAD_HALF; 3],
        }
    }

    /// Whether slot `i` holds exactly `p`'s encoding (bit for bit).
    pub fn holds(&self, i: usize, p: Point3) -> bool {
        match self {
            LeafRows::F32(r) => r.get(i).map(f32::to_bits) == [p.x, p.y, p.z].map(f32::to_bits),
            LeafRows::F16(r) => r.get(i) == Rows::<u16>::encode(p),
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
    /// vanish); unfilled slots hold the sentinel. Bits move, nothing
    /// is re-encoded.
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
        for layout in [RowLayout::F32, RowLayout::F16] {
            let mut rows = LeafRows::with_capacity(layout, 4);
            rows.push_point(p);
            rows.pad_to(3);
            assert_eq!(rows.layout(), layout);
            assert_eq!(rows.len(), 3);
            assert!(rows.holds(0, p) && !rows.is_pad(0));
            assert!(rows.is_pad(1) && rows.is_pad(2));
            let moved = rows.permuted(&[2, crate::CompactRemap::DROPPED, 0], 3);
            assert!(moved.holds(2, p) && moved.is_pad(0) && moved.is_pad(1));
            rows.set_pad(0);
            assert!(rows.is_pad(0));
        }
        // 1000.1 is not an f16 value: the f16 rows hold its rounding.
        let mut half = LeafRows::with_capacity(RowLayout::F16, 1);
        half.push_point(p);
        let LeafRows::F16(r) = &half else {
            unreachable!()
        };
        assert_eq!(r.z[0], Half::from_f32(1000.1).to_bits());
        assert_eq!(half.bytes_per_slot(), 6);
    }
}
