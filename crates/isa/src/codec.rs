//! The Compress/Decompress Logic: the exact bit layout of Figure 6.
//!
//! A leaf of `n ≤ 16` points, already narrowed to `f16` (one `u16` per
//! coordinate), is packed as:
//!
//! ```text
//! [cX cY cZ : 3 bits]                      compression flags
//! [n × (xm ym zm)] each 10 bits            mantissas, point-interleaved
//! [one 6-bit <sign,exp> per compressed coordinate]
//! [n × 6-bit <sign,exp> per uncompressed coordinate, point-interleaved]
//! [zero padding to the next byte]
//! ```
//!
//! A coordinate is *compressed* when its 6-bit `<sign, exponent>` tuple is
//! identical across all `n` points (the paper's value-similarity
//! observation, Section III-A). Mantissas are never compressed
//! (Section III-B: they rarely repeat).
//!
//! Sizes line up with the paper: a full 15-point leaf with all three
//! coordinates compressed costs `3 + 15×30 + 3×6 = 471` bits → 59 bytes →
//! four 128-bit slices (64 B), i.e. ~35 % of the 180 useful baseline bytes
//! (12 B/point), matching Figure 9b's ~37 % once fallback reads are added.

// Coordinate loops index fixed-width [u16; 3] rows; the indexed form
// mirrors the hardware's per-coordinate lanes.
#![allow(clippy::needless_range_loop)]

use crate::bits::{BitReader, BitWriter};

/// Maximum points a ZipPts buffer (and therefore a compressed leaf) holds.
pub const MAX_POINTS: usize = 16;

/// Bytes per ZipPts buffer slice (one 128-bit port transfer).
pub const SLICE_BYTES: usize = 16;

/// Upper bound on the padded size of a compressed leaf: 16 points,
/// nothing compressible → 771 bits → 97 bytes → 7 slices.
pub const MAX_COMPRESSED_BYTES: usize = 112;

/// Bits of an f16 mantissa field.
const MANTISSA_BITS: u32 = 10;
/// Bits of an f16 `<sign, exponent>` tuple.
const SIGN_EXP_BITS: u32 = 6;
/// Bits of the header (`cX`, `cY`, `cZ`).
const HEADER_BITS: u32 = 3;

/// The per-coordinate compression flags (`cX`, `cY`, `cZ` in Figure 6).
///
/// # Examples
///
/// ```
/// use bonsai_isa::CoordFlags;
///
/// let f = CoordFlags { x: true, y: false, z: true };
/// assert_eq!(f.to_bits(), 0b101);
/// assert_eq!(f.count_compressed(), 2);
/// assert_eq!(CoordFlags::from_bits(0b101), f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoordFlags {
    /// The x coordinate's `<sign, exp>` is stored once for the leaf.
    pub x: bool,
    /// Same for y.
    pub y: bool,
    /// Same for z.
    pub z: bool,
}

impl CoordFlags {
    /// All three coordinates compressed.
    pub const ALL: CoordFlags = CoordFlags {
        x: true,
        y: true,
        z: true,
    };

    /// No coordinate compressed.
    pub const NONE: CoordFlags = CoordFlags {
        x: false,
        y: false,
        z: false,
    };

    /// Decodes the 3-bit header (bit 0 = x, bit 1 = y, bit 2 = z).
    pub fn from_bits(bits: u8) -> CoordFlags {
        CoordFlags {
            x: bits & 1 != 0,
            y: bits & 2 != 0,
            z: bits & 4 != 0,
        }
    }

    /// Encodes the 3-bit header.
    pub fn to_bits(self) -> u8 {
        self.x as u8 | (self.y as u8) << 1 | (self.z as u8) << 2
    }

    /// Whether coordinate `c` (0 = x, 1 = y, 2 = z) is compressed.
    pub fn is_compressed(self, c: usize) -> bool {
        match c {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("coordinate index {c} out of range"),
        }
    }

    /// Number of compressed coordinates (0–3).
    pub fn count_compressed(self) -> u32 {
        self.x as u32 + self.y as u32 + self.z as u32
    }
}

/// A compressed leaf as stored in the `cmprsd_strct_array`.
///
/// Holds the packed bytes (header + mantissas + sign/exponent tuples,
/// zero-padded to a whole byte), their unpadded length, and the decoded
/// flags for convenience.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLeaf {
    bytes: [u8; MAX_COMPRESSED_BYTES],
    len: u8,
    num_pts: u8,
    flags: CoordFlags,
}

impl CompressedLeaf {
    /// The packed bytes (unpadded length).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Unpadded size in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the structure is empty (never true for a valid leaf).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of points encoded.
    pub fn num_pts(&self) -> usize {
        self.num_pts as usize
    }

    /// The compression flags.
    pub fn flags(&self) -> CoordFlags {
        self.flags
    }

    /// Number of 128-bit slices needed to move this structure through the
    /// ZipPts buffer ports (`#ZipPtsSlices` of `STZPB`/`LDDCP`).
    pub fn slices(&self) -> usize {
        slices_for_bytes(self.len as usize)
    }
}

/// Number of 128-bit slices covering `bytes` bytes.
pub fn slices_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(SLICE_BYTES)
}

/// The packed size in bits of a leaf of `num_pts` points under `flags`.
pub fn compressed_size_bits(num_pts: usize, flags: CoordFlags) -> usize {
    let shared = flags.count_compressed() as usize;
    HEADER_BITS as usize
        + num_pts * 3 * MANTISSA_BITS as usize
        + shared * SIGN_EXP_BITS as usize
        + num_pts * (3 - shared) * SIGN_EXP_BITS as usize
}

/// Bytes `STZPB` stores for the compressed form of `points` (whole
/// slices) — `compress(points).slices() · SLICE_BYTES`, without
/// packing any bits. Lets a caller size the `cmprsd_strct_array`
/// before filling it.
///
/// # Panics
///
/// Panics when `points` is empty or longer than [`MAX_POINTS`].
pub fn padded_len(points: &[[u16; 3]]) -> usize {
    let bits = compressed_size_bits(points.len(), choose_flags(points));
    slices_for_bytes(bits.div_ceil(8)) * SLICE_BYTES
}

/// The 6-bit `<sign, exponent>` tuple of an f16 bit pattern.
fn sign_exp(h: u16) -> u32 {
    (h >> MANTISSA_BITS) as u32
}

/// The 10-bit mantissa of an f16 bit pattern.
fn mantissa(h: u16) -> u32 {
    (h & 0x3FF) as u32
}

/// Determines which coordinates have a uniform `<sign, exponent>` across
/// all points — the comparison pass of `CPRZPB`.
///
/// # Panics
///
/// Panics when `points` is empty or longer than [`MAX_POINTS`].
pub fn choose_flags(points: &[[u16; 3]]) -> CoordFlags {
    assert!(
        (1..=MAX_POINTS).contains(&points.len()),
        "leaf must hold 1..=16 points, got {}",
        points.len()
    );
    let first = points[0];
    let mut flags = CoordFlags::ALL;
    for p in &points[1..] {
        if sign_exp(p[0]) != sign_exp(first[0]) {
            flags.x = false;
        }
        if sign_exp(p[1]) != sign_exp(first[1]) {
            flags.y = false;
        }
        if sign_exp(p[2]) != sign_exp(first[2]) {
            flags.z = false;
        }
    }
    flags
}

/// Compresses a leaf of f16 points — the bit-reordering pass of `CPRZPB`
/// (Figure 6).
///
/// # Panics
///
/// Panics when `points` is empty or longer than [`MAX_POINTS`].
pub fn compress(points: &[[u16; 3]]) -> CompressedLeaf {
    let flags = choose_flags(points);
    let bits = compressed_size_bits(points.len(), flags);
    let len = bits.div_ceil(8);

    let mut out = CompressedLeaf {
        bytes: [0; MAX_COMPRESSED_BYTES],
        len: len as u8,
        num_pts: points.len() as u8,
        flags,
    };
    let mut w = BitWriter::new(&mut out.bytes[..len]);
    w.write(flags.to_bits() as u32, HEADER_BITS);
    // Mantissas, point-interleaved.
    for p in points {
        for c in 0..3 {
            w.write(mantissa(p[c]), MANTISSA_BITS);
        }
    }
    // One shared <sign, exp> per compressed coordinate.
    for c in 0..3 {
        if flags.is_compressed(c) {
            w.write(sign_exp(points[0][c]), SIGN_EXP_BITS);
        }
    }
    // Per-point <sign, exp> for uncompressed coordinates, interleaved.
    for p in points {
        for c in 0..3 {
            if !flags.is_compressed(c) {
                w.write(sign_exp(p[c]), SIGN_EXP_BITS);
            }
        }
    }
    debug_assert_eq!(w.bit_len(), bits);
    out
}

/// Decompresses `bytes` (the packed structure) into `out[..num_pts]` —
/// the decompression micro-operation of `LDDCP`.
///
/// Returns the decoded flags.
///
/// # Panics
///
/// Panics when `num_pts` is out of range or `bytes` is shorter than the
/// encoded structure requires.
pub fn decompress(bytes: &[u8], num_pts: usize, out: &mut [[u16; 3]; MAX_POINTS]) -> CoordFlags {
    assert!(
        (1..=MAX_POINTS).contains(&num_pts),
        "leaf must hold 1..=16 points, got {num_pts}"
    );
    let mut r = BitReader::new(bytes);
    let flags = CoordFlags::from_bits(r.read(HEADER_BITS) as u8);
    // Mantissas first.
    for p in out.iter_mut().take(num_pts) {
        for c in 0..3 {
            p[c] = r.read(MANTISSA_BITS) as u16;
        }
    }
    // Shared tuples.
    let mut shared = [0u32; 3];
    for (c, s) in shared.iter_mut().enumerate() {
        if flags.is_compressed(c) {
            *s = r.read(SIGN_EXP_BITS);
        }
    }
    // Merge shared and per-point tuples into the mantissas.
    for p in out.iter_mut().take(num_pts) {
        for c in 0..3 {
            let se = if flags.is_compressed(c) {
                shared[c]
            } else {
                r.read(SIGN_EXP_BITS)
            };
            p[c] |= (se as u16) << MANTISSA_BITS;
        }
    }
    debug_assert_eq!(r.bit_len(), compressed_size_bits(num_pts, flags));
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_floatfmt::Half;

    fn to_h16(pts: &[[f32; 3]]) -> Vec<[u16; 3]> {
        pts.iter()
            .map(|p| {
                [
                    Half::from_f32(p[0]).to_bits(),
                    Half::from_f32(p[1]).to_bits(),
                    Half::from_f32(p[2]).to_bits(),
                ]
            })
            .collect()
    }

    #[test]
    fn round_trip_similar_points() {
        // The paper's Figure 3 points: x values all in [8, 16) (uniform
        // sign/exponent), y values spanning [-2.5, -8.5] across three
        // exponent buckets (not compressible), z values all in [1, 2).
        let pts = to_h16(&[
            [8.2, -4.8, 1.1],
            [9.7, -8.5, 1.3],
            [12.4, -6.0, 1.0],
            [12.9, -3.9, 1.2],
            [14.7, -2.5, 1.4],
        ]);
        let leaf = compress(&pts);
        assert_eq!(
            leaf.flags(),
            CoordFlags {
                x: true,
                y: false,
                z: true
            }
        );
        let mut out = [[0u16; 3]; MAX_POINTS];
        let flags = decompress(leaf.bytes(), pts.len(), &mut out);
        assert_eq!(flags, leaf.flags());
        assert_eq!(&out[..pts.len()], &pts[..]);
    }

    #[test]
    fn round_trip_dissimilar_points() {
        let pts = to_h16(&[[1.0, -100.0, 0.001], [-50.0, 0.5, 30000.0], [2.0, 2.0, 2.0]]);
        let leaf = compress(&pts);
        assert_eq!(leaf.flags(), CoordFlags::NONE);
        let mut out = [[0u16; 3]; MAX_POINTS];
        decompress(leaf.bytes(), pts.len(), &mut out);
        assert_eq!(&out[..pts.len()], &pts[..]);
    }

    #[test]
    fn round_trip_single_point_compresses_fully() {
        let pts = to_h16(&[[3.5, -2.5, 0.25]]);
        let leaf = compress(&pts);
        assert_eq!(leaf.flags(), CoordFlags::ALL);
        // 3 + 30 + 18 = 51 bits → 7 bytes.
        assert_eq!(leaf.len(), 7);
        let mut out = [[0u16; 3]; MAX_POINTS];
        decompress(leaf.bytes(), 1, &mut out);
        assert_eq!(out[0], pts[0]);
    }

    #[test]
    fn paper_sizes_for_full_leaf() {
        // 15 points, all coordinates compressed: 471 bits → 59 B → 4 slices.
        assert_eq!(compressed_size_bits(15, CoordFlags::ALL), 471);
        let pts: Vec<[u16; 3]> = (0..15)
            .map(|i| {
                let v = 8.0 + 0.4 * i as f32; // all in [8, 16): shared exponent
                [
                    Half::from_f32(v).to_bits(),
                    Half::from_f32(v + 0.05).to_bits(),
                    Half::from_f32(v + 0.11).to_bits(),
                ]
            })
            .collect();
        let leaf = compress(&pts);
        assert_eq!(leaf.flags(), CoordFlags::ALL);
        assert_eq!(leaf.len(), 59);
        assert_eq!(leaf.slices(), 4);
        assert_eq!(padded_len(&pts), 4 * SLICE_BYTES);
        // Nothing compressed: 3 + 450 + 270 = 723 bits → 91 B → 6 slices.
        assert_eq!(compressed_size_bits(15, CoordFlags::NONE), 723);
    }

    #[test]
    fn worst_case_fits_max_bytes() {
        assert_eq!(compressed_size_bits(16, CoordFlags::NONE), 771);
        assert!(771usize.div_ceil(8) <= MAX_COMPRESSED_BYTES);
        assert_eq!(slices_for_bytes(97) * SLICE_BYTES, MAX_COMPRESSED_BYTES);
    }

    #[test]
    fn round_trip_all_leaf_sizes() {
        for n in 1..=MAX_POINTS {
            let pts: Vec<[u16; 3]> = (0..n)
                .map(|i| {
                    let v = -20.0 + 3.0 * i as f32; // mixed signs/exponents
                    [
                        Half::from_f32(v).to_bits(),
                        Half::from_f32(v * 0.5).to_bits(),
                        Half::from_f32(1.5).to_bits(),
                    ]
                })
                .collect();
            let leaf = compress(&pts);
            assert_eq!(padded_len(&pts), leaf.slices() * SLICE_BYTES, "n={n}");
            let mut out = [[0u16; 3]; MAX_POINTS];
            let flags = decompress(leaf.bytes(), n, &mut out);
            assert_eq!(flags, leaf.flags(), "n={n}");
            assert_eq!(&out[..n], &pts[..], "n={n}");
        }
    }

    #[test]
    fn negative_zero_and_subnormals_round_trip() {
        let pts = vec![
            [0x8000u16, 0x0001, 0x03FF], // -0, min subnormal, max subnormal
            [0x8000, 0x0002, 0x0201],
        ];
        let leaf = compress(&pts);
        let mut out = [[0u16; 3]; MAX_POINTS];
        decompress(leaf.bytes(), 2, &mut out);
        assert_eq!(&out[..2], &pts[..]);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn empty_leaf_rejected() {
        compress(&[]);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn oversized_leaf_rejected() {
        compress(&[[0u16; 3]; 17]);
    }

    #[test]
    fn flags_bit_encoding_matches_figure6() {
        // Figure 6's example: only x compressed → encoding "100" with cX
        // first. Our header stores cX in bit 0.
        let f = CoordFlags {
            x: true,
            y: false,
            z: false,
        };
        assert_eq!(f.to_bits(), 0b001);
        assert_eq!(f.count_compressed(), 1);
    }
}
