//! "Bytes per point is a headline metric", enforced: the heap an index
//! holds after its build must be what its `resident_bytes()` reports.
//!
//! A counting `#[global_allocator]` keeps a per-thread tally of live
//! heap bytes (allocated minus freed, reallocations counted at their
//! new size). The bytes a build leaves behind on the calling thread —
//! everything the returned tree owns, allocator-requested capacity
//! included — must match `resident_bytes()` within 1 %, for the plain
//! `KdTree` and for the compressed `BonsaiTree` — before and after its
//! directory is baked on demand — on preprocessed frames of the paper
//! drive, and the compressed tree must be the smaller index. Unused
//! `Vec` capacity counts here and not in `resident_bytes()`, so this
//! also gates exact-capacity index buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::core::BonsaiTree;
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::KdTree;
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::SimEngine;

struct LiveBytes;

thread_local! {
    // Const-initialized: no lazy setup and no destructor, so the cell
    // is usable from inside the allocator at any point of a thread's
    // life.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; the
// bookkeeping touches only a const thread-local, which never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and a valid `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64));
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Live heap bytes `f` leaves behind on the calling thread, with its
/// result (so the result's heap is still held when counted).
fn heap_held<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// Preprocessed clusterer input for a few frames spread along the
/// paper drive (urban start, mid-route, end).
fn drive_frames() -> Vec<Vec<Point3>> {
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::disabled();
    let n = seq.num_frames();
    [0, n / 2, n - 1]
        .into_iter()
        .map(|i| pipeline.preprocess(&mut sim, &seq.frame(i)))
        .collect()
}

/// `|held − resident| ≤ 1 % of held`, with both figures in the message.
fn assert_accounted(what: &str, points: usize, held: i64, resident: u64) {
    let gap = (held - resident as i64).abs();
    assert!(
        gap * 100 <= held,
        "{what}: heap held {held} B ({:.2} B/pt) vs resident_bytes {resident} B ({:.2} B/pt)",
        held as f64 / points as f64,
        resident as f64 / points as f64,
    );
}

/// The counter must see the buffers it is meant to weigh.
#[test]
fn live_byte_counter_sees_held_and_freed_buffers() {
    let (v, held) = heap_held(|| Vec::<u64>::with_capacity(100));
    assert_eq!(held, 800);
    let ((), freed) = heap_held(|| drop(v));
    assert_eq!(freed, -800);
}

#[test]
fn resident_bytes_account_for_the_heap_each_index_holds() {
    let cfg = ClusterParams::default().tree;
    let mut sim = SimEngine::disabled();
    for (k, pts) in drive_frames().into_iter().enumerate() {
        let n = pts.len();
        assert!(
            n > 1000,
            "frame {k}: only {n} points survived preprocessing"
        );
        // The point vector is cloned inside the closure so the array
        // the tree keeps is counted too.
        let (kd, held) = heap_held(|| KdTree::build(pts.clone(), cfg, &mut sim));
        assert_accounted(&format!("frame {k} KdTree"), n, held, kd.resident_bytes());
        let kd_resident = kd.resident_bytes();
        drop(kd);
        let (bonsai, held) = heap_held(|| BonsaiTree::build(pts.clone(), cfg, &mut sim));
        assert_accounted(
            &format!("frame {k} BonsaiTree"),
            n,
            held,
            bonsai.resident_bytes(),
        );
        // One copy of the leaves, half as wide: the compressed index
        // is the smaller one.
        assert!(
            bonsai.resident_bytes() < kd_resident,
            "frame {k}: BonsaiTree {:.2} B/pt is not below KdTree {:.2} B/pt",
            bonsai.resident_bytes() as f64 / n as f64,
            kd_resident as f64 / n as f64,
        );
        // The directory is baked on demand; once it is, the tree holds
        // it and reports it.
        let before = bonsai.resident_bytes();
        let ((), dir_held) = heap_held(|| {
            bonsai.directory();
        });
        assert!(dir_held > 0, "frame {k}: the directory was baked already");
        assert_accounted(
            &format!("frame {k} lazily baked directory"),
            n,
            dir_held,
            bonsai.resident_bytes() - before,
        );
        assert_accounted(
            &format!("frame {k} BonsaiTree with its directory"),
            n,
            held + dir_held,
            bonsai.resident_bytes(),
        );
    }
}
