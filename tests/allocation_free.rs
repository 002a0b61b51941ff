//! The "allocation-free once warm" contract, enforced: after one warm-up
//! pass has grown the caller's buffers, repeating the same searches
//! performs **zero** heap allocations — through the single-tree
//! `RadiusSearchEngine::search_batch` in both modes, through a
//! `RouterSnapshot`'s `search_batch` and `search_append`, and through an
//! uninstrumented `NdtMatcher::align` in both search modes. A warm
//! `FramePipeline::preprocess` allocates only the cloud it returns.
//!
//! A counting `#[global_allocator]` tallies allocation calls per
//! thread, so tests running concurrently on other harness threads
//! cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kd_bonsai::cluster::{ClusterParams, FramePipeline};
use kd_bonsai::core::{BonsaiTree, RadiusSearchEngine, RouterSnapshot, ShardConfig, ShardRouter};
use kd_bonsai::geom::{Point3, Pose};
use kd_bonsai::kdtree::{KdTree, KdTreeConfig, QueryBatch, SearchScratch, SearchStats};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::ndt::{NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
use kd_bonsai::sim::SimEngine;

struct CountingAlloc;

thread_local! {
    // Const-initialized: no lazy setup and no destructor, so the cell
    // is usable from inside the allocator at any point of a thread's
    // life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; the
// bookkeeping touches only a const thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) `f` performs on the
/// calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn urban_cloud(n: usize) -> Vec<Point3> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32
    };
    (0..n)
        .map(|_| {
            let cluster = (next() * 12.0).floor();
            Point3::new(
                (cluster - 6.0) * 15.0 + next() * 3.0,
                (next() - 0.5) * 60.0,
                next() * 2.5,
            )
        })
        .collect()
}

const RADIUS: f32 = 1.2;

/// The gate below is only as good as the counter: a fresh buffer must
/// register.
#[test]
fn counting_allocator_sees_allocations() {
    let allocs = allocations_during(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(8))));
    assert_eq!(allocs, 1);
}

#[test]
fn warm_engine_batches_allocate_nothing_in_both_modes() {
    let cloud = urban_cloud(4000);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let base = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let queries: Vec<Point3> = cloud.iter().step_by(7).copied().collect();
    for engine in [
        RadiusSearchEngine::baseline(&base),
        RadiusSearchEngine::bonsai(&tree),
    ] {
        let mut batch = QueryBatch::new();
        engine.search_batch(&queries, RADIUS, &mut batch);
        assert!(batch.total_matches() > queries.len(), "{:?}", engine.mode());
        let allocs = allocations_during(|| engine.search_batch(&queries, RADIUS, &mut batch));
        assert_eq!(
            allocs,
            0,
            "{:?}: warm search_batch allocated",
            engine.mode()
        );
    }
}

#[test]
fn warm_router_snapshot_searches_allocate_nothing() {
    let cloud = urban_cloud(4000);
    let queries: Vec<Point3> = cloud.iter().step_by(7).copied().collect();
    let cfg = ShardConfig::with_shards(6);
    for router in [
        ShardRouter::baseline(&cloud, KdTreeConfig::default(), cfg),
        ShardRouter::bonsai(&cloud, KdTreeConfig::default(), cfg),
    ] {
        let snap: RouterSnapshot = router.snapshot();
        let mode = snap.mode();

        let mut batch = QueryBatch::new();
        snap.search_batch(&queries, RADIUS, &mut batch);
        assert!(batch.total_matches() > queries.len(), "{mode:?}");
        let allocs = allocations_during(|| snap.search_batch(&queries, RADIUS, &mut batch));
        assert_eq!(allocs, 0, "{mode:?}: warm snapshot search_batch allocated");

        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut each = || {
            for &q in &queries {
                out.clear();
                snap.search_append(q, RADIUS, &mut scratch, &mut out, &mut stats);
            }
        };
        each();
        let allocs = allocations_during(each);
        assert_eq!(allocs, 0, "{mode:?}: warm snapshot search_append allocated");
    }
}

#[test]
fn warm_ndt_alignment_allocates_nothing_in_both_modes() {
    let cloud = urban_cloud(4000);
    let scan: Vec<Point3> = cloud.iter().step_by(5).copied().collect();
    let guess = Pose::from_translation_euler(Point3::new(0.2, -0.1, 0.0), 0.0, 0.0, 0.01);
    let cfg = NdtConfig {
        max_iterations: 5,
        ..NdtConfig::default()
    };
    for mode in [NdtSearchMode::Baseline, NdtSearchMode::Bonsai] {
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        let mut matcher = NdtMatcher::new(&mut sim, map, cfg.clone(), mode);
        let first = matcher.align(&mut sim, &scan, &guess);
        assert!(first.search_stats.points_inspected > 0, "{mode:?}");
        let mut second = None;
        let allocs = allocations_during(|| second = Some(matcher.align(&mut sim, &scan, &guess)));
        assert_eq!(allocs, 0, "{mode:?}: warm NDT alignment allocated");
        assert_eq!(second, Some(first), "{mode:?}");
    }
}

#[test]
fn warm_frame_preprocess_allocates_only_its_output() {
    let frame = DrivingSequence::new(SequenceConfig::paper_drive()).frame(0);
    let pipeline = FramePipeline::new(ClusterParams::default());
    let mut sim = SimEngine::disabled();
    let first = pipeline.preprocess(&mut sim, &frame);
    assert!(first.len() > 1000, "kept {}", first.len());
    // The same frame, then a prefix of it: no filter stage grows past
    // the warm-up frame's size.
    for raw in [&frame[..], &frame[..frame.len() / 2]] {
        let fresh = FramePipeline::new(ClusterParams::default()).preprocess(&mut sim, raw);
        let mut out = Vec::new();
        let allocs = allocations_during(|| out = pipeline.preprocess(&mut sim, raw));
        assert!(
            allocs <= 1,
            "warm preprocess of {} points made {allocs} allocations",
            raw.len()
        );
        assert_eq!(out, fresh, "{} points", raw.len());
    }
}
