//! Counting global allocator.
//!
//! Wraps the system allocator and counts, process-wide, the heap bytes
//! currently held, and per thread, the allocation calls and bytes
//! requested. The benchmark binary installs it with
//! `#[global_allocator]`; the library only reads the counters, so the
//! helpers work (reading zeros) in a binary that does not install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// The counting allocator. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

/// Heap bytes currently held by the whole process. Relaxed: a
/// statistic that publishes no other data.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialized cells own no destructor, so they stay usable
    // from inside the allocator at every point of a thread's life.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; the
// bookkeeping only touches atomics and const thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero size), which is exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Heap bytes the process currently holds.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// This thread's cumulative `(allocation calls, bytes requested)`;
/// reallocations count as one call for their new size.
pub fn thread_counts() -> (u64, u64) {
    (THREAD_ALLOCS.with(Cell::get), THREAD_BYTES.with(Cell::get))
}
