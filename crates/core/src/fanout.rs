//! Shared scoped-thread fan-out plumbing for the batch front-ends
//! (compiled only with the `parallel` feature).
//!
//! [`RadiusSearchEngine`](crate::RadiusSearchEngine),
//! [`RouterSnapshot`](crate::RouterSnapshot) and the router's shard
//! builds all split work across scoped `std::thread` workers the same
//! way: resolve a thread count against the item count, chunk, run,
//! merge in order.
//! Keeping the logic here means a change to the clamping or the merge
//! applies to every path at once.

use bonsai_geom::Point3;
use bonsai_kdtree::QueryBatch;

/// Resolves `0` (meaning "use the machine's available parallelism")
/// into a concrete worker count, unclamped.
pub(crate) fn requested_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism, and the result is clamped to `1..=items`.
pub(crate) fn resolve_threads(threads: usize, items: usize) -> usize {
    requested_threads(threads).min(items).max(1)
}

/// Runs `search` (any sequential whole-batch searcher) over `queries`
/// split across `threads` scoped workers, merging the per-worker
/// batches into `batch` in query order — output and aggregate stats are
/// identical to one sequential `search` call over all queries.
pub(crate) fn search_batch_across_threads<S>(
    queries: &[Point3],
    radius: f32,
    batch: &mut QueryBatch,
    threads: usize,
    search: S,
) where
    S: Fn(&[Point3], f32, &mut QueryBatch) + Sync,
{
    let threads = resolve_threads(threads, queries.len());
    if threads == 1 {
        return search(queries, radius, batch);
    }
    let chunk = queries.len().div_ceil(threads);
    let mut parts: Vec<QueryBatch> = (0..threads).map(|_| QueryBatch::new()).collect();
    std::thread::scope(|scope| {
        for (part, chunk_queries) in parts.iter_mut().zip(queries.chunks(chunk)) {
            let search = &search;
            scope.spawn(move || search(chunk_queries, radius, part));
        }
    });
    batch.reset();
    for part in &parts {
        batch.absorb(part);
    }
}
