#![forbid(unsafe_code)]
//! `bonsai-serve`: the asynchronous serving front-end over
//! epoch-published index snapshots.
//!
//! The production pattern this crate serves ("Learning to Localize
//! Through Compressed Binary Maps" — many concurrent localization
//! clients querying one compressed map) needs three things the
//! synchronous engines don't provide:
//!
//! 1. **Request absorption.** Many concurrent clients each submit one
//!    radius query; a single executor thread drains the queue and
//!    absorbs up to [`ServeConfig::max_batch`] waiting requests into
//!    one order-preserving [`QueryBatch`] per wakeup, so steady-state
//!    serving pays the engine's batched amortization (shared scratch,
//!    one backend dispatch per sweep) instead of per-call setup.
//! 2. **Admission control.** The queue is bounded
//!    ([`ServeConfig::queue_capacity`]); a submit past capacity is
//!    rejected *immediately* with the typed
//!    [`ServeError::Overloaded`] — backpressure the caller can act on,
//!    consistent with the workspace's `Result` serving boundary —
//!    rather than queued into unbounded latency.
//! 3. **Snapshot isolation.** The executor pins the current
//!    [`Epoch`](bonsai_core::Epoch) before absorbing a batch, so every
//!    request in that batch is answered against one immutable snapshot
//!    — bit-identical to a stop-the-world engine at that epoch — while
//!    the ingest side keeps committing and publishing new epochs
//!    concurrently. Each [`QueryResult`] reports the epoch that
//!    answered it.
//!
//! Anything `Send + Sync` that can append radius hits can be served:
//! the [`EpochIndex`] trait is implemented for [`RouterSnapshot`] (the
//! sharded streaming index) and for the single trees `KdTree` and
//! `BonsaiTree`, which the publisher already keeps behind an `Arc`
//! (each searched through a borrowed [`RadiusSearchEngine`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use bonsai_core::{EpochPublisher, ShardConfig, ShardRouter};
//! use bonsai_geom::Point3;
//! use bonsai_kdtree::KdTreeConfig;
//! use bonsai_serve::{ServeConfig, Server};
//!
//! let cloud: Vec<Point3> =
//!     (0..400).map(|i| Point3::new((i % 20) as f32 * 0.3, (i / 20) as f32 * 0.3, 1.0)).collect();
//! let mut router =
//!     ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
//!
//! let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
//! let server = Server::new(Arc::clone(&publisher), ServeConfig::default());
//!
//! // Clients submit concurrently; the executor batches and answers.
//! let ticket = server.submit(cloud[0], 0.5).expect("queue has room");
//!
//! // Meanwhile ingest keeps mutating and publishing — served queries
//! // are isolated on the epoch they were absorbed under.
//! router.apply_update(&[Point3::new(50.0, 50.0, 1.0)], &[]);
//! publisher.publish(router.snapshot());
//!
//! let result = ticket.wait().expect("query served");
//! assert!(result.neighbors.iter().any(|n| n.index == 0));
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use bonsai_core::{AdaptReport, EpochPublisher, QueryError, RadiusSearchEngine, RouterSnapshot};
use bonsai_geom::Point3;
use bonsai_kdtree::{Neighbor, QueryBatch, SearchScratch, SearchStats};

/// Lock with poison recovery: every critical section in this crate
/// leaves the guarded state consistent at each await point (complete
/// queue pushes/drains, complete slot assignments), so a panicking
/// peer thread never leaves a torn value behind.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Knobs of the serving executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests waiting in the queue; a submit finding the
    /// queue at capacity is rejected with [`ServeError::Overloaded`].
    /// `0` rejects every submit (useful to test backpressure paths).
    pub queue_capacity: usize,
    /// Maximum requests absorbed into one [`QueryBatch`] per executor
    /// wakeup (clamped to at least 1). Larger batches amortize better;
    /// smaller ones re-pin fresher epochs more often.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            max_batch: 64,
        }
    }
}

/// A serving-boundary failure, typed so clients can distinguish
/// backpressure (retry later) from shutdown (stop) from index
/// conditions (the wrapped [`QueryError`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full: the request was rejected at
    /// admission, not queued. Retry after draining or shed load.
    Overloaded {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and no longer admits requests
    /// (already-admitted requests are still drained and answered).
    ShuttingDown,
    /// The pinned epoch's index could not answer (e.g. every shard
    /// quarantined — [`QueryError::NoCoverage`]).
    Query(QueryError),
    /// The executor thread died (a panic while answering) before
    /// answering this request. Every request admitted but unanswered
    /// at that point resolves with this error, and the server admits
    /// no further requests.
    WorkerLost,
    /// [`Ticket::wait_timeout`] gave up before the answer arrived. The
    /// request stays admitted: the executor still answers it (and
    /// counts it in [`ServeMetrics::served`]), and that answer is
    /// dropped.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "request queue at capacity ({capacity}); rejected at admission"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "serving worker exited before answering"),
            ServeError::DeadlineExceeded => write!(f, "deadline passed before the answer arrived"),
            ServeError::Query(q) => write!(f, "query failed: {q}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Query(q) => Some(q),
            _ => None,
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(q: QueryError) -> ServeError {
        ServeError::Query(q)
    }
}

/// One answered radius query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The epoch whose snapshot answered this query. Every request
    /// absorbed into the same batch reports the same epoch, and the
    /// neighbors are bit-identical to a stop-the-world search of that
    /// epoch's index.
    pub epoch: u64,
    /// The hits, in the index's canonical order (ascending global
    /// index through a router snapshot; leaf order through a single
    /// tree).
    pub neighbors: Vec<Neighbor>,
}

/// Executor observability counters (monotonic since server start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeMetrics {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered (including typed-error answers, and answers
    /// to tickets a [`Ticket::wait_timeout`] abandoned), counted as
    /// their tickets are filled. Requests failed with
    /// [`ServeError::WorkerLost`] are not answers and are not counted.
    pub served: u64,
    /// Requests rejected at admission ([`ServeError::Overloaded`]).
    pub rejected: u64,
    /// Executor wakeups that absorbed at least one request.
    pub batches: u64,
    /// Largest number of requests absorbed into a single batch.
    pub max_batch_absorbed: usize,
    /// Shard splits executed by the adaptive policy
    /// (accumulated via [`Server::record_adapt`]).
    pub shard_splits: u64,
    /// Shard merges executed by the adaptive policy.
    pub shard_merges: u64,
    /// Adaptive split/merge proposals rejected with a typed reason.
    pub adapt_rejected: u64,
}

/// An index snapshot the executor can serve: anything that appends
/// radius hits and is shareable across the serving threads.
///
/// Implementations must be **pure reads**: two `search_append` calls
/// with the same inputs against the same value return bit-identical
/// hits and stats — the property that makes epoch pinning equal to
/// stop-the-world.
pub trait EpochIndex: Send + Sync + 'static {
    /// Appends the query's hits to `out` (not cleared) and its work to
    /// `stats` — the closure shape [`QueryBatch::push_query`] consumes.
    /// Degenerate radii / non-finite centers append nothing.
    fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    );

    /// Whether this snapshot can answer queries at all; an `Err` fails
    /// every request of the absorbed batch with
    /// [`ServeError::Query`]. Defaults to always-serving.
    fn admission(&self) -> Result<(), QueryError> {
        Ok(())
    }
}

impl EpochIndex for RouterSnapshot {
    fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        RouterSnapshot::search_append(self, query, radius, scratch, out, stats);
    }

    /// Rejects the batch through the snapshot's typed
    /// [`coverage_gate`](RouterSnapshot::coverage_gate).
    fn admission(&self) -> Result<(), QueryError> {
        self.coverage_gate()
    }
}

impl EpochIndex for bonsai_kdtree::KdTree {
    fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        RadiusSearchEngine::baseline(self).search_append(query, radius, scratch, out, stats);
    }
}

impl EpochIndex for bonsai_core::BonsaiTree {
    fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        RadiusSearchEngine::bonsai(self).search_append(query, radius, scratch, out, stats);
    }
}

type Outcome = Result<QueryResult, ServeError>;

/// The oneshot rendezvous between a client and the executor.
#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl TicketState {
    fn new() -> TicketState {
        TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, outcome: Outcome) {
        let mut slot = relock(&self.slot);
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on one admitted request's eventual answer.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the executor answers this request, or until the
    /// request is failed with [`ServeError::WorkerLost`] because the
    /// executor died first.
    pub fn wait(self) -> Outcome {
        let mut slot = relock(&self.state.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`wait`](Ticket::wait) with a deadline: blocks for at most
    /// `timeout`, then gives up with [`ServeError::DeadlineExceeded`].
    /// Giving up abandons the ticket; the request is still answered
    /// when the executor reaches it, and that answer is dropped.
    pub fn wait_timeout(self, timeout: Duration) -> Outcome {
        let slot = relock(&self.state.slot);
        let (mut slot, _) = self
            .state
            .ready
            .wait_timeout_while(slot, timeout, |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.take().unwrap_or(Err(ServeError::DeadlineExceeded))
    }

    /// Non-blocking poll: the answer if the executor has produced it.
    /// After `Some`, the ticket is spent (`wait` would block forever);
    /// callers should consume the ticket on `Some`.
    // lint: allow(typed-error-discipline) — `Option` IS the poll
    // contract: `None` means not-ready-yet, not failure; the error
    // channel lives inside `Outcome` itself.
    pub fn try_take(&self) -> Option<Outcome> {
        relock(&self.state.slot).take()
    }
}

/// One admitted request, FIFO-queued for the executor.
#[derive(Debug)]
struct Request {
    query: Point3,
    radius: f32,
    /// `None` once answered.
    ticket: Option<Arc<TicketState>>,
}

impl Request {
    /// Fills the request's ticket with its answer.
    fn answer(mut self, outcome: Outcome) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fill(outcome);
        }
    }
}

impl Drop for Request {
    /// The stranded-ticket guard: a request dropped unanswered — its
    /// batch unwound out of a panicking worker, or it was still queued
    /// when the worker exited — fails its ticket with
    /// [`ServeError::WorkerLost`] instead of leaving `wait` blocked.
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fill(Err(ServeError::WorkerLost));
        }
    }
}

#[derive(Debug, Default)]
struct Queue {
    pending: VecDeque<Request>,
    shutdown: bool,
    /// The executor thread has exited; nothing drains `pending` any more.
    worker_exited: bool,
    metrics: ServeMetrics,
}

#[derive(Debug)]
struct Shared<T> {
    publisher: Arc<EpochPublisher<T>>,
    cfg: ServeConfig,
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// The serving executor: one worker thread absorbing admitted requests
/// into epoch-pinned [`QueryBatch`]es. See the [crate docs](self).
///
/// Dropping the server stops admission, drains every already-admitted
/// request, and joins the worker. No ticket is ever left blocked: if
/// the worker panics, every admitted but unanswered request resolves
/// with [`ServeError::WorkerLost`], and later submits are refused
/// with it.
#[derive(Debug)]
pub struct Server<T: EpochIndex> {
    shared: Arc<Shared<T>>,
    worker: Option<thread::JoinHandle<()>>,
}

impl<T: EpochIndex> Server<T> {
    /// Starts the executor over `publisher`'s epochs. The publisher is
    /// shared: the ingest side keeps publishing new snapshots through
    /// its own `Arc` while this server pins them per batch.
    pub fn new(publisher: Arc<EpochPublisher<T>>, cfg: ServeConfig) -> Server<T> {
        let shared = Arc::new(Shared {
            publisher,
            cfg,
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("bonsai-serve".to_string())
            .spawn(move || worker_loop(&worker_shared))
            // lint: allow(panic-free-serving) — thread spawn fails only
            // on process resource exhaustion at server construction,
            // never on serving input; there is no request to degrade.
            .expect("spawn bonsai-serve executor thread");
        Server {
            shared,
            worker: Some(worker),
        }
    }

    /// Submits one radius query. `Ok` means admitted: the request WILL
    /// be answered, or failed with [`ServeError::WorkerLost`] if the
    /// executor dies first (await it through the [`Ticket`]). `Err` is
    /// immediate — nothing was queued: backpressure, shutdown, or
    /// [`ServeError::WorkerLost`] once the executor has died.
    pub fn submit(&self, query: Point3, radius: f32) -> Result<Ticket, ServeError> {
        let mut q = relock(&self.shared.queue);
        if q.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if q.worker_exited {
            return Err(ServeError::WorkerLost);
        }
        if q.pending.len() >= self.shared.cfg.queue_capacity {
            q.metrics.rejected += 1;
            return Err(ServeError::Overloaded {
                capacity: self.shared.cfg.queue_capacity,
            });
        }
        let state = Arc::new(TicketState::new());
        q.pending.push_back(Request {
            query,
            radius,
            ticket: Some(Arc::clone(&state)),
        });
        q.metrics.submitted += 1;
        drop(q);
        self.shared.wake.notify_all();
        Ok(Ticket { state })
    }

    /// Blocking convenience: submit + wait. A degenerate radius or
    /// non-finite center short-circuits to the same empty answer a
    /// stop-the-world engine gives, without occupying queue capacity.
    pub fn radius_query(&self, query: Point3, radius: f32) -> Result<QueryResult, ServeError> {
        if !bonsai_kdtree::radius_is_searchable(radius)
            || !bonsai_kdtree::query_is_searchable(query)
        {
            return Ok(QueryResult {
                epoch: self.shared.publisher.epoch(),
                neighbors: Vec::new(),
            });
        }
        self.submit(query, radius)?.wait()
    }

    /// Stops admitting new requests; already-admitted ones still
    /// drain. Idempotent. (Dropping the server calls this and then
    /// joins the worker.)
    pub fn begin_shutdown(&self) {
        relock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
    }

    /// Current executor counters.
    pub fn metrics(&self) -> ServeMetrics {
        relock(&self.shared.queue).metrics
    }

    /// Folds one adaptive-sharding window
    /// ([`ShardRouter::adapt_step`](bonsai_core::ShardRouter::adapt_step)'s
    /// report) into this server's counters, so the serving surface
    /// exposes splits, merges, and typed rejections alongside the
    /// request metrics. The ingest side calls this after each adapt
    /// window; the accumulation is monotonic like every other counter.
    pub fn record_adapt(&self, report: &AdaptReport) {
        let mut q = relock(&self.shared.queue);
        q.metrics.shard_splits += report.splits;
        q.metrics.shard_merges += report.merges;
        q.metrics.adapt_rejected += report.rejected;
    }

    /// The epoch publisher this server pins from.
    pub fn publisher(&self) -> &Arc<EpochPublisher<T>> {
        &self.shared.publisher
    }
}

impl<T: EpochIndex> Drop for Server<T> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            // A worker panic already answered no one; propagating it
            // out of drop would abort — losing the panic message — so
            // the join result is deliberately discarded.
            let _ = worker.join();
        }
    }
}

/// Runs when the executor thread exits, by returning or by unwinding:
/// closes admission and fails every still-queued request with
/// [`ServeError::WorkerLost`] (after a normal exit the queue is already
/// empty and shut down).
struct WorkerExit<'a, T>(&'a Shared<T>);

impl<T> Drop for WorkerExit<'_, T> {
    fn drop(&mut self) {
        let stranded = {
            let mut q = relock(&self.0.queue);
            q.worker_exited = true;
            std::mem::take(&mut q.pending)
        };
        // Outside the queue lock: each request's drop guard fills its
        // ticket.
        drop(stranded);
    }
}

/// The executor body: wait → drain ≤ `max_batch` FIFO requests → pin
/// the current epoch → answer the whole batch against that one
/// snapshot → rendezvous each ticket.
fn worker_loop<T: EpochIndex>(shared: &Shared<T>) {
    // Declared first, so it drops last: a panic unwinds `drained`
    // (failing the in-flight batch) before the queue is closed.
    let _exit = WorkerExit(shared);
    let mut batch = QueryBatch::new();
    let mut drained: Vec<Request> = Vec::new();
    loop {
        {
            let mut q = relock(&shared.queue);
            while q.pending.is_empty() && !q.shutdown {
                q = shared.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.pending.is_empty() {
                return; // shutdown and fully drained
            }
            let n = q.pending.len().min(shared.cfg.max_batch.max(1));
            drained.extend(q.pending.drain(..n));
            q.metrics.batches += 1;
            q.metrics.max_batch_absorbed = q.metrics.max_batch_absorbed.max(n);
        }
        // Pin ONE epoch for the whole absorbed batch: every request in
        // it is answered from the same immutable snapshot, however
        // many epochs ingest publishes while the batch runs.
        let epoch = shared.publisher.pin();
        let index = epoch.value();
        let admission = index.admission();
        if admission.is_ok() {
            batch.reset();
            for request in &drained {
                let (query, radius) = (request.query, request.radius);
                batch.push_query(|scratch, out, stats| {
                    index.search_append(query, radius, scratch, out, stats);
                });
            }
        }
        // Every answer of the batch is ready: count them, then fill the
        // tickets (counting first, so a client woken by its ticket
        // already sees its request in `served`).
        relock(&shared.queue).metrics.served += drained.len() as u64;
        for (i, request) in drained.drain(..).enumerate() {
            request.answer(match &admission {
                Err(err) => Err(ServeError::Query(err.clone())),
                Ok(()) => Ok(QueryResult {
                    epoch: epoch.id(),
                    neighbors: batch.results(i).to_vec(),
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use bonsai_core::{BonsaiTree, ShardConfig, ShardRouter};
    use bonsai_kdtree::{KdTree, KdTreeConfig};
    use bonsai_sim::SimEngine;

    fn urban_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
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

    fn snapshot_server(cloud: &[Point3]) -> (ShardRouter, Server<RouterSnapshot>) {
        let router =
            ShardRouter::bonsai(cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
        let server = Server::new(publisher, ServeConfig::default());
        (router, server)
    }

    #[test]
    fn served_answers_match_the_router_exactly() {
        let cloud = urban_cloud(2000, 1);
        let (router, server) = snapshot_server(&cloud);
        let queries: Vec<Point3> = cloud.iter().step_by(13).copied().collect();
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|&q| server.submit(q, 1.1).expect("admitted"))
            .collect();
        let mut scratch = SearchScratch::new();
        let mut expect = Vec::new();
        for (i, (ticket, &q)) in tickets.into_iter().zip(&queries).enumerate() {
            let result = ticket.wait().expect("served");
            assert_eq!(result.epoch, 0);
            let mut stats = SearchStats::default();
            router.search_one(q, 1.1, &mut scratch, &mut expect, &mut stats);
            assert_eq!(result.neighbors, expect, "query {i}");
        }
        let m = server.metrics();
        assert_eq!(m.submitted, queries.len() as u64);
        assert_eq!(m.served, queries.len() as u64);
        assert_eq!(m.rejected, 0);
        assert!(m.batches >= 1);
    }

    #[test]
    fn zero_capacity_queue_rejects_with_overloaded() {
        let cloud = urban_cloud(300, 2);
        let (_router, server) = snapshot_server(&cloud);
        let server = Server::new(
            Arc::clone(server.publisher()),
            ServeConfig {
                queue_capacity: 0,
                max_batch: 8,
            },
        );
        match server.submit(cloud[0], 1.0) {
            Err(ServeError::Overloaded { capacity: 0 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.metrics().rejected, 1);
    }

    #[test]
    fn shutdown_stops_admission_but_drains_admitted() {
        let cloud = urban_cloud(500, 3);
        let (_router, server) = snapshot_server(&cloud);
        let ticket = server.submit(cloud[1], 0.9).expect("admitted");
        server.begin_shutdown();
        assert_eq!(
            server.submit(cloud[2], 0.9).err(),
            Some(ServeError::ShuttingDown)
        );
        let result = ticket.wait().expect("admitted requests still drain");
        assert!(!result.neighbors.is_empty());
    }

    #[test]
    fn degenerate_inputs_answer_empty_without_queueing() {
        let cloud = urban_cloud(300, 4);
        let (_router, server) = snapshot_server(&cloud);
        for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            let result = server.radius_query(cloud[0], r).expect("short-circuit");
            assert!(result.neighbors.is_empty(), "radius {r}");
        }
        let bad_center = Point3::new(f32::NAN, 0.0, 0.0);
        let result = server.radius_query(bad_center, 1.0).expect("short-circuit");
        assert!(result.neighbors.is_empty());
        assert_eq!(server.metrics().submitted, 0, "degenerates must not queue");
    }

    #[test]
    fn requests_ride_the_epoch_they_were_absorbed_under() {
        let cloud = urban_cloud(1200, 5);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
        let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
        let server = Server::new(Arc::clone(&publisher), ServeConfig::default());

        let before = server.radius_query(cloud[7], 1.0).expect("served");
        assert_eq!(before.epoch, 0);

        // Delete the probe's own point and publish epoch 1.
        assert!(router.delete(7));
        router.commit();
        publisher.publish(router.snapshot());

        let after = server.radius_query(cloud[7], 1.0).expect("served");
        assert_eq!(after.epoch, 1);
        assert!(before.neighbors.iter().any(|n| n.index == 7));
        assert!(after.neighbors.iter().all(|n| n.index != 7));
    }

    #[test]
    fn fully_quarantined_snapshot_fails_typed_not_silent() {
        let cloud = urban_cloud(400, 6);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        for s in 0..router.num_shards() {
            router.quarantine(s);
        }
        let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
        let server = Server::new(publisher, ServeConfig::default());
        match server.radius_query(cloud[0], 1.0) {
            Err(ServeError::Query(QueryError::NoCoverage { offline })) => {
                assert_eq!(offline.len(), 2);
            }
            other => panic!("expected NoCoverage, got {other:?}"),
        }
    }

    #[test]
    fn shared_engine_serves_single_tree_snapshots() {
        let cloud = urban_cloud(800, 7);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let expect = tree.radius_search_simple(cloud[11], 0.8);
        let baseline = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let publisher = Arc::new(EpochPublisher::new(tree));
        let server = Server::new(publisher, ServeConfig::default());
        let got = server.radius_query(cloud[11], 0.8).expect("served");
        assert_eq!(got.neighbors, expect);

        let expect = baseline.radius_search_simple(cloud[11], 0.8);
        let publisher = Arc::new(EpochPublisher::new(baseline));
        let server = Server::new(publisher, ServeConfig::default());
        let got = server.radius_query(cloud[11], 0.8).expect("served");
        assert_eq!(got.neighbors, expect);
    }

    #[test]
    fn adapt_reports_surface_in_serve_metrics_and_pins_hold() {
        use bonsai_core::ShardPolicy;

        let cloud = urban_cloud(3000, 9);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let publisher = Arc::new(EpochPublisher::new(router.snapshot()));
        let server = Server::new(Arc::clone(&publisher), ServeConfig::default());

        // A client keeps answering on the pre-split epoch.
        let pinned = publisher.pin();
        let probe = cloud[0];
        let before = server.radius_query(probe, 1.1).expect("served");
        assert_eq!(before.epoch, 0);

        // Ingest drives a skewed load until the policy splits, folding
        // each window's report into the serving metrics.
        let policy = ShardPolicy {
            min_split_points: 64,
            min_queries: 16.0,
            ..ShardPolicy::default()
        };
        let hot: Vec<Point3> = cloud
            .iter()
            .copied()
            .filter(|p| p.distance_squared(probe) < 64.0)
            .take(128)
            .collect();
        let mut batch = QueryBatch::new();
        let mut splits = 0;
        for _ in 0..12 {
            router.snapshot().search_batch(&hot, 1.0, &mut batch);
            let report = router.adapt_step(&policy, publisher.epoch_lag());
            splits += report.splits;
            server.record_adapt(&report);
            publisher.publish(router.snapshot());
        }
        let m = server.metrics();
        assert!(splits >= 1, "skewed load never split");
        assert_eq!(m.shard_splits, splits);
        assert_eq!(
            m.shard_splits + m.shard_merges,
            router.load_report().splits + router.load_report().merges
        );

        // The pre-split pin still answers bit-identically…
        let mut scratch = SearchScratch::new();
        let mut frozen = Vec::new();
        let mut stats = SearchStats::default();
        pinned
            .value()
            .search_append(probe, 1.1, &mut scratch, &mut frozen, &mut stats);
        assert_eq!(frozen, before.neighbors, "pre-split epoch drifted");
        // …while new requests ride the rebalanced topology, same hits
        // (the split re-encodes leaves against new origins, so each
        // compressed hit's distance is held to what its own leaf
        // reports, and to bit equality where the origin is unchanged).
        let after = server.radius_query(probe, 1.1).expect("served");
        assert!(after.epoch > 0);
        let checked = bonsai_core::shell::check_compressed_hits(
            probe,
            1.1,
            &cloud,
            &after.neighbors,
            &router.snapshot().point_origins(),
            &before.neighbors,
            &pinned.value().point_origins(),
        );
        assert_eq!(checked, Ok(()), "post-split hits diverged");
    }

    /// A baseline tree that blocks on a channel gate when asked about
    /// one gated query point, then panics if `panics`, or else answers.
    struct GatedOn {
        tree: bonsai_kdtree::KdTree,
        gate: Point3,
        panics: bool,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl EpochIndex for GatedOn {
        fn search_append(
            &self,
            query: Point3,
            radius: f32,
            scratch: &mut SearchScratch,
            out: &mut Vec<Neighbor>,
            stats: &mut SearchStats,
        ) {
            if query == self.gate {
                relock(&self.entered)
                    .send(())
                    .expect("test thread listening");
                relock(&self.release).recv().expect("test thread releases");
                assert!(!self.panics, "poisoned query");
            }
            self.tree.search_append(query, radius, scratch, out, stats);
        }
    }

    /// A server over a [`GatedOn`] index gated at a point far from
    /// `cloud`, with the channel ends that observe and open the gate.
    fn gated_server(
        cloud: &[Point3],
        panics: bool,
    ) -> (
        Server<GatedOn>,
        Point3,
        mpsc::Receiver<()>,
        mpsc::Sender<()>,
    ) {
        let mut sim = SimEngine::disabled();
        let gate = Point3::new(1e4, 1e4, 1e4);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let index = GatedOn {
            tree: bonsai_kdtree::KdTree::build(cloud.to_vec(), KdTreeConfig::default(), &mut sim),
            gate,
            panics,
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        };
        let server = Server::new(Arc::new(EpochPublisher::new(index)), ServeConfig::default());
        (server, gate, entered_rx, release_tx)
    }

    #[test]
    fn worker_panic_fails_every_outstanding_ticket_with_worker_lost() {
        let cloud = urban_cloud(600, 10);
        let (server, poison, entered_rx, release_tx) = gated_server(&cloud, true);

        // Answered before the panic.
        let answered: Vec<Outcome> = (0..8)
            .map(|i| server.submit(cloud[i], 1.0).expect("admitted"))
            .collect::<Vec<Ticket>>()
            .into_iter()
            .map(Ticket::wait)
            .collect();
        assert!(answered.iter().all(Result::is_ok), "{answered:?}");

        // The worker blocks mid-batch on the poisoned query, so these
        // requests are admitted and queue behind it; then it panics.
        let poisoned = server.submit(poison, 1.0).expect("admitted");
        entered_rx
            .recv()
            .expect("worker reached the poisoned query");
        let queued: Vec<Ticket> = (0..16)
            .map(|i| server.submit(cloud[i], 1.0).expect("admitted"))
            .collect();
        release_tx.send(()).expect("worker waits on the gate");

        let mut lost = 0;
        for ticket in std::iter::once(poisoned).chain(queued) {
            assert_eq!(ticket.wait(), Err(ServeError::WorkerLost));
            lost += 1;
        }
        // Admission is closed: a later submit fails fast.
        assert_eq!(
            server.submit(cloud[0], 1.0).err(),
            Some(ServeError::WorkerLost)
        );
        let m = server.metrics();
        assert_eq!(m.submitted, 8 + 1 + 16);
        assert_eq!(m.served, answered.len() as u64);
        assert_eq!(m.served + lost, m.submitted);
    }

    /// A deadline bounds the wait: tickets stuck behind a blocked
    /// worker resolve `DeadlineExceeded` after 20 ms, their late
    /// answers are dropped without a panic once the gate opens, later
    /// tickets are answered, and every admitted request is counted
    /// served.
    #[test]
    fn wait_timeout_returns_deadline_exceeded_and_drops_the_late_answer() {
        let cloud = urban_cloud(600, 11);
        let (server, gate, entered_rx, release_tx) = gated_server(&cloud, false);
        let blocked = server.submit(gate, 1.0).expect("admitted");
        entered_rx.recv().expect("worker reached the gated query");
        let queued = server.submit(cloud[3], 1.0).expect("admitted");
        let deadline = Duration::from_millis(20);
        assert_eq!(
            blocked.wait_timeout(deadline),
            Err(ServeError::DeadlineExceeded)
        );
        assert_eq!(
            queued.wait_timeout(deadline),
            Err(ServeError::DeadlineExceeded)
        );
        let behind: Vec<Ticket> = (0..8)
            .map(|i| server.submit(cloud[i], 1.0).expect("admitted"))
            .collect();
        release_tx.send(()).expect("worker waits on the gate");

        let pinned = server.publisher().pin();
        let tree = &pinned.value().tree;
        let mut scratch = SearchScratch::new();
        for (i, ticket) in behind.into_iter().enumerate() {
            let got = ticket
                .wait_timeout(Duration::from_secs(60))
                .expect("answered");
            let (mut want, mut stats) = (Vec::new(), SearchStats::default());
            tree.search_append(cloud[i], 1.0, &mut scratch, &mut want, &mut stats);
            assert_eq!(got.neighbors, want, "query {i}");
        }
        let later = server.submit(cloud[5], 1.0).expect("admitted");
        assert!(later.wait().is_ok());
        // `served + lost == submitted`, with nothing lost: the two
        // abandoned requests were answered too.
        let m = server.metrics();
        assert_eq!(m.submitted, 1 + 1 + 8 + 1);
        assert_eq!(m.served, m.submitted);
    }

    #[test]
    fn concurrent_submitters_all_get_correct_answers() {
        let cloud = urban_cloud(2500, 8);
        let (router, server) = snapshot_server(&cloud);
        let server = &server;
        let cloud_ref = &cloud;
        let results: Vec<Vec<(usize, QueryResult)>> = thread::scope(|s| {
            (0..4usize)
                .map(|t| {
                    s.spawn(move || {
                        (0..50usize)
                            .map(|k| {
                                let qi = (t * 61 + k * 7) % cloud_ref.len();
                                let r = server
                                    .radius_query(cloud_ref[qi], 1.0)
                                    .expect("admitted under default capacity");
                                (qi, r)
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        let mut scratch = SearchScratch::new();
        let mut expect = Vec::new();
        for (qi, got) in results.into_iter().flatten() {
            let mut stats = SearchStats::default();
            router.search_one(cloud[qi], 1.0, &mut scratch, &mut expect, &mut stats);
            assert_eq!(got.neighbors, expect, "query {qi}");
        }
    }
}
