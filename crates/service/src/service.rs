//! The query service: submitters bucket → workers take from the front.
//!
//! ```text
//!  clients ──submit──▶ [front, one lock: buckets │ ready dispatches]
//!                          │ size flush: the submit that filled the index's
//!                          │   lanes
//!                          │ frame flush: the end of a `submit_all`
//!                          │ deadline flush: a worker, before it pops
//!                          ▼
//!                       workers (N threads) pop the oldest ready dispatch
//!                          │  lanes → sort → host walk
//!                          │  (metered: §4.4 profile)
//!                          ▼
//!                       answers ready → tickets resolve
//! ```
//!
//! `submit` files its query into its index's one bucket under the front
//! lock; the bucket is the dispatch it will become — its lanes are the
//! index's distinct pending positions, and the call that fills it takes it
//! out into the front's ready queue under the same lock (`batcher.rs`). A
//! client's batch (`submit_all`, a `BatchSubmit` frame) is filed as one
//! unit, under one lock, and takes every index it touched out when it
//! ends: it is a batch already, and the deadline exists to gather single
//! submits into one. The front is the only queue. A worker moves the
//! buckets that are due into it, pops the oldest dispatch, asks each
//! query's op on its lane and runs the index outside the lock; with
//! nothing to run it sleeps no later than the earliest bucket deadline.
//! Backpressure: a submit whose flush leaves more than `dispatch_capacity`
//! dispatches queued waits for room, the front lock released meanwhile.
//! Shutdown closes the front and flushes every bucket into the queue; the
//! workers drain it and exit, and every in-flight ticket resolves before
//! `shutdown` returns.

use crate::batcher::{BatchEntry, Batcher, ReadyBatch};
use crate::epoch::{EpochEvent, EpochStats, MutateError, Mutation, MutationAck};
use crate::index::{BatchOutcome, FusedLane, ShardVisit, TreeIndex};
use crate::metrics::{BatchRecord, KindDropped, Metrics, MetricsSnapshot};
use crate::policy::ExecPolicy;
use crate::query::{BatchKey, IndexId, Query, QueryResult};
use crate::slowlog::{QueryRecord, SlowLog, SLOW_LOG_PERCENTILE};
use crate::trace::{EventKind, TraceContext, TraceRecorder, TraceSnapshot, NO_ID};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a submission or a query failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query named an index that was never registered.
    UnknownIndex(IndexId),
    /// The query position's length does not match the index dimension.
    DimMismatch {
        /// The registered index dimension.
        expected: usize,
        /// The submitted position length.
        got: usize,
    },
    /// Parameters the kernels cannot run (`k == 0`, non-finite radius or
    /// position).
    BadQuery(&'static str),
    /// The service is shutting down and no longer accepts queries.
    ShuttingDown,
    /// Admission control predicts the queue wait would exceed the
    /// configured latency budget; the query was rejected instead of
    /// stalling the caller indefinitely.
    Overloaded {
        /// Modeled queue wait at submission time (EWMA batch service time
        /// × queued batches ahead).
        predicted_wait: Duration,
        /// The configured admission budget the prediction exceeded.
        budget: Duration,
    },
    /// The batch failed: its kernel panicked, or its answers missed lanes.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownIndex(id) => write!(f, "unknown index {id}"),
            ServiceError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: index is {expected}-d, position is {got}-d"
                )
            }
            ServiceError::BadQuery(why) => write!(f, "bad query: {why}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Overloaded {
                predicted_wait,
                budget,
            } => write!(
                f,
                "overloaded: predicted queue wait {:.3} ms exceeds budget {:.3} ms",
                predicted_wait.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            ServiceError::Internal(why) => write!(f, "internal: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Batch size target (rounded up to a warp multiple by the batcher).
    pub batch_queries: usize,
    /// Max time a query waits in a partial bucket before a free worker flushes it.
    pub max_wait: Duration,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Dispatch queue capacity (ready batches waiting for a worker): a
    /// `submit` whose push flushed a batch waits while more than this many
    /// are queued.
    pub dispatch_capacity: usize,
    /// Per-batch execution policy (sort, meter, profile, backend override).
    pub policy: ExecPolicy,
    /// Lifecycle-event ring capacity for the trace recorder (newest events
    /// win; 0 disables tracing).
    pub trace_capacity: usize,
    /// Latency-budget admission control. `Some(budget)` rejects a
    /// submission with [`ServiceError::Overloaded`] when the modeled queue
    /// wait (EWMA batch service time × batches queued ahead, fed from the
    /// metrics registry) exceeds `budget`, instead of stalling the caller
    /// on backpressure. `None` (the default) admits everything.
    pub admission_budget: Option<Duration>,
    /// Slow-query flight-recorder ring capacity (committed records
    /// retained; 0 disables tail sampling). A query slower than the
    /// rolling [`SLOW_LOG_PERCENTILE`] of the live latency
    /// histogram is committed with full forensics.
    pub slow_log_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_queries: 256,
            max_wait: Duration::from_millis(2),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            dispatch_capacity: 8,
            policy: ExecPolicy::default(),
            trace_capacity: 8192,
            admission_budget: None,
            slow_log_capacity: 256,
        }
    }
}

/// A completion callback registered on a [`Ticket`]: invoked exactly once
/// with the query's result, on the worker thread that resolved it.
pub type CompletionFn = Box<dyn FnOnce(Result<QueryResult, ServiceError>) + Send + 'static>;

/// Ticket completion state machine.
///
/// ```text
///            resolve                    resolve
/// Pending ───────────▶ Done     Waker ───────────▶ Done (+ callback fires)
///    │ on_complete       ▲                            │ on_complete
///    ▼                   │ resolve                    ▼ (fires immediately)
///  Waker ────────────────┘                          Done
/// ```
///
/// `Done` always retains the result, so `wait`/`try_get` keep working even
/// after a callback delivered it — the network front-end registers a waker
/// per query while tests and sequential callers still block.
enum TicketState {
    /// No result, no waiter registered.
    Pending,
    /// No result yet; a callback is registered to fire on resolution.
    Waker(CompletionFn),
    /// Resolved; the result stays readable.
    Done(Result<QueryResult, ServiceError>),
}

/// A ticket's state, and how many threads are parked on its condvar: a
/// resolution wakes them only when there are some, so the common case —
/// nobody waits, or a waker fires — makes no wake-up call.
struct Slot {
    state: TicketState,
    parked: u32,
}

struct TicketInner {
    slot: Mutex<Slot>,
    cv: Condvar,
}

/// Completion handle for one submitted query.
///
/// Supports three consumption styles: blocking ([`Ticket::wait`]), bounded
/// blocking ([`Ticket::wait_timeout`]), and asynchronous
/// ([`Ticket::on_complete`] registers a waker callback so one connection
/// task can multiplex completions for thousands of in-flight queries
/// without a thread per query).
#[derive(Clone)]
pub struct Ticket(Arc<TicketInner>);

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.try_get() {
            None => "pending",
            Some(Ok(_)) => "resolved",
            Some(Err(_)) => "failed",
        };
        f.debug_tuple("Ticket").field(&state).finish()
    }
}

impl Ticket {
    fn new() -> Self {
        Ticket(Arc::new(TicketInner {
            slot: Mutex::new(Slot {
                state: TicketState::Pending,
                parked: 0,
            }),
            cv: Condvar::new(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.0.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sleep on the condvar until woken, spuriously or not, or for at most
    /// `timeout`, counted in `parked` meanwhile.
    fn park<'a>(
        &self,
        mut slot: MutexGuard<'a, Slot>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Slot> {
        slot.parked += 1;
        let mut slot = match timeout {
            None => self.0.cv.wait(slot).unwrap_or_else(|e| e.into_inner()),
            Some(t) => {
                (self.0.cv.wait_timeout(slot, t))
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        };
        slot.parked -= 1;
        slot
    }

    fn resolve(&self, r: Result<QueryResult, ServiceError>) {
        let mut slot = self.lock();
        let fire = match std::mem::replace(&mut slot.state, TicketState::Pending) {
            TicketState::Pending => {
                slot.state = TicketState::Done(r);
                None
            }
            TicketState::Waker(callback) => {
                // The one copy a resolution makes: `Done` keeps the result
                // readable after the callback consumed its own.
                slot.state = TicketState::Done(r.clone());
                Some((callback, r))
            }
            // First resolution wins; put it back.
            TicketState::Done(first) => {
                slot.state = TicketState::Done(first);
                return;
            }
        };
        if slot.parked > 0 {
            self.0.cv.notify_all();
        }
        // Fire outside the lock: the callback may take arbitrary locks of
        // its own (the net writer channel, a batch aggregator) and must
        // never deadlock against `wait`. A panicking callback is the
        // caller's fault, not the resolving worker's: the result is
        // already `Done`, and the worker goes on to the next query.
        drop(slot);
        if let Some((callback, r)) = fire {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| callback(r)));
        }
    }

    /// Register a completion callback. If the result already arrived the
    /// callback fires immediately on the calling thread; otherwise it
    /// fires exactly once on the resolving worker thread. A second
    /// registration replaces an unfired first one (the replaced callback
    /// is dropped without firing).
    pub fn on_complete(
        &self,
        callback: impl FnOnce(Result<QueryResult, ServiceError>) + Send + 'static,
    ) {
        let mut slot = self.lock();
        match &slot.state {
            TicketState::Done(r) => {
                let r = r.clone();
                drop(slot);
                callback(r);
            }
            TicketState::Pending | TicketState::Waker(_) => {
                slot.state = TicketState::Waker(Box::new(callback));
            }
        }
    }

    /// Block until the result arrives. Loops on the condvar, re-checking
    /// state on every wake — spurious wakeups never return early.
    pub fn wait(&self) -> Result<QueryResult, ServiceError> {
        let mut slot = self.lock();
        loop {
            if let TicketState::Done(r) = &slot.state {
                return r.clone();
            }
            slot = self.park(slot, None);
        }
    }

    /// Block until the result arrives or `timeout` elapses; `None` on
    /// timeout (the ticket stays valid — a later `wait` or `try_get` can
    /// still collect the result). The deadline is absolute: spurious
    /// wakeups re-check state and keep waiting for the *remaining* time
    /// rather than restarting the full timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResult, ServiceError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.lock();
        loop {
            if let TicketState::Done(r) = &slot.state {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Loop re-checks: a timeout wake with a result present still
            // returns the result; a spurious wake re-arms the wait.
            slot = self.park(slot, Some(deadline - now));
        }
    }

    /// The result, if it has already arrived.
    pub fn try_get(&self) -> Option<Result<QueryResult, ServiceError>> {
        match &self.lock().state {
            TicketState::Done(r) => Some(r.clone()),
            _ => None,
        }
    }
}

/// In-flight depth gauge: incremented when a submission is accepted,
/// decremented when its tag drops (just before ticket resolution, on
/// success and failure alike), so the admission model's queue depth can
/// never leak.
struct DepthGuard(Arc<AtomicI64>);

impl DepthGuard {
    fn acquire(depth: &Arc<AtomicI64>) -> Self {
        depth.fetch_add(1, Ordering::Relaxed);
        DepthGuard(Arc::clone(depth))
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A query as every sink names it: its trace query id, its propagated
/// trace context, and when it was submitted.
#[derive(Clone, Copy)]
struct Origin {
    query: u64,
    ctx: TraceContext,
    submitted: Instant,
}

/// Payload riding each batched query: its origin, its ticket, and the
/// depth guard keeping the admission gauge honest.
struct Tag {
    origin: Origin,
    ticket: Ticket,
    _depth: DepthGuard,
}

/// The one queue between `submit` and the workers: the buckets and the
/// dispatches ready for a worker, under one lock. Submitters file queries
/// in; a submit that fills an index, the end of a frame, a worker finding
/// buckets due and `close` move batches into the ready queue; workers pop
/// it.
struct Front {
    state: Mutex<FrontState>,
    /// Idle workers wait here: woken one per dispatch made ready, and all
    /// at once by the push that creates the first bucket (each re-arms
    /// towards its deadline) and by the close.
    work: Condvar,
    /// Flushing submitters wait here for the ready queue to drop to
    /// `capacity`, or for the close.
    room: Condvar,
    /// `ServiceConfig::dispatch_capacity`.
    capacity: usize,
}

struct FrontState {
    batcher: Batcher<Tag>,
    /// Dispatches waiting for a worker, oldest first.
    ready: VecDeque<ReadyBatch<Tag>>,
    /// Whether the front takes queries; `false` once closed.
    open: bool,
}

impl Front {
    fn lock(&self) -> MutexGuard<'_, FrontState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Backpressure: wait while more than `capacity` dispatches are
    /// queued, holding no lock meanwhile, or until the close.
    fn wait_for_room(&self) {
        let mut state = self.lock();
        while state.open && state.ready.len() > self.capacity {
            state = self.room.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Shared {
    indices: RwLock<Vec<Arc<dyn TreeIndex>>>,
    metrics: Metrics,
    trace: TraceRecorder,
    slow_log: SlowLog,
    policy: ExecPolicy,
    /// Queries accepted but not yet resolved (the admission model's queue
    /// depth).
    depth: Arc<AtomicI64>,
}

impl Shared {
    fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed).max(0) as u64
    }

    fn indices(&self) -> RwLockReadGuard<'_, Vec<Arc<dyn TreeIndex>>> {
        self.indices.read().unwrap_or_else(|e| e.into_inner())
    }
}

/// Registry snapshot with the trace recorder's and slow log's counters
/// stitched in — the registry cannot see either, so every public snapshot
/// path routes through here.
fn stitched_snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut s = shared.metrics.snapshot();
    s.trace_dropped = shared.trace.dropped();
    s.trace_dropped_by_kind = shared
        .trace
        .dropped_by_kind()
        .into_iter()
        .map(|(kind, dropped)| KindDropped {
            kind: kind.to_string(),
            dropped,
        })
        .collect();
    let sl = shared.slow_log.stats();
    s.slow_log_committed = sl.committed;
    s.slow_log_evicted = sl.evicted;
    // Every in-flight query is one the log may still commit.
    s.slow_log_pending = match shared.slow_log.capacity() {
        0 => 0,
        _ => shared.depth(),
    };
    s.slow_log_entries = sl.entries;
    s.slow_log_threshold_us = sl.threshold_us;
    s
}

/// Stable short tag for a rejection reason (trace `args.reason`).
fn reject_reason(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::UnknownIndex(_) => "unknown-index",
        ServiceError::DimMismatch { .. } => "dim-mismatch",
        ServiceError::BadQuery(_) => "bad-query",
        ServiceError::ShuttingDown => "shutting-down",
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::Internal(_) => "internal",
    }
}

/// End a query refused at submission: its record, through [`finish`], and
/// no ticket. Returns the error for the caller.
fn refuse(
    shared: &Shared,
    origin: Origin,
    index: IndexId,
    op: &'static str,
    err: ServiceError,
) -> ServiceError {
    let found = shared.indices().get(index).cloned();
    let unknown = || Cow::Owned(format!("index-{index}"));
    let name = (found.as_ref()).map_or_else(unknown, |i| i.name().into());
    let end = End {
        origin,
        index: &name,
        op,
        ride: None,
        reason: Some(reject_reason(&err)),
        ended: Instant::now(),
    };
    finish(shared, end, None);
    err
}

/// A query past validation and admission, with its ticket in its tag, on
/// its way into its bucket.
struct Admitted {
    key: BatchKey,
    entry: BatchEntry<Tag>,
}

/// The dispatch a query rode in: `out` is what the index answered with
/// (`None`: the dispatch failed), `epoch` its epoch window, and
/// `threshold_us` the rolling slow-log threshold its answers are judged by.
struct Ride<'a> {
    id: u64,
    dispatched: Instant,
    out: Option<&'a BatchOutcome>,
    epoch: Option<EpochStats>,
    threshold_us: u64,
}

/// How one query ended, at `ended`: answered (`reason` is `None`), or
/// failed with the dispatch it rode in, or refused at submission (`ride`
/// is `None`). Its [`QueryRecord`] is built from this.
struct End<'a> {
    origin: Origin,
    index: &'a str,
    op: &'static str,
    ride: Option<&'a Ride<'a>>,
    reason: Option<&'static str>,
    ended: Instant,
}

impl End<'_> {
    /// The one [`QueryRecord`] constructor, with the slow log's verdict on
    /// the latency; `index` and `shard_visits` are borrowed, or copies for
    /// the record the slow log keeps.
    fn record<'o>(
        &self,
        trace: &TraceRecorder,
        (latency_us, outcome, threshold_us): (u64, &'static str, u64),
        index: Cow<'o, str>,
        shard_visits: Cow<'o, [ShardVisit]>,
    ) -> QueryRecord<'o> {
        let (origin, ride) = (self.origin, self.ride);
        let (out, epoch) = (ride.and_then(|r| r.out), ride.and_then(|r| r.epoch));
        let us = |d: Duration| d.as_micros() as u64;
        QueryRecord {
            query: origin.query,
            trace_id: origin.ctx.trace_id,
            span_id: origin.ctx.span_id,
            index,
            op: self.op,
            outcome,
            reason: self.reason,
            backend: out.map(|o| o.backend.name()),
            batch: ride.map(|r| r.id),
            submitted_us: trace.us_of(origin.submitted),
            queue_wait_us: us(ride.map_or(self.ended, |r| r.dispatched) - origin.submitted),
            exec_us: ride.map_or(0, |r| us(self.ended - r.dispatched)),
            latency_us,
            threshold_us,
            node_visits: out.map_or(0, |o| o.node_visits),
            metered: out.is_some_and(|o| o.metered),
            stack_bytes_peak: out.map_or(0, |o| o.stack_bytes_peak),
            shards_pruned: out.map_or(0, |o| o.shards_pruned),
            shard_visits,
            epoch: epoch.map(|s| s.epoch),
            pending_deltas: epoch.map(|s| s.pending),
        }
    }
}

/// Where every query ends, and the one place its end is written: the
/// metrics, the trace event (a `Complete` span or a `Reject` instant) and
/// the slow log all read one [`QueryRecord`]. An answer commits when the
/// tail sampler keeps it, a refusal or a failure always. Then the depth
/// guard drops and the ticket, if one was issued, resolves.
fn finish(shared: &Shared, end: End<'_>, tag: Option<(Tag, Result<QueryResult, ServiceError>)>) {
    let (trace, log, metrics) = (&shared.trace, &shared.slow_log, &shared.metrics);
    // Submit to end: the `Complete` span's length, and the latency sample.
    let latency = end.ended - end.origin.submitted;
    let latency_us = latency.as_micros() as u64;
    let (keep, outcome, threshold_us) = match (end.reason, end.ride) {
        (None, Some(ride)) => log.decide(latency_us, ride.threshold_us),
        _ => (log.capacity() > 0, "rejected", log.stats().threshold_us),
    };
    let judged = (latency_us, outcome, threshold_us);
    let visits: &[ShardVisit] = (end.ride.and_then(|r| r.out)).map_or(&[], |o| &o.shard_visits);
    let r = end.record(trace, judged, end.index.into(), visits.into());
    let (query, batch, trace_id) = (r.query, r.batch.unwrap_or(NO_ID), r.trace_id);
    match r.reason {
        None => {
            metrics.on_complete(&r.index, latency, query, trace_id);
            let kind = EventKind::Complete;
            trace.span_traced(r.submitted_us, r.latency_us, query, batch, trace_id, kind);
        }
        Some(reason) => {
            match (reason, end.ride) {
                ("overloaded", _) => metrics.on_admission_reject(),
                // Accepted, never answered: counted, so the registry balances.
                (_, Some(_)) => metrics.on_fail(1),
                (_, None) => metrics.on_reject(),
            }
            let (ts_us, kind) = (r.submitted_us + r.latency_us, EventKind::Reject { reason });
            trace.instant_traced(ts_us, query, batch, trace_id, kind);
        }
    }
    if keep {
        let (index, visits) = (end.index.to_owned().into(), visits.to_vec().into());
        log.commit(end.record(trace, judged, index, visits));
    }
    if let Some((Tag { ticket, _depth, .. }, result)) = tag {
        // Depth guard drops *before* the ticket resolves, so a caller
        // observing completion never sees a stale depth (the admission
        // model would reject spuriously).
        drop(_depth);
        ticket.resolve(result);
    }
}

/// The batched traversal query service. See the module docs for the
/// pipeline shape.
pub struct Service {
    shared: Arc<Shared>,
    front: Arc<Front>,
    workers: Vec<JoinHandle<()>>,
    admission_budget: Option<Duration>,
}

impl Service {
    /// Start the worker pool.
    pub fn start(config: ServiceConfig) -> Service {
        let shared = Arc::new(Shared {
            indices: RwLock::new(Vec::new()),
            metrics: Metrics::default(),
            trace: TraceRecorder::new(config.trace_capacity),
            slow_log: SlowLog::new(config.slow_log_capacity),
            policy: config.policy.clone(),
            depth: Arc::new(AtomicI64::new(0)),
        });
        let front = Arc::new(Front {
            state: Mutex::new(FrontState {
                batcher: Batcher::new(config.batch_queries, config.max_wait),
                ready: VecDeque::new(),
                open: true,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity: config.dispatch_capacity.max(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let (front, shared) = (Arc::clone(&front), Arc::clone(&shared));
                std::thread::Builder::new()
                    .name(format!("gts-service-worker-{i}"))
                    .spawn(move || worker_loop(&front, &shared))
                    .expect("spawn worker")
            })
            .collect();

        Service {
            shared,
            front,
            workers,
            admission_budget: config.admission_budget,
        }
    }

    /// Register an index; queries name it by the returned id.
    pub fn register_index(&self, index: Arc<dyn TreeIndex>) -> IndexId {
        // Route the index's merges into the service's metrics and trace
        // (`Service::mutate` records the mutation batches). `Weak` breaks
        // the cycle Shared → indices → observer → Shared.
        let weak = Arc::downgrade(&self.shared);
        index.attach_epoch_observer(Arc::new(move |merge: &EpochEvent| {
            let Some(shared) = weak.upgrade() else { return };
            (shared.metrics).on_epoch_merge(
                merge.epoch,
                merge.dur,
                merge.flushed,
                merge.pending_after,
            );
            let trace = &shared.trace;
            let dur_us = merge.dur.as_micros() as u64;
            trace.span(
                trace.now_us().saturating_sub(dur_us),
                dur_us,
                NO_ID,
                NO_ID,
                EventKind::EpochMerge {
                    epoch: merge.epoch,
                    rebuilt: merge.rebuilt,
                    flushed: merge.flushed.min(u32::MAX as u64) as u32,
                },
            );
        }));
        let mut indices = self
            .shared
            .indices
            .write()
            .unwrap_or_else(|e| e.into_inner());
        indices.push(index);
        indices.len() - 1
    }

    /// Apply a mutation batch to a registered [`MutableIndex`]
    /// (`crate::MutableIndex`). Inserts are dimension- and
    /// finiteness-checked against the index up front; the whole batch is
    /// refused on a bad one (never half-applied). Returns the index's
    /// acknowledgement: ids assigned to inserts, the epoch the batch
    /// landed on, and the pending delta depth.
    pub fn mutate(&self, index: IndexId, muts: &[Mutation]) -> Result<MutationAck, ServiceError> {
        if !self.front.lock().open {
            return Err(ServiceError::ShuttingDown);
        }
        let idx =
            (self.shared.indices().get(index).cloned()).ok_or(ServiceError::UnknownIndex(index))?;
        for m in muts {
            if let Mutation::Insert { pos } = m {
                if pos.len() != idx.dim() {
                    return Err(ServiceError::DimMismatch {
                        expected: idx.dim(),
                        got: pos.len(),
                    });
                }
                if !pos.iter().all(|v| v.is_finite()) {
                    return Err(ServiceError::BadQuery("non-finite insert position"));
                }
            }
        }
        let ack = idx.mutate(muts).map_err(|e| match e {
            MutateError::Immutable => ServiceError::BadQuery("index does not accept mutations"),
            MutateError::Closed => ServiceError::ShuttingDown,
            MutateError::DimMismatch { expected, got } => {
                ServiceError::DimMismatch { expected, got }
            }
            MutateError::BadPosition => ServiceError::BadQuery("non-finite insert position"),
        })?;
        self.shared.metrics.on_mutation(ack.accepted, ack.pending);
        let trace = &self.shared.trace;
        trace.instant(
            trace.now_us(),
            NO_ID,
            NO_ID,
            EventKind::Mutate {
                accepted: ack.accepted.min(u32::MAX as u64) as u32,
                pending: ack.pending.min(u32::MAX as u64) as u32,
            },
        );
        Ok(ack)
    }

    /// Epoch counters of a registered index: `Ok(Some(_))` for a mutable
    /// index, `Ok(None)` for a static one.
    pub fn epoch_stats(&self, index: IndexId) -> Result<Option<EpochStats>, ServiceError> {
        (self.shared.indices().get(index))
            .map(|idx| idx.epoch_stats())
            .ok_or(ServiceError::UnknownIndex(index))
    }

    /// Submit a query; returns a [`Ticket`] that resolves to the result.
    /// The query is in its batch when this returns. The call whose query
    /// fills a batch also queues it for a worker, and blocks while more
    /// than `dispatch_capacity` dispatches are queued (backpressure).
    pub fn submit(&self, query: Query) -> Result<Ticket, ServiceError> {
        let admitted = self.admit(query, TraceContext::LOCAL)?;
        let ticket = admitted.entry.tag.ticket.clone();
        self.file([admitted], false)?;
        Ok(ticket)
    }

    /// Submit a client's batch (a `BatchSubmit` frame) as one unit, every
    /// lifecycle event of its queries stamped with `ctx.trace_id` so a
    /// merged client+server Chrome trace joins across the wire. Each
    /// query is validated, admission-checked and given a ticket, or
    /// refused, as [`Service::submit`] would; the accepted ones go
    /// into their buckets under one front lock, and every index the batch
    /// touched leaves when it ends — the batch is already the client's, so
    /// nothing waits for `max_wait`. One result per query, in order; on a
    /// closed service every query is refused with
    /// [`ServiceError::ShuttingDown`].
    pub fn submit_all(
        &self,
        queries: Vec<Query>,
        ctx: TraceContext,
    ) -> Vec<Result<Ticket, ServiceError>> {
        if !ctx.is_local() {
            self.shared.metrics.on_propagated(queries.len() as u64);
        }
        let mut admitted = Vec::with_capacity(queries.len());
        let mut tickets: Vec<Result<Ticket, ServiceError>> = (queries.into_iter())
            .map(|query| {
                let a = self.admit(query, ctx)?;
                let ticket = a.entry.tag.ticket.clone();
                admitted.push(a);
                Ok(ticket)
            })
            .collect();
        if let Err(closed) = self.file(admitted, true) {
            (tickets.iter_mut().filter(|t| t.is_ok())).for_each(|t| *t = Err(closed.clone()));
        }
        tickets
    }

    /// Validate and admission-check one query and give it a ticket. A
    /// refused query ends here, without a ticket.
    fn admit(&self, query: Query, ctx: TraceContext) -> Result<Admitted, ServiceError> {
        let shared = &*self.shared;
        let trace = &shared.trace;
        let origin = Origin {
            query: trace.next_query_id(),
            ctx,
            submitted: Instant::now(),
        };
        let index = query.index;
        let op = query.kind.op_key().map_or("invalid", |op| op.family().0);
        let key = (self.validate(&query)).map_err(|err| refuse(shared, origin, index, op, err))?;
        // Latency-budget admission: reject up front when the modeled wait
        // already exceeds the budget, rather than parking the caller on a
        // full queue it will regret.
        if let Some(budget) = self.admission_budget {
            let predicted = shared.metrics.predicted_wait(shared.depth());
            let accepted = predicted <= budget;
            trace.instant_traced(
                trace.now_us(),
                origin.query,
                NO_ID,
                ctx.trace_id,
                EventKind::Admission {
                    accepted,
                    predicted_us: predicted.as_micros() as u64,
                    budget_us: budget.as_micros() as u64,
                },
            );
            if !accepted {
                let err = ServiceError::Overloaded {
                    predicted_wait: predicted,
                    budget,
                };
                return Err(refuse(shared, origin, index, op, err));
            }
        }
        let tag = Tag {
            origin,
            ticket: Ticket::new(),
            _depth: DepthGuard::acquire(&shared.depth),
        };
        let pos = query.pos;
        Ok(Admitted {
            key,
            entry: BatchEntry { pos, tag },
        })
    }

    /// File admitted queries into their indices' buckets under one front
    /// lock. A push that fills its bucket flushes it into the ready queue,
    /// as always; a `frame` also flushes every index it touched when it
    /// ends. A call that flushed then waits for room
    /// ([`Front::wait_for_room`]). On a closed front every query is
    /// refused with [`ServiceError::ShuttingDown`].
    fn file<A>(&self, admitted: A, frame: bool) -> Result<(), ServiceError>
    where
        A: AsRef<[Admitted]> + IntoIterator<Item = Admitted>,
    {
        let shared = &*self.shared;
        let trace = &shared.trace;
        // Record Enqueue *before* the push: once a query is in its bucket
        // another thread may flush it and a worker record its Complete,
        // and the ring numbers events in record order. When the close won
        // the race the optimistic events stay in the trace, followed by
        // the Reject that tells the true outcome.
        let enqueued_us = trace.now_us();
        trace.instants_traced(admitted.as_ref().iter().flat_map(|a| {
            let Origin { query, ctx, .. } = a.entry.tag.origin;
            let submitted_us = trace.us_of(a.entry.tag.origin.submitted);
            [
                (submitted_us, query, ctx.trace_id, EventKind::Submit),
                (enqueued_us, query, ctx.trace_id, EventKind::Enqueue),
            ]
        }));
        let mut front = self.front.lock();
        if !front.open {
            // The close raced the submission: no query ran.
            drop(front);
            for Admitted { key, entry } in admitted {
                let (index, op) = (key.index, key.op.family().0);
                refuse(
                    shared,
                    entry.tag.origin,
                    index,
                    op,
                    ServiceError::ShuttingDown,
                );
            }
            return Err(ServiceError::ShuttingDown);
        }
        let FrontState { batcher, ready, .. } = &mut *front;
        let (first, queued) = (batcher.pending() == 0, ready.len());
        let accepted = admitted.as_ref().len() as u64;
        let mut touched = Vec::new();
        for Admitted { key, entry } in admitted {
            if frame && !touched.contains(&key.index) {
                touched.push(key.index);
            }
            // The bucket ages from `submitted`, read before the lock: two
            // racing submitters may create buckets a hair out of deadline
            // order, which costs the younger deadline that hair.
            let submitted = entry.tag.origin.submitted;
            ready.extend(batcher.push(key, entry, submitted));
        }
        ready.extend((touched.iter()).filter_map(|&index| batcher.flush_index(index)));
        // A frame leaves nothing of its own behind, so only a lone query
        // can leave the first bucket, whose deadline every idle worker
        // must re-arm towards.
        let first_bucket = first && batcher.pending() > 0;
        let flushed = ready.len() - queued;
        let full = flushed > 0 && ready.len() > self.front.capacity;
        drop(front);
        if first_bucket {
            self.front.work.notify_all();
        }
        (0..flushed).for_each(|_| self.front.work.notify_one());
        shared.metrics.on_submit(accepted);
        if full {
            self.front.wait_for_room();
        }
        Ok(())
    }

    /// Submit and wait — convenience for sequential callers.
    pub fn query(&self, query: Query) -> Result<QueryResult, ServiceError> {
        self.submit(query)?.wait()
    }

    /// Current metrics (trace-drop and slow-log counters stitched in).
    pub fn metrics(&self) -> MetricsSnapshot {
        stitched_snapshot(&self.shared)
    }

    /// The slow-query flight recorder.
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slow_log
    }

    /// The live metrics registry — front-ends (the TCP server) record
    /// their own counters (connections, frames, protocol errors) here so
    /// one snapshot covers the full path.
    pub fn metrics_registry(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The live trace recorder — front-ends thread their own lifecycle
    /// events (accept, frame decode) into the same ring the service's
    /// batch and query events land in.
    pub fn tracer(&self) -> &TraceRecorder {
        &self.shared.trace
    }

    /// Queries accepted but not yet resolved — the queue depth the
    /// admission model multiplies by the EWMA batch service time.
    pub fn queue_depth(&self) -> u64 {
        self.shared.depth()
    }

    /// Current trace ring contents (see [`TraceSnapshot::to_chrome_json`]
    /// for the Perfetto export).
    pub fn trace(&self) -> TraceSnapshot {
        self.shared.trace.snapshot()
    }

    /// Stop accepting new queries without consuming the service — the
    /// mid-stream shutdown edge. Subsequent `submit` calls return
    /// [`ServiceError::ShuttingDown`]; every query accepted *before* the
    /// close still drains and resolves its ticket (call [`Service::shutdown`]
    /// to join the threads and collect final metrics). Submitters racing
    /// with the close either get their query accepted (it was in a bucket
    /// before the close took the lock) or a clean `ShuttingDown` error —
    /// never a lost ticket. Never waits on a full queue: it marks the
    /// front closed, flushes every bucket into the ready queue and wakes
    /// every worker and every submitter waiting for room.
    pub fn close(&self) {
        let mut front = self.front.lock();
        if front.open {
            front.open = false;
            let FrontState { batcher, ready, .. } = &mut *front;
            ready.extend(batcher.flush_all());
        }
        drop(front);
        self.front.work.notify_all();
        self.front.room.notify_all();
        // Drain every mutable index's merge machinery: pending deltas
        // flush into a final merge and later mutations are rejected
        // deterministically — never silently dropped. Queries in flight
        // (and the drain below, for `shutdown`) still answer correctly
        // against the fully merged state.
        let indices = self.shared.indices().clone();
        for idx in indices {
            idx.quiesce();
        }
    }

    /// Stop accepting queries, drain everything in flight, join all
    /// threads, and return the final metrics. Every ticket issued before
    /// the call resolves before this returns.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        stitched_snapshot(&self.shared)
    }

    /// [`Service::shutdown`], also returning the final trace ring — the
    /// pair harness tools write to `--metrics-file`/`--trace-file`.
    pub fn shutdown_with_trace(mut self) -> (MetricsSnapshot, TraceSnapshot) {
        self.drain();
        (
            stitched_snapshot(&self.shared),
            self.shared.trace.snapshot(),
        )
    }

    fn drain(&mut self) {
        // The residual buckets go into the ready queue, and each worker
        // exits once the front is closed and the queue empty.
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn validate(&self, query: &Query) -> Result<BatchKey, ServiceError> {
        let op = query.kind.op_key().ok_or(ServiceError::BadQuery(
            "k must be ≥ 1 and radius a finite non-negative number",
        ))?;
        if !query.pos.iter().all(|v| v.is_finite()) {
            return Err(ServiceError::BadQuery("non-finite query position"));
        }
        let indices = self.shared.indices();
        let index = (indices.get(query.index)).ok_or(ServiceError::UnknownIndex(query.index))?;
        if index.dim() != query.pos.len() {
            return Err(ServiceError::DimMismatch {
                expected: index.dim(),
                got: query.pos.len(),
            });
        }
        Ok(BatchKey {
            index: query.index,
            op,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A worker: under the front lock, move the buckets that are due into the
/// ready queue, pop the oldest dispatch and run it outside the lock; with
/// nothing to run, sleep no later than the earliest bucket deadline; exit
/// once the front is closed and the queue empty. Size and frame flushes
/// are the submitters' own.
fn worker_loop(front: &Front, shared: &Shared) {
    let mut state = front.lock();
    loop {
        let now = Instant::now();
        let FrontState {
            batcher,
            ready,
            open,
        } = &mut *state;
        ready.extend(batcher.flush_due(now));
        if let Some(batch) = ready.pop_front() {
            // Every submitter waiting for room has it now.
            if ready.len() == front.capacity {
                front.room.notify_all();
            }
            drop(state);
            end_dispatch(shared, batch);
            state = front.lock();
        } else if !*open {
            return;
        } else {
            // A bucket created later cannot be due sooner; the push that
            // creates the first one, and the close, cut an untimed sleep
            // short.
            state = match batcher.next_deadline() {
                None => front.work.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(due) => {
                    let wait = front.work.wait_timeout(state, due - now);
                    wait.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }
}

/// Where every dispatch ends: ask each query's op on its lane, run the
/// index over the lanes once, write an answered dispatch's one
/// [`BatchRecord`] ([`record_batch`]), then end each query in [`finish`]
/// with its lane's answer or the dispatch's error.
fn end_dispatch(shared: &Shared, batch: ReadyBatch<Tag>) {
    let dispatched = Instant::now();
    let ReadyBatch {
        id,
        index,
        positions,
        entries,
        ops,
    } = batch;
    let mut lanes: Vec<FusedLane> = positions.into_iter().map(FusedLane::empty).collect();
    (entries.iter()).for_each(|&(_, lane, op)| lanes[lane as usize].ask(op));
    let found = shared.indices().get(index).cloned();
    let misfit = || ServiceError::Internal("answers do not fit the lanes".into());
    // Registration is checked at submit; a missing index is torn-down
    // state only.
    let outcome = (found.as_ref().ok_or(ServiceError::UnknownIndex(index)))
        .and_then(|index| {
            std::panic::catch_unwind(AssertUnwindSafe(|| index.run(&lanes, &shared.policy)))
                .map_err(|_| ServiceError::Internal("kernel panicked".into()))
        })
        // The scatter reads an answer for every op of every lane: an
        // outcome of another shape fails the dispatch the way a panic
        // does, and spares the worker.
        .and_then(|o| o.fits(&lanes).then_some(o).ok_or_else(misfit));
    // The answers are ready: a query's exec and latency end here, before
    // the scatter to the tickets.
    let done = Instant::now();
    let index_name = found.as_ref().map_or("unknown", |i| i.name());
    let out = outcome.as_ref().ok().map(|o| &o.outcome);
    if let Some(outcome) = out {
        let waits = (entries.iter()).map(|(tag, ..)| dispatched - tag.origin.submitted);
        let rec = BatchRecord {
            index: index_name,
            id,
            size: entries.len(),
            lanes: lanes.len(),
            parts: ops.len(),
            ops: ops.iter().fold(0, |mask, (op, _)| mask | op.family().1),
            queue_wait: waits.max().unwrap_or_default(),
            exec: done - dispatched,
            outcome,
        };
        record_batch(shared, &rec, dispatched);
    }
    let ride = Ride {
        id,
        dispatched,
        out,
        epoch: out.and(found.as_ref()).and_then(|i| i.epoch_stats()),
        threshold_us: (shared.metrics).slow_threshold_us(SLOW_LOG_PERCENTILE),
    };
    let reason = outcome.as_ref().err().map(reject_reason);
    for (tag, lane, op) in entries {
        let lane = lane as usize;
        let result = match &outcome {
            Ok(o) => Ok((o.lanes[lane].answer(&lanes[lane], op))
                .expect("the outcome's shape was checked")
                .clone()),
            Err(err) => Err(err.clone()),
        };
        let end = End {
            origin: tag.origin,
            index: index_name,
            op: op.family().0,
            ride: Some(&ride),
            reason,
            ended: done,
        };
        finish(shared, end, Some((tag, result)));
    }
}

/// The one place an answered dispatch is written: the metrics' batch
/// series, one `Batch` span from dispatch to answers ready, and a
/// `ShardVisit` span per shard sub-batch.
fn record_batch(shared: &Shared, rec: &BatchRecord<'_>, dispatched: Instant) {
    shared.metrics.on_batch(rec);
    let (trace, out) = (&shared.trace, rec.outcome);
    let (dispatch_us, exec_us) = (trace.us_of(dispatched), rec.exec.as_micros() as u64);
    let kind = EventKind::Batch {
        size: rec.size as u32,
        lanes: rec.lanes as u32,
        parts: u16::try_from(rec.parts).unwrap_or(u16::MAX),
        ops: rec.ops,
        backend: out.backend,
        fused: out.fused_lanes > 0,
        metered: out.metered,
        similarity: out.mean_similarity.map_or(f32::NAN, |s| s as f32),
        node_visits: out.node_visits,
        saved_visits: out.fusion_saved_visits,
        model_ms: out.model_ms as f32,
        work_expansion: out.work_expansion as f32,
        mask_occupancy: out.mask_occupancy as f32,
    };
    trace.span(dispatch_us, exec_us, NO_ID, rec.id, kind);
    for v in &out.shard_visits {
        let (shard, round, queries, node_visits) = (v.shard, v.round, v.queries, v.node_visits);
        let kind = EventKind::ShardVisit {
            shard,
            round,
            queries,
            node_visits,
        };
        trace.span(dispatch_us + v.offset_us, v.dur_us, NO_ID, rec.id, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    fn nn_result(dist2: f32) -> QueryResult {
        QueryResult::Nn { id: 0, dist2 }
    }

    #[test]
    fn wait_timeout_expires_then_collects_a_late_result() {
        let t = Ticket::new();
        let start = Instant::now();
        assert!(t.wait_timeout(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The ticket stays valid after a timeout.
        t.resolve(Ok(nn_result(1.0)));
        assert!(matches!(
            t.wait_timeout(Duration::from_millis(1)),
            Some(Ok(QueryResult::Nn { .. }))
        ));
    }

    #[test]
    fn wait_timeout_returns_early_when_resolved_concurrently() {
        let t = Ticket::new();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            t2.resolve(Ok(nn_result(2.0)));
        });
        let start = Instant::now();
        let got = t.wait_timeout(Duration::from_secs(30));
        assert!(matches!(got, Some(Ok(QueryResult::Nn { .. }))));
        assert!(start.elapsed() < Duration::from_secs(30));
        h.join().unwrap();
    }

    #[test]
    fn completion_before_wait_returns_immediately() {
        let t = Ticket::new();
        t.resolve(Ok(nn_result(3.0)));
        // All three consumption styles see the already-present result.
        assert!(matches!(t.try_get(), Some(Ok(QueryResult::Nn { .. }))));
        assert!(matches!(t.wait(), Ok(QueryResult::Nn { .. })));
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        t.on_complete(move |r| {
            assert!(r.is_ok());
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1, "fires on calling thread");
    }

    #[test]
    fn drop_without_wait_is_clean() {
        // Dropping an unread ticket must not panic, leak a waiter, or
        // block the resolving side.
        let t = Ticket::new();
        drop(t.clone());
        t.resolve(Ok(nn_result(4.0)));
        drop(t);

        // And dropping before resolution: the worker-side clone resolves
        // into the void without error.
        let t = Ticket::new();
        let worker = t.clone();
        drop(t);
        worker.resolve(Ok(nn_result(5.0)));
    }

    #[test]
    fn first_resolution_wins() {
        let t = Ticket::new();
        t.resolve(Ok(nn_result(1.0)));
        t.resolve(Err(ServiceError::ShuttingDown));
        let Ok(QueryResult::Nn { dist2, .. }) = t.wait() else {
            panic!("second resolution overwrote the first");
        };
        assert_eq!(dist2, 1.0);
    }

    #[test]
    fn a_resolution_wakes_every_parked_waiter() {
        let t = Ticket::new();
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| t.wait());
            let timed = scope.spawn(|| t.wait_timeout(Duration::from_secs(30)));
            // Both are on the condvar before the resolution: the count the
            // wake-up reads is the one they keep.
            while t.lock().parked < 2 {
                std::thread::yield_now();
            }
            t.resolve(Ok(nn_result(6.0)));
            assert_eq!(waiting.join().unwrap(), Ok(nn_result(6.0)));
            assert_eq!(timed.join().unwrap(), Some(Ok(nn_result(6.0))));
        });
        assert_eq!(t.lock().parked, 0);
    }

    #[test]
    fn waker_fires_exactly_once_on_resolution() {
        let t = Ticket::new();
        let (tx, rx) = mpsc::channel();
        t.on_complete(move |r| tx.send(r).unwrap());
        assert!(rx.try_recv().is_err(), "not fired before resolution");
        t.resolve(Ok(nn_result(6.0)));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Ok(QueryResult::Nn { .. }))
        ));
        assert!(rx.try_recv().is_err(), "fired exactly once");
        // The result is still readable after the callback consumed a copy.
        assert!(matches!(t.try_get(), Some(Ok(QueryResult::Nn { .. }))));
    }

    #[test]
    fn second_waker_replaces_unfired_first() {
        let t = Ticket::new();
        let (tx1, rx1) = mpsc::channel();
        let (tx2, rx2) = mpsc::channel();
        t.on_complete(move |r| tx1.send(r).unwrap());
        t.on_complete(move |r| tx2.send(r).unwrap());
        t.resolve(Ok(nn_result(7.0)));
        assert!(rx1.try_recv().is_err(), "replaced waker never fires");
        assert!(rx2.recv_timeout(Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn panicking_sub_batch_fails_its_tickets_and_the_worker_serves_the_next_batch() {
        use crate::{Backend, Query, QueryKind, ShardedIndex};
        let pts = gts_points::gen::uniform::<3>(256, 77);
        let index = Arc::new(ShardedIndex::build(
            "boom",
            &pts,
            4,
            8,
            gts_trees::SplitPolicy::MedianCycle,
        ));
        // One worker, and batches that flush on size alone: the batch that
        // trips the failpoint and the batch after it are exactly the two
        // rounds of submissions below, on the same worker thread.
        let service = Service::start(ServiceConfig {
            workers: 1,
            batch_queries: pts.len(),
            max_wait: Duration::from_secs(3600),
            policy: ExecPolicy {
                shard_parallelism: 2,
                ..ExecPolicy::forced(Backend::Cpu)
            },
            ..ServiceConfig::default()
        });
        let id = service.register_index(index.clone());
        // Every point is a query, so every shard is some lane's home.
        let round = || -> Vec<Result<QueryResult, ServiceError>> {
            let tickets: Vec<Ticket> = (pts.iter())
                .map(|p| {
                    let query = Query {
                        index: id,
                        pos: p.0.to_vec(),
                        kind: QueryKind::Nn,
                    };
                    service.submit(query).expect("accepted")
                })
                .collect();
            (tickets.iter())
                .map(|t| {
                    t.wait_timeout(Duration::from_secs(60))
                        .expect("ticket hung on a panicked sub-batch")
                })
                .collect()
        };
        index.arm_failpoint(2);
        for r in round() {
            assert!(matches!(r, Err(ServiceError::Internal(_))), "{r:?}");
        }
        for r in round() {
            assert!(matches!(r, Ok(QueryResult::Nn { .. })), "{r:?}");
        }
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, pts.len() as u64);
        // The failed batch's queries were accepted and resolved with a
        // typed error: they are counted, so the registry balances.
        assert_eq!(snapshot.failed, pts.len() as u64);
        assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
        assert_eq!(snapshot.rejected, 0);
        let text = snapshot.to_prometheus();
        let line = format!("gts_queries_failed_total {}\n", pts.len());
        assert!(text.contains(&line), "{text}");
    }

    #[test]
    fn a_panicking_completion_callback_spares_the_worker() {
        use crate::{KdIndex, Query, QueryKind};
        let pts = gts_points::gen::uniform::<3>(64, 41);
        let index = KdIndex::build("callback", &pts, 8, gts_trees::SplitPolicy::MedianCycle);
        // One worker, and batches that leave on size alone: query A waits
        // in its bucket until the 32nd position joins it, so its callback
        // is registered before anything resolves it.
        let service = Service::start(ServiceConfig {
            workers: 1,
            batch_queries: 32,
            max_wait: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        let id = service.register_index(Arc::new(index));
        let submit = |p: &gts_trees::PointN<3>| {
            let query = Query {
                index: id,
                pos: p.0.to_vec(),
                kind: QueryKind::Nn,
            };
            service.submit(query).expect("accepted")
        };
        let a = submit(&pts[0]);
        a.on_complete(|_| panic!("a completion callback panicked"));
        let rest: Vec<Ticket> = pts[1..32].iter().map(submit).collect();
        let later: Vec<Ticket> = pts[32..].iter().map(submit).collect();
        let hang = Duration::from_secs(60);
        for (name, ticket) in [("A", &a)]
            .into_iter()
            .chain(rest.iter().map(|t| ("A's batch", t)))
        {
            let r = ticket
                .wait_timeout(hang)
                .unwrap_or_else(|| panic!("{name} hung"));
            assert!(matches!(r, Ok(QueryResult::Nn { .. })), "{name}: {r:?}");
        }
        for b in &later {
            let r = b.wait_timeout(hang).expect("B hung");
            assert!(matches!(r, Ok(QueryResult::Nn { .. })), "B: {r:?}");
        }
        let snapshot = service.shutdown();
        assert_eq!(snapshot.submitted, pts.len() as u64);
        assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
        assert_eq!(snapshot.failed, 0);
    }

    #[test]
    fn depth_guard_tracks_acquire_and_drop() {
        let depth = Arc::new(AtomicI64::new(0));
        let a = DepthGuard::acquire(&depth);
        let b = DepthGuard::acquire(&depth);
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        drop(a);
        assert_eq!(depth.load(Ordering::Relaxed), 1);
        drop(b);
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }
}
