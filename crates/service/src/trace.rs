//! Structured lifecycle tracing: a fixed-capacity ring of events,
//! exportable as Chrome trace-event JSON (Perfetto/`chrome://tracing`).
//!
//! Every query and batch moving through the service leaves a trail:
//!
//! ```text
//! submit → enqueue → batch (executor, why, lanes, ops) → [shard visits] →
//! complete | reject
//! ```
//!
//! The [`TraceRecorder`] keeps the newest [`TraceRecorder::capacity`]
//! events in a ring — bounded memory under sustained load, the same
//! contract as the histogram metrics. Wraparound drops the *oldest*
//! events and never reorders the survivors: events carry a global
//! sequence number assigned under the ring lock, so a query's surviving
//! lifecycle is always a suffix of its true lifecycle, in order.
//!
//! Timestamps are microseconds from the recorder's creation (one
//! monotonic `Instant` epoch shared by every thread), so spans from
//! racing workers land on one consistent timeline. The exporter emits the
//! Chrome trace-event array format: batch executions are `"X"` duration
//! spans on a per-batch track (`pid` 1), per-shard sub-batches nest inside
//! them, and each query's submit→complete life is a span on a per-query
//! track (`pid` 2) — so Perfetto renders queue wait as the gap between a
//! query's `enqueue` instant and its batch's span start, with no
//! screenshotting tricks required.
//!
//! Recording is "lock-free enough": one uncontended mutex push per event,
//! far off the hot path the simulated executors dominate (the seed
//! metrics registry already made the same call, and the batch spans here
//! are recorded once per *batch*).

use crate::policy::Backend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened. Payload fields become `args` in the Chrome JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Query validated; a ticket was issued.
    Submit,
    /// Query on its way into its bucket (recorded before the push, so it
    /// precedes the query's `Complete`).
    Enqueue,
    /// One dispatch executed on a worker (span: dispatch → answers ready;
    /// the scatter to the tickets comes after, the stage ROADMAP item 1(b)
    /// adds): which executor ran it, why (the profiler's similarity, none
    /// when it did not run) and on what (lanes, op mix).
    /// Floats are `f32` so a ring slot stays at 96 bytes.
    Batch {
        /// Queries the dispatch answered.
        size: u32,
        /// Distinct positions the walk carried (one lane each).
        lanes: u32,
        /// Distinct op keys the dispatch's queries asked.
        parts: u16,
        /// Op-family bitmask (1 = nn, 2 = knn, 4 = pc), rendered as
        /// `"nn+knn+pc"` in the Chrome args.
        ops: u8,
        /// Executor that ran it.
        backend: Backend,
        /// The lanes carried two or more distinct op keys between them.
        fused: bool,
        /// Whether the batch ran under the C2070 model.
        metered: bool,
        /// The §4.4 profiler's mean Jaccard similarity; NaN when the
        /// batch was not profiled (omitted from the Chrome args).
        similarity: f32,
        /// Tree-node visits across the batch.
        node_visits: u64,
        /// Node visits the fusion saved against per-op solo walks.
        saved_visits: u64,
        /// Modeled GPU milliseconds (metered batches only).
        model_ms: f32,
        /// Lockstep work expansion (1.0 when not applicable).
        work_expansion: f32,
        /// Mean live-lane fraction per warp pop.
        mask_occupancy: f32,
    },
    /// One shard's sub-batch inside a sharded batch (span).
    ShardVisit {
        /// Shard index.
        shard: u32,
        /// Fan-out round (0 = home shards).
        round: u32,
        /// Queries in the sub-batch.
        queries: u32,
        /// Node visits inside the shard.
        node_visits: u64,
    },
    /// Query answered (span: submit → its batch's answers ready).
    Complete,
    /// Query rejected (validation, shutdown, admission, or worker
    /// failure).
    Reject {
        /// Stable short reason tag.
        reason: &'static str,
    },
    /// The network front-end accepted a TCP connection.
    Accept {
        /// Connection id (ascending per server).
        conn: u64,
    },
    /// One frame decoded off a network connection.
    FrameDecode {
        /// Connection id.
        conn: u64,
        /// Stable frame-type tag (`"submit"`, `"batch_submit"`, …).
        frame: &'static str,
        /// Frame body length in bytes.
        bytes: u64,
    },
    /// An admission-control verdict for one submission.
    Admission {
        /// Whether the query was admitted.
        accepted: bool,
        /// Modeled queue wait at the verdict, microseconds.
        predicted_us: u64,
        /// Configured latency budget, microseconds.
        budget_us: u64,
    },
    /// One mutation batch applied to a mutable index (instant).
    Mutate {
        /// Mutations applied.
        accepted: u32,
        /// Delta depth after the batch.
        pending: u32,
    },
    /// One epoch merge (span: rebuild start → new shards swapped in).
    EpochMerge {
        /// The epoch advanced to.
        epoch: u64,
        /// Shards rebuilt (including re-split chunks).
        rebuilt: u32,
        /// Delta entries folded in.
        flushed: u32,
    },
    /// A client-side phase span (`connect`, `encode`, `send`, `await`,
    /// `decode`) recorded by [`gts_net::Client`]'s own recorder.
    ClientSpan {
        /// Stable phase tag.
        name: &'static str,
        /// Connection id on the client side (0 for a lone client).
        conn: u64,
    },
    /// Chrome flow start (`ph:"s"`): a query wave leaves this process.
    FlowOut {
        /// Flow id — shared by the matching [`EventKind::FlowIn`] in the
        /// peer process (request: `2*span`, response: `2*span+1`).
        flow: u64,
        /// Connection id (track the arrow emanates from).
        conn: u64,
        /// True when recorded by the client side (picks the client pid).
        client: bool,
    },
    /// Chrome flow finish (`ph:"f"`): a query wave arrives here.
    FlowIn {
        /// Flow id matching the peer's [`EventKind::FlowOut`].
        flow: u64,
        /// Connection id (track the arrow lands on).
        conn: u64,
        /// True when recorded by the client side.
        client: bool,
    },
}

/// Number of [`EventKind`] variants (size of the per-kind drop counters).
pub const KIND_COUNT: usize = 14;

impl EventKind {
    /// Stable short tag, used as the `kind` label on
    /// `gts_trace_dropped_total` and in drop accounting.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.slot()]
    }

    /// Dense index into the per-kind drop counters.
    fn slot(&self) -> usize {
        match self {
            EventKind::Submit => 0,
            EventKind::Enqueue => 1,
            EventKind::Batch { .. } => 2,
            EventKind::ShardVisit { .. } => 3,
            EventKind::Complete => 4,
            EventKind::Reject { .. } => 5,
            EventKind::Accept { .. } => 6,
            EventKind::FrameDecode { .. } => 7,
            EventKind::Admission { .. } => 8,
            EventKind::Mutate { .. } => 9,
            EventKind::EpochMerge { .. } => 10,
            EventKind::ClientSpan { .. } => 11,
            EventKind::FlowOut { .. } => 12,
            EventKind::FlowIn { .. } => 13,
        }
    }
}

/// Tag names indexed by [`EventKind::slot`].
pub const KIND_NAMES: [&str; KIND_COUNT] = [
    "submit",
    "enqueue",
    "batch",
    "shard_visit",
    "complete",
    "reject",
    "accept",
    "frame_decode",
    "admission",
    "mutate",
    "epoch_merge",
    "client_span",
    "flow_out",
    "flow_in",
];

/// Marker for "no query/batch id" on events that lack one.
pub const NO_ID: u64 = u64::MAX;

/// NN bit of [`EventKind::Batch`]'s op-family mask.
pub const FUSED_OP_NN: u8 = 1;
/// kNN bit of [`EventKind::Batch`]'s op-family mask.
pub const FUSED_OP_KNN: u8 = 2;
/// PC bit of [`EventKind::Batch`]'s op-family mask.
pub const FUSED_OP_PC: u8 = 4;

/// Stable `+`-joined name of an op-family mask (`"nn+knn+pc"`) — how a
/// batch's ops read in the Chrome trace args.
pub fn fused_ops_name(mask: u8) -> String {
    let mut parts = Vec::new();
    if mask & FUSED_OP_NN != 0 {
        parts.push("nn");
    }
    if mask & FUSED_OP_KNN != 0 {
        parts.push("knn");
    }
    if mask & FUSED_OP_PC != 0 {
        parts.push("pc");
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join("+")
    }
}

/// Wire-propagated trace context: the client's per-connection trace id
/// plus a per-frame span id. Carried by v2 `Submit`/`BatchSubmit` frames
/// and stamped onto every server-side event a query leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Per-connection trace id minted by the client (0 = no context:
    /// the query was submitted in-process).
    pub trace_id: u64,
    /// Per-frame span id minted by the client (its batch counter).
    pub span_id: u64,
}

impl TraceContext {
    /// The in-process context: no propagated ids.
    pub const LOCAL: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// True when no client context was propagated.
    pub fn is_local(&self) -> bool {
        self.trace_id == 0
    }

    /// Chrome flow id of the client → server direction for this frame.
    pub fn request_flow(&self) -> u64 {
        self.span_id * 2
    }

    /// Chrome flow id of the server → client direction for this frame.
    pub fn response_flow(&self) -> u64 {
        self.span_id * 2 + 1
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (assigned under the ring lock; gap-free).
    pub seq: u64,
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Query id, or [`NO_ID`].
    pub query: u64,
    /// Batch id, or [`NO_ID`].
    pub batch: u64,
    /// Propagated client trace id (0 = minted locally, no wire context).
    pub trace: u64,
    /// Event payload.
    pub kind: EventKind,
}

struct Ring {
    /// Newest `capacity` events; `buf[head]` is the oldest once full.
    buf: Vec<TraceEvent>,
    head: usize,
    next_seq: u64,
    dropped: u64,
    /// Wraparound drops broken out by [`EventKind::slot`].
    dropped_by_kind: [u64; KIND_COUNT],
}

/// Fixed-capacity recorder of [`TraceEvent`]s. Capacity 0 disables
/// recording entirely (every `record` is a cheap no-op).
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    /// Wall-clock microseconds (UNIX epoch) at recorder creation — the
    /// anchor that lets two processes' traces merge onto one timeline.
    wall_epoch_us: u64,
    capacity: usize,
    next_query: AtomicU64,
    inner: Mutex<Ring>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("len", &self.buf.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl TraceRecorder {
    /// Recorder keeping the newest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            epoch: Instant::now(),
            wall_epoch_us: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            capacity,
            next_query: AtomicU64::new(0),
            inner: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                next_seq: 0,
                dropped: 0,
                dropped_by_kind: [0; KIND_COUNT],
            }),
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wall-clock microseconds (UNIX epoch) corresponding to `ts_us == 0`
    /// on this recorder's timeline. Two recorders' events align by
    /// shifting each side's `ts` by its anchor.
    pub fn wall_epoch_us(&self) -> u64 {
        self.wall_epoch_us
    }

    /// Allocate the next query id.
    pub fn next_query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds from the recorder epoch to now.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds from the recorder epoch to `t` (0 if `t` predates the
    /// epoch — timestamps never go negative).
    pub fn us_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record an instant event at `ts_us`.
    pub fn instant(&self, ts_us: u64, query: u64, batch: u64, kind: EventKind) {
        self.push(ts_us, 0, query, batch, 0, kind);
    }

    /// Record a span `[ts_us, ts_us + dur_us]`.
    pub fn span(&self, ts_us: u64, dur_us: u64, query: u64, batch: u64, kind: EventKind) {
        self.push(ts_us, dur_us, query, batch, 0, kind);
    }

    /// [`TraceRecorder::instant`] stamped with a propagated trace id.
    pub fn instant_traced(&self, ts_us: u64, query: u64, batch: u64, trace: u64, kind: EventKind) {
        self.push(ts_us, 0, query, batch, trace, kind);
    }

    /// [`TraceRecorder::span`] stamped with a propagated trace id.
    pub fn span_traced(
        &self,
        ts_us: u64,
        dur_us: u64,
        query: u64,
        batch: u64,
        trace: u64,
        kind: EventKind,
    ) {
        self.push(ts_us, dur_us, query, batch, trace, kind);
    }

    /// Instant events `(ts_us, query, trace, kind)` with no batch, recorded
    /// under one lock of the ring, in order — a whole frame's submissions
    /// in one go.
    pub(crate) fn instants_traced(
        &self,
        events: impl IntoIterator<Item = (u64, u64, u64, EventKind)>,
    ) {
        self.record(
            events
                .into_iter()
                .map(|(ts_us, query, trace, kind)| TraceEvent {
                    seq: 0,
                    ts_us,
                    dur_us: 0,
                    query,
                    batch: NO_ID,
                    trace,
                    kind,
                }),
        );
    }

    fn push(&self, ts_us: u64, dur_us: u64, query: u64, batch: u64, trace: u64, kind: EventKind) {
        self.record([TraceEvent {
            seq: 0,
            ts_us,
            dur_us,
            query,
            batch,
            trace,
            kind,
        }]);
    }

    /// Number `events` in record order and put them in the ring, under one
    /// lock.
    fn record(&self, events: impl IntoIterator<Item = TraceEvent>) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for ev in events {
            let ev = TraceEvent {
                seq: ring.next_seq,
                ..ev
            };
            ring.next_seq += 1;
            if ring.buf.len() < self.capacity {
                ring.buf.push(ev);
            } else {
                // Overwrite the oldest slot; head advances so the ring
                // stays seq-ordered starting at `head`. The evicted event's
                // kind is what got dropped — account it, never silently.
                let head = ring.head;
                let slot = ring.buf[head].kind.slot();
                ring.buf[head] = ev;
                ring.head = (head + 1) % self.capacity;
                ring.dropped += 1;
                ring.dropped_by_kind[slot] += 1;
            }
        }
    }

    /// Total events discarded by ring wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Wraparound drops broken out per event kind: `(kind tag, count)`
    /// for every kind that lost at least one event.
    pub fn dropped_by_kind(&self) -> Vec<(&'static str, u64)> {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        KIND_NAMES
            .iter()
            .zip(ring.dropped_by_kind.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&name, &c)| (name, c))
            .collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained events with `seq >= cursor` (oldest first), plus how many
    /// matching events wraparound already evicted — the incremental feed
    /// for a streaming sink. A sink that drains faster than the ring wraps
    /// sees every event exactly once with zero misses.
    pub fn events_since(&self, cursor: u64) -> (Vec<TraceEvent>, u64) {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.is_empty() {
            return (Vec::new(), 0);
        }
        let oldest = ring.buf[ring.head % ring.buf.len()].seq;
        let missed = oldest.saturating_sub(cursor);
        let mut events = Vec::new();
        for i in 0..ring.buf.len() {
            let ev = &ring.buf[(ring.head + i) % ring.buf.len()];
            if ev.seq >= cursor {
                events.push(ev.clone());
            }
        }
        (events, missed)
    }

    /// Copy out the retained events (oldest first) plus the drop count.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut events = Vec::with_capacity(ring.buf.len());
        for i in 0..ring.buf.len() {
            events.push(ring.buf[(ring.head + i) % ring.buf.len()].clone());
        }
        TraceSnapshot {
            events,
            dropped: ring.dropped,
            dropped_by_kind: KIND_NAMES
                .iter()
                .zip(ring.dropped_by_kind.iter())
                .filter(|(_, &c)| c > 0)
                .map(|(&name, &c)| (name, c))
                .collect(),
        }
    }
}

/// Point-in-time export of the ring: the retained events in sequence
/// order, plus how many older events wraparound discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Retained events, ascending by `seq` (and therefore by record time).
    pub events: Vec<TraceEvent>,
    /// Events discarded by ring wraparound.
    pub dropped: u64,
    /// Wraparound drops per event kind (`(kind tag, count)`, nonzero
    /// entries only).
    pub dropped_by_kind: Vec<(&'static str, u64)>,
}

impl TraceSnapshot {
    /// Number of batch-execution spans in the snapshot: one per answered
    /// dispatch.
    pub fn batch_spans(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
            .count()
    }

    /// Number of query-completion spans in the snapshot.
    pub fn complete_spans(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Complete))
            .count()
    }

    /// Number of per-shard sub-batch spans in the snapshot.
    pub fn shard_visit_spans(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ShardVisit { .. }))
            .count()
    }

    /// Render as a Chrome trace-event JSON array (the format Perfetto and
    /// `chrome://tracing` load directly). Batch spans go on `pid` 1 with one
    /// track (`tid`) per batch; query lifecycles go on `pid` 2 with one track
    /// per query; shard sub-batch spans go on `pid` 3 with one track per
    /// shard. Shard spans from the parallel execution path overlap in time,
    /// so they cannot share the batch track (Chrome's renderer assumes spans
    /// on one track nest or abut) — per-shard sub-tracks keep concurrent
    /// waves readable.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 160 + 2);
        out.push('[');
        let mut first = true;
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            write_chrome_event(ev, &mut out);
        }
        out.push_str("\n]\n");
        out
    }
}

/// Merge a client-side snapshot onto a server snapshot's timeline.
///
/// `shift_us` is the client → server clock offset: the server's
/// [`TraceRecorder::wall_epoch_us`] (carried by its v2 `Hello`) minus the
/// client recorder's own anchor. Client timestamps are shifted by it so
/// both processes share one timebase; events are re-sorted by timestamp
/// and the result renders as a single Chrome trace where the client's
/// `FlowOut`/`FlowIn` endpoints pair with the server's by flow id.
pub fn merge_snapshots(
    server: TraceSnapshot,
    client: TraceSnapshot,
    shift_us: i64,
) -> TraceSnapshot {
    let mut events = server.events;
    events.extend(client.events.into_iter().map(|mut ev| {
        ev.ts_us = (ev.ts_us as i64).saturating_add(shift_us).max(0) as u64;
        ev
    }));
    events.sort_by_key(|e| e.ts_us);
    let mut dropped_by_kind = server.dropped_by_kind;
    for (kind, n) in client.dropped_by_kind {
        match dropped_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, total)) => *total += n,
            None => dropped_by_kind.push((kind, n)),
        }
    }
    TraceSnapshot {
        events,
        dropped: server.dropped + client.dropped,
        dropped_by_kind,
    }
}

const BATCH_PID: u64 = 1;
const QUERY_PID: u64 = 2;
const SHARD_PID: u64 = 3;
const NET_PID: u64 = 4;
const EPOCH_PID: u64 = 5;
/// Track for client-side spans and flow endpoints (a merged two-process
/// trace keeps client and server tracks apart by pid).
const CLIENT_PID: u64 = 6;

fn write_chrome_event(ev: &TraceEvent, out: &mut String) {
    // All names and reason tags are static identifiers — no JSON string
    // escaping is ever needed here.
    let (name, ph, pid, tid): (&str, &str, u64, u64) = match &ev.kind {
        EventKind::Submit => ("submit", "i", QUERY_PID, ev.query),
        EventKind::Enqueue => ("enqueue", "i", QUERY_PID, ev.query),
        EventKind::Batch { .. } => ("batch", "X", BATCH_PID, ev.batch),
        EventKind::ShardVisit { shard, .. } => ("shard_visit", "X", SHARD_PID, u64::from(*shard)),
        EventKind::Complete => ("query", "X", QUERY_PID, ev.query),
        EventKind::Reject { .. } => ("reject", "i", QUERY_PID, ev.query),
        EventKind::Accept { conn } => ("accept", "i", NET_PID, *conn),
        EventKind::FrameDecode { conn, .. } => ("frame", "i", NET_PID, *conn),
        EventKind::Admission { .. } => ("admission", "i", NET_PID, 0),
        EventKind::Mutate { .. } => ("mutate", "i", EPOCH_PID, 0),
        EventKind::EpochMerge { epoch, .. } => ("epoch_merge", "X", EPOCH_PID, *epoch),
        EventKind::ClientSpan { name, conn } => (name, "X", CLIENT_PID, *conn),
        EventKind::FlowOut { conn, client, .. } => (
            "flow",
            "s",
            if *client { CLIENT_PID } else { NET_PID },
            *conn,
        ),
        EventKind::FlowIn { conn, client, .. } => (
            "flow",
            "f",
            if *client { CLIENT_PID } else { NET_PID },
            *conn,
        ),
    };
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"cat\":\"gts\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}",
        ev.ts_us
    ));
    if ph == "X" {
        out.push_str(&format!(",\"dur\":{}", ev.dur_us));
    }
    if ph == "i" {
        // Thread-scoped instant: renders as a tick on its own track.
        out.push_str(",\"s\":\"t\"");
    }
    match &ev.kind {
        // Flow events bind to their peer by (cat, name, id); "bp":"e"
        // attaches the arrowhead to the enclosing slice.
        EventKind::FlowOut { flow, .. } => out.push_str(&format!(",\"id\":{flow}")),
        EventKind::FlowIn { flow, .. } => out.push_str(&format!(",\"id\":{flow},\"bp\":\"e\"")),
        _ => {}
    }
    out.push_str(",\"args\":{");
    out.push_str(&format!("\"seq\":{}", ev.seq));
    if ev.trace != 0 {
        out.push_str(&format!(",\"trace\":{}", ev.trace));
    }
    if ev.query != NO_ID {
        out.push_str(&format!(",\"query\":{}", ev.query));
    }
    if ev.batch != NO_ID {
        out.push_str(&format!(",\"batch\":{}", ev.batch));
    }
    match &ev.kind {
        EventKind::Batch {
            size,
            lanes,
            parts,
            ops,
            backend,
            fused,
            metered,
            similarity,
            node_visits,
            saved_visits,
            model_ms,
            work_expansion,
            mask_occupancy,
        } => {
            out.push_str(&format!(
                ",\"size\":{size},\"lanes\":{lanes},\"parts\":{parts},\"ops\":\"{}\",\
                 \"backend\":\"{}\",\"fused\":{fused},\"metered\":{metered}",
                fused_ops_name(*ops),
                backend.name()
            ));
            if !similarity.is_nan() {
                out.push_str(&format!(",\"similarity\":{similarity}"));
            }
            out.push_str(&format!(
                ",\"node_visits\":{node_visits},\"saved_visits\":{saved_visits},\
                 \"model_ms\":{model_ms},\"work_expansion\":{work_expansion},\
                 \"mask_occupancy\":{mask_occupancy}"
            ));
        }
        EventKind::ShardVisit {
            shard,
            round,
            queries,
            node_visits,
        } => {
            out.push_str(&format!(
                ",\"shard\":{shard},\"round\":{round},\"queries\":{queries},\
                 \"node_visits\":{node_visits}"
            ));
        }
        EventKind::Reject { reason } => {
            out.push_str(&format!(",\"reason\":\"{reason}\""));
        }
        EventKind::Accept { conn } => {
            out.push_str(&format!(",\"conn\":{conn}"));
        }
        EventKind::FrameDecode { conn, frame, bytes } => {
            out.push_str(&format!(
                ",\"conn\":{conn},\"frame\":\"{frame}\",\"bytes\":{bytes}"
            ));
        }
        EventKind::Admission {
            accepted,
            predicted_us,
            budget_us,
        } => {
            out.push_str(&format!(
                ",\"accepted\":{accepted},\"predicted_us\":{predicted_us},\
                 \"budget_us\":{budget_us}"
            ));
        }
        EventKind::Mutate { accepted, pending } => {
            out.push_str(&format!(",\"accepted\":{accepted},\"pending\":{pending}"));
        }
        EventKind::EpochMerge {
            epoch,
            rebuilt,
            flushed,
        } => {
            out.push_str(&format!(
                ",\"epoch\":{epoch},\"rebuilt\":{rebuilt},\"flushed\":{flushed}"
            ));
        }
        EventKind::ClientSpan { conn, .. } => {
            out.push_str(&format!(",\"conn\":{conn}"));
        }
        EventKind::FlowOut { flow, conn, .. } | EventKind::FlowIn { flow, conn, .. } => {
            out.push_str(&format!(",\"flow\":{flow},\"conn\":{conn}"));
        }
        EventKind::Submit | EventKind::Enqueue | EventKind::Complete => {}
    }
    out.push_str("}}");
}

/// Incremental Chrome-trace file writer — the streaming trace sink.
///
/// Events append to `<path>.tmp` as they drain from the ring; the file is
/// kept *always* valid JSON by rewriting the closing `]` in place on every
/// append (seek back over the two-byte `\n]` tail, write the new events,
/// re-append the tail). The first append atomically renames the tmp file
/// into place, so `path` either doesn't exist yet or holds a complete,
/// Perfetto-loadable array — even if the process is killed mid-run. A
/// sink that drains on a timer therefore produces traces *longer than the
/// ring*: the ring only has to hold one drain interval's worth of events,
/// not the whole run.
pub struct TraceStream {
    file: std::fs::File,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
    published: bool,
    cursor: u64,
    events_written: u64,
    missed: u64,
    dropped: u64,
}

/// Final accounting of a [`TraceStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStreamStats {
    /// Events written to the file.
    pub events_written: u64,
    /// Events the ring evicted before a drain reached them.
    pub missed: u64,
    /// Events the ring dropped by wraparound over the whole run (the
    /// recorder-side total; `missed` is the subset the sink never saw).
    pub dropped: u64,
}

/// Byte length of the always-present stream tail (`\n]\n`).
const STREAM_TAIL: &[u8] = b"\n]\n";

impl TraceStream {
    /// Open the stream, creating `<path>.tmp` holding an empty valid
    /// trace (`[\n]`).
    pub fn create(path: impl Into<std::path::PathBuf>) -> std::io::Result<TraceStream> {
        use std::io::Write as _;
        let path = path.into();
        let tmp = {
            let mut os = path.clone().into_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(b"[")?;
        file.write_all(STREAM_TAIL)?;
        Ok(TraceStream {
            file,
            tmp,
            path,
            published: false,
            cursor: 0,
            events_written: 0,
            missed: 0,
            dropped: 0,
        })
    }

    /// The sequence number the next drain should pass to
    /// [`TraceRecorder::events_since`].
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Append `events` (ascending `seq`, all ≥ the current cursor) and
    /// account `missed` ring evictions. Publishes the tmp file into place
    /// on the first append so the target path is loadable from then on.
    /// A drain that missed events first writes a `trace.gap` instant with
    /// `args.missed` at its first event's `ts`, so a file cut short by a
    /// killed process still says where it lost events.
    pub fn append(&mut self, events: &[TraceEvent], missed: u64) -> std::io::Result<()> {
        use std::io::{Seek as _, SeekFrom, Write as _};
        self.missed += missed;
        // The ring evicts only what a later event pushed out, so a drain
        // that missed events always carries at least one.
        let Some(first) = events.first() else {
            return Ok(());
        };
        let mut chunk = String::with_capacity(events.len() * 160 + 96);
        if missed > 0 {
            chunk.push_str(&format!(
                ",\n{{\"name\":\"trace.gap\",\"cat\":\"gts\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"missed\":{missed}}}}}",
                first.ts_us
            ));
        }
        for ev in events {
            chunk.push_str(",\n");
            write_chrome_event(ev, &mut chunk);
        }
        // The file's first entry takes no comma.
        let chunk = &chunk[usize::from(self.events_written == 0)..];
        // Rewind over the `\n]\n` tail, splice the events, restore the
        // tail — the file is valid JSON before and after every append.
        self.file.seek(SeekFrom::End(-(STREAM_TAIL.len() as i64)))?;
        self.file.write_all(chunk.as_bytes())?;
        self.file.write_all(STREAM_TAIL)?;
        self.file.flush()?;
        self.events_written += events.len() as u64;
        self.cursor = events.last().expect("nonempty").seq + 1;
        if !self.published {
            std::fs::rename(&self.tmp, &self.path)?;
            self.published = true;
        }
        Ok(())
    }

    /// Append everything the final [`TraceSnapshot`] holds past the cursor,
    /// publish, and close — the shutdown path, where the service (and with
    /// it the recorder) has already been consumed and the snapshot is all
    /// that remains.
    pub fn finish(mut self, snap: &TraceSnapshot) -> std::io::Result<TraceStreamStats> {
        let missed = snap
            .events
            .first()
            .map(|e| e.seq.saturating_sub(self.cursor))
            .unwrap_or(0);
        let tail: Vec<TraceEvent> = snap
            .events
            .iter()
            .filter(|e| e.seq >= self.cursor)
            .cloned()
            .collect();
        self.append(&tail, missed)?;
        self.dropped = snap.dropped;
        self.seal()
    }

    fn seal(mut self) -> std::io::Result<TraceStreamStats> {
        if !self.published {
            // Nothing was ever appended: still publish the (empty) trace.
            std::fs::rename(&self.tmp, &self.path)?;
            self.published = true;
        }
        Ok(TraceStreamStats {
            events_written: self.events_written,
            missed: self.missed,
            dropped: self.dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_at(rec: &TraceRecorder, q: u64, ts: u64) {
        rec.instant(ts, q, NO_ID, EventKind::Submit);
    }

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let rec = TraceRecorder::new(8);
        for q in 0..20 {
            submit_at(&rec, q, q);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 8);
        assert_eq!(snap.dropped, 12);
        // Newest 8, ascending seq, gap-free.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn wraparound_preserves_per_query_lifecycle_order() {
        // Interleave two queries' lifecycles through several wraparounds:
        // each query's surviving events must stay in lifecycle order.
        let rec = TraceRecorder::new(6);
        let mut ts = 0u64;
        for round in 0..5u64 {
            for q in [0u64, 1] {
                rec.instant(ts, q + round * 2, NO_ID, EventKind::Submit);
                ts += 1;
                rec.instant(ts, q + round * 2, NO_ID, EventKind::Enqueue);
                ts += 1;
                rec.span(ts, 3, q + round * 2, NO_ID, EventKind::Complete);
                ts += 1;
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 6);
        for pair in snap.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "ring reordered events");
        }
        // Per query, the lifecycle ranks (submit < enqueue < complete)
        // never regress among survivors.
        let rank = |k: &EventKind| match k {
            EventKind::Submit => 0,
            EventKind::Enqueue => 1,
            EventKind::Complete => 2,
            _ => unreachable!(),
        };
        let queries: std::collections::HashSet<u64> = snap.events.iter().map(|e| e.query).collect();
        for q in queries {
            let ranks: Vec<i32> = snap
                .events
                .iter()
                .filter(|e| e.query == q)
                .map(|e| rank(&e.kind))
                .collect();
            assert!(
                ranks.windows(2).all(|w| w[0] < w[1]),
                "query {q} lifecycle out of order: {ranks:?}"
            );
        }
    }

    #[test]
    fn capacity_zero_disables_recording() {
        let rec = TraceRecorder::new(0);
        submit_at(&rec, 0, 0);
        assert!(rec.is_empty());
        assert_eq!(rec.snapshot().events.len(), 0);
    }

    #[test]
    fn chrome_json_is_valid_and_nonnegative() {
        let rec = TraceRecorder::new(64);
        let q = rec.next_query_id();
        let b = 0;
        rec.instant(5, q, NO_ID, EventKind::Submit);
        rec.instant(6, q, NO_ID, EventKind::Enqueue);
        rec.span(
            10,
            40,
            NO_ID,
            b,
            EventKind::Batch {
                size: 32,
                lanes: 30,
                parts: 2,
                ops: FUSED_OP_NN | FUSED_OP_KNN,
                backend: Backend::Lockstep,
                fused: true,
                metered: true,
                similarity: 0.6,
                node_visits: 1234,
                saved_visits: 56,
                model_ms: 0.75,
                work_expansion: 1.25,
                mask_occupancy: 0.9,
            },
        );
        rec.span(
            12,
            10,
            NO_ID,
            b,
            EventKind::ShardVisit {
                shard: 2,
                round: 0,
                queries: 16,
                node_visits: 600,
            },
        );
        rec.span(5, 47, q, b, EventKind::Complete);
        rec.instant(
            60,
            99,
            NO_ID,
            EventKind::Reject {
                reason: "bad-query",
            },
        );

        let json = rec.snapshot().to_chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("chrome trace parses");
        let serde::Value::Array(events) = v else {
            panic!("trace is not a JSON array")
        };
        assert_eq!(events.len(), 6);
        assert!(json.contains("\"ops\":\"nn+knn\""), "{json}");
        assert!(json.contains("\"similarity\":0.6,"), "{json}");
        for ev in &events {
            let serde::Value::Object(fields) = ev else {
                panic!("event is not an object")
            };
            let get = |k: &str| {
                fields
                    .iter()
                    .find(|(name, _)| name == k)
                    .map(|(_, v)| v.clone())
            };
            for key in ["name", "ph", "ts", "pid", "tid", "args"] {
                assert!(get(key).is_some(), "missing {key}");
            }
            let serde::Value::Number(ts) = get("ts").unwrap() else {
                panic!("ts not a number")
            };
            assert!(ts.as_f64() >= 0.0, "negative ts");
            if let Some(serde::Value::Number(dur)) = get("dur") {
                assert!(dur.as_f64() >= 0.0, "negative dur");
            }
            if get("name") == Some(serde::Value::String("shard_visit".into())) {
                // Shard spans overlap under parallel execution, so they live
                // on their own pid with one track per shard — not the batch
                // track.
                let serde::Value::Number(pid) = get("pid").unwrap() else {
                    panic!("pid not a number")
                };
                let serde::Value::Number(tid) = get("tid").unwrap() else {
                    panic!("tid not a number")
                };
                assert_eq!(pid.as_f64(), 3.0, "shard_visit on shard pid");
                assert_eq!(tid.as_f64(), 2.0, "tid is the shard index");
            }
        }
    }

    #[test]
    fn an_unprofiled_batch_omits_its_similarity() {
        let rec = TraceRecorder::new(4);
        let kind = EventKind::Batch {
            size: 1,
            lanes: 1,
            parts: 1,
            ops: FUSED_OP_PC,
            backend: Backend::Cpu,
            fused: false,
            metered: false,
            similarity: f32::NAN,
            node_visits: 9,
            saved_visits: 0,
            model_ms: 0.0,
            work_expansion: 1.0,
            mask_occupancy: 1.0,
        };
        rec.span(0, 3, NO_ID, 0, kind);
        let json = rec.snapshot().to_chrome_json();
        let _: serde::Value = serde_json::from_str(&json).expect("parses");
        assert!(!json.contains("similarity"), "{json}");
        assert!(
            json.contains("\"ops\":\"pc\",\"backend\":\"cpu\""),
            "{json}"
        );
    }

    #[test]
    fn a_ring_slot_stays_within_96_bytes() {
        assert!(std::mem::size_of::<TraceEvent>() <= 96);
    }

    #[test]
    fn events_since_is_an_exact_incremental_feed() {
        let rec = TraceRecorder::new(8);
        for q in 0..5 {
            submit_at(&rec, q, q);
        }
        let (evs, missed) = rec.events_since(0);
        assert_eq!(evs.len(), 5);
        assert_eq!(missed, 0);
        let cursor = evs.last().unwrap().seq + 1;
        let (evs, missed) = rec.events_since(cursor);
        assert!(evs.is_empty());
        assert_eq!(missed, 0);
        // Push 20 more: the ring (capacity 8) evicts everything between
        // the cursor and the oldest survivor.
        for q in 5..25 {
            submit_at(&rec, q, q);
        }
        let (evs, missed) = rec.events_since(cursor);
        assert_eq!(evs.len(), 8, "only the newest 8 retained");
        assert_eq!(evs.first().unwrap().seq, 17);
        assert_eq!(missed, 17 - cursor);
    }

    #[test]
    fn trace_stream_writes_traces_longer_than_the_ring() {
        let dir = std::env::temp_dir().join(format!("gts-trace-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.json");
        let rec = TraceRecorder::new(8);
        let mut stream = TraceStream::create(&path).unwrap();
        // 50 events through an 8-slot ring, drained every 4 events — the
        // file ends up with all 50, far more than the ring ever held.
        for q in 0..50u64 {
            submit_at(&rec, q, q);
            if q % 4 == 3 {
                let (evs, missed) = rec.events_since(stream.cursor());
                stream.append(&evs, missed).unwrap();
                // Mid-run the published file is already complete JSON.
                let txt = std::fs::read_to_string(&path).unwrap();
                let v: serde::Value = serde_json::from_str(&txt).expect("mid-run trace parses");
                assert!(matches!(v, serde::Value::Array(_)));
            }
        }
        let stats = stream.finish(&rec.snapshot()).unwrap();
        assert_eq!(stats.events_written, 50);
        assert_eq!(stats.missed, 0, "drains kept pace with the ring");
        let txt = std::fs::read_to_string(&path).unwrap();
        let serde::Value::Array(events) = serde_json::from_str(&txt).unwrap() else {
            panic!("final trace is not an array");
        };
        assert_eq!(events.len(), 50);
        assert!(!dir.join("stream.json.tmp").exists(), "tmp renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_stream_counts_missed_events_when_drains_lag() {
        let dir = std::env::temp_dir().join(format!("gts-trace-lag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lag.json");
        let rec = TraceRecorder::new(4);
        let stream = TraceStream::create(&path).unwrap();
        // 20 events, no intermediate drain: only the newest 4 survive.
        for q in 0..20u64 {
            submit_at(&rec, q, q);
        }
        let stats = stream.finish(&rec.snapshot()).unwrap();
        assert_eq!(stats.events_written, 4);
        assert_eq!(stats.missed, 16);
        let txt = std::fs::read_to_string(&path).unwrap();
        let v: serde::Value = serde_json::from_str(&txt).unwrap();
        assert!(matches!(v, serde::Value::Array(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A drain that lagged the ring says so in the file itself, with no
    /// `finish`: a `trace.gap` instant just before that drain's first
    /// event, at its `ts`, with the drain's `missed` count.
    #[test]
    fn trace_stream_marks_a_lagging_drain_with_a_gap() {
        let dir = std::env::temp_dir().join(format!("gts-trace-gap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gap.json");
        let rec = TraceRecorder::new(4);
        let mut stream = TraceStream::create(&path).unwrap();
        let mut drain = || {
            let (evs, missed) = rec.events_since(stream.cursor());
            stream.append(&evs, missed).unwrap();
        };
        // Three events drained in full, then ten through the 4-slot ring:
        // the second drain misses six.
        for q in 0..3u64 {
            submit_at(&rec, q, 100 + q);
        }
        drain();
        for q in 3..13u64 {
            submit_at(&rec, q, 100 + q);
        }
        drain();
        // The file as a killed process leaves it.
        let txt = std::fs::read_to_string(&path).unwrap();
        let serde::Value::Array(entries) = serde_json::from_str(&txt).unwrap() else {
            panic!("trace is not an array");
        };
        let text = |e: &serde::Value, k| match e.get(k) {
            Some(serde::Value::String(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let num = |e: Option<&serde::Value>| match e {
            Some(serde::Value::Number(n)) => n.as_u64(),
            _ => None,
        };
        let names: Vec<String> = entries.iter().map(|e| text(e, "name")).collect();
        let gaps: Vec<usize> = (0..names.len())
            .filter(|&i| names[i] == "trace.gap")
            .collect();
        assert_eq!((entries.len(), gaps), (3 + 1 + 4, vec![3]), "{names:?}");
        let (gap, after) = (&entries[3], &entries[4]);
        assert_eq!(text(gap, "ph"), "i");
        assert_eq!(num(gap.get("ts")), Some(109));
        assert_eq!(num(gap.get("ts")), num(after.get("ts")));
        assert_eq!(num(gap.get("args").and_then(|a| a.get("missed"))), Some(6));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_events_render_on_their_own_track() {
        let rec = TraceRecorder::new(16);
        rec.instant(1, NO_ID, NO_ID, EventKind::Accept { conn: 7 });
        rec.instant(
            2,
            NO_ID,
            NO_ID,
            EventKind::FrameDecode {
                conn: 7,
                frame: "batch_submit",
                bytes: 4096,
            },
        );
        rec.instant(
            3,
            42,
            NO_ID,
            EventKind::Admission {
                accepted: false,
                predicted_us: 1500,
                budget_us: 1000,
            },
        );
        let json = rec.snapshot().to_chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("net trace parses");
        let serde::Value::Array(events) = v else {
            panic!("not an array")
        };
        assert_eq!(events.len(), 3);
        assert!(json.contains("\"name\":\"accept\""));
        assert!(json.contains("\"frame\":\"batch_submit\""));
        assert!(json.contains("\"accepted\":false"));
        assert!(json.contains("\"predicted_us\":1500"));
        assert!(json.contains("\"pid\":4"), "net events on the net pid");
    }

    #[test]
    fn wraparound_drops_are_counted_per_kind() {
        let rec = TraceRecorder::new(4);
        // 6 submits then 4 enqueues through a 4-slot ring: the submits
        // evict 2 of their own, then the enqueues evict the 4 survivors —
        // all 6 drops are submits.
        for q in 0..6 {
            rec.instant(q, q, NO_ID, EventKind::Submit);
        }
        for q in 0..4 {
            rec.instant(10 + q, q, NO_ID, EventKind::Enqueue);
        }
        assert_eq!(rec.dropped(), 6);
        let by_kind = rec.dropped_by_kind();
        assert_eq!(by_kind, vec![("submit", 6)]);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.dropped_by_kind, vec![("submit", 6)]);
        // Now drop an enqueue too: both kinds appear, in slot order.
        rec.instant(20, 9, NO_ID, EventKind::Complete);
        assert_eq!(rec.dropped_by_kind(), vec![("submit", 6), ("enqueue", 1)],);
    }

    #[test]
    fn flow_events_render_as_matched_chrome_pairs() {
        let rec = TraceRecorder::new(16);
        rec.span_traced(
            5,
            10,
            NO_ID,
            7,
            0xabc,
            EventKind::ClientSpan {
                name: "send",
                conn: 1,
            },
        );
        rec.instant_traced(
            15,
            NO_ID,
            7,
            0xabc,
            EventKind::FlowOut {
                flow: 14,
                conn: 1,
                client: true,
            },
        );
        rec.instant_traced(
            40,
            NO_ID,
            7,
            0xabc,
            EventKind::FlowIn {
                flow: 14,
                conn: 3,
                client: false,
            },
        );
        let json = rec.snapshot().to_chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("flow trace parses");
        assert!(matches!(v, serde::Value::Array(_)));
        // One "s" and one "f" event sharing the flow id, plus the trace id
        // stamped into args on every event.
        assert!(
            json.contains("\"ph\":\"s\",") && json.contains("\"id\":14"),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"f\",") && json.contains("\"bp\":\"e\""),
            "{json}"
        );
        assert_eq!(json.matches("\"trace\":2748").count(), 3, "{json}");
        // The client endpoint renders on the client pid, the server
        // endpoint on the net pid.
        assert!(json.contains("\"ph\":\"s\",\"ts\":15,\"pid\":6"), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"ts\":40,\"pid\":4"), "{json}");
        assert!(json.contains("\"name\":\"send\""), "{json}");
    }

    #[test]
    fn wall_epoch_anchors_are_sane() {
        let a = TraceRecorder::new(1);
        let b = TraceRecorder::new(1);
        // Both anchors are real wall-clock times taken moments apart.
        assert!(
            a.wall_epoch_us() > 1_500_000_000_000_000,
            "post-2017 wall clock"
        );
        assert!(b.wall_epoch_us() >= a.wall_epoch_us());
        assert!(b.wall_epoch_us() - a.wall_epoch_us() < 10_000_000);
    }

    #[test]
    fn ids_are_monotonic() {
        let rec = TraceRecorder::new(4);
        assert_eq!(rec.next_query_id(), 0);
        assert_eq!(rec.next_query_id(), 1);
        assert!(rec.us_of(Instant::now()) < 10_000_000, "epoch sane");
    }
}
