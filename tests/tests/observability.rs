//! End-to-end observability invariants: the trace ring and histogram
//! metrics stay bounded under sustained load, and the exports the harness
//! writes (`--trace-file`/`--metrics-file`) describe the same run the
//! metrics snapshot does.

use gts_points::gen::uniform;
use gts_service::trace::NO_ID;
use gts_service::{
    fused_ops_name, Backend, BatchOutcome, EventKind, ExecPolicy, FusedLane, FusedOutcome, KdIndex,
    Metrics, Query, QueryKind, QueryRecord, QueryResult, Service, ServiceConfig, ServiceError,
    ShardedIndex, TraceContext, TraceEvent, TreeIndex, SLOW_LOG_WARMUP,
};
use gts_trees::SplitPolicy;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Far above anything a healthy run needs: a lost ticket is a hang.
const HANG: Duration = Duration::from_secs(30);

/// An index that fails every dispatch it is given: its `run` panics, or
/// returns an outcome with no lanes at all.
struct Broken {
    inner: KdIndex<3>,
    panics: bool,
}

impl TreeIndex for Broken {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn n_points(&self) -> usize {
        self.inner.n_points()
    }
    fn run(&self, _lanes: &[FusedLane], _policy: &ExecPolicy) -> FusedOutcome {
        assert!(!self.panics, "kernel failpoint");
        FusedOutcome {
            lanes: Vec::new(),
            outcome: BatchOutcome::default(),
        }
    }
}

fn broken(name: &str, panics: bool) -> Arc<Broken> {
    let pts = uniform::<3>(256, 13);
    let inner = KdIndex::build(name, &pts, 8, SplitPolicy::MedianCycle);
    Arc::new(Broken { inner, panics })
}

fn small_service(trace_capacity: usize) -> (Service, usize) {
    let service = Service::start(ServiceConfig {
        batch_queries: 32,
        max_wait: Duration::from_millis(1),
        workers: 2,
        trace_capacity,
        ..ServiceConfig::default()
    });
    let pts = uniform::<3>(256, 11);
    let id = service.register_index(
        Arc::new(KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle)) as Arc<dyn TreeIndex>,
    );
    (service, id)
}

fn drive(service: &Service, index: usize, n: usize) {
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            let f = (i % 97) as f32 / 97.0;
            service
                .submit(Query {
                    index,
                    pos: vec![f, 1.0 - f, 0.5],
                    kind: QueryKind::Nn,
                })
                .expect("valid query")
        })
        .collect();
    for t in tickets {
        t.wait().expect("query succeeds");
    }
}

#[test]
fn sustained_load_keeps_trace_and_metrics_bounded() {
    // Far more lifecycle events than the ring holds: memory must stay at
    // the configured capacity, with wraparound keeping the newest events
    // in order.
    let cap = 128;
    let (service, id) = small_service(cap);
    drive(&service, id, 600);
    let (snapshot, trace) = service.shutdown_with_trace();
    assert_eq!(snapshot.completed, 600);
    assert_eq!(trace.events.len(), cap, "ring grew past capacity");
    assert!(trace.dropped > 0, "expected wraparound under this load");
    for pair in trace.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "ring reordered events");
    }
    // Histogram snapshots are bounded by the fixed bucket count no matter
    // the sample count.
    for hist in [
        &snapshot.latency_hist,
        &snapshot.queue_wait_hist,
        &snapshot.model_ms_hist,
        &snapshot.node_visits_hist,
    ] {
        assert!(hist.buckets.len() <= gts_service::hist::N_BUCKETS);
    }
    // And the registry itself reports a load-independent footprint: the
    // first completion for an index allocates its per-index series, after
    // which the footprint is flat no matter the sample count.
    let m = Metrics::default();
    m.on_complete("t", Duration::from_micros(123), 1, 0);
    let before = m.approx_bytes();
    for _ in 0..5_000 {
        m.on_complete("t", Duration::from_micros(123), 1, 0);
    }
    assert_eq!(m.approx_bytes(), before);
}

#[test]
fn trace_spans_match_metrics_and_chrome_json_round_trips() {
    // Capacity covers the whole run: every dispatched batch must appear
    // as exactly one batch span, every query as one completion span.
    let (service, id) = small_service(16_384);
    let sharded = service.register_index(Arc::new(ShardedIndex::build(
        "s",
        &uniform::<3>(256, 12),
        4,
        8,
        SplitPolicy::MedianCycle,
    )));
    drive(&service, id, 300);
    drive(&service, sharded, 100);

    // The slow log's counters are stitched into the live snapshot: past
    // warmup the threshold is armed, the running-max rule has committed,
    // and the ring holds what it kept.
    let live = service.metrics();
    assert!(live.completed >= SLOW_LOG_WARMUP);
    assert!(live.slow_log_committed >= 1, "running-max rule commits");
    assert!(
        live.slow_log_threshold_us > 0,
        "threshold armed past warmup"
    );
    let capacity = ServiceConfig::default().slow_log_capacity as u64;
    assert!((1..=capacity).contains(&live.slow_log_entries));
    // The warp means cover the batches that ran warps, and read 0 when
    // none did (the host walk runs every unmetered batch).
    if live.mask_occupancy_hist.count > 0 {
        assert!(live.mean_mask_occupancy > 0.0 && live.mean_mask_occupancy <= 1.0);
    } else {
        assert_eq!(live.mean_mask_occupancy, 0.0);
    }
    assert!(live.latency_max_ms >= live.latency_p999_ms);

    let (snapshot, trace) = service.shutdown_with_trace();
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.batch_spans() as u64, snapshot.batches);
    assert_eq!(trace.complete_spans() as u64, snapshot.completed);
    assert!(
        trace.shard_visit_spans() > 0,
        "sharded batches leave per-shard spans"
    );
    let submits = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Submit))
        .count();
    assert_eq!(submits as u64, snapshot.submitted);

    // The Chrome export round-trips through serde_json and every span is
    // temporally sane.
    let json = trace.to_chrome_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let serde_json::Value::Array(events) = parsed else {
        panic!("trace is not a JSON array")
    };
    assert_eq!(events.len(), trace.events.len());
    for ev in &events {
        let serde_json::Value::Object(fields) = ev else {
            panic!("event is not an object")
        };
        let num = |k: &str| -> Option<f64> {
            fields
                .iter()
                .find(|(name, _)| name == k)
                .and_then(|(_, v)| {
                    if let serde_json::Value::Number(n) = v {
                        Some(n.as_f64())
                    } else {
                        None
                    }
                })
        };
        let ts = num("ts").expect("every event has ts");
        assert!(ts >= 0.0, "negative ts");
        if let Some(dur) = num("dur") {
            assert!(dur >= 0.0, "negative dur");
        }
    }
}

#[test]
fn per_query_lifecycle_stays_ordered_in_service_trace() {
    let (service, id) = small_service(16_384);
    drive(&service, id, 128);
    let (_, trace) = service.shutdown_with_trace();
    // For every query id: submit, then enqueue, then complete — in seq
    // order, exactly once each (no rejects in this run).
    let rank = |k: &EventKind| match k {
        EventKind::Submit => Some(0),
        EventKind::Enqueue => Some(1),
        EventKind::Complete => Some(2),
        _ => None,
    };
    let mut per_query: std::collections::BTreeMap<u64, Vec<i32>> = Default::default();
    for e in &trace.events {
        if let Some(r) = rank(&e.kind) {
            per_query.entry(e.query).or_default().push(r);
        }
    }
    assert_eq!(per_query.len(), 128);
    for (q, ranks) in per_query {
        assert_eq!(ranks, vec![0, 1, 2], "query {q} lifecycle broken");
    }
}

#[test]
fn events_since_cursor_survives_ring_wraparound() {
    use gts_service::TraceRecorder;
    let rec = TraceRecorder::new(8);
    for i in 0..4 {
        rec.instant(i, i, 0, EventKind::Submit);
    }
    let (evs, missed) = rec.events_since(0);
    assert_eq!(missed, 0);
    assert_eq!(evs.len(), 4);
    let mut cursor = evs.last().unwrap().seq + 1;

    // Push far past capacity: the incremental feed resumes at the oldest
    // retained event and reports exactly how many it lost in between.
    for i in 0..20 {
        rec.instant(100 + i, i, 0, EventKind::Enqueue);
    }
    let (evs, missed) = rec.events_since(cursor);
    assert_eq!(evs.len(), 8, "only the ring's capacity is retained");
    for pair in evs.windows(2) {
        assert_eq!(pair[0].seq + 1, pair[1].seq, "feed has a gap or repeat");
    }
    assert_eq!(missed, evs[0].seq - cursor);
    assert_eq!(
        evs.len() as u64 + missed,
        20,
        "seen + missed accounts for every event since the cursor"
    );
    let by_kind: u64 = rec.dropped_by_kind().iter().map(|(_, c)| c).sum();
    assert_eq!(by_kind, rec.dropped(), "per-kind drops sum to the total");

    // A drained ring yields nothing and misses nothing.
    cursor = evs.last().unwrap().seq + 1;
    let (evs, missed) = rec.events_since(cursor);
    assert!(evs.is_empty());
    assert_eq!(missed, 0);
}

#[test]
fn flow_ids_pair_client_and_server_recorders() {
    use gts_service::{merge_snapshots, TraceContext, TraceRecorder};
    // Two independent processes' recorders, linked only by the context
    // the wire carried: the request flow (span_id*2) travels client →
    // server, the response flow (span_id*2+1) travels back.
    let client = TraceRecorder::new(64);
    let server = TraceRecorder::new(64);
    let ctx = TraceContext {
        trace_id: 0xBEEF,
        span_id: 7,
    };
    assert_ne!(ctx.request_flow(), ctx.response_flow());
    let flow_out = |flow, is_client| EventKind::FlowOut {
        flow,
        conn: 3,
        client: is_client,
    };
    let flow_in = |flow, is_client| EventKind::FlowIn {
        flow,
        conn: 3,
        client: is_client,
    };
    client.instant_traced(10, 1, 0, ctx.trace_id, flow_out(ctx.request_flow(), true));
    server.instant_traced(
        1000,
        42,
        0,
        ctx.trace_id,
        flow_in(ctx.request_flow(), false),
    );
    server.instant_traced(
        1500,
        42,
        0,
        ctx.trace_id,
        flow_out(ctx.response_flow(), false),
    );
    client.instant_traced(900, 1, 0, ctx.trace_id, flow_in(ctx.response_flow(), true));

    // Merge the client's timeline onto the server's (client wall clock
    // runs 990 µs behind here) — timestamps come out globally ordered.
    let merged = merge_snapshots(server.snapshot(), client.snapshot(), 990);
    assert_eq!(merged.events.len(), 4);
    for pair in merged.events.windows(2) {
        assert!(pair[0].ts_us <= pair[1].ts_us, "merge left ts unsorted");
    }

    // Every outbound flow half must find its inbound partner on the
    // opposite side with the same flow id.
    let mut outs = Vec::new();
    let mut ins = Vec::new();
    for e in &merged.events {
        match e.kind {
            EventKind::FlowOut { flow, client, .. } => outs.push((flow, client)),
            EventKind::FlowIn { flow, client, .. } => ins.push((flow, client)),
            _ => {}
        }
    }
    assert_eq!(outs.len(), 2);
    for (flow, from_client) in outs {
        assert!(
            ins.contains(&(flow, !from_client)),
            "flow {flow} has no partner on the other side"
        );
    }

    // The Chrome export carries both flow ids as s/f pairs Perfetto can
    // join, with the enclosing-slice binding point on the finish half.
    let json = merged.to_chrome_json();
    assert!(json.contains(&format!("\"id\":{}", ctx.request_flow())));
    assert!(json.contains(&format!("\"id\":{}", ctx.response_flow())));
    assert!(json.contains("\"ph\":\"s\""));
    assert!(json.contains("\"ph\":\"f\""));
    assert!(json.contains("\"bp\":\"e\""));
    serde_json::from_str::<serde_json::Value>(&json).expect("merged trace JSON parses");
}

#[test]
fn rejected_queries_leave_reject_events() {
    let (service, _) = small_service(1024);
    let err = service
        .submit(Query {
            index: 99,
            pos: vec![0.0, 0.0, 0.0],
            kind: QueryKind::Nn,
        })
        .expect_err("unknown index");
    assert!(matches!(err, gts_service::ServiceError::UnknownIndex(99)));
    let trace = service.trace();
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Reject { reason } if reason == "unknown-index")));
    let snapshot = service.shutdown();
    assert_eq!(snapshot.rejected, 1);
}

#[test]
fn wrong_shape_outcome_fails_its_dispatch_and_spares_the_worker() {
    // One worker: if a malformed outcome killed it, every later dispatch
    // would wait forever.
    let service = Service::start(ServiceConfig {
        workers: 1,
        batch_queries: 32,
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let mute = service.register_index(broken("mute", false));
    let pts = uniform::<3>(64, 15);
    let good = service.register_index(Arc::new(KdIndex::build(
        "good",
        &pts,
        8,
        SplitPolicy::MedianCycle,
    )));
    let round = |index| -> Vec<Result<QueryResult, ServiceError>> {
        let tickets: Vec<_> = (pts.iter())
            .map(|p| {
                let query = Query {
                    index,
                    pos: p.0.to_vec(),
                    kind: QueryKind::Nn,
                };
                service.submit(query).expect("accepted")
            })
            .collect();
        (tickets.iter())
            .map(|t| t.wait_timeout(HANG).expect("ticket hung"))
            .collect()
    };
    for r in round(mute) {
        assert!(matches!(r, Err(ServiceError::Internal(_))), "{r:?}");
    }
    for r in round(good) {
        assert!(matches!(r, Ok(QueryResult::Nn { .. })), "{r:?}");
    }
    let s = service.shutdown();
    assert_eq!((s.completed, s.failed, s.rejected), (64, 64, 0));
    assert_eq!(s.submitted, s.completed + s.failed + s.rejected);
}

#[test]
fn one_record_names_each_ending_alike_on_every_sink() {
    let (service, good) = small_service(16_384);
    let boom = service.register_index(broken("boom", true));
    let at = |index| Query {
        index,
        pos: vec![0.5, 0.5, 0.5],
        kind: QueryKind::Nn,
    };
    let ctx = |trace_id| TraceContext {
        trace_id,
        span_id: 7,
    };
    // Each query in a frame of its own, as a client's lone query arrives.
    let submit = |index, trace_id| {
        let mut slots = service.submit_all(vec![at(index)], ctx(trace_id));
        slots.pop().expect("one slot per query")
    };
    // Answered first: the first completion always commits.
    let answered = submit(good, 0xA1).expect("valid");
    assert!(matches!(answered.wait_timeout(HANG), Some(Ok(_))));
    let failed = submit(boom, 0xB2).expect("valid");
    let failure = failed.wait_timeout(HANG).expect("resolves");
    assert!(matches!(failure, Err(ServiceError::Internal(_))));
    let refused = submit(99, 0xC3);
    assert!(matches!(refused, Err(ServiceError::UnknownIndex(99))));

    let entries = service.slow_log().snapshot();
    let entry = |trace_id| -> &QueryRecord {
        let e = entries.iter().find(|r| r.trace_id == trace_id);
        e.expect("every ending commits")
    };
    let metrics = service.metrics();
    let trace = service.trace();
    // The per-query event names the record's query, under its trace id.
    let event = |r: &QueryRecord| {
        let ends = |k: &EventKind| matches!(k, EventKind::Complete | EventKind::Reject { .. });
        let e = (trace.events.iter()).find(|e| e.query == r.query && ends(&e.kind));
        let e = e.expect("a per-query event");
        assert_eq!(e.trace, r.trace_id);
        e
    };

    // Every ending's latency is its queue wait plus its execution, to the
    // clock's µs rounding.
    for trace_id in [0xA1, 0xB2, 0xC3] {
        let r = entry(trace_id);
        let stages = r.queue_wait_us + r.exec_us;
        assert!(r.latency_us.abs_diff(stages) <= 1, "{r:?}");
    }

    let r = entry(0xA1);
    let e = event(r);
    assert!(matches!(e.kind, EventKind::Complete));
    assert_eq!(
        (r.latency_us, r.batch, r.reason),
        (e.dur_us, Some(e.batch), None)
    );
    // Its batch is written once: one `Batch` span, as long as the query's
    // execution, naming its size, backend and op.
    let in_batch = |b: &&TraceEvent| b.batch == e.batch && b.query == NO_ID;
    let spans: Vec<&TraceEvent> = trace.events.iter().filter(in_batch).collect();
    let [span] = spans[..] else {
        panic!("one batch-scoped event for the batch: {spans:?}")
    };
    let EventKind::Batch {
        size, backend, ops, ..
    } = span.kind
    else {
        panic!("the batch's event is its span: {span:?}")
    };
    let riders = (trace.events.iter())
        .filter(|c| c.batch == e.batch && matches!(c.kind, EventKind::Complete))
        .count();
    assert_eq!(span.dur_us, r.exec_us);
    assert_eq!(
        (size as usize, Some(backend.name()), fused_ops_name(ops)),
        (riders, r.backend, r.op.to_string())
    );
    let exemplar = (metrics.latency_exemplars.iter()).find(|x| x.query == r.query);
    assert_eq!(exemplar.expect("an exemplar").trace, 0xA1);

    let r = entry(0xB2);
    let e = event(r);
    assert!(matches!(e.kind, EventKind::Reject { reason: "internal" }));
    assert_eq!((r.outcome, r.reason), ("rejected", Some("internal")));
    assert_eq!(r.batch, Some(e.batch));
    assert_eq!(metrics.failed, 1);

    let r = entry(0xC3);
    let e = event(r);
    assert!(matches!(
        e.kind,
        EventKind::Reject {
            reason: "unknown-index"
        }
    ));
    assert_eq!((r.outcome, r.reason), ("rejected", Some("unknown-index")));
    assert_eq!((r.batch, e.batch), (None, NO_ID));
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.submitted, metrics.completed + metrics.failed);
}

#[test]
fn one_batch_span_per_dispatch_names_its_lanes_ops_and_decision() {
    let pts = uniform::<3>(512, 21);
    let at = |i: usize, kind| Query {
        index: 0,
        pos: pts[i].0.to_vec(),
        kind,
    };
    let knn = QueryKind::Knn { k: 4 };
    // Distinct positions, NN only; then NN and kNN at every position.
    let single: Vec<Query> = (0..128).map(|i| at(i, QueryKind::Nn)).collect();
    let mixed: Vec<Query> = (0..128)
        .flat_map(|i| [at(i, QueryKind::Nn), at(i, knn)])
        .collect();
    for policy in [
        ExecPolicy::default(),
        ExecPolicy::forced(Backend::Autoropes),
    ] {
        for stream in [&single, &mixed] {
            let label = format!("force {:?}, {} queries", policy.force, stream.len());
            // One submitter and size-only flushes: query ids ascend with
            // the stream, and each dispatch is decided by `submit`.
            let service = Service::start(ServiceConfig {
                batch_queries: 32,
                max_wait: Duration::from_secs(3600),
                workers: 2,
                policy: policy.clone(),
                trace_capacity: 16_384,
                ..ServiceConfig::default()
            });
            let index = KdIndex::build("flat", &pts, 8, SplitPolicy::MedianCycle);
            service.register_index(Arc::new(index));
            let tickets: Vec<_> = (stream.iter())
                .map(|q| service.submit(q.clone()).expect("valid"))
                .collect();
            let (snapshot, trace) = service.shutdown_with_trace();
            assert!(tickets.iter().all(|t| matches!(t.try_get(), Some(Ok(_)))));
            assert_eq!(trace.dropped, 0);

            // What each batch id carried, from its queries' Complete spans.
            let mut asked: HashMap<u64, Vec<&Query>> = HashMap::new();
            let mut completes: Vec<(u64, u64)> = (trace.events.iter())
                .filter(|e| matches!(e.kind, EventKind::Complete))
                .map(|e| (e.query, e.batch))
                .collect();
            completes.sort_unstable();
            for (n, (_, batch)) in completes.into_iter().enumerate() {
                asked.entry(batch).or_default().push(&stream[n]);
            }
            let mut spans: HashMap<u64, usize> = HashMap::new();
            for e in trace.events.iter().filter(|e| e.query == NO_ID) {
                let EventKind::Batch {
                    size,
                    lanes,
                    parts,
                    ops,
                    fused,
                    metered,
                    similarity,
                    ..
                } = e.kind
                else {
                    // A flat index leaves no shard spans either.
                    assert_eq!(e.batch, NO_ID, "{label}: {e:?}");
                    continue;
                };
                *spans.entry(e.batch).or_default() += 1;
                let queries = &asked[&e.batch];
                let keys: HashSet<_> = queries.iter().map(|q| q.kind.op_key()).collect();
                let positions: HashSet<Vec<u32>> = (queries.iter())
                    .map(|q| q.pos.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let mask = (keys.iter()).fold(0, |m, k| m | k.expect("valid").family().1);
                assert_eq!(size as usize, queries.len(), "{label}");
                assert_eq!(lanes as usize, positions.len(), "{label}");
                assert_eq!((parts as usize, ops), (keys.len(), mask), "{label}");
                assert_eq!(fused, keys.len() == 2, "{label}: {e:?}");
                // The profiler samples pairs of lanes of a metered batch,
                // unless forced; an unmetered one runs the host walk.
                let profiled = policy.force.is_none() && metered && lanes >= 2;
                assert_eq!(!similarity.is_nan(), profiled, "{label}: {e:?}");
            }
            assert!(spans.values().all(|&n| n == 1), "{label}: {spans:?}");
            assert_eq!(spans.len(), asked.len(), "{label}");
            assert_eq!(spans.len() as u64, snapshot.batches, "{label}");
            // A dispatch is one flushed bucket with one id: ids are dense.
            let mut ids: Vec<u64> = spans.into_keys().collect();
            ids.sort_unstable();
            assert!(ids.into_iter().eq(0..snapshot.batches), "{label}");

            // The Chrome export carries the whole decision on the span.
            let json = trace.to_chrome_json();
            let serde_json::Value::Array(events) = serde_json::from_str(&json).expect("parses")
            else {
                panic!("not an array")
            };
            let field = |ev: &serde_json::Value, k: &str| match ev {
                serde_json::Value::Object(f) => {
                    f.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
                }
                _ => None,
            };
            for ev in &events {
                let name = field(ev, "name");
                for gone in ["fused_batch", "backend"] {
                    assert_ne!(
                        name,
                        Some(serde_json::Value::String(gone.into())),
                        "{label}"
                    );
                }
                if name == Some(serde_json::Value::String("batch".into())) {
                    let args = field(ev, "args").expect("args");
                    for k in ["backend", "lanes", "ops", "fused"] {
                        assert!(field(&args, k).is_some(), "{label}: no {k} in {args:?}");
                    }
                }
            }
        }
    }
}
