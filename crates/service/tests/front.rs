//! The front end between `submit` and the workers: who flushes a bucket,
//! who waits for room in the ready queue, and what they hold meanwhile.
//!
//! * idle workers re-arm towards the first bucket's deadline after every
//!   idle stretch and after a size flush emptied the front, one worker or
//!   several — a lost wake-up is a hang, not a late batch;
//! * a submitter waiting for room holds no lock: other submitters,
//!   `metrics()` and `close()` all get through, and `close()` returns
//!   without waiting for room;
//! * with one submitter and size-only flushing, batch composition is
//!   decided by `submit` itself — by the push that brings an index's
//!   distinct positions, or a bucket's queries, up to the target — and
//!   queries at one position share a lane, whatever ops they ask;
//! * a frame (`submit_all`) is filed whole or refused whole, and every
//!   index it touched leaves when it ends, while a lone submit still waits
//!   for its deadline or the close.
//!
//! Every wait is bounded by [`HANG`], far above anything a healthy run
//! needs, because the failure mode of all of these is a hang.

use gts_points::gen::uniform;
use gts_service::{
    EventKind, ExecPolicy, FusedLane, FusedOutcome, KdIndex, Query, QueryKind, Service,
    ServiceConfig, ServiceError, Ticket, TraceContext, TraceSnapshot, TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use std::collections::{BTreeMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HANG: Duration = Duration::from_secs(30);
const BATCH: usize = 32;

fn points() -> Vec<PointN<3>> {
    uniform::<3>(512, 0xf407)
}

fn kd(pts: &[PointN<3>]) -> KdIndex<3> {
    KdIndex::build("front", pts, 8, SplitPolicy::MedianCycle)
}

fn query(index: usize, p: PointN<3>, kind: QueryKind) -> Query {
    Query {
        index,
        pos: p.0.to_vec(),
        kind,
    }
}

fn resolved(t: &Ticket) -> bool {
    matches!(t.wait_timeout(HANG), Some(Ok(_)))
}

/// An index whose `run` parks until the gate opens (its sender dropped).
struct Gated {
    inner: KdIndex<3>,
    gate: Mutex<mpsc::Receiver<()>>,
}

impl TreeIndex for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn n_points(&self) -> usize {
        self.inner.n_points()
    }
    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome {
        let _ = self.gate.lock().unwrap().recv();
        self.inner.run(lanes, policy)
    }
}

/// One worker behind a one-slot dispatch queue, size-only flushing, a
/// gated index and a plain one. Of the gated index's batches the first
/// parks on the worker, the second fills the queue, and the submit that
/// completes the third waits for room.
fn gated_service(pts: &[PointN<3>]) -> (Service, usize, usize, mpsc::Sender<()>) {
    let service = Service::start(ServiceConfig {
        workers: 1,
        dispatch_capacity: 1,
        batch_queries: BATCH,
        max_wait: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    let (open, gate) = mpsc::channel();
    let gated = service.register_index(Arc::new(Gated {
        inner: kd(pts),
        gate: Mutex::new(gate),
    }));
    let plain = service.register_index(Arc::new(kd(pts)));
    (service, gated, plain, open)
}

/// Submit three batches of NN queries; the last `submit` cannot return
/// until the gate opens. Reports each outcome on `done`.
fn fill_until_blocked(
    service: &Service,
    id: usize,
    pts: &[PointN<3>],
    done: &mpsc::Sender<Result<Ticket, ServiceError>>,
) {
    for p in &pts[..3 * BATCH] {
        let _ = done.send(service.submit(query(id, *p, QueryKind::Nn)));
    }
}

/// Wait until the filler's last query is in its batch (`submitted` counts
/// it after the push and before the wait for room), give it a moment to
/// reach the wait, and check it has not come back.
fn await_blocked(
    service: &Service,
    extra: u64,
    done: &mpsc::Receiver<Result<Ticket, ServiceError>>,
) -> Vec<Ticket> {
    let deadline = Instant::now() + HANG;
    while service.metrics().submitted < 3 * BATCH as u64 + extra {
        assert!(Instant::now() < deadline, "the filler never got there");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    let returned: Vec<Ticket> = done.try_iter().map(|r| r.expect("open")).collect();
    assert_eq!(returned.len(), 3 * BATCH - 1, "the last submit is blocked");
    returned
}

#[test]
fn deadline_rearms_after_idling_and_after_a_size_flush() {
    // One idle worker, and several: every one re-arms towards the first
    // bucket's deadline, and none flushes it early.
    for workers in [1, 3] {
        let pts = points();
        let max_wait = Duration::from_millis(5);
        let service = Service::start(ServiceConfig {
            batch_queries: BATCH,
            max_wait,
            workers,
            ..ServiceConfig::default()
        });
        let id = service.register_index(Arc::new(kd(&pts)));
        let lone_query_flushes_on_its_deadline = |cycle: usize, idle: Duration| {
            std::thread::sleep(idle);
            let start = Instant::now();
            let ticket = service
                .submit(query(id, pts[cycle], QueryKind::Nn))
                .expect("open");
            let at = format!("{workers} workers, cycle {cycle}");
            assert!(resolved(&ticket), "{at}: the workers slept on");
            assert!(start.elapsed() >= max_wait, "{at}: flushed early");
        };
        for cycle in 0..30 {
            lone_query_flushes_on_its_deadline(cycle, 3 * max_wait);
        }
        // A size flush leaves the workers asleep towards a deadline that
        // no longer exists; the next first bucket must still get its own,
        // whether it arrives before they have noticed or after.
        for cycle in 30..40 {
            let full: Vec<Ticket> = (pts[..BATCH].iter())
                .map(|p| service.submit(query(id, *p, QueryKind::Nn)).expect("open"))
                .collect();
            assert!(full.iter().all(resolved));
            lone_query_flushes_on_its_deadline(cycle, (cycle % 2) as u32 * 3 * max_wait);
        }
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, 40 + 10 * BATCH as u64);
    }
}

#[test]
fn blocked_submitter_holds_no_lock() {
    let pts = points();
    let (service, gated, plain, open) = gated_service(&pts);
    let (done_tx, done) = mpsc::channel();
    let (other_tx, other) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| fill_until_blocked(&service, gated, &pts, &done_tx));
        let mut tickets = await_blocked(&service, 0, &done);

        // Another key's bucket takes 31 queries and `metrics()` answers
        // while the filler sits in its send.
        scope.spawn(|| {
            let tickets: Vec<Ticket> = (pts[..BATCH - 1].iter())
                .map(|p| service.submit(query(plain, *p, QueryKind::Knn { k: 4 })))
                .collect::<Result<_, _>>()
                .expect("open");
            other_tx.send((tickets, service.metrics())).unwrap();
        });
        let (others, snapshot) = (other.recv_timeout(HANG))
            .expect("a second submitter waited on the blocked one's lock");
        assert_eq!(snapshot.submitted, (4 * BATCH - 1) as u64);
        assert_eq!(snapshot.completed, 0, "the gate is shut");
        assert!(done.try_recv().is_err(), "the filler is still blocked");

        drop(open);
        let last = done.recv_timeout(HANG).expect("the filler came back");
        tickets.push(last.expect("open"));
        assert!(tickets.iter().all(resolved));
        // The partial bucket has no deadline to speak of: the close
        // flushes it.
        service.close();
        assert!(others.iter().all(resolved));
    });
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, (4 * BATCH - 1) as u64);
    assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
    assert_eq!(snapshot.rejected, 0);
}

#[test]
fn close_beside_a_blocked_submitter_returns_and_loses_nothing() {
    let pts = points();
    let (service, gated, plain, open) = gated_service(&pts);
    // A partial bucket for the close to flush into the full queue.
    let residue: Vec<Ticket> = (pts[..5].iter())
        .map(|p| service.submit(query(plain, *p, QueryKind::Knn { k: 4 })))
        .collect::<Result<_, _>>()
        .expect("open");
    let (done_tx, done) = mpsc::channel();
    let (closed_tx, closed) = mpsc::channel();
    let (probed_tx, probed) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| fill_until_blocked(&service, gated, &pts, &done_tx));
        let mut tickets = await_blocked(&service, residue.len() as u64, &done);
        tickets.extend(residue);

        scope.spawn(|| {
            service.close();
            closed_tx.send(()).unwrap();
        });
        // The close does not wait for room in the full queue: it flushes
        // the residue behind it and returns with the gate still shut, and
        // submits are refused at once. The ones that beat the close to the
        // lock were accepted and must resolve (a `k` of its own each, so
        // that none of them completes a batch and waits for room too).
        scope.spawn(|| {
            let (mut accepted, mut refused) = (Vec::new(), 0);
            let deadline = Instant::now() + HANG;
            while refused < 3 && Instant::now() < deadline {
                let k = 5 + accepted.len();
                match service.submit(query(plain, pts[0], QueryKind::Knn { k })) {
                    Ok(ticket) => accepted.push(ticket),
                    Err(ServiceError::ShuttingDown) => refused += 1,
                    Err(other) => panic!("unexpected error: {other}"),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            probed_tx.send((accepted, refused)).unwrap();
        });
        let (accepted, mut refused) = (probed.recv_timeout(HANG))
            .expect("a submit waited on the close or the blocked submitter");
        assert_eq!(refused, 3, "the close never took effect");
        tickets.extend(accepted);
        (closed.recv_timeout(HANG)).expect("close() waited for the gate");
        assert_eq!(service.metrics().completed, 0, "the gate is shut");

        drop(open);
        match done.recv_timeout(HANG).expect("the filler came back") {
            Ok(ticket) => tickets.push(ticket),
            Err(ServiceError::ShuttingDown) => refused += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
        assert!(tickets.iter().all(resolved));
        let snapshot = service.metrics();
        assert_eq!(snapshot.submitted, tickets.len() as u64);
        assert_eq!(snapshot.rejected, refused);
    });
    let snapshot = service.shutdown();
    assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
    assert_eq!(snapshot.failed, 0);
}

#[test]
fn a_single_submitter_decides_batch_composition_at_submit() {
    let pts = points();
    let batch_of_each_query = || -> Vec<u64> {
        let service = Service::start(ServiceConfig {
            batch_queries: BATCH,
            max_wait: Duration::from_secs(3600),
            workers: 2,
            ..ServiceConfig::default()
        });
        let id = service.register_index(Arc::new(kd(&pts)));
        let tickets: Vec<Ticket> = (pts[..6 * BATCH].iter())
            .map(|p| service.submit(query(id, *p, QueryKind::Nn)).expect("open"))
            .collect();
        assert!(tickets.iter().all(resolved));
        let (_, trace) = service.shutdown_with_trace();
        let mut completes: Vec<(u64, u64)> = (trace.events.iter())
            .filter(|e| matches!(e.kind, EventKind::Complete))
            .map(|e| (e.query, e.batch))
            .collect();
        completes.sort_unstable();
        assert_eq!(completes.len(), tickets.len());
        completes.into_iter().map(|(_, batch)| batch).collect()
    };
    let expected: Vec<u64> = (0..6 * BATCH as u64).map(|n| n / BATCH as u64).collect();
    assert_eq!(batch_of_each_query(), expected);
    assert_eq!(batch_of_each_query(), expected);
}

/// Serve `stream` from one submitter over two indices, `BATCH` queries per
/// batch and no deadline in reach, and return the trace: the close
/// flushes what is left.
fn serve_one_submitter(stream: &[Query]) -> TraceSnapshot {
    let pts = points();
    let service = Service::start(ServiceConfig {
        batch_queries: BATCH,
        max_wait: Duration::from_secs(3600),
        workers: 2,
        ..ServiceConfig::default()
    });
    for _ in 0..2 {
        service.register_index(Arc::new(kd(&pts)));
    }
    let tickets: Vec<Ticket> = (stream.iter())
        .map(|q| service.submit(q.clone()).expect("open"))
        .collect();
    let (_, trace) = service.shutdown_with_trace();
    assert!(tickets.iter().all(resolved));
    trace
}

/// What the trace says each batch id ran: the stream positions of its
/// queries (query ids ascend with submission), and its span — its lane
/// count when its lanes carried two or more distinct ops, `None`
/// otherwise.
fn dispatches(trace: &TraceSnapshot) -> BTreeMap<u64, (Vec<usize>, Option<u32>)> {
    let mut completes: Vec<(u64, u64)> = (trace.events.iter())
        .filter(|e| matches!(e.kind, EventKind::Complete))
        .map(|e| (e.query, e.batch))
        .collect();
    completes.sort_unstable();
    let mut out: BTreeMap<u64, (Vec<usize>, Option<u32>)> = BTreeMap::new();
    for (n, (_, batch)) in completes.into_iter().enumerate() {
        out.entry(batch).or_default().0.push(n);
    }
    for e in &trace.events {
        if let EventKind::Batch {
            fused: true, lanes, ..
        } = e.kind
        {
            out.get_mut(&e.batch).expect("a span for a served batch").1 = Some(lanes);
        }
    }
    out
}

fn kind_of(n: usize) -> QueryKind {
    match n % 3 {
        0 => QueryKind::Nn,
        1 => QueryKind::Knn { k: 4 },
        _ => QueryKind::Pc { radius: 0.1 },
    }
}

#[test]
fn fusion_dispatches_an_index_on_the_push_of_its_32nd_distinct_position() {
    let pts = points();
    // Two indices in turn; each one's m-th query asks the m-th op of the
    // NN / kNN / PC cycle at point ⌊2m / 3⌋, so positions repeat under
    // different ops and some lanes fuse.
    let stream: Vec<Query> = (0..8 * BATCH)
        .map(|n| {
            let m = n / 2;
            query(n % 2, pts[2 * m / 3], kind_of(m))
        })
        .collect();
    // The rule, replayed: an index goes on the push that brings its
    // distinct pending positions to `BATCH`, with everything it holds.
    let mut expected: Vec<Vec<usize>> = Vec::new();
    let mut pending: [(HashSet<usize>, Vec<usize>); 2] = Default::default();
    for (n, q) in stream.iter().enumerate() {
        let (lanes, queries) = &mut pending[q.index];
        lanes.insert(2 * (n / 2) / 3);
        queries.push(n);
        if lanes.len() == BATCH {
            lanes.clear();
            expected.push(std::mem::take(queries));
        }
    }
    assert!(
        expected.len() >= 4,
        "the stream fills batches on both indices"
    );
    let served = dispatches(&serve_one_submitter(&stream));
    let mut full = served
        .values()
        .filter(|(_, lanes)| *lanes == Some(BATCH as u32));
    for (i, want) in expected.iter().enumerate() {
        let (got, _) = full.next().expect("a 32-lane fused dispatch per fill");
        assert_eq!(got, want, "fill {i}");
    }
    assert!(
        full.next().is_none(),
        "the residue goes at the close, short"
    );
    let served_queries: usize = served.values().map(|(q, _)| q.len()).sum();
    assert_eq!(served_queries, stream.len());
}

#[test]
fn fusion_dispatches_triples_at_shared_positions_as_32_lanes() {
    let pts = points();
    // NN, kNN and PC in turn at each position, on index 0.
    let stream: Vec<Query> = (0..3 * BATCH)
        .map(|n| query(0, pts[n / 3], kind_of(n)))
        .collect();
    let fused = dispatches(&serve_one_submitter(&stream));
    // The 32nd position's NN fills the lanes: 32 lanes, 94 queries. Its
    // kNN and PC go at the close.
    let mut batches = fused.values();
    let (first, lanes) = batches.next().expect("a dispatch");
    assert_eq!((first.len(), *lanes), (3 * BATCH - 2, Some(BATCH as u32)));
    assert_eq!(first, &(0..3 * BATCH - 2).collect::<Vec<_>>());
    let (rest, lanes) = batches.next().expect("the residue");
    assert_eq!(
        (rest, *lanes),
        (&vec![3 * BATCH - 2, 3 * BATCH - 1], Some(1))
    );
    assert!(batches.next().is_none());
}

/// An index that notes how many lanes each batch it runs holds.
struct Counting {
    inner: KdIndex<3>,
    lanes: Mutex<Vec<usize>>,
}

impl TreeIndex for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn n_points(&self) -> usize {
        self.inner.n_points()
    }
    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome {
        self.lanes.lock().unwrap().push(lanes.len());
        self.inner.run(lanes, policy)
    }
}

#[test]
fn a_lone_op_at_repeated_positions_dispatches_one_lane_per_position() {
    let pts = points();
    let index = Arc::new(Counting {
        inner: kd(&pts),
        lanes: Mutex::new(Vec::new()),
    });
    let service = Service::start(ServiceConfig {
        batch_queries: BATCH,
        max_wait: Duration::from_secs(3600),
        workers: 1,
        ..ServiceConfig::default()
    });
    let id = service.register_index(index.clone());
    // NN only, every position twice in a row: each bucket fills to its
    // 32 queries at 16 positions.
    let tickets: Vec<Ticket> = (0..4 * BATCH)
        .map(|n| service.submit(query(id, pts[n / 2], QueryKind::Nn)))
        .collect::<Result<_, _>>()
        .expect("open");
    assert!(tickets.iter().all(resolved));
    // A repeated position's two tickets read its one lane's answer.
    for pair in tickets.chunks(2) {
        assert_eq!(pair[0].wait(), pair[1].wait());
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 4 * BATCH as u64);
    assert_eq!(*index.lanes.lock().unwrap(), [BATCH / 2; 4]);
}

/// Two indices, `BATCH` lanes a dispatch, and no deadline in reach: a
/// query leaves by a size flush, by the end of its frame, or at the close.
fn frame_service(pts: &[PointN<3>]) -> Service {
    let service = Service::start(ServiceConfig {
        batch_queries: BATCH,
        max_wait: Duration::from_secs(3600),
        workers: 2,
        ..ServiceConfig::default()
    });
    for _ in 0..2 {
        service.register_index(Arc::new(kd(pts)));
    }
    service
}

#[test]
fn a_frame_leaves_when_it_ends_and_a_lone_submit_still_waits() {
    let pts = points();
    let service = frame_service(&pts);
    // Index 0 takes 40 positions, a size flush and 8 over; index 1 takes
    // 20 queries at 10 positions, two ops each.
    let mut frame = Vec::new();
    for i in 0..40 {
        frame.push(query(0, pts[i], QueryKind::Nn));
        if i % 2 == 0 {
            frame.push(query(1, pts[100 + i / 4], kind_of(i / 2)));
        }
    }
    let tickets: Vec<Ticket> = (service.submit_all(frame.clone(), TraceContext::LOCAL))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("open");
    assert!(
        tickets.iter().all(resolved),
        "the frame waited for the close"
    );
    let m = service.metrics();
    assert_eq!((m.batches, m.completed), (3, frame.len() as u64));
    assert_eq!(service.queue_depth(), 0);

    // A lone query still waits for its index to fill, or the close.
    let lone = (service.submit(query(0, pts[200], QueryKind::Nn))).expect("open");
    assert!(lone.wait_timeout(Duration::from_millis(20)).is_none());
    let (m, trace) = service.shutdown_with_trace();
    assert!(resolved(&lone), "the close drains it");
    assert_eq!(m.submitted, frame.len() as u64 + 1);
    assert_eq!(m.submitted, m.completed + m.failed);
    assert_eq!(m.rejected, 0);

    let mut sizes: Vec<u32> = (trace.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Batch { size, .. } => Some(size),
            _ => None,
        })
        .collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [1, 8, 20, BATCH as u32]);
    // Each query's Submit and Enqueue are recorded before its Complete.
    let mut seqs: BTreeMap<u64, Vec<(u64, &str)>> = BTreeMap::new();
    for e in &trace.events {
        let kind = match e.kind {
            EventKind::Submit => "submit",
            EventKind::Enqueue => "enqueue",
            EventKind::Complete => "complete",
            _ => continue,
        };
        seqs.entry(e.query).or_default().push((e.seq, kind));
    }
    assert_eq!(seqs.len(), frame.len() + 1);
    for (query, mut events) in seqs {
        events.sort_unstable();
        let order: Vec<&str> = events.iter().map(|(_, kind)| *kind).collect();
        assert_eq!(order, ["submit", "enqueue", "complete"], "query {query}");
    }
}

#[test]
fn a_frame_refuses_its_invalid_query_and_answers_the_rest() {
    let pts = points();
    let service = frame_service(&pts);
    let mut frame: Vec<Query> = (pts[..10].iter())
        .map(|p| query(0, *p, QueryKind::Nn))
        .collect();
    frame[4].pos[1] = f32::NAN;
    let results = service.submit_all(frame.clone(), TraceContext::LOCAL);
    assert_eq!(results.len(), frame.len());
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(ServiceError::BadQuery(_)) if i == 4 => {}
            Ok(ticket) if i != 4 => assert!(resolved(ticket), "slot {i} waited"),
            other => panic!("slot {i}: {other:?}"),
        }
    }
    let m = service.shutdown();
    assert_eq!((m.submitted, m.rejected), (9, 1));
    assert_eq!(m.submitted + m.rejected, frame.len() as u64);
    assert_eq!(m.submitted, m.completed + m.failed);
}

#[test]
fn a_frame_racing_the_close_resolves_every_accepted_ticket() {
    const N: usize = 16;
    let pts = points();
    let service = frame_service(&pts);
    let (first_tx, first) = mpsc::channel();
    let frames = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let mut frames = Vec::new();
            for round in 0.. {
                let frame: Vec<Query> = (0..N)
                    .map(|i| query(i % 2, pts[(round * N + i) % pts.len()], kind_of(i)))
                    .collect();
                let results = service.submit_all(frame, TraceContext::LOCAL);
                let refused = results.iter().any(Result::is_err);
                frames.push(results);
                if round == 0 {
                    first_tx.send(()).unwrap();
                }
                if refused {
                    return frames;
                }
            }
            unreachable!("the loop returns")
        });
        first.recv_timeout(HANG).expect("the first frame came back");
        service.close();
        submitter.join().unwrap()
    });
    let (mut accepted, mut refused) = (0, 0);
    for results in &frames {
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert!(ok == 0 || ok == N, "a frame is filed whole or not at all");
        for r in results {
            match r {
                Ok(ticket) => assert!(resolved(ticket)),
                Err(e) => assert_eq!(*e, ServiceError::ShuttingDown),
            }
        }
        (accepted, refused) = (accepted + ok, refused + N - ok);
    }
    assert_eq!(accepted + refused, N * frames.len());
    assert_eq!(refused, N, "the last frame met the closed front");
    let m = service.shutdown();
    assert_eq!((m.submitted, m.rejected), (accepted as u64, refused as u64));
    assert_eq!(m.submitted, m.completed + m.failed);
}
