//! End-to-end socket-path tests: a real `Service` behind a real
//! `NetServer`, exercised through `Client` over loopback TCP.

use gts_net::{Client, ErrorCode, NetServer, WireError, PROTOCOL_VERSION};
use gts_points::gen::uniform;
use gts_service::{
    KdIndex, Mutation, Query, QueryKind, QueryResult, Service, ServiceConfig, Ticket, TraceContext,
    TreeIndex,
};
use gts_trees::SplitPolicy;
use std::io::ErrorKind::InvalidInput;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn start_server(cfg: ServiceConfig) -> (NetServer, Vec<gts_trees::PointN<3>>) {
    let pts = uniform::<3>(512, 4242);
    let service = Service::start(cfg);
    service.register_index(
        Arc::new(KdIndex::build("e2e", &pts, 8, SplitPolicy::MedianCycle)) as Arc<dyn TreeIndex>,
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).expect("bind");
    (server, pts)
}

/// Bounds every wait that a lost flush would turn into a hang.
const HANG: Duration = Duration::from_secs(30);

/// Run `ask` and return what it returns, failing instead of hanging when
/// it takes `HANG` or longer: `service` is closed first, so its drain
/// answers whatever `ask` waits for and the failure ends the test.
fn within_hang<T: Send>(service: &Service, ask: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        let (done, answered) = mpsc::channel();
        scope.spawn(move || done.send(ask()));
        answered.recv_timeout(HANG).unwrap_or_else(|_| {
            service.close();
            panic!("not answered within {HANG:?}")
        })
    })
}

/// Send `frame` and collect its answers, failing instead of hanging when
/// they take `HANG` or longer.
fn answered_within_hang(
    service: &Service,
    client: &mut Client,
    frame: &[Query],
) -> Vec<Result<QueryResult, WireError>> {
    let base = client.send_batch(frame).unwrap();
    within_hang(service, || client.recv_batch(base).unwrap())
}

fn nn(pos: [f32; 3]) -> Query {
    Query {
        index: 0,
        pos: pos.to_vec(),
        kind: QueryKind::Nn,
    }
}

#[test]
fn socket_results_match_in_process_bit_for_bit() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let queries: Vec<Query> = (0..64)
        .map(|i| match i % 3 {
            0 => nn(pts[i * 5 % pts.len()].0),
            1 => Query {
                index: 0,
                pos: pts[i * 7 % pts.len()].0.to_vec(),
                kind: QueryKind::Knn { k: 4 },
            },
            _ => Query {
                index: 0,
                pos: pts[i * 11 % pts.len()].0.to_vec(),
                kind: QueryKind::Pc { radius: 0.2 },
            },
        })
        .collect();

    // Same query through the socket and in-process must agree exactly —
    // the wire encodes f32 bit patterns, not decimal text.
    for q in &queries {
        let over_socket = client.query(q.clone()).unwrap().expect("socket result");
        let in_process = service.query(q.clone()).expect("in-process result");
        assert_eq!(over_socket, in_process);
    }

    // The batch path returns the same answers in submission order.
    let base = client.send_batch(&queries).unwrap();
    let results = client.recv_batch(base).unwrap();
    assert_eq!(results.len(), queries.len());
    for (q, r) in queries.iter().zip(results) {
        let in_process = service.query(q.clone()).unwrap();
        assert_eq!(r.expect("batch slot ok"), in_process);
    }

    client.shutdown().expect("graceful close");
    server.shutdown();
}

#[test]
fn pipelined_batches_interleave_and_resolve_out_of_order_safely() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Four frames in flight at once, mixed kernels so the service batches
    // them under different keys and completes them in arbitrary order.
    let waves: Vec<Vec<Query>> = (0..4)
        .map(|w| {
            (0..100)
                .map(|i| {
                    let p = pts[(w * 131 + i * 7) % pts.len()].0;
                    match w % 2 {
                        0 => nn(p),
                        _ => Query {
                            index: 0,
                            pos: p.to_vec(),
                            kind: QueryKind::Pc { radius: 0.15 },
                        },
                    }
                })
                .collect()
        })
        .collect();
    let ids: Vec<u64> = waves
        .iter()
        .map(|w| client.send_batch(w).unwrap())
        .collect();
    // Collect in reverse send order to force the parking path.
    for (wave, &id) in waves.iter().zip(&ids).rev() {
        let results = client.recv_batch(id).unwrap();
        assert_eq!(results.len(), wave.len());
        for r in results {
            assert!(r.is_ok());
        }
    }
    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn validation_failures_come_back_as_structured_wire_errors() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let err = client
        .query(Query {
            index: 99,
            pos: vec![0.0; 3],
            kind: QueryKind::Nn,
        })
        .unwrap()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownIndex);

    let err = client
        .query(Query {
            index: 0,
            pos: vec![0.0; 2],
            kind: QueryKind::Nn,
        })
        .unwrap()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::DimMismatch);

    // A batch with bad slots — NaN, +inf, the wrong dimension — still
    // answers every slot, each bad one with its own code.
    let at = |pos: Vec<f32>| Query {
        index: 0,
        pos,
        kind: QueryKind::Nn,
    };
    let queries = vec![
        nn(pts[0].0),
        at(vec![f32::NAN; 3]),
        nn(pts[1].0),
        at(vec![0.5, f32::INFINITY, 0.5]),
        at(vec![0.5; 2]),
        nn(pts[2].0),
    ];
    let base = client.send_batch(&queries).unwrap();
    let results = client.recv_batch(base).unwrap();
    let codes: Vec<Option<ErrorCode>> = results
        .iter()
        .map(|r| r.as_ref().err().map(|e| e.code))
        .collect();
    let (bad, dim) = (Some(ErrorCode::BadQuery), Some(ErrorCode::DimMismatch));
    assert_eq!(codes, [None, bad, None, bad, dim, None]);

    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn what_the_wire_cannot_carry_is_saturated_or_refused() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A k past the wire's u32 saturates, and a k past the index asks for
    // every point: the answer is the one the service gives in process.
    let every = Query {
        index: 0,
        pos: pts[3].0.to_vec(),
        kind: QueryKind::Knn { k: (1 << 32) + 1 },
    };
    let got = client.query(every.clone()).unwrap().expect("answered");
    let QueryResult::Knn { ids, .. } = &got else {
        panic!("{got:?}")
    };
    assert_eq!(ids.len(), pts.len(), "k = 2^32 + 1 arrived as another k");
    assert_eq!(got, service.query(every).unwrap());

    // An index or a length the wire would wrap is refused before anything
    // is written.
    let long = Query {
        pos: vec![0.0; 1 << 16],
        ..nn(pts[0].0)
    };
    let far = Query {
        index: 1 << 32,
        ..nn(pts[0].0)
    };
    fn refused<T>(r: std::io::Result<T>) -> std::io::ErrorKind {
        r.err().expect("refused").kind()
    }
    assert_eq!(refused(client.query(far.clone())), InvalidInput);
    assert_eq!(refused(client.query(long.clone())), InvalidInput);
    assert_eq!(
        refused(client.send_batch(&[nn(pts[0].0), far])),
        InvalidInput
    );
    assert_eq!(refused(client.send_batch(&[long])), InvalidInput);
    assert_eq!(refused(client.mutate(1 << 32, &[])), InvalidInput);
    let insert = Mutation::Insert {
        pos: vec![0.0; 1 << 16],
    };
    assert_eq!(refused(client.mutate(0, &[insert])), InvalidInput);

    // The session is intact: the next query and batch are answered.
    assert!(client.query(nn(pts[0].0)).unwrap().is_ok());
    let base = client.send_batch(&[nn(pts[1].0)]).unwrap();
    assert!(client.recv_batch(base).unwrap()[0].is_ok());
    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn overload_rejections_carry_the_predicted_wait() {
    let (server, pts) = start_server(ServiceConfig {
        batch_queries: 64,
        max_wait: Duration::from_secs(3600),
        admission_budget: Some(Duration::from_nanos(1)),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Seed the EWMA model with one full size-triggered batch.
    let warm: Vec<Query> = (0..64).map(|i| nn(pts[i % pts.len()].0)).collect();
    let base = client.send_batch(&warm).unwrap();
    for r in client.recv_batch(base).unwrap() {
        r.expect("warmup admitted");
    }

    // Park one query (depth 1), then every submission models a wait
    // above the 1ns budget and is rejected with the model attached. It is
    // parked in process: a frame is answered at once and would leave the
    // depth at 0.
    let parked = server.service().submit(nn(pts[0].0)).expect("admitted");
    let err = client.query(nn(pts[3].0)).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::Overloaded);
    let predicted = err.predicted_wait().expect("overload carries the model");
    assert!(predicted > Duration::ZERO);
    assert!(err.budget_us <= 1, "1ns budget rounds to 0–1µs");

    // A frame is admitted query by query against the same model: every
    // slot is refused with the wait attached, and the connection answers
    // on.
    let frame: Vec<Query> = (4..12).map(|i| nn(pts[i].0)).collect();
    let base = client.send_batch(&frame).unwrap();
    let slots = client.recv_batch(base).unwrap();
    assert_eq!(slots.len(), frame.len());
    for slot in slots {
        let err = slot.expect_err("an overloaded frame admits nothing");
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.predicted_us > 0, "{err:?}");
    }
    let err = client.query(nn(pts[12].0)).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::Overloaded);

    // The parked query is not lost: closing the service drains it.
    server.service().close();
    let drained = parked.wait_timeout(HANG).expect("the close drains it");
    assert!(drained.is_ok(), "drain completed the admitted query");
    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn mid_stream_service_close_answers_cleanly_instead_of_dropping() {
    // Regression: closing the service while a connection is mid-stream
    // must (a) complete already-accepted queries via the drain and (b)
    // answer new submissions with Error(ShuttingDown) — the TCP
    // connection itself stays up.
    let (server, pts) = start_server(ServiceConfig {
        batch_queries: 4096,
        max_wait: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A frame is answered when it ends, deadline an hour away and size
    // target unreachable or not.
    let frame: Vec<Query> = (0..50).map(|i| nn(pts[i % pts.len()].0)).collect();
    let results = answered_within_hang(&service, &mut client, &frame);
    assert!(results.iter().all(Result::is_ok));

    // Lone submits are parked in the batcher until the close.
    let parked: Vec<Ticket> = (pts[..5].iter())
        .map(|p| service.submit(nn(p.0)).expect("open"))
        .collect();
    assert!(parked.iter().all(|t| t.try_get().is_none()));

    service.close();

    // (b) New submissions get a structured ShuttingDown error frame, a
    // frame's in every slot.
    let err = client.query(nn(pts[0].0)).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::ShuttingDown);
    let base = client.send_batch(&frame[..3]).unwrap();
    for r in client.recv_batch(base).unwrap() {
        assert_eq!(r.unwrap_err().code, ErrorCode::ShuttingDown);
    }

    // (a) The close drained the batcher: every accepted query resolves.
    for t in &parked {
        let drained = t.wait_timeout(HANG).expect("the close drains it");
        assert!(drained.is_ok(), "accepted work completed through the drain");
    }

    // The connection still shuts down gracefully afterwards.
    client
        .shutdown()
        .expect("clean shutdown after service close");
    server.shutdown();
}

#[test]
fn a_batch_frame_is_answered_without_waiting_for_the_deadline() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Short of the 256-lane target, a frame of mixed ops; the next one
    // finds the front as empty as the first did. In process, the same
    // queries as one batch answer alike, and as soon.
    for wave in 0..3 {
        let frame: Vec<Query> = (0..100)
            .map(|i| Query {
                kind: match i % 2 {
                    0 => QueryKind::Nn,
                    _ => QueryKind::Knn { k: 3 },
                },
                ..nn(pts[(wave * 100 + i) % pts.len()].0)
            })
            .collect();
        let results = answered_within_hang(&service, &mut client, &frame);
        let in_process = service.submit_all(frame.clone(), TraceContext::LOCAL);
        assert_eq!(results.len(), frame.len());
        for (r, t) in results.into_iter().zip(in_process) {
            let t = t.expect("admitted");
            assert_eq!(Ok(r.expect("answered")), t.wait_timeout(HANG).unwrap());
        }
    }
    // A lone query is a one-query frame, and is answered as soon.
    let q = Query {
        kind: QueryKind::Pc { radius: 0.2 },
        ..nn(pts[7].0)
    };
    let lone = within_hang(&service, || client.query(q.clone()).unwrap());
    let in_process = service.submit_all(vec![q], TraceContext::LOCAL);
    let in_process = in_process[0].as_ref().expect("admitted");
    assert_eq!(
        Ok(lone.expect("answered")),
        in_process.wait_timeout(HANG).unwrap()
    );
    assert_eq!(service.queue_depth(), 0);
    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn net_counters_and_trace_events_observe_the_socket_path() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let base = client
        .send_batch(&(0..32).map(|i| nn(pts[i].0)).collect::<Vec<_>>())
        .unwrap();
    client.recv_batch(base).unwrap();
    client.shutdown().unwrap();

    let service = Arc::clone(server.service());
    server.shutdown();
    let m = service.metrics();
    assert_eq!(m.net_connections, 1);
    assert!(m.net_frames_rx >= 3, "hello + batch + shutdown");
    assert!(m.net_frames_tx >= 3);
    assert!(m.net_bytes_rx > 0 && m.net_bytes_tx > 0);
    assert_eq!(m.net_protocol_errors, 0);

    let trace = service.trace().to_chrome_json();
    assert!(trace.contains("\"accept\""), "accept event traced");
    assert!(trace.contains("\"batch_submit\""), "frame decode traced");
}

#[test]
fn raw_protocol_violations_get_an_error_frame_not_a_hang() {
    use gts_net::frame::{read_frame, write_frame, Frame};
    use std::io::Write as _;
    let (server, _) = start_server(ServiceConfig::default());

    // Speak garbage instead of Hello.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut s, &Frame::Shutdown).unwrap();
    s.flush().unwrap();
    let (frame, _) = read_frame(&mut s).unwrap().expect("server answers");
    let Frame::Error { req, error } = frame else {
        panic!("expected Error, got {frame:?}");
    };
    assert_eq!(req, u64::MAX);
    assert_eq!(error.code, ErrorCode::Protocol);

    // A Hello of any version but this one is refused with a protocol
    // error, each counted once.
    let service = Arc::clone(server.service());
    for version in [1, 2] {
        let before = service.metrics().net_protocol_errors;
        let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello {
                version,
                wall_us: 1,
            },
        )
        .unwrap();
        s.flush().unwrap();
        let (frame, _) = read_frame(&mut s).unwrap().expect("server answers");
        let Frame::Error { req, error } = frame else {
            panic!("version {version}: expected Error, got {frame:?}");
        };
        assert_eq!((req, error.code), (u64::MAX, ErrorCode::Protocol));
        assert!(read_frame(&mut s).unwrap().is_none(), "then it closes");
        assert_eq!(service.metrics().net_protocol_errors, before + 1);
    }

    // An oversized declared length after a valid handshake.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut s,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            wall_us: 1,
        },
    )
    .unwrap();
    s.flush().unwrap();
    let (hello, _) = read_frame(&mut s).unwrap().expect("hello ack");
    assert!(
        matches!(hello, Frame::Hello { version: PROTOCOL_VERSION, wall_us } if wall_us > 0),
        "this version's peer gets this version's Hello and the server clock, got {hello:?}"
    );
    s.write_all(&(200 * 1024 * 1024u32).to_le_bytes()).unwrap();
    s.flush().unwrap();
    let (frame, _) = read_frame(&mut s).unwrap().expect("server answers");
    let Frame::Error { error, .. } = frame else {
        panic!("expected Error, got {frame:?}");
    };
    assert_eq!(error.code, ErrorCode::Protocol);

    server.shutdown();
    assert_eq!(service.metrics().net_protocol_errors, 4);
}

#[test]
fn merged_two_process_trace_joins_client_and_server_by_flow_events() {
    use gts_service::{merge_snapshots, EventKind};
    use std::collections::HashSet;

    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let server_wall = client.server_wall_us();
    assert_ne!(
        server_wall, 0,
        "the handshake carries the server wall anchor"
    );
    assert_ne!(client.trace_id(), 0, "client minted a nonzero trace id");

    for wave in 0..3 {
        let queries: Vec<Query> = (0..24)
            .map(|i| nn(pts[(wave * 31 + i * 7) % pts.len()].0))
            .collect();
        let base = client.send_batch(&queries).unwrap();
        for r in client.recv_batch(base).unwrap() {
            r.expect("wave completes");
        }
    }

    let shift = server_wall as i64 - client.trace().wall_epoch_us() as i64;
    let client_snap = client.trace().snapshot();
    let trace_id = client.trace_id();
    client.shutdown().unwrap();
    let service = Arc::clone(server.service());
    server.shutdown();
    let merged = merge_snapshots(service.trace(), client_snap, shift);

    // The client context reached the server: its events carry the id.
    assert!(
        merged
            .events
            .iter()
            .any(|e| e.trace == trace_id && matches!(e.kind, EventKind::Complete)),
        "server-side completion spans are stamped with the client trace id"
    );

    // Request direction: client FlowOut ↔ server FlowIn on the same flow
    // id. Response direction: server FlowOut ↔ client FlowIn.
    let flows = |events: &[gts_service::TraceEvent], want_out: bool, want_client: bool| {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FlowOut { flow, client, .. } if want_out && client == want_client => {
                    Some(flow)
                }
                EventKind::FlowIn { flow, client, .. } if !want_out && client == want_client => {
                    Some(flow)
                }
                _ => None,
            })
            .collect::<HashSet<u64>>()
    };
    let request_pairs = flows(&merged.events, true, true)
        .intersection(&flows(&merged.events, false, false))
        .count();
    let response_pairs = flows(&merged.events, true, false)
        .intersection(&flows(&merged.events, false, true))
        .count();
    assert!(request_pairs >= 1, "client→server flow arrows pair up");
    assert!(response_pairs >= 1, "server→client flow arrows pair up");

    // The rendered merge is one valid JSON document with both pids and
    // paired flow phases.
    let json = merged.to_chrome_json();
    let parsed: serde::Value = serde_json::from_str(&json).expect("merged trace is valid JSON");
    let serde::Value::Array(events) = parsed else {
        panic!("chrome trace renders as a JSON array");
    };
    assert!(!events.is_empty());
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
    assert!(json.contains("\"pid\":6"), "client track present");
    assert!(json.contains("\"pid\":1"), "server batch track present");
}

#[test]
fn slow_log_travels_the_wire() {
    let (server, pts) = start_server(ServiceConfig {
        max_wait: Duration::from_millis(1),
        slow_log_capacity: 64,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // The first completion always commits (the running-max rule), so the
    // dump holds an entry whatever the p99 threshold does.
    for wave in 0..4 {
        let queries: Vec<Query> = (0..32)
            .map(|i| nn(pts[(wave * 13 + i * 3) % pts.len()].0))
            .collect();
        let base = client.send_batch(&queries).unwrap();
        for r in client.recv_batch(base).unwrap() {
            r.expect("completes");
        }
    }

    let json = client
        .slow_log()
        .expect("transport ok")
        .expect("server answers the dump");
    let parsed: serde::Value = serde_json::from_str(&json).expect("slow log is valid JSON");
    let capacity = match parsed.get("capacity") {
        Some(serde::Value::Number(n)) => n.as_u64().unwrap(),
        other => panic!("capacity field: {other:?}"),
    };
    assert_eq!(capacity, 64);
    let committed = match parsed.get("committed") {
        Some(serde::Value::Number(n)) => n.as_u64().unwrap(),
        other => panic!("committed field: {other:?}"),
    };
    assert!(
        committed >= 1,
        "running-max rule commits at least the slowest query"
    );
    assert!(
        matches!(parsed.get("entries"), Some(serde::Value::Array(_))),
        "entries array present"
    );

    client.shutdown().unwrap();
    server.shutdown();
}

/// Compile-time contract: the client is Send so callers can move
/// connections into worker threads, and tickets remain shareable.
#[test]
fn net_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Client>();
    assert_send::<NetServer>();
    assert_send::<Ticket>();
}
