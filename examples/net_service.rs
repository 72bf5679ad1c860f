//! Networked query service walkthrough: bind the binary-frame TCP
//! front-end on an ephemeral loopback port, then drive it with
//! `gts_net::Client` — a synchronous round-trip, a pipelined batch, and
//! a structured error frame.
//!
//! ```text
//! cargo run --release --example net_service
//! cargo run --release --example net_service -- --connect HOST:PORT [--trace-out FILE]
//! ```
//!
//! With `--connect` it is instead the client of a running
//! `gts-harness serve --listen` (CI's serve smoke runs it this way):
//! 8 192 NN / kNN / PC queries in 1 000-query `BatchSubmit` frames over
//! serve's index 0 (3-d) and index 1 (2-d), then a one-query-per-frame
//! sample the frames must beat by 5×, the slow log fetched over the wire,
//! the client trace shifted onto the server clock (`--trace-out`), and a
//! clean shutdown. Any error slot, transport error or missed floor exits
//! non-zero. The protocol is DESIGN.md §12.

use gpu_tree_traversals::net::{Client, NetServer};
use gpu_tree_traversals::service::{
    merge_snapshots, KdIndex, Query, QueryKind, QueryResult, Service, ServiceConfig, TraceSnapshot,
    TreeIndex,
};
use gpu_tree_traversals::trees::SplitPolicy;
use gts_points::gen::{geocity_like, uniform};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries the client sends in `BatchSubmit` frames, and per frame.
const QUERIES: usize = 8_192;
const FRAME: usize = 1_000;
/// Queries sent one per frame, the baseline the frames must beat.
const SINGLES: usize = 256;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            walkthrough();
            Ok(())
        }
        ["--connect", addr] => connect(addr, None),
        ["--connect", addr, "--trace-out", path] => connect(addr, Some(path)),
        _ => {
            eprintln!("usage: net_service [--connect HOST:PORT [--trace-out FILE]]");
            std::process::exit(2)
        }
    }
}

/// Drive a running `serve --listen` at `addr`.
fn connect(addr: &str, trace_out: Option<&str>) -> Result<(), Box<dyn Error>> {
    // serve's datasets at its default --points and --seed: each query
    // sits on its own data point of its index.
    let pts3 = uniform::<3>(4_096, 20130901);
    let pts2 = geocity_like(4_096, 20130902);
    let queries: Vec<Query> = (0..QUERIES)
        .map(|i| {
            let (index, pos, radius) = match i % 2 {
                0 => (0, pts3[i / 2].0.to_vec(), 0.07),
                _ => (1, pts2[i / 2].0.to_vec(), 0.5),
            };
            let kind = match i % 3 {
                0 => QueryKind::Nn,
                1 => QueryKind::Knn { k: 8 },
                _ => QueryKind::Pc { radius },
            };
            Query { index, pos, kind }
        })
        .collect();
    let mut frames = Client::connect(addr)?;
    let t0 = Instant::now();
    for (f, frame) in queries.chunks(FRAME).enumerate() {
        let base = frames.send_batch(frame)?;
        let results = frames.recv_batch(base)?;
        if results.len() != frame.len() {
            return Err(format!("frame {f}: {} of {} slots", results.len(), frame.len()).into());
        }
        for (i, r) in results.into_iter().enumerate() {
            r.map_err(|e| format!("query {}: {e}", f * FRAME + i))?;
        }
    }
    let batch_qps = QUERIES as f64 / t0.elapsed().as_secs_f64();

    // The sample runs on a second connection, as a one-query client would.
    let mut singles = Client::connect(addr)?;
    let t0 = Instant::now();
    for q in &queries[..SINGLES] {
        singles.query(q.clone())??;
    }
    let single_qps = SINGLES as f64 / t0.elapsed().as_secs_f64();
    println!("batch : {QUERIES} queries in {FRAME}-query frames at {batch_qps:.0} q/s");
    println!("single: {SINGLES} queries one per frame at {single_qps:.0} q/s");

    let slow_log = singles.slow_log()??;
    println!("slow  : {} bytes of slow log over the wire", slow_log.len());

    if let Some(path) = trace_out {
        // Both connections' recorders, each shifted onto the server clock.
        let mut trace = TraceSnapshot {
            events: Vec::new(),
            dropped: 0,
            dropped_by_kind: Vec::new(),
        };
        for client in [&frames, &singles] {
            let wall = client
                .server_wall_us()
                .ok_or("the server's Hello carried no clock")?;
            let shift = wall as i64 - client.trace().wall_epoch_us() as i64;
            trace = merge_snapshots(trace, client.trace().snapshot(), shift);
        }
        std::fs::write(path, trace.to_chrome_json())?;
        println!("trace : {} client events → {path}", trace.events.len());
    }
    frames.shutdown()?;
    singles.shutdown()?;

    let payoff = batch_qps / single_qps;
    if payoff < 5.0 {
        return Err(format!("frames beat one query per frame by only {payoff:.1}x").into());
    }
    println!("done  : frames {payoff:.1}x one query per frame");
    Ok(())
}

/// The self-contained walkthrough: a server and its client in one process.
fn walkthrough() {
    let pts = uniform::<3>(4_096, 20130901);
    let service = Arc::new(Service::start(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    }));
    let id = service.register_index(Arc::new(KdIndex::build(
        "uniform3d",
        &pts,
        8,
        SplitPolicy::MedianCycle,
    )) as Arc<dyn TreeIndex>);

    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr} (protocol version negotiated per connection)");

    let mut client = Client::connect(addr).expect("connect");

    // One synchronous round-trip: a frame out, a frame back.
    let nn = client
        .query(Query {
            index: id,
            pos: vec![0.5, 0.5, 0.5],
            kind: QueryKind::Nn,
        })
        .expect("transport ok")
        .expect("query ok");
    if let QueryResult::Nn { dist2, id } = nn {
        println!("nn    : point {id} at dist² {dist2:.5}");
    }

    // A pipelined batch: 256 queries in ONE frame, answered by one
    // BatchResult frame once every ticket resolves. The client is free
    // to do other work (or send more frames) in between.
    let queries: Vec<Query> = pts
        .iter()
        .take(256)
        .map(|p| Query {
            index: id,
            pos: p.0.to_vec(),
            kind: QueryKind::Knn { k: 4 },
        })
        .collect();
    let base = client.send_batch(&queries).expect("send frame");
    let results = client.recv_batch(base).expect("recv frame");
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batch : {ok}/{} queries answered in one frame round-trip",
        results.len()
    );

    // The socket path returns exactly what an in-process call returns.
    let direct = service
        .query(queries[0].clone())
        .expect("in-process query ok");
    assert_eq!(results[0].as_ref().expect("batch slot ok"), &direct);
    println!("check : socket result is bit-identical to in-process");

    // Errors arrive as structured frames, not dropped connections: an
    // unknown index is answered immediately.
    let err = client
        .query(Query {
            index: 99,
            pos: vec![0.0, 0.0, 0.0],
            kind: QueryKind::Nn,
        })
        .expect("transport ok")
        .expect_err("unknown index rejected");
    println!("error : {} — {}", err.code as u8, err.message);

    client.shutdown().expect("drain and close");
    server.shutdown();
    println!("done  : connection drained, server stopped");
}
