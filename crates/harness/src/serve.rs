//! `gts-harness serve`: a line-oriented front-end over the query service.
//!
//! Reads one request per line from stdin, answers on stdout — the minimal
//! interactive shape of a query server. With `--listen ADDR` it also
//! binds the binary-frame TCP front-end ([`gts_net::NetServer`]) on that
//! address, serving [`gts_net::Client`] peers (`examples/net_service.rs
//! --connect` is one) concurrently with the stdin loop.
//!
//! ```text
//! nn  <index> <x> <y> [...]      nearest neighbor
//! knn <index> <k> <x> <y> [...]  k nearest neighbors
//! pc  <index> <r> <x> <y> [...]  count points within radius r
//! insert <index> <x> <y> [...]   add a point (mutable index only)
//! delete <index> <id>            remove a point by id (mutable only)
//! epoch  <index>                 print the index's epoch counters
//! metrics                        print the JSON metrics snapshot
//! quit                           drain and exit (EOF works too)
//! ```
//!
//! With `--mutable`, the 3-d index registers as a live
//! [`gts_service::MutableIndex`] instead of a static tree: `insert`/
//! `delete` lines and networked `Mutate` frames apply epoch/RCU deltas
//! while queries keep answering exactly.
//!
//! `--metrics-file PATH` keeps a Prometheus text snapshot refreshed every
//! second while serving (point a scraper or `watch cat` at it);
//! `--trace-file PATH` streams the lifecycle trace as Chrome trace-event
//! JSON *while serving* — a background sink drains the trace ring
//! incrementally, so the file holds traces longer than the ring and is
//! loadable in Perfetto even if the process is killed. With `--shards N`
//! (N > 1), `--shard-threads N` sets how many sub-batch workers each
//! sharded batch may fan out on (0 = auto). `--listen` companions:
//! `--port-file PATH` writes the bound `host:port` (for `--listen`
//! port 0), and `--admission-budget-us N` enables latency-budget
//! admission control so overload yields structured rejections.

use gts_net::NetServer;
use gts_points::gen::{geocity_like, uniform};
use gts_service::{
    Backend, ExecPolicy, KdIndex, MutableIndexBuilder, Mutation, Query, QueryKind, QueryResult,
    Service, ServiceConfig, ShardedIndex, TraceStream, TreeIndex,
};
use gts_trees::SplitPolicy;
use std::io::BufRead as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Write `text` to `path` whole: into a sibling tmp file, then renamed over
/// `path`, so a reader never sees a torn file — not even after a SIGKILL.
fn publish(path: &str, text: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

fn parse_floats(tokens: &[&str]) -> Option<Vec<f32>> {
    tokens.iter().map(|t| t.parse().ok()).collect()
}

fn parse_request(line: &str) -> Result<Option<Query>, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (cmd, rest) = tokens.split_first().ok_or("empty line")?;
    let parse_index =
        |t: &str| -> Result<usize, String> { t.parse().map_err(|_| format!("bad index `{t}`")) };
    match *cmd {
        "nn" => {
            let (idx, pos) = rest.split_first().ok_or("nn needs: index x y ...")?;
            Ok(Some(Query {
                index: parse_index(idx)?,
                pos: parse_floats(pos).ok_or("bad coordinate")?,
                kind: QueryKind::Nn,
            }))
        }
        "knn" => {
            if rest.len() < 3 {
                return Err("knn needs: index k x y ...".into());
            }
            Ok(Some(Query {
                index: parse_index(rest[0])?,
                pos: parse_floats(&rest[2..]).ok_or("bad coordinate")?,
                kind: QueryKind::Knn {
                    k: rest[1]
                        .parse()
                        .map_err(|_| format!("bad k `{}`", rest[1]))?,
                },
            }))
        }
        "pc" => {
            if rest.len() < 3 {
                return Err("pc needs: index r x y ...".into());
            }
            Ok(Some(Query {
                index: parse_index(rest[0])?,
                pos: parse_floats(&rest[2..]).ok_or("bad coordinate")?,
                kind: QueryKind::Pc {
                    radius: rest[1]
                        .parse()
                        .map_err(|_| format!("bad radius `{}`", rest[1]))?,
                },
            }))
        }
        _ => Err(format!("unknown command `{cmd}`")),
    }
}

fn render(result: &QueryResult) -> String {
    match result {
        QueryResult::Nn { dist2, id } => format!("nn d2={dist2} id={id}"),
        QueryResult::Knn { dist2, ids } => format!("knn d2={dist2:?} ids={ids:?}"),
        QueryResult::Pc { count } => format!("pc count={count}"),
    }
}

/// CLI entry: build demo indices, serve stdin until EOF/`quit`.
pub fn main_serve(args: &[String]) {
    let mut points = 4096usize;
    let mut seed = 20130901u64;
    let mut shards = 1usize;
    let mut shard_threads = 0usize;
    let mut metrics_file: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut slow_log_file: Option<String> = None;
    let mut slow_log_capacity = 256usize;
    let mut listen: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut admission_budget_us: Option<u64> = None;
    let mut backend: Option<Backend> = None;
    let mut mutable = false;
    let usage = || -> ! {
        eprintln!(
            "usage: gts-harness serve [--points N] [--seed N] [--shards N] \
             [--shard-threads N] [--metrics-file PATH] [--trace-file PATH] \
             [--slow-log PATH] [--slow-log-capacity N] \
             [--listen ADDR] [--port-file PATH] [--admission-budget-us N] \
             [--backend auto|lockstep|autoropes|stackless-kd|stackless-bvh|cpu] \
             [--mutable]"
        );
        std::process::exit(2)
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &str {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--points" => {
                points = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--shards" => {
                shards = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--shard-threads" => {
                shard_threads = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--metrics-file" => {
                metrics_file = Some(need(i).to_string());
                i += 2;
            }
            "--trace-file" => {
                trace_file = Some(need(i).to_string());
                i += 2;
            }
            "--slow-log" => {
                slow_log_file = Some(need(i).to_string());
                i += 2;
            }
            "--slow-log-capacity" => {
                slow_log_capacity = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--listen" => {
                listen = Some(need(i).to_string());
                i += 2;
            }
            "--port-file" => {
                port_file = Some(need(i).to_string());
                i += 2;
            }
            "--admission-budget-us" => {
                admission_budget_us = Some(need(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--backend" => {
                let name = need(i);
                backend = match name {
                    "auto" => None,
                    _ => Some(Backend::from_name(name).unwrap_or_else(|| usage())),
                };
                i += 2;
            }
            "--mutable" => {
                mutable = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    let service = Arc::new(Service::start(ServiceConfig {
        // Interactive trickle: flush fast rather than waiting for a warp.
        max_wait: Duration::from_millis(1),
        admission_budget: admission_budget_us.map(Duration::from_micros),
        slow_log_capacity,
        policy: ExecPolicy {
            shard_parallelism: shard_threads,
            force: backend,
            ..ExecPolicy::default()
        },
        ..ServiceConfig::default()
    }));
    let pts3 = uniform::<3>(points, seed);
    let pts2 = geocity_like(points, seed + 1);
    let (idx3, idx2): (Arc<dyn TreeIndex>, Arc<dyn TreeIndex>) = if mutable {
        (
            Arc::new(MutableIndexBuilder::new("uniform3d", shards.max(1)).build(&pts3)),
            Arc::new(KdIndex::build(
                "geocity2d",
                &pts2,
                8,
                SplitPolicy::MidpointWidest,
            )),
        )
    } else if shards > 1 {
        (
            Arc::new(ShardedIndex::build(
                "uniform3d",
                &pts3,
                shards,
                8,
                SplitPolicy::MedianCycle,
            )),
            Arc::new(ShardedIndex::build(
                "geocity2d",
                &pts2,
                shards,
                8,
                SplitPolicy::MidpointWidest,
            )),
        )
    } else {
        (
            Arc::new(KdIndex::build(
                "uniform3d",
                &pts3,
                8,
                SplitPolicy::MedianCycle,
            )),
            Arc::new(KdIndex::build(
                "geocity2d",
                &pts2,
                8,
                SplitPolicy::MidpointWidest,
            )),
        )
    };
    let id3 = service.register_index(idx3);
    let id2 = service.register_index(idx2);
    eprintln!(
        "serving: index {id3} = uniform3d ({points} pts, 3-d{}), index {id2} = geocity2d ({points} pts, 2-d), {shards} shard(s) each",
        if mutable { ", mutable" } else { "" }
    );
    eprintln!(
        "commands: nn <idx> <x..> | knn <idx> <k> <x..> | pc <idx> <r> <x..> | \
         insert <idx> <x..> | delete <idx> <id> | epoch <idx> | metrics | quit"
    );

    let net = listen.as_deref().map(|addr| {
        let server = NetServer::bind(addr, Arc::clone(&service)).unwrap_or_else(|e| {
            eprintln!("error: cannot listen on {addr}: {e}");
            std::process::exit(1)
        });
        let bound = server.local_addr();
        eprintln!(
            "listening on {bound} (binary frame protocol; `cargo run --release --example net_service -- --connect {bound}`)"
        );
        if let Some(path) = &port_file {
            publish(path, &bound.to_string()).expect("publish port file");
        }
        server
    });

    // Serve inside a scope so the periodic metrics writer and the
    // streaming trace sink can borrow the service; the flag stops them
    // before the scope joins. The sink thread hands its `TraceStream`
    // back through the join so the post-shutdown trace tail can be
    // appended after every in-flight query has resolved.
    let stop = AtomicBool::new(false);
    let mut trace_sink: Option<TraceStream> = trace_file
        .as_ref()
        .map(|path| TraceStream::create(path).expect("create trace stream"));
    std::thread::scope(|scope| {
        // One refresher republishes the metrics and the slow log each
        // second until stopped: a SIGKILL mid-run leaves the last whole
        // files behind.
        if metrics_file.is_some() || slow_log_file.is_some() {
            let (service, stop) = (&service, &stop);
            let (metrics_file, slow_log_file) = (&metrics_file, &slow_log_file);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(path) = metrics_file {
                        let _ = publish(path, &service.metrics().to_prometheus());
                    }
                    if let Some(path) = slow_log_file {
                        let _ = publish(path, &service.slow_log().to_json());
                    }
                    // Re-check the flag at a human cadence: fresh enough
                    // for a scraper, cheap enough to never matter.
                    for _ in 0..10 {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            });
        }
        let sink_handle = trace_sink.take().map(|mut stream| {
            let service = &service;
            let stop = &stop;
            scope.spawn(move || {
                loop {
                    let (events, missed) = service.tracer().events_since(stream.cursor());
                    if stream.append(&events, missed).is_err() {
                        // Disk gone bad: stop draining, keep serving.
                        break;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Drain at a cadence the ring comfortably buffers;
                    // the loop re-drains once more after `stop` so the
                    // handoff below only owes the shutdown tail.
                    std::thread::sleep(Duration::from_millis(200));
                }
                stream
            })
        });
        let stdin = std::io::stdin();
        let mut saw_quit = false;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed == "quit" {
                saw_quit = true;
                break;
            }
            if trimmed == "metrics" {
                println!("{}", service.metrics().to_json());
                continue;
            }
            let tokens: Vec<&str> = trimmed.split_whitespace().collect();
            match tokens.as_slice() {
                ["insert", idx, pos @ ..] if !pos.is_empty() => {
                    match (idx.parse(), parse_floats(pos)) {
                        (Ok(i), Some(pos)) => {
                            match service.mutate(i, &[Mutation::Insert { pos }]) {
                                Ok(ack) => println!(
                                    "inserted id={} epoch={} pending={}",
                                    ack.assigned[0], ack.epoch, ack.pending
                                ),
                                Err(err) => println!("error: {err}"),
                            }
                        }
                        _ => println!("error: insert needs: index x y ..."),
                    }
                    continue;
                }
                ["delete", idx, id] => {
                    match (idx.parse(), id.parse()) {
                        (Ok(i), Ok(id)) => match service.mutate(i, &[Mutation::Delete { id }]) {
                            Ok(ack) if ack.accepted == 1 => println!(
                                "deleted id={id} epoch={} pending={}",
                                ack.epoch, ack.pending
                            ),
                            Ok(_) => println!("error: id {id} is not live"),
                            Err(err) => println!("error: {err}"),
                        },
                        _ => println!("error: delete needs: index id"),
                    }
                    continue;
                }
                ["epoch", idx] => {
                    match idx.parse::<usize>() {
                        Ok(i) => match service.epoch_stats(i) {
                            Ok(Some(s)) => println!(
                                "epoch={} pending={} merges={} mutations={} live={} shards={}",
                                s.epoch, s.pending, s.merges, s.mutations, s.live, s.shards
                            ),
                            Ok(None) => println!("error: index {i} is immutable"),
                            Err(err) => println!("error: {err}"),
                        },
                        Err(_) => println!("error: epoch needs: index"),
                    }
                    continue;
                }
                _ => {}
            }
            match parse_request(trimmed) {
                Ok(Some(query)) => match service.query(query) {
                    Ok(result) => println!("{}", render(&result)),
                    Err(err) => println!("error: {err}"),
                },
                Ok(None) => {}
                Err(err) => println!("error: {err}"),
            }
        }
        // With a socket front-end, a non-interactive stdin hitting EOF
        // (the backgrounded-in-CI shape) must not tear the server down —
        // park until killed; the sink and metrics writer keep streaming,
        // so the trace and metrics files stay fresh and loadable. A
        // `quit` line or an interactive Ctrl-D still exits cleanly.
        if net.is_some() && !saw_quit && !std::io::IsTerminal::is_terminal(&std::io::stdin()) {
            eprintln!("stdin closed; serving network connections until killed");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sink_handle {
            trace_sink = h.join().ok();
        }
    });
    if let Some(net) = net {
        net.shutdown();
    }
    let service = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("network shutdown released every service handle"));
    // Final slow-log dump before shutdown consumes the service: includes
    // every commit up to the drain.
    if let Some(path) = &slow_log_file {
        let stats = service.slow_log().stats();
        publish(path, &service.slow_log().to_json()).expect("publish slow log");
        eprintln!(
            "wrote {path} ({} committed, {} evicted, threshold {}µs)",
            stats.committed, stats.evicted, stats.threshold_us
        );
    }
    let (snapshot, trace) = service.shutdown_with_trace();
    if let Some(path) = &metrics_file {
        publish(path, &snapshot.to_prometheus()).expect("publish metrics file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &trace_file {
        match trace_sink
            .take()
            .expect("sink survives the scope")
            .finish(&trace)
        {
            Ok(stats) => eprintln!(
                "wrote {path} ({} events streamed, {} missed, {} dropped in-ring; \
                 load in Perfetto or chrome://tracing)",
                stats.events_written, stats.missed, stats.dropped
            ),
            Err(e) => eprintln!("error: trace stream {path}: {e}"),
        }
    }
    eprintln!("{}", snapshot.to_json());
    eprintln!(
        "served {} queries in {} batches",
        snapshot.completed, snapshot.batches
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_request_shape() {
        let q = parse_request("nn 0 0.1 0.2 0.3").unwrap().unwrap();
        assert_eq!(q.index, 0);
        assert_eq!(q.pos, vec![0.1, 0.2, 0.3]);
        assert_eq!(q.kind, QueryKind::Nn);

        let q = parse_request("knn 1 5 0.5 0.5").unwrap().unwrap();
        assert_eq!(q.kind, QueryKind::Knn { k: 5 });
        assert_eq!(q.pos.len(), 2);

        let q = parse_request("pc 0 0.25 1 2 3").unwrap().unwrap();
        assert_eq!(q.kind, QueryKind::Pc { radius: 0.25 });

        assert!(parse_request("frobnicate 1 2").is_err());
        assert!(parse_request("knn 0 x 1 2").is_err());
    }
}
