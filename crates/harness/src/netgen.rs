//! `gts-harness loadgen --connect`: drive a running `serve --listen`
//! instance over TCP and report the full-path numbers to `BENCH_net.json`
//! (`--out`; written locally, not tracked). This socket client is all of
//! `loadgen` — the in-process service benchmark is the ledger
//! (`ledger/README.md`).
//!
//! Three phases against one seeded client mix over the two datasets
//! `serve` registers (so a serve started with the same `--points`/`--seed`
//! answers from identical indices):
//!
//! 1. **batch** — the mix is cut into `BatchSubmit` frames of
//!    `--frame-queries` queries, spread over `--connections` sockets, each
//!    keeping a small pipeline of frames in flight. This measures the
//!    shape the protocol is built for: one frame carries a whole query
//!    wave.
//! 2. **single** — a sample of the mix re-submitted one `Submit` frame at
//!    a time, synchronously. The ratio of the two throughputs is the
//!    batch-framing payoff (acceptance floor: ≥ 5×).
//! 3. **differential** — a prefix of the batch-phase answers is recomputed
//!    on a local, identically-seeded in-process service; socket results
//!    must match bit for bit (the wire carries f32 bit patterns).
//!
//! With `--expect-overload` (run against a serve started with a tiny
//! `--admission-budget-us`) the report instead centers on admission:
//! every rejection must be a structured `Overloaded` carrying a nonzero
//! `predicted_us` — never a stall or a dropped connection.
//!
//! Observability rides along: every connection's client-side span/flow
//! recorder is merged onto the server wall clock (`--trace-out FILE`
//! writes it as Chrome trace JSON — load alongside the serve-side
//! `--trace` dump for the full cross-process picture), and the server's
//! slow-query flight recorder is fetched over the wire at the end so
//! `BENCH_net.json` carries its commit counters.

use gts_net::{Client, ErrorCode, WireError};
use gts_points::gen::{geocity_like, uniform};
use gts_service::{
    merge_snapshots, KdIndex, Query, QueryKind, QueryResult, Service, ServiceConfig, TraceSnapshot,
    TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Networked loadgen knobs.
#[derive(Debug, Clone)]
pub struct NetLoadgenConfig {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Concurrent client connections in the batch phase.
    pub connections: usize,
    /// Queries per `BatchSubmit` frame.
    pub frame_queries: usize,
    /// Total queries in the client mix.
    pub queries: usize,
    /// Dataset points per index (must match the serve instance).
    pub points: usize,
    /// RNG seed (must match the serve instance).
    pub seed: u64,
    /// Output JSON path.
    pub out: String,
    /// Queries in the single-frame baseline sample.
    pub single_sample: usize,
    /// Queries differentially checked against a local service.
    pub differential: usize,
    /// Overload mode: tolerate (and count) admission rejections.
    pub expect_overload: bool,
    /// Write the merged client-side trace (every connection's recorder,
    /// shifted onto the server wall clock) as Chrome trace JSON here.
    pub trace_out: Option<String>,
}

impl Default for NetLoadgenConfig {
    fn default() -> Self {
        NetLoadgenConfig {
            addr: String::new(),
            connections: 2,
            frame_queries: 1000,
            queries: 8192,
            points: 4096,
            seed: 20130901,
            out: "BENCH_net.json".into(),
            single_sample: 256,
            differential: 256,
            expect_overload: false,
            trace_out: None,
        }
    }
}

/// Machine-readable socket-path benchmark (`BENCH_net.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetBenchReport {
    /// Queries in the batch phase.
    pub queries: u64,
    /// Seed of the mix and datasets.
    pub seed: u64,
    /// Connections used in the batch phase.
    pub connections: u64,
    /// Queries per `BatchSubmit` frame.
    pub frame_queries: u64,
    /// Batch-phase queries answered successfully.
    pub batch_ok: u64,
    /// Batch-phase wall time, ms.
    pub batch_wall_ms: f64,
    /// Batch-phase throughput, queries/second.
    pub batch_qps: f64,
    /// Single-frame baseline sample size (0 when skipped).
    pub single_queries: u64,
    /// Single-frame baseline wall time, ms.
    pub single_wall_ms: f64,
    /// Single-frame throughput, queries/second.
    pub single_qps: f64,
    /// `batch_qps / single_qps` — the framing payoff.
    pub batch_vs_single: f64,
    /// Client-side protocol violations (malformed frames). Must be 0.
    pub protocol_errors: u64,
    /// Transport failures (connect refused, resets).
    pub transport_errors: u64,
    /// `Overloaded` rejections observed.
    pub overload_rejections: u64,
    /// Of those, rejections carrying a nonzero `predicted_us`.
    pub overload_with_predicted: u64,
    /// Service errors that were not overloads.
    pub other_errors: u64,
    /// Queries compared against the local in-process reference.
    pub differential_checked: u64,
    /// Comparisons that diverged. Must be 0.
    pub differential_mismatches: u64,
    /// Every connection finished with a clean `Shutdown` handshake.
    pub shutdown_clean: bool,
    /// Events in the merged client-side trace (all connections).
    pub trace_events: u64,
    /// Lifetime slow-log commits, fetched over the wire at the end.
    pub slow_log_committed: u64,
    /// Rolling slow threshold at fetch time, µs.
    pub slow_log_threshold_us: u64,
    /// Slow-log records retained at fetch time.
    pub slow_log_entries: u64,
}

/// One pre-generated client request.
struct Request {
    index: usize,
    pos: Vec<f32>,
    kind: QueryKind,
}

/// Clustered client mix: each query lands near a dataset point of its
/// target index (the workload batching is supposed to win on).
fn synth_mix(
    datasets: &[Vec<Vec<f32>>],
    radii: &[f32],
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10adc11e);
    (0..n)
        .map(|_| {
            let index = rng.gen_range(0..datasets.len());
            let data = &datasets[index];
            let anchor = &data[rng.gen_range(0..data.len())];
            let jitter = radii[index] * 0.5;
            let pos: Vec<f32> = anchor
                .iter()
                .map(|&c| c + rng.gen_range(-jitter..jitter))
                .collect();
            let kind = match rng.gen_range(0..10u32) {
                0..=4 => QueryKind::Nn,
                5..=7 => QueryKind::Knn { k },
                _ => QueryKind::Pc {
                    radius: radii[index],
                },
            };
            Request { index, pos, kind }
        })
        .collect()
}

fn bbox_diag(points: &[Vec<f32>]) -> f32 {
    let dim = points[0].len();
    let mut lo = vec![f32::INFINITY; dim];
    let mut hi = vec![f32::NEG_INFINITY; dim];
    for p in points {
        for d in 0..dim {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (0..dim)
        .map(|d| (hi[d] - lo[d]).powi(2))
        .sum::<f32>()
        .sqrt()
}

/// Outcome slots of one connection's share of the batch phase.
struct ConnOutcome {
    /// `(global query index, outcome)` for every query this connection
    /// carried.
    results: Vec<(usize, Result<QueryResult, WireError>)>,
    protocol_errors: u64,
    transport_errors: u64,
    shutdown_clean: bool,
    /// The connection's client-side trace and the µs shift that puts it
    /// on the server wall clock (0 when the server predates v2).
    trace: Option<(TraceSnapshot, i64)>,
}

fn classify_io(err: &std::io::Error, out: &mut ConnOutcome) {
    if err.kind() == std::io::ErrorKind::InvalidData {
        out.protocol_errors += 1;
    } else {
        out.transport_errors += 1;
    }
}

/// Snapshot the client's span/flow recorder and compute the shift that
/// moves its timestamps onto the server wall clock (the v2 `Hello` reply
/// carries the server's trace epoch; a v1 server leaves the shift at 0).
fn capture_trace(client: &Client, out: &mut ConnOutcome) {
    let recorder = client.trace();
    let shift = client
        .server_wall_us()
        .map(|w| w as i64 - recorder.wall_epoch_us() as i64)
        .unwrap_or(0);
    out.trace = Some((recorder.snapshot(), shift));
}

/// Frames this connection owns: round-robin assignment of the frame list.
fn run_connection(addr: &str, frames: &[(usize, &[Request])], pipeline: usize) -> ConnOutcome {
    let mut out = ConnOutcome {
        results: Vec::new(),
        protocol_errors: 0,
        transport_errors: 0,
        shutdown_clean: false,
        trace: None,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            classify_io(&e, &mut out);
            return out;
        }
    };
    // (base_req, global start index, frame length) of in-flight frames.
    let mut window: std::collections::VecDeque<(u64, usize, usize)> =
        std::collections::VecDeque::new();
    let recv_oldest = |client: &mut Client,
                       window: &mut std::collections::VecDeque<(u64, usize, usize)>,
                       out: &mut ConnOutcome|
     -> bool {
        let Some((base, start, len)) = window.pop_front() else {
            return true;
        };
        match client.recv_batch(base) {
            Ok(results) => {
                debug_assert_eq!(results.len(), len);
                for (i, r) in results.into_iter().enumerate() {
                    out.results.push((start + i, r));
                }
                true
            }
            Err(e) => {
                classify_io(&e, out);
                false
            }
        }
    };
    for (start, reqs) in frames {
        while window.len() >= pipeline {
            if !recv_oldest(&mut client, &mut window, &mut out) {
                capture_trace(&client, &mut out);
                return out;
            }
        }
        let queries: Vec<Query> = reqs
            .iter()
            .map(|r| Query {
                index: r.index,
                pos: r.pos.clone(),
                kind: r.kind,
            })
            .collect();
        match client.send_batch(&queries) {
            Ok(base) => window.push_back((base, *start, reqs.len())),
            Err(e) => {
                classify_io(&e, &mut out);
                capture_trace(&client, &mut out);
                return out;
            }
        }
    }
    while !window.is_empty() {
        if !recv_oldest(&mut client, &mut window, &mut out) {
            capture_trace(&client, &mut out);
            return out;
        }
    }
    capture_trace(&client, &mut out);
    match client.shutdown() {
        Ok(()) => out.shutdown_clean = true,
        Err(e) => classify_io(&e, &mut out),
    }
    out
}

/// Pull `(committed, threshold_us, entries)` out of a `SlowLogQuery`
/// reply without deserializing the full dump.
fn parse_slow_log_counters(json: &str) -> Option<(u64, u64, u64)> {
    let v = serde_json::from_str::<serde::Value>(json).ok()?;
    let num = |k: &str| match v.get(k) {
        Some(serde::Value::Number(n)) => n.as_u64(),
        _ => None,
    };
    let entries = match v.get("entries") {
        Some(serde::Value::Array(a)) => a.len() as u64,
        _ => return None,
    };
    Some((num("committed")?, num("threshold_us").unwrap_or(0), entries))
}

/// Run the networked loadgen and return (human text, machine report).
pub fn run(cfg: &NetLoadgenConfig) -> (String, NetBenchReport) {
    // The datasets `serve` builds from the same --points/--seed, so the
    // mix lands on matching indices.
    let pts3: Vec<PointN<3>> = uniform::<3>(cfg.points, cfg.seed);
    let pts2: Vec<PointN<2>> = geocity_like(cfg.points, cfg.seed + 1);
    let data3: Vec<Vec<f32>> = pts3.iter().map(|p| p.0.to_vec()).collect();
    let data2: Vec<Vec<f32>> = pts2.iter().map(|p| p.0.to_vec()).collect();
    let radii = [0.04 * bbox_diag(&data3), 0.04 * bbox_diag(&data2)];
    let requests = synth_mix(&[data3, data2], &radii, cfg.queries, 8, cfg.seed);

    // Cut the mix into frames, round-robin frames over connections.
    let frames: Vec<(usize, &[Request])> = requests
        .chunks(cfg.frame_queries.max(1))
        .enumerate()
        .map(|(i, c)| (i * cfg.frame_queries.max(1), c))
        .collect();
    let connections = cfg.connections.max(1);
    let per_conn: Vec<Vec<(usize, &[Request])>> = (0..connections)
        .map(|c| {
            frames
                .iter()
                .skip(c)
                .step_by(connections)
                .cloned()
                .collect()
        })
        .collect();

    // Batch phase.
    let batch_start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|frames| {
                let addr = cfg.addr.as_str();
                scope.spawn(move || run_connection(addr, frames, 4))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let batch_wall_ms = batch_start.elapsed().as_secs_f64() * 1e3;

    let mut batch_results: Vec<Option<Result<QueryResult, WireError>>> = vec![None; requests.len()];
    let mut protocol_errors = 0u64;
    let mut transport_errors = 0u64;
    let mut shutdown_clean = true;
    // Fold every connection's recorder into one snapshot on the server
    // wall clock: together with a server-side trace dump this is half of
    // the single-Perfetto-load cross-process picture.
    let mut merged_trace = TraceSnapshot {
        events: Vec::new(),
        dropped: 0,
        dropped_by_kind: Vec::new(),
    };
    for o in outcomes {
        protocol_errors += o.protocol_errors;
        transport_errors += o.transport_errors;
        shutdown_clean &= o.shutdown_clean;
        if let Some((snap, shift)) = o.trace {
            merged_trace = merge_snapshots(merged_trace, snap, shift);
        }
        for (i, r) in o.results {
            batch_results[i] = Some(r);
        }
    }
    let mut batch_ok = 0u64;
    let mut overload_rejections = 0u64;
    let mut overload_with_predicted = 0u64;
    let mut other_errors = 0u64;
    for r in batch_results.iter().flatten() {
        match r {
            Ok(_) => batch_ok += 1,
            Err(e) if e.code == ErrorCode::Overloaded => {
                overload_rejections += 1;
                if e.predicted_us > 0 {
                    overload_with_predicted += 1;
                }
            }
            Err(_) => other_errors += 1,
        }
    }
    let batch_qps = if batch_wall_ms > 0.0 {
        cfg.queries as f64 / (batch_wall_ms / 1e3)
    } else {
        0.0
    };

    // Single-frame baseline: one Submit per frame, synchronous.
    let single_n = cfg.single_sample.min(requests.len());
    let (single_wall_ms, single_qps) = if single_n == 0 || cfg.expect_overload {
        (0.0, 0.0)
    } else {
        match Client::connect(cfg.addr.as_str()) {
            Ok(mut client) => {
                let t0 = Instant::now();
                for r in &requests[..single_n] {
                    match client.query(Query {
                        index: r.index,
                        pos: r.pos.clone(),
                        kind: r.kind,
                    }) {
                        Ok(_) => {}
                        Err(e) => {
                            if e.kind() == std::io::ErrorKind::InvalidData {
                                protocol_errors += 1;
                            } else {
                                transport_errors += 1;
                            }
                            break;
                        }
                    }
                }
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                shutdown_clean &= client.shutdown().is_ok();
                (wall, single_n as f64 / (wall / 1e3))
            }
            Err(_) => {
                transport_errors += 1;
                (0.0, 0.0)
            }
        }
    };

    // Differential check: a local, identically-seeded in-process service
    // must agree with the socket answers bit for bit.
    let diff_n = cfg.differential.min(requests.len());
    let (differential_checked, differential_mismatches) = if diff_n == 0 {
        (0, 0)
    } else {
        let local = Service::start(ServiceConfig {
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        local.register_index(Arc::new(KdIndex::build(
            "uniform3d",
            &pts3,
            8,
            SplitPolicy::MedianCycle,
        )) as Arc<dyn TreeIndex>);
        local.register_index(Arc::new(KdIndex::build(
            "geocity2d",
            &pts2,
            8,
            SplitPolicy::MidpointWidest,
        )) as Arc<dyn TreeIndex>);
        let mut checked = 0u64;
        let mut mismatches = 0u64;
        for (r, socket) in requests[..diff_n].iter().zip(&batch_results[..diff_n]) {
            // Only answered, admitted queries have a reference to match.
            let Some(Ok(socket)) = socket else { continue };
            let reference = local
                .query(Query {
                    index: r.index,
                    pos: r.pos.clone(),
                    kind: r.kind,
                })
                .expect("reference query valid");
            checked += 1;
            if *socket != reference {
                mismatches += 1;
            }
        }
        local.shutdown();
        (checked, mismatches)
    };

    // Fetch the tail-sampling flight recorder over the wire — the same
    // dump `serve --slow-log` sinks, served by the `SlowLogQuery` frame.
    let (slow_log_committed, slow_log_threshold_us, slow_log_entries) =
        match Client::connect(cfg.addr.as_str()) {
            Ok(mut client) => {
                let fetched = match client.slow_log() {
                    Ok(Ok(json)) => parse_slow_log_counters(&json),
                    _ => None,
                };
                let _ = client.shutdown();
                fetched.unwrap_or((0, 0, 0))
            }
            Err(_) => (0, 0, 0),
        };

    if let Some(path) = &cfg.trace_out {
        std::fs::write(path, merged_trace.to_chrome_json()).expect("write client trace json");
    }

    let report = NetBenchReport {
        queries: cfg.queries as u64,
        seed: cfg.seed,
        connections: connections as u64,
        frame_queries: cfg.frame_queries as u64,
        batch_ok,
        batch_wall_ms,
        batch_qps,
        single_queries: if cfg.expect_overload {
            0
        } else {
            single_n as u64
        },
        single_wall_ms,
        single_qps,
        batch_vs_single: if single_qps > 0.0 {
            batch_qps / single_qps
        } else {
            0.0
        },
        protocol_errors,
        transport_errors,
        overload_rejections,
        overload_with_predicted,
        other_errors,
        differential_checked,
        differential_mismatches,
        shutdown_clean,
        trace_events: merged_trace.events.len() as u64,
        slow_log_committed,
        slow_log_threshold_us,
        slow_log_entries,
    };

    let mut text = String::new();
    text.push_str(&format!(
        "net loadgen: {} queries → {} over {} connection(s), {} queries/frame, seed {}\n",
        cfg.queries, cfg.addr, connections, cfg.frame_queries, cfg.seed
    ));
    text.push_str(&format!(
        "  batch  : {:8.1} ms wall → {:9.0} q/s over the socket ({} ok)\n",
        report.batch_wall_ms, report.batch_qps, report.batch_ok
    ));
    if report.single_queries > 0 {
        text.push_str(&format!(
            "  single : {:8.1} ms wall → {:9.0} q/s ({} queries, one per frame)\n",
            report.single_wall_ms, report.single_qps, report.single_queries
        ));
        text.push_str(&format!(
            "  framing payoff: {:.1}x batch over single-per-frame\n",
            report.batch_vs_single
        ));
    }
    text.push_str(&format!(
        "  admission: {} overloaded ({} carrying predicted_us), {} other errors\n",
        report.overload_rejections, report.overload_with_predicted, report.other_errors
    ));
    text.push_str(&format!(
        "  tracing: {} client-side events across {} connection(s){}\n",
        report.trace_events,
        connections,
        match &cfg.trace_out {
            Some(p) => format!(" → {p}"),
            None => String::new(),
        }
    ));
    text.push_str(&format!(
        "  slowlog: {} committed server-side ({} retained, threshold {}µs)\n",
        report.slow_log_committed, report.slow_log_entries, report.slow_log_threshold_us
    ));
    text.push_str(&format!(
        "  checks : {} differential ({} mismatches), {} protocol errors, {} transport errors, shutdown {}\n",
        report.differential_checked,
        report.differential_mismatches,
        report.protocol_errors,
        report.transport_errors,
        if report.shutdown_clean { "clean" } else { "dirty" }
    ));
    (text, report)
}

/// CLI entry for `gts-harness loadgen`: parse `args` (everything after
/// the subcommand), run against the `--connect` address and write the
/// report.
pub fn main_loadgen(args: &[String]) {
    let mut cfg = NetLoadgenConfig::default();
    let usage = || -> ! {
        eprintln!(
            "usage: gts-harness loadgen --connect HOST:PORT [--connections N] \
             [--frame-queries N] [--queries N] [--points N] [--seed N] [--out PATH] \
             [--single-sample N] [--differential N] [--expect-overload] [--trace-out PATH]\n\
             \n\
             loadgen is the socket client of a running `gts-harness serve --listen`.\n\
             The in-process service benchmark is the ledger:\n\
             cargo run --release --manifest-path ledger/Cargo.toml -- all"
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
            "--connect" => {
                cfg.addr = need(i).to_string();
                i += 2;
            }
            "--connections" => {
                cfg.connections = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--frame-queries" => {
                cfg.frame_queries = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--queries" => {
                cfg.queries = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--points" => {
                cfg.points = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                cfg.out = need(i).to_string();
                i += 2;
            }
            "--single-sample" => {
                cfg.single_sample = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--differential" => {
                cfg.differential = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--expect-overload" => {
                cfg.expect_overload = true;
                i += 1;
            }
            "--trace-out" => {
                cfg.trace_out = Some(need(i).to_string());
                i += 2;
            }
            _ => usage(),
        }
    }
    if cfg.addr.is_empty() {
        usage();
    }
    let (text, report) = run(&cfg);
    print!("{text}");
    let json = serde_json::to_string_pretty(&report).expect("serialize net report");
    std::fs::write(&cfg.out, json).expect("write net bench json");
    eprintln!("wrote {}", cfg.out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_net::NetServer;

    /// Full loop against an in-process NetServer: the report the CI smoke
    /// asserts on is produced here the same way.
    #[test]
    fn net_loadgen_round_trip_produces_clean_report() {
        let points = 512;
        let seed = 777;
        let service = Service::start(ServiceConfig {
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let pts3: Vec<PointN<3>> = uniform::<3>(points, seed);
        let pts2: Vec<PointN<2>> = geocity_like(points, seed + 1);
        service.register_index(Arc::new(KdIndex::build(
            "uniform3d",
            &pts3,
            8,
            SplitPolicy::MedianCycle,
        )) as Arc<dyn TreeIndex>);
        service.register_index(Arc::new(KdIndex::build(
            "geocity2d",
            &pts2,
            8,
            SplitPolicy::MidpointWidest,
        )) as Arc<dyn TreeIndex>);
        let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();

        let trace_path = std::env::temp_dir().join(format!(
            "gts-netgen-client-trace-{}.json",
            std::process::id()
        ));
        let cfg = NetLoadgenConfig {
            addr: server.local_addr().to_string(),
            connections: 2,
            frame_queries: 64,
            queries: 512,
            points,
            seed,
            single_sample: 32,
            differential: 128,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            ..NetLoadgenConfig::default()
        };
        let (_, report) = run(&cfg);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.transport_errors, 0);
        assert_eq!(report.batch_ok, 512);
        assert_eq!(report.overload_rejections, 0);
        assert!(report.differential_checked >= 100);
        assert_eq!(report.differential_mismatches, 0);
        assert!(report.shutdown_clean);
        assert!(report.batch_qps > 0.0 && report.single_qps > 0.0);
        // Observability ride-alongs: every connection contributed client
        // spans and flow halves, and the flight recorder answered over
        // the wire with the running-max commit at minimum.
        assert!(report.trace_events > 0, "client recorders captured spans");
        assert!(report.slow_log_committed >= 1, "{report:?}");
        assert!(report.slow_log_entries >= 1);
        let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
        let v = serde_json::from_str::<serde::Value>(&trace).expect("trace parses");
        assert!(matches!(v, serde::Value::Array(_)));
        assert!(
            trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""),
            "flow halves present in the merged client trace"
        );
        std::fs::remove_file(&trace_path).ok();
        server.shutdown();
    }
}
