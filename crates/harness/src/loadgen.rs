//! `gts-harness loadgen`: drive the query service with a seeded synthetic
//! client mix and report modeled throughput + latency.
//!
//! Two phases over the same seeded query stream:
//!
//! 1. **batched** — queries flow through the service (size-triggered
//!    warp-multiple flushes, Morton sort, §4.4 profiler choosing lockstep
//!    vs autoropes per batch);
//! 2. **single** — every query dispatched alone, one warp with one live
//!    lane, the way a naive one-request-one-launch server would run it.
//!
//! The comparison metric is *modeled GPU milliseconds* from the simulator,
//! which is deterministic under a fixed `--seed`; wall-clock latency
//! percentiles are reported alongside but naturally vary run to run.
//! Results are written to `BENCH_service.json` (`--out` to override) plus
//! an observability summary in `BENCH_obs.json` (`--obs-out`); pass
//! `--trace-file`/`--metrics-file` to also dump the batched phase's
//! Chrome trace-event JSON and Prometheus text metrics.
//!
//! Sharded runs (`--shards N`, N > 1) add a third phase: the same batch
//! stream is replayed directly against the sharded indices twice — once
//! with the sequential round-by-round dispatcher and the profile cache off
//! (the pre-parallelism baseline), once with `--shard-threads` sub-batch
//! workers and cached sortedness profiles — and the per-batch wall-time
//! percentiles land in `BENCH_parallel.json`.

use gts_points::gen::{geocity_like, uniform};
use gts_service::{
    percentile, Backend, BackendBatches, ExecPolicy, FusedLane, FusionMode, KdIndex,
    MetricsSnapshot, MutableIndex, MutableIndexBuilder, Mutation, OpKey, Query, QueryKind,
    QueryResult, Service, ServiceConfig, ShardedIndex, TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loadgen knobs (see `gts-harness loadgen --help` in the binary).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total queries in the client mix.
    pub queries: usize,
    /// Dataset points per index.
    pub points: usize,
    /// RNG seed for datasets and the client mix.
    pub seed: u64,
    /// Service worker threads.
    pub workers: usize,
    /// Batch size target.
    pub batch: usize,
    /// Shards per index (1 = flat [`KdIndex`]; >1 registers
    /// Morton-partitioned [`ShardedIndex`] wrappers instead).
    pub shards: usize,
    /// Sub-batch threads for the parallel sharded phase (0 = auto:
    /// `min(shards, available_parallelism)`). Ignored when `shards <= 1`.
    pub shard_threads: usize,
    /// Output JSON path.
    pub out: String,
    /// Skip the (slow) one-query-at-a-time baseline.
    pub skip_single: bool,
    /// Write the batched phase's Chrome trace-event JSON here.
    pub trace_file: Option<String>,
    /// Write the batched phase's Prometheus text metrics here.
    pub metrics_file: Option<String>,
    /// Observability summary JSON path.
    pub obs_out: String,
    /// Force every batch onto one backend (`None` = the §4.4 profiler
    /// decides per batch — the `--backend auto` default).
    pub backend: Option<Backend>,
    /// Let the profiler steer low-similarity batches to the stackless
    /// Wald walk instead of autoropes ([`ExecPolicy::stackless`]).
    pub stackless: bool,
    /// Per-backend comparison JSON path (`BENCH_stackless.json`).
    pub stackless_out: String,
    /// Churn phase: interleave this many mutation batches with the query
    /// replay against a live [`MutableIndex`] (0 = phase off). Every
    /// mutation batch is followed by a differential check against a
    /// from-scratch flat build over the same live multiset.
    pub churn: usize,
    /// Churn report JSON path (`BENCH_epoch.json`).
    pub churn_out: String,
    /// Mixed workload: every sampled position asks NN + kNN + PC against
    /// one index (the shape fusion coalesces into a single tree walk),
    /// instead of the default one-op-per-query mix over two indices.
    pub mixed: bool,
    /// Fusion mode for the batched service phase (`--fusion`).
    pub fusion: FusionMode,
    /// Fused-vs-unfused comparison JSON path (`BENCH_fused.json`).
    pub fused_out: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            queries: 2048,
            points: 4096,
            seed: 20130901,
            workers: 2,
            batch: 256,
            shards: 1,
            shard_threads: 0,
            out: "BENCH_service.json".into(),
            skip_single: false,
            trace_file: None,
            metrics_file: None,
            obs_out: "BENCH_obs.json".into(),
            backend: None,
            stackless: false,
            stackless_out: "BENCH_stackless.json".into(),
            churn: 0,
            churn_out: "BENCH_epoch.json".into(),
            mixed: false,
            fusion: FusionMode::default(),
            fused_out: "BENCH_fused.json".into(),
        }
    }
}

/// Machine-readable loadgen result, the serving-trajectory benchmark
/// later PRs track.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Queries driven through the service.
    pub queries: u64,
    /// Seed the run used (datasets + client mix).
    pub seed: u64,
    /// Registered indices.
    pub indices: u64,
    /// Shards per index (1 = flat kd-tree indices).
    pub shards: u64,
    /// `(query, shard)` pairs skipped by shard AABB pruning (0 for flat).
    pub shards_pruned: u64,
    /// Total modeled GPU ms across batched dispatches.
    pub batched_model_ms: f64,
    /// Modeled queries/second of the batched path.
    pub batched_qps_model: f64,
    /// Total modeled GPU ms when each query launches alone (0 when
    /// the baseline is skipped).
    pub single_model_ms: f64,
    /// Modeled queries/second of the one-at-a-time path.
    pub single_qps_model: f64,
    /// batched vs single modeled-throughput ratio.
    pub modeled_speedup: f64,
    /// Wall-clock ms for the batched phase (machine-dependent).
    pub wall_ms: f64,
    /// Wall-clock p50 submit-to-result latency, ms.
    pub latency_p50_ms: f64,
    /// Wall-clock p99 submit-to-result latency, ms.
    pub latency_p99_ms: f64,
    /// Batches the profiler sent to lockstep.
    pub lockstep_batches: u64,
    /// Batches the profiler sent to autoropes.
    pub autoropes_batches: u64,
    /// Mean queries per batch.
    pub mean_batch_size: f64,
    /// Mean lockstep work expansion across batches.
    pub mean_work_expansion: f64,
    /// Mean warp mask occupancy across batches (live-lane fraction).
    pub mean_mask_occupancy: f64,
    /// Wall-clock p99.9 submit-to-result latency, ms.
    pub latency_p999_ms: f64,
    /// Slowest wall-clock query latency, ms.
    pub latency_max_ms: f64,
    /// Longest submit-to-dispatch wait, ms.
    pub queue_wait_max_ms: f64,
    /// Requested backend mode: `"auto"` or the forced backend's name.
    pub backend: String,
    /// Batches per backend, one entry per [`Backend::ALL`] member.
    pub backend_batches: Vec<BackendBatches>,
    /// Peak rope-stack bytes any warp used across the batched phase.
    pub stack_bytes_peak: u64,
    /// Total rope-stack memory transactions of the batched phase.
    pub stack_transactions: u64,
    /// Fusion mode the batched phase ran under (`auto`/`on`/`off`).
    pub fusion: String,
    /// Fused dispatches the service coalesced (drain windows where
    /// same-index queries of different ops shared one tree walk).
    pub fused_batches: u64,
    /// Deduped query lanes across those fused dispatches.
    pub fused_lanes: u64,
    /// Modeled node visits fusion saved vs running each op separately.
    pub fusion_saved_visits: u64,
}

/// Sequential-vs-parallel sharded dispatch comparison
/// (`BENCH_parallel.json`): the same seeded batch stream replayed against
/// the same sharded indices under both execution paths. Results are
/// checked bit-identical between the paths before the report is built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelBenchReport {
    /// Shards per index.
    pub shards: u64,
    /// Resolved sub-batch threads of the parallel phase.
    pub shard_threads: u64,
    /// Batches replayed per phase.
    pub batches: u64,
    /// p50 per-batch wall ms (best of interleaved reps), sequential
    /// dispatcher + cold profiler.
    pub sequential_p50_ms: f64,
    /// p99 per-batch wall ms, sequential dispatcher.
    pub sequential_p99_ms: f64,
    /// Sum of the kept per-batch times, sequential dispatcher.
    pub sequential_wall_ms: f64,
    /// p50 per-batch wall ms (best of interleaved reps), parallel waves
    /// + profile cache.
    pub parallel_p50_ms: f64,
    /// p99 per-batch wall ms, parallel waves.
    pub parallel_p99_ms: f64,
    /// Sum of the kept per-batch times, parallel waves.
    pub parallel_wall_ms: f64,
    /// `sequential_p50_ms / parallel_p50_ms`.
    pub p50_speedup: f64,
    /// Sub-batches served from cached sortedness profiles.
    pub profile_cache_hits: u64,
    /// Cache consultations that re-ran the profiler.
    pub profile_cache_misses: u64,
    /// Cache entries dropped (TTL expiry or capacity).
    pub profile_cache_evictions: u64,
    /// `hits / (hits + misses)` of the parallel phase.
    pub profile_cache_hit_rate: f64,
}

/// One backend's row in the stackless comparison
/// ([`StacklessBenchReport`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StacklessBackendRow {
    /// Backend name ([`Backend::name`]).
    pub backend: String,
    /// Total modeled GPU ms across the replayed batches.
    pub model_ms: f64,
    /// Modeled queries/second.
    pub qps_model: f64,
    /// Total tree-node visits.
    pub node_visits: u64,
    /// Peak rope-stack bytes any warp used (must be 0 for the stackless
    /// backends — the CI smoke asserts it).
    pub stack_bytes_peak: u64,
    /// Total rope-stack memory transactions (0 for stackless).
    pub stack_transactions: u64,
    /// p50 per-batch wall ms.
    pub wall_p50_ms: f64,
    /// p99 per-batch wall ms.
    pub wall_p99_ms: f64,
}

/// Per-backend comparison (`BENCH_stackless.json`): the same seeded batch
/// stream replayed with each executor forced, results checked bit-identical
/// against the autoropes baseline before the report is built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StacklessBenchReport {
    /// Queries replayed per backend.
    pub queries: u64,
    /// Batches replayed per backend.
    pub batches: u64,
    /// Every compared backend returned bit-identical results (asserted —
    /// a report is only written when this is `true`).
    pub results_identical: bool,
    /// One row per compared backend, autoropes first.
    pub backends: Vec<StacklessBackendRow>,
}

/// Live-mutation churn comparison (`BENCH_epoch.json`): the same seeded
/// query batches replayed against a [`MutableIndex`] twice — once static
/// (no mutations), once with mutation batches interleaved while the
/// background merge thread advances epochs under the queries. Every
/// mutation batch is followed by a differential check: the mutable
/// index's answers must match a from-scratch flat [`KdIndex`] build over
/// the same live multiset, pending deltas included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochBenchReport {
    /// Points in the initial build.
    pub points: u64,
    /// Query batches replayed per phase.
    pub query_batches: u64,
    /// Mutation batches interleaved into the churn phase.
    pub churn_batches: u64,
    /// Mutations accepted across the churn phase.
    pub mutations_accepted: u64,
    /// Deletes of non-live ids skipped (0 — the generator tracks liveness).
    pub mutations_rejected: u64,
    /// Epoch merges the index performed (background + the quiesce flush).
    pub merges: u64,
    /// Epoch the index ended on after quiesce.
    pub final_epoch: u64,
    /// Delta entries still pending after quiesce (must be 0).
    pub pending_after_quiesce: u64,
    /// Merged shard count before any mutation.
    pub shards_before: u64,
    /// Merged shard count after the final merge (> before when skewed
    /// growth forced Morton re-splits).
    pub shards_after: u64,
    /// Live points after all mutations.
    pub live_after: u64,
    /// Differential checks run (one per mutation batch + one final).
    pub differential_checks: u64,
    /// Sample queries whose answer diverged from the from-scratch flat
    /// build (must be 0 — CI gates on it).
    pub differential_mismatches: u64,
    /// p50 per-batch wall ms with no mutations in flight.
    pub static_p50_ms: f64,
    /// p50 per-batch wall ms with churn + merges racing the queries.
    pub churn_p50_ms: f64,
    /// `churn_p50_ms / static_p50_ms` (CI gates this under 2×).
    pub churn_over_static: f64,
}

/// Fused-vs-unfused comparison (`BENCH_fused.json`): the same seeded
/// request stream replayed in batch windows twice — once through the
/// fused multi-op path (one union-pruned tree walk per deduped lane),
/// once as today's per-op batches — with every per-query answer checked
/// bit-identical between the paths. The node-visit ratio is the
/// headline: with a mixed workload (`--mixed`) one walk answers
/// NN + kNN + PC, so fused visits land well under the per-op sum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusedBenchReport {
    /// Requests replayed per path.
    pub queries: u64,
    /// Fused dispatches the comparison ran (one per batch window
    /// holding at least one query).
    pub fused_batches: u64,
    /// Deduped lanes across the fused dispatches (identical positions
    /// carrying several ops share a lane).
    pub fused_lanes: u64,
    /// Total tree-node visits of the fused path.
    pub fused_node_visits: u64,
    /// Total tree-node visits of the per-op path.
    pub unfused_node_visits: u64,
    /// `fused_node_visits / unfused_node_visits` (CI gates this ≤ 0.75
    /// for the mixed workload).
    pub visit_ratio: f64,
    /// p50 per-window wall ms, fused path.
    pub fused_p50_ms: f64,
    /// p50 per-window wall ms, per-op path.
    pub unfused_p50_ms: f64,
    /// Per-query answers diverging between the paths (must be 0 —
    /// fusion is bit-exact by construction and CI gates on it).
    pub mismatches: u64,
    /// Fused dispatches the *service* phase coalesced under its own
    /// fusion mode (0 with `--fusion off`).
    pub service_fused_batches: u64,
}

/// Observability summary of one loadgen run (`BENCH_obs.json`): how the
/// trace ring and histogram metrics lined up. The invariant the
/// acceptance test checks — one batch span per dispatched batch — is
/// `trace_batch_spans == batches` whenever `trace_dropped == 0`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsReport {
    /// Batches counted by the metrics registry.
    pub batches: u64,
    /// Events retained in the trace ring.
    pub trace_events: u64,
    /// Batch-execution spans in the trace.
    pub trace_batch_spans: u64,
    /// Query-completion spans in the trace.
    pub trace_complete_spans: u64,
    /// Per-shard sub-batch spans in the trace (0 for flat indices).
    pub trace_shard_visit_spans: u64,
    /// Events the ring discarded (0 when capacity covered the run).
    pub trace_dropped: u64,
    /// Queries the metrics registry saw complete.
    pub completed: u64,
    /// Slow-log records committed by the tail sampler (running-max rule
    /// guarantees ≥ 1 once anything completes; CI gates the commit *rate*
    /// under 5% of completions).
    pub slow_log_committed: u64,
    /// Committed records evicted by ring wraparound.
    pub slow_log_evicted: u64,
    /// Records currently retained in the slow-log ring.
    pub slow_log_entries: u64,
    /// Commit threshold at snapshot time, µs (0 until histogram warmup).
    pub slow_log_threshold_us: u64,
    /// p99.9 latency from the bounded histogram, ms.
    pub latency_p999_ms: f64,
    /// Exact max latency, ms.
    pub latency_max_ms: f64,
    /// Exact max queue wait, ms.
    pub queue_wait_max_ms: f64,
    /// Mean warp mask occupancy across batches.
    pub mean_mask_occupancy: f64,
}

/// Side artifacts of one loadgen run: the machine summary plus the
/// rendered trace/metrics exports the CLI writes to `--trace-file` and
/// `--metrics-file`.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Machine-readable observability summary.
    pub obs: ObsReport,
    /// Chrome trace-event JSON of the batched phase.
    pub trace_json: String,
    /// Prometheus text rendering of the final metrics snapshot.
    pub prometheus: String,
}

/// One pre-generated client request.
pub(crate) struct Request {
    pub(crate) index: usize,
    pub(crate) pos: Vec<f32>,
    pub(crate) kind: QueryKind,
}

/// Clustered client mix: each query lands near a dataset point of its
/// target index (the workload batching is supposed to win on).
pub(crate) fn synth_mix(
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

/// Mixed-op client mix (`--mixed`): every sampled position asks all
/// three ops — NN, kNN, PC — against index 0, interleaved in arrival
/// order. Identical positions are what the fusion coalescer dedups into
/// one multi-op lane, so this is the workload one tree walk answers.
pub(crate) fn synth_mixed(
    data: &[Vec<f32>],
    radius: f32,
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf05ed);
    let positions = (n / 3).max(1);
    let jitter = radius * 0.5;
    let mut out = Vec::with_capacity(positions * 3);
    for _ in 0..positions {
        let anchor = &data[rng.gen_range(0..data.len())];
        let pos: Vec<f32> = anchor
            .iter()
            .map(|&c| c + rng.gen_range(-jitter..jitter))
            .collect();
        for kind in [
            QueryKind::Nn,
            QueryKind::Knn { k },
            QueryKind::Pc { radius },
        ] {
            out.push(Request {
                index: 0,
                pos: pos.clone(),
                kind,
            });
        }
    }
    out
}

/// Group a request stream by `(index, op)` the way the batcher coalesces,
/// then chunk each group to the batch-size target — the replay unit both
/// comparison phases share.
fn group_batches(requests: &[Request], batch: usize) -> Vec<(usize, OpKey, Vec<Vec<f32>>)> {
    type OpGroup = ((usize, OpKey), Vec<Vec<f32>>);
    let mut groups: Vec<OpGroup> = Vec::new();
    for r in requests {
        let key = (r.index, r.kind.op_key().expect("valid kinds"));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(r.pos.clone()),
            None => groups.push((key, vec![r.pos.clone()])),
        }
    }
    groups
        .into_iter()
        .flat_map(|((idx, op), pos)| {
            pos.chunks(batch)
                .map(|c| (idx, op, c.to_vec()))
                .collect::<Vec<_>>()
        })
        .collect()
}

pub(crate) fn bbox_diag(points: &[Vec<f32>]) -> f32 {
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

/// Answers of the mutable index diverging from a from-scratch flat build
/// over the same live multiset, across one sample replay of all three
/// ops. Distances compare within f32 epsilon (ids may differ on exact
/// ties), PC counts exactly.
fn epoch_differential(idx: &MutableIndex<3>, sample: &[Vec<f32>], radius: f32) -> u64 {
    let live: Vec<PointN<3>> = idx.live().into_iter().map(|(_, p)| p).collect();
    if live.is_empty() || sample.is_empty() {
        return 0;
    }
    let flat = KdIndex::build("epoch-oracle", &live, 8, SplitPolicy::MedianCycle);
    let policy = ExecPolicy::forced(Backend::Cpu);
    let close = |a: f32, b: f32| {
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-6)
            || (a.is_infinite() && b.is_infinite())
    };
    let mut mismatches = 0u64;
    for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(radius.to_bits())] {
        let want = flat.run_batch(op, sample, &policy);
        let got = idx.run_batch(op, sample, &policy);
        for (w, g) in want.results.iter().zip(&got.results) {
            let ok = match (w, g) {
                (QueryResult::Nn { dist2: a, .. }, QueryResult::Nn { dist2: b, .. }) => {
                    close(*a, *b)
                }
                (QueryResult::Knn { dist2: a, .. }, QueryResult::Knn { dist2: b, .. }) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
                }
                (QueryResult::Pc { count: a }, QueryResult::Pc { count: b }) => a == b,
                _ => false,
            };
            if !ok {
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Churn phase (`--churn N`): replay one seeded 3-d query stream against
/// a [`MutableIndex`] twice — static, then with `N` mutation batches
/// interleaved while the background merge thread advances epochs under
/// the queries — and pin every window with [`epoch_differential`].
fn churn_phase(cfg: &LoadgenConfig) -> EpochBenchReport {
    let shards = cfg.shards.max(2);
    let pts: Vec<PointN<3>> = uniform::<3>(cfg.points, cfg.seed);
    let data: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
    let radius = 0.04 * bbox_diag(&data);
    let requests = synth_mix(
        std::slice::from_ref(&data),
        &[radius],
        (cfg.queries / 2).max(64),
        8,
        cfg.seed ^ 0xc0ffee,
    );
    let batches = group_batches(&requests, cfg.batch);
    let policy = ExecPolicy::default();
    let sample: Vec<Vec<f32>> = requests.iter().take(48).map(|r| r.pos.clone()).collect();

    // Static pass: same index type, no mutations in flight.
    let static_idx = MutableIndexBuilder::new("churn3d", shards).build(&pts);
    let mut static_ms = Vec::with_capacity(batches.len());
    for (_, op, pos) in &batches {
        let t0 = Instant::now();
        static_idx.run_batch(*op, pos, &policy);
        static_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    static_idx.quiesce();

    // Churn pass: one mutation batch lands before each query batch until
    // the budget is spent (the rest after the replay), every batch pinned
    // by a differential check while its deltas race the merge thread.
    let idx = MutableIndexBuilder::new("churn3d", shards).build(&pts);
    let shards_before = idx.stats().shards;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xe90c4);
    let mut live_ids: Vec<u32> = (0..cfg.points as u32).collect();
    let m_per_batch = (cfg.batch / 4).max(16);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let (mut checks, mut mismatches) = (0u64, 0u64);
    let mut churn_ms = Vec::with_capacity(batches.len());
    let mut churn_left = cfg.churn;
    let mut mutate_once = |rng: &mut ChaCha8Rng, live_ids: &mut Vec<u32>| {
        let mut muts = Vec::with_capacity(m_per_batch);
        for _ in 0..m_per_batch {
            // Deletes keep the live set above half its seed size so the
            // index never thins out under a long churn budget.
            if live_ids.len() > cfg.points / 2 && rng.gen_range(0..2u32) == 0 {
                let at = rng.gen_range(0..live_ids.len());
                muts.push(Mutation::Delete {
                    id: live_ids.swap_remove(at),
                });
            } else {
                let anchor = &data[rng.gen_range(0..data.len())];
                muts.push(Mutation::Insert {
                    pos: anchor
                        .iter()
                        .map(|&c| c + rng.gen_range(-radius..radius))
                        .collect(),
                });
            }
        }
        let ack = idx.mutate(&muts).expect("churn mutations are valid");
        live_ids.extend(&ack.assigned);
        accepted += ack.accepted;
        rejected += ack.rejected;
    };
    for (_, op, pos) in &batches {
        if churn_left > 0 {
            mutate_once(&mut rng, &mut live_ids);
            churn_left -= 1;
            checks += 1;
            mismatches += epoch_differential(&idx, &sample, radius);
        }
        let t0 = Instant::now();
        idx.run_batch(*op, pos, &policy);
        churn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    while churn_left > 0 {
        mutate_once(&mut rng, &mut live_ids);
        churn_left -= 1;
        checks += 1;
        mismatches += epoch_differential(&idx, &sample, radius);
    }
    idx.quiesce();
    checks += 1;
    mismatches += epoch_differential(&idx, &sample, radius);
    let stats = idx.stats();
    assert_eq!(stats.pending, 0, "quiesce left deltas pending");
    assert_eq!(stats.live as usize, live_ids.len(), "live set diverged");

    let static_p50 = percentile(&static_ms, 50.0);
    let churn_p50 = percentile(&churn_ms, 50.0);
    EpochBenchReport {
        points: cfg.points as u64,
        query_batches: batches.len() as u64,
        churn_batches: cfg.churn as u64,
        mutations_accepted: accepted,
        mutations_rejected: rejected,
        merges: stats.merges,
        final_epoch: stats.epoch,
        pending_after_quiesce: stats.pending,
        shards_before,
        shards_after: stats.shards,
        live_after: stats.live,
        differential_checks: checks,
        differential_mismatches: mismatches,
        static_p50_ms: static_p50,
        churn_p50_ms: churn_p50,
        churn_over_static: if static_p50 > 0.0 {
            churn_p50 / static_p50
        } else {
            0.0
        },
    }
}

/// Fused-vs-unfused comparison: replay the request stream in windows of
/// `batch` requests; each window's same-index queries become deduped
/// multi-op lanes for one fused dispatch, then rerun as today's per-op
/// batches, every answer compared bit-for-bit. Both paths force
/// autoropes so the node-visit comparison is executor-for-executor.
fn fused_phase(
    indices: &[Arc<dyn TreeIndex>],
    requests: &[Request],
    cfg: &LoadgenConfig,
    service_fused_batches: u64,
) -> FusedBenchReport {
    let policy = ExecPolicy::forced(Backend::Autoropes);
    let mut fused_batches = 0u64;
    let mut fused_lanes = 0u64;
    let (mut fused_visits, mut unfused_visits) = (0u64, 0u64);
    let mut fused_ms = Vec::new();
    let mut unfused_ms = Vec::new();
    let mut mismatches = 0u64;
    for window in requests.chunks(cfg.batch.max(1)) {
        // Same-index queries of one window share a fused dispatch,
        // arrival order preserved.
        let mut by_index: Vec<(usize, Vec<&Request>)> = Vec::new();
        for r in window {
            match by_index.iter_mut().find(|(ix, _)| *ix == r.index) {
                Some((_, v)) => v.push(r),
                None => by_index.push((r.index, vec![r])),
            }
        }
        for (ix, reqs) in by_index {
            // Build lanes the way the service coalescer does: dedup on
            // exact position bit patterns, accumulate ops per lane.
            let mut lanes: Vec<FusedLane> = Vec::new();
            let mut lane_of: Vec<usize> = Vec::with_capacity(reqs.len());
            for r in &reqs {
                let li = match lanes.iter().position(|l| l.pos == r.pos) {
                    Some(li) => li,
                    None => {
                        lanes.push(FusedLane::empty(r.pos.clone()));
                        lanes.len() - 1
                    }
                };
                lanes[li].ask(r.kind.op_key().expect("valid kinds"));
                lane_of.push(li);
            }
            let t0 = Instant::now();
            let fused = indices[ix]
                .run_fused(&lanes, &policy)
                .expect("loadgen indices support fused dispatch");
            fused_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            fused_batches += 1;
            fused_lanes += lanes.len() as u64;
            fused_visits += fused.outcome.node_visits;

            // The per-op path: group the same queries by op and run each
            // as its own batch, exactly today's unfused dispatch.
            let mut by_op: Vec<(OpKey, Vec<Vec<f32>>, Vec<usize>)> = Vec::new();
            for (qi, r) in reqs.iter().enumerate() {
                let op = r.kind.op_key().expect("valid kinds");
                match by_op.iter_mut().find(|(o, _, _)| *o == op) {
                    Some((_, pos, qis)) => {
                        pos.push(r.pos.clone());
                        qis.push(qi);
                    }
                    None => by_op.push((op, vec![r.pos.clone()], vec![qi])),
                }
            }
            let mut unfused: Vec<Option<QueryResult>> = vec![None; reqs.len()];
            let t0 = Instant::now();
            for (op, pos, qis) in &by_op {
                let out = indices[ix].run_batch(*op, pos, &policy);
                unfused_visits += out.node_visits;
                for (res, &qi) in out.results.into_iter().zip(qis) {
                    unfused[qi] = Some(res);
                }
            }
            unfused_ms.push(t0.elapsed().as_secs_f64() * 1e3);

            // Scatter the fused answers back per query and compare.
            for (qi, r) in reqs.iter().enumerate() {
                let li = lane_of[qi];
                let got = fused.lanes[li].answer(&lanes[li], r.kind.op_key().expect("valid kinds"));
                if got != unfused[qi].as_ref() {
                    mismatches += 1;
                }
            }
        }
    }
    FusedBenchReport {
        queries: requests.len() as u64,
        fused_batches,
        fused_lanes,
        fused_node_visits: fused_visits,
        unfused_node_visits: unfused_visits,
        visit_ratio: if unfused_visits > 0 {
            fused_visits as f64 / unfused_visits as f64
        } else {
            0.0
        },
        fused_p50_ms: percentile(&fused_ms, 50.0),
        unfused_p50_ms: percentile(&unfused_ms, 50.0),
        mismatches,
        service_fused_batches,
    }
}

/// Run the loadgen and return (human report, machine report,
/// observability artifacts, sequential-vs-parallel comparison, per-backend
/// stackless comparison, fused-vs-unfused comparison, churn comparison).
/// The parallel comparison is `Some` only for sharded runs (`shards > 1`),
/// the churn comparison only with `--churn N`; the stackless and fused
/// comparisons always run.
pub fn run(
    cfg: &LoadgenConfig,
) -> (
    String,
    BenchReport,
    ObsArtifacts,
    Option<ParallelBenchReport>,
    StacklessBenchReport,
    FusedBenchReport,
    Option<EpochBenchReport>,
) {
    // Two indices of different dimension and split policy.
    let pts3: Vec<PointN<3>> = uniform::<3>(cfg.points, cfg.seed);
    let pts2: Vec<PointN<2>> = geocity_like(cfg.points, cfg.seed + 1);
    let data3: Vec<Vec<f32>> = pts3.iter().map(|p| p.0.to_vec()).collect();
    let data2: Vec<Vec<f32>> = pts2.iter().map(|p| p.0.to_vec()).collect();
    let radii = [0.04 * bbox_diag(&data3), 0.04 * bbox_diag(&data2)];

    let indices: Vec<Arc<dyn TreeIndex>> = if cfg.shards > 1 {
        vec![
            Arc::new(ShardedIndex::build(
                "uniform3d",
                &pts3,
                cfg.shards,
                8,
                SplitPolicy::MedianCycle,
            )),
            Arc::new(ShardedIndex::build(
                "geocity2d",
                &pts2,
                cfg.shards,
                8,
                SplitPolicy::MidpointWidest,
            )),
        ]
    } else {
        vec![
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
        ]
    };
    let requests = if cfg.mixed {
        synth_mixed(&data3, radii[0], cfg.queries, 8, cfg.seed)
    } else {
        synth_mix(&[data3, data2], &radii, cfg.queries, 8, cfg.seed)
    };
    let n_queries = requests.len();

    // Batched phase. A long deadline makes flushes size-triggered, so the
    // batch composition — and therefore the modeled totals — depend only
    // on the seeded arrival order; the shutdown drain flushes the tail.
    let service = Service::start(ServiceConfig {
        batch_queries: cfg.batch,
        max_wait: Duration::from_secs(3600),
        workers: cfg.workers,
        policy: ExecPolicy {
            force: cfg.backend,
            stackless: cfg.stackless,
            fusion: cfg.fusion,
            ..ExecPolicy::default()
        },
        // Room for every query's full lifecycle (submit + enqueue +
        // complete, plus per-batch spans) so nothing wraps and the
        // batch-span count can be checked against the metrics exactly.
        trace_capacity: 4 * cfg.queries + 4096,
        ..ServiceConfig::default()
    });
    for index in &indices {
        service.register_index(Arc::clone(index));
    }
    let wall_start = Instant::now();
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| {
            service
                .submit(Query {
                    index: r.index,
                    pos: r.pos.clone(),
                    kind: r.kind,
                })
                .expect("loadgen submits are valid")
        })
        .collect();
    // Shutdown drains every in-flight batch; then all tickets are ready.
    let (snapshot, trace): (MetricsSnapshot, _) = service.shutdown_with_trace();
    for t in &tickets {
        t.wait().expect("loadgen queries succeed");
    }
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    // Single-query baseline: same stream, one launch per query.
    let policy = ExecPolicy::forced(Backend::Autoropes);
    let single_model_ms = if cfg.skip_single {
        0.0
    } else {
        requests
            .iter()
            .map(|r| {
                let op = r.kind.op_key().expect("valid kinds");
                indices[r.index]
                    .run_batch(op, std::slice::from_ref(&r.pos), &policy)
                    .model_ms
            })
            .sum()
    };

    // Sequential-vs-parallel sharded dispatch: replay the same batch
    // stream directly against the indices under both execution paths.
    // The sequential pass pins one sub-batch thread and disables the
    // profile cache — exactly the pre-parallelism dispatcher — while the
    // parallel pass uses `shard_threads` workers and cached profiles.
    let replay_batches = group_batches(&requests, cfg.batch);
    let parallel = (cfg.shards > 1).then(|| {
        let batches = &replay_batches;
        let seq_policy = ExecPolicy {
            shard_parallelism: 1,
            profile_cache: false,
            ..ExecPolicy::default()
        };
        let par_policy = ExecPolicy {
            shard_parallelism: cfg.shard_threads,
            profile_cache: true,
            ..ExecPolicy::default()
        };
        // Interleave the two dispatchers per batch and keep each mode's
        // fastest of REPS runs: back-to-back whole-stream passes drift on
        // a shared box, and one scheduler hiccup in either pass would
        // swamp the profiling saving under measurement. Every rep pair is
        // also checked for result equality.
        const REPS: usize = 3;
        let mut seq_ms = Vec::with_capacity(batches.len());
        let mut par_ms = Vec::with_capacity(batches.len());
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for (idx, op, pos) in batches {
            let (mut seq_best, mut par_best) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..REPS {
                let t0 = Instant::now();
                let s = indices[*idx].run_batch(*op, pos, &seq_policy);
                let s_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t0 = Instant::now();
                let p = indices[*idx].run_batch(*op, pos, &par_policy);
                let p_ms = t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    s.results, p.results,
                    "parallel sharded dispatch diverged from sequential"
                );
                seq_best = seq_best.min(s_ms);
                par_best = par_best.min(p_ms);
                hits += p.profile_cache_hits;
                misses += p.profile_cache_misses;
                evictions += p.profile_cache_evictions;
            }
            seq_ms.push(seq_best);
            par_ms.push(par_best);
        }
        let seq_wall: f64 = seq_ms.iter().sum();
        let par_wall: f64 = par_ms.iter().sum();
        let seq_p50 = percentile(&seq_ms, 50.0);
        let par_p50 = percentile(&par_ms, 50.0);
        ParallelBenchReport {
            shards: cfg.shards as u64,
            shard_threads: par_policy.shard_threads(cfg.shards) as u64,
            batches: batches.len() as u64,
            sequential_p50_ms: seq_p50,
            sequential_p99_ms: percentile(&seq_ms, 99.0),
            sequential_wall_ms: seq_wall,
            parallel_p50_ms: par_p50,
            parallel_p99_ms: percentile(&par_ms, 99.0),
            parallel_wall_ms: par_wall,
            p50_speedup: if par_p50 > 0.0 {
                seq_p50 / par_p50
            } else {
                0.0
            },
            profile_cache_hits: hits,
            profile_cache_misses: misses,
            profile_cache_evictions: evictions,
            profile_cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        }
    });

    // Per-backend comparison: the same batch stream with each executor
    // forced. The rope-stack counters are the headline — the stackless
    // executors must move zero stack bytes while returning bit-identical
    // results to the autoropes baseline.
    let stackless = {
        let compare = [
            Backend::Autoropes,
            Backend::StacklessKd,
            Backend::StacklessBvh,
        ];
        let mut rows = Vec::with_capacity(compare.len());
        let mut baseline: Vec<Vec<gts_service::QueryResult>> = Vec::new();
        for backend in compare {
            let policy = ExecPolicy::forced(backend);
            let mut model_ms = 0.0;
            let mut node_visits = 0u64;
            let (mut peak, mut tx) = (0u64, 0u64);
            let mut wall = Vec::with_capacity(replay_batches.len());
            for (bi, (idx, op, pos)) in replay_batches.iter().enumerate() {
                let t0 = Instant::now();
                let out = indices[*idx].run_batch(*op, pos, &policy);
                wall.push(t0.elapsed().as_secs_f64() * 1e3);
                model_ms += out.model_ms;
                node_visits += out.node_visits;
                peak = peak.max(out.stack_bytes_peak);
                tx += out.stack_transactions;
                if backend == Backend::Autoropes {
                    baseline.push(out.results);
                } else {
                    assert_eq!(
                        out.results,
                        baseline[bi],
                        "{} diverged from autoropes on batch {bi}",
                        backend.name()
                    );
                }
            }
            rows.push(StacklessBackendRow {
                backend: backend.name().to_string(),
                model_ms,
                qps_model: if model_ms > 0.0 {
                    n_queries as f64 / (model_ms / 1e3)
                } else {
                    0.0
                },
                node_visits,
                stack_bytes_peak: peak,
                stack_transactions: tx,
                wall_p50_ms: percentile(&wall, 50.0),
                wall_p99_ms: percentile(&wall, 99.0),
            });
        }
        StacklessBenchReport {
            queries: n_queries as u64,
            batches: replay_batches.len() as u64,
            results_identical: true,
            backends: rows,
        }
    };

    // Fused-vs-unfused comparison: one union-pruned walk per deduped
    // lane vs today's per-op batches, answers checked bit-identical.
    let fused = fused_phase(&indices, &requests, cfg, snapshot.fused_batches);

    // Churn phase: live mutation under query load, differentially pinned.
    let churn = (cfg.churn > 0).then(|| churn_phase(cfg));

    let batched_qps = n_queries as f64 / (snapshot.model_ms / 1e3);
    let single_qps = if single_model_ms > 0.0 {
        n_queries as f64 / (single_model_ms / 1e3)
    } else {
        0.0
    };
    let report = BenchReport {
        queries: n_queries as u64,
        seed: cfg.seed,
        indices: indices.len() as u64,
        shards: cfg.shards.max(1) as u64,
        shards_pruned: snapshot.shards_pruned,
        batched_model_ms: snapshot.model_ms,
        batched_qps_model: batched_qps,
        single_model_ms,
        single_qps_model: single_qps,
        modeled_speedup: if single_model_ms > 0.0 {
            single_model_ms / snapshot.model_ms
        } else {
            0.0
        },
        wall_ms,
        latency_p50_ms: snapshot.latency_p50_ms,
        latency_p99_ms: snapshot.latency_p99_ms,
        lockstep_batches: snapshot.lockstep_batches,
        autoropes_batches: snapshot.autoropes_batches,
        mean_batch_size: snapshot.mean_batch_size,
        mean_work_expansion: snapshot.mean_work_expansion,
        mean_mask_occupancy: snapshot.mean_mask_occupancy,
        latency_p999_ms: snapshot.latency_p999_ms,
        latency_max_ms: snapshot.latency_max_ms,
        queue_wait_max_ms: snapshot.queue_wait_max_ms,
        backend: cfg
            .backend
            .map_or_else(|| "auto".to_string(), |b| b.name().to_string()),
        backend_batches: snapshot.backend_batches.clone(),
        stack_bytes_peak: snapshot.stack_bytes_peak,
        stack_transactions: snapshot.stack_transactions,
        fusion: cfg.fusion.name().to_string(),
        fused_batches: snapshot.fused_batches,
        fused_lanes: snapshot.fused_lanes,
        fusion_saved_visits: snapshot.fusion_saved_visits,
    };
    let artifacts = ObsArtifacts {
        obs: ObsReport {
            batches: snapshot.batches,
            trace_events: trace.events.len() as u64,
            trace_batch_spans: trace.batch_spans() as u64,
            trace_complete_spans: trace.complete_spans() as u64,
            trace_shard_visit_spans: trace.shard_visit_spans() as u64,
            trace_dropped: trace.dropped,
            completed: snapshot.completed,
            slow_log_committed: snapshot.slow_log_committed,
            slow_log_evicted: snapshot.slow_log_evicted,
            slow_log_entries: snapshot.slow_log_entries,
            slow_log_threshold_us: snapshot.slow_log_threshold_us,
            latency_p999_ms: snapshot.latency_p999_ms,
            latency_max_ms: snapshot.latency_max_ms,
            queue_wait_max_ms: snapshot.queue_wait_max_ms,
            mean_mask_occupancy: snapshot.mean_mask_occupancy,
        },
        trace_json: trace.to_chrome_json(),
        prometheus: snapshot.to_prometheus(),
    };

    let mut text = String::new();
    text.push_str(&format!(
        "loadgen: {} queries over {} indices ({} pts each), seed {}, batch {}, {} workers, {} shard(s)\n",
        n_queries,
        indices.len(),
        cfg.points,
        cfg.seed,
        cfg.batch,
        cfg.workers,
        cfg.shards.max(1)
    ));
    text.push_str(&format!(
        "  batched: {:8.2} modeled ms → {:9.0} q/s modeled  (wall {:.0} ms, p50 {:.2} ms, p99 {:.2} ms)\n",
        report.batched_model_ms, report.batched_qps_model, wall_ms,
        report.latency_p50_ms, report.latency_p99_ms
    ));
    if !cfg.skip_single {
        text.push_str(&format!(
            "  single : {:8.2} modeled ms → {:9.0} q/s modeled\n",
            report.single_model_ms, report.single_qps_model
        ));
        text.push_str(&format!(
            "  modeled speedup: {:.1}x\n",
            report.modeled_speedup
        ));
    }
    let backend_counts: Vec<String> = snapshot
        .backend_batches
        .iter()
        .filter(|b| b.batches > 0)
        .map(|b| format!("{} {}", b.batches, b.backend))
        .collect();
    text.push_str(&format!(
        "  batches: {} ({}), mean size {:.1}, mean work expansion {:.2}, mean mask occupancy {:.2}\n",
        snapshot.batches,
        backend_counts.join(" / "),
        snapshot.mean_batch_size,
        snapshot.mean_work_expansion,
        snapshot.mean_mask_occupancy
    ));
    text.push_str(&format!(
        "  tails  : latency p99.9 {:.2} ms, max {:.2} ms; queue wait max {:.2} ms\n",
        snapshot.latency_p999_ms, snapshot.latency_max_ms, snapshot.queue_wait_max_ms
    ));
    text.push_str(&format!(
        "  trace  : {} events ({} batch spans, {} query spans, {} shard spans, {} dropped)\n",
        artifacts.obs.trace_events,
        artifacts.obs.trace_batch_spans,
        artifacts.obs.trace_complete_spans,
        artifacts.obs.trace_shard_visit_spans,
        artifacts.obs.trace_dropped
    ));
    text.push_str(&format!(
        "  slowlog: {} committed of {} completed ({} retained, threshold {}µs)\n",
        artifacts.obs.slow_log_committed,
        artifacts.obs.completed,
        artifacts.obs.slow_log_entries,
        artifacts.obs.slow_log_threshold_us
    ));
    if cfg.shards > 1 {
        text.push_str(&format!(
            "  shards : {} per index, {} (query, shard) fan-outs pruned by AABB bounds\n",
            cfg.shards, snapshot.shards_pruned
        ));
    }
    if let Some(p) = &parallel {
        text.push_str(&format!(
            "  dispatch: sequential p50 {:.3} ms vs parallel p50 {:.3} ms ({:.2}x, {} threads, {} batches)\n",
            p.sequential_p50_ms, p.parallel_p50_ms, p.p50_speedup, p.shard_threads, p.batches
        ));
        text.push_str(&format!(
            "  profile cache: {} hits / {} misses / {} evictions ({:.0}% hit rate)\n",
            p.profile_cache_hits,
            p.profile_cache_misses,
            p.profile_cache_evictions,
            100.0 * p.profile_cache_hit_rate
        ));
    }
    for row in &stackless.backends {
        text.push_str(&format!(
            "  backend {:<13}: {:8.2} modeled ms → {:9.0} q/s, stack peak {} B, stack tx {}\n",
            row.backend, row.model_ms, row.qps_model, row.stack_bytes_peak, row.stack_transactions
        ));
    }
    text.push_str(&format!(
        "  fusion : {} mode; service fused {} batches ({} lanes, {} visits saved)\n",
        cfg.fusion.name(),
        report.fused_batches,
        report.fused_lanes,
        report.fusion_saved_visits
    ));
    text.push_str(&format!(
        "  fusion : replay {} fused dispatches ({} lanes): {} visits vs {} unfused ({:.2}x), {} mismatches\n",
        fused.fused_batches,
        fused.fused_lanes,
        fused.fused_node_visits,
        fused.unfused_node_visits,
        fused.visit_ratio,
        fused.mismatches
    ));
    if let Some(c) = &churn {
        text.push_str(&format!(
            "  churn  : {} mutation batches ({} mutations), {} merges → epoch {}, shards {} → {}, live {}\n",
            c.churn_batches,
            c.mutations_accepted,
            c.merges,
            c.final_epoch,
            c.shards_before,
            c.shards_after,
            c.live_after
        ));
        text.push_str(&format!(
            "  churn  : {} differential checks, {} mismatches; query p50 {:.3} ms vs static {:.3} ms ({:.2}x)\n",
            c.differential_checks,
            c.differential_mismatches,
            c.churn_p50_ms,
            c.static_p50_ms,
            c.churn_over_static
        ));
    }
    (text, report, artifacts, parallel, stackless, fused, churn)
}

/// CLI entry: parse `args` (everything after the subcommand) and run.
/// With `--connect ADDR` the run goes over TCP instead (see
/// [`crate::netgen`]).
pub fn main_loadgen(args: &[String]) {
    if args.iter().any(|a| a == "--connect") {
        main_netgen_args(args);
        return;
    }
    let mut cfg = LoadgenConfig::default();
    let mut out_given = false;
    let usage = || -> ! {
        eprintln!(
            "usage: gts-harness loadgen [--queries N] [--points N] [--seed N] \
             [--workers N] [--batch N] [--shards N] [--shard-threads N] [--out PATH] \
             [--skip-single] [--trace-file PATH] [--metrics-file PATH] [--obs-out PATH] \
             [--backend auto|lockstep|autoropes|stackless-kd|stackless-bvh|cpu] \
             [--stackless] [--stackless-out PATH] [--churn N] [--churn-out PATH] \
             [--mixed] [--fusion auto|off] [--fused-out PATH]\n\
             \n\
             networked mode:\n\
             gts-harness loadgen --connect HOST:PORT [--connections N] [--frame-queries N] \
             [--queries N] [--points N] [--seed N] [--out PATH] [--single-sample N] \
             [--differential N] [--expect-overload]"
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
            "--workers" => {
                cfg.workers = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--batch" => {
                cfg.batch = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--shards" => {
                cfg.shards = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--shard-threads" => {
                cfg.shard_threads = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                cfg.out = need(i).to_string();
                out_given = true;
                i += 2;
            }
            "--skip-single" => {
                cfg.skip_single = true;
                i += 1;
            }
            "--trace-file" => {
                cfg.trace_file = Some(need(i).to_string());
                i += 2;
            }
            "--metrics-file" => {
                cfg.metrics_file = Some(need(i).to_string());
                i += 2;
            }
            "--obs-out" => {
                cfg.obs_out = need(i).to_string();
                i += 2;
            }
            "--backend" => {
                let name = need(i);
                cfg.backend = match name {
                    "auto" => None,
                    _ => Some(Backend::from_name(name).unwrap_or_else(|| usage())),
                };
                i += 2;
            }
            "--stackless" => {
                cfg.stackless = true;
                i += 1;
            }
            "--stackless-out" => {
                cfg.stackless_out = need(i).to_string();
                i += 2;
            }
            "--churn" => {
                cfg.churn = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--churn-out" => {
                cfg.churn_out = need(i).to_string();
                i += 2;
            }
            "--mixed" => {
                cfg.mixed = true;
                i += 1;
            }
            "--fusion" => {
                cfg.fusion = FusionMode::from_name(need(i)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--fused-out" => {
                cfg.fused_out = need(i).to_string();
                i += 2;
            }
            _ => usage(),
        }
    }
    // A sharded run is a different benchmark row; keep it from
    // overwriting the flat-index baseline unless --out says otherwise.
    if cfg.shards > 1 && !out_given {
        cfg.out = "BENCH_sharded.json".into();
    }

    let (text, report, artifacts, parallel, stackless, fused, churn) = run(&cfg);
    print!("{text}");
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    let mut f = std::fs::File::create(&cfg.out).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    eprintln!("wrote {}", cfg.out);
    if let Some(p) = &parallel {
        let json = serde_json::to_string_pretty(p).expect("serialize parallel report");
        std::fs::write("BENCH_parallel.json", json).expect("write parallel json");
        eprintln!("wrote BENCH_parallel.json");
    }
    let json = serde_json::to_string_pretty(&stackless).expect("serialize stackless report");
    std::fs::write(&cfg.stackless_out, json).expect("write stackless json");
    eprintln!("wrote {}", cfg.stackless_out);
    let json = serde_json::to_string_pretty(&fused).expect("serialize fused report");
    std::fs::write(&cfg.fused_out, json).expect("write fused json");
    eprintln!("wrote {}", cfg.fused_out);
    if let Some(c) = &churn {
        let json = serde_json::to_string_pretty(c).expect("serialize churn report");
        std::fs::write(&cfg.churn_out, json).expect("write churn json");
        eprintln!("wrote {}", cfg.churn_out);
    }
    let obs_json = serde_json::to_string_pretty(&artifacts.obs).expect("serialize obs report");
    std::fs::write(&cfg.obs_out, obs_json).expect("write obs json");
    eprintln!("wrote {}", cfg.obs_out);
    if let Some(path) = &cfg.trace_file {
        std::fs::write(path, &artifacts.trace_json).expect("write trace json");
        eprintln!("wrote {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(path) = &cfg.metrics_file {
        std::fs::write(path, &artifacts.prometheus).expect("write prometheus text");
        eprintln!("wrote {path}");
    }
}

/// Parse the `--connect` flag set and hand off to [`crate::netgen`].
fn main_netgen_args(args: &[String]) {
    let mut cfg = crate::netgen::NetLoadgenConfig::default();
    let usage = || -> ! {
        eprintln!(
            "usage: gts-harness loadgen --connect HOST:PORT [--connections N] \
             [--frame-queries N] [--queries N] [--points N] [--seed N] [--out PATH] \
             [--single-sample N] [--differential N] [--expect-overload] [--trace-out PATH]"
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
    crate::netgen::main_netgen(cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_loadgen_is_deterministic_and_batched_wins() {
        let cfg = LoadgenConfig {
            queries: 256,
            points: 512,
            batch: 64,
            workers: 2,
            ..LoadgenConfig::default()
        };
        let (_, a, obs_a, par, sl, fused, churn) = run(&cfg);
        let (_, b, _, _, sl_b, _, _) = run(&cfg);
        assert!(churn.is_none(), "churn phase only runs with --churn");
        assert!(par.is_none(), "flat runs have no parallel comparison");
        // Modeled numbers are reproducible under a fixed seed.
        assert_eq!(a.batched_model_ms, b.batched_model_ms);
        assert_eq!(a.single_model_ms, b.single_model_ms);
        assert_eq!(a.lockstep_batches, b.lockstep_batches);
        assert_eq!(a.backend, "auto");
        assert_eq!(
            a.backend_batches.iter().map(|b| b.batches).sum::<u64>(),
            a.lockstep_batches + a.autoropes_batches
        );
        // Default mix on the auto fusion mode: drain windows holding
        // several ops against one index coalesce into fused dispatches,
        // and the fused-vs-unfused replay stays bit-identical.
        assert_eq!(a.fusion, "auto");
        assert!(a.fused_batches > 0, "auto mode never fused a window");
        assert!(fused.fused_batches > 0);
        assert_eq!(fused.mismatches, 0, "fused replay diverged");
        assert!(fused.unfused_node_visits > 0);
        // The per-backend comparison ran with bit-identical results;
        // stackless rows moved zero rope-stack bytes, autoropes paid.
        assert!(sl.results_identical);
        assert_eq!(sl.backends.len(), 3);
        assert_eq!(sl.backends[0].backend, "autoropes");
        assert!(sl.backends[0].stack_transactions > 0);
        assert!(sl.backends[0].stack_bytes_peak > 0);
        for row in &sl.backends[1..] {
            assert_eq!(row.stack_transactions, 0, "{} paid stack", row.backend);
            assert_eq!(row.stack_bytes_peak, 0, "{} reserved stack", row.backend);
            assert!(row.model_ms > 0.0);
        }
        for (x, y) in sl.backends.iter().zip(&sl_b.backends) {
            assert_eq!(x.model_ms, y.model_ms, "{} not deterministic", x.backend);
        }
        // Warp-coalesced batching beats one-query-per-launch on modeled
        // throughput.
        assert!(
            a.modeled_speedup > 2.0,
            "expected batching to win, got {:.2}x",
            a.modeled_speedup
        );
        // The acceptance invariant: trace ring sized for the run keeps one
        // batch span per dispatched batch and one span per query.
        let obs = &obs_a.obs;
        assert_eq!(obs.trace_dropped, 0, "trace ring wrapped");
        assert_eq!(obs.trace_batch_spans, obs.batches);
        assert_eq!(obs.trace_complete_spans, a.queries);
        assert!(obs.mean_mask_occupancy > 0.0 && obs.mean_mask_occupancy <= 1.0);
        assert!(obs.latency_max_ms >= obs.latency_p999_ms);
        // Tail sampling: the running-max rule commits at least the slowest
        // query and the histogram-driven threshold armed after warmup.
        // This blast-load run offers every query at once, so queue wait
        // ramps monotonically and the rolling p99 lags it — commit *rate*
        // is only meaningful under paced load, where CI gates it at 5% on
        // the socket path. Here we pin arming, bounds, and retention.
        assert_eq!(obs.completed, a.queries);
        assert!(obs.slow_log_committed >= 1, "running-max rule commits");
        assert!(
            obs.slow_log_threshold_us > 0,
            "threshold armed after warmup"
        );
        assert!(obs.slow_log_committed <= obs.completed);
        assert!(obs.slow_log_entries >= 1);
        assert!(
            obs.slow_log_entries <= 256,
            "ring bounded by default capacity"
        );
        // Both exports parse: the trace as a JSON array, the Prometheus
        // text with one cumulative +Inf bucket per histogram family.
        let parsed: serde::Value =
            serde_json::from_str(&obs_a.trace_json).expect("trace JSON parses");
        assert!(matches!(parsed, serde::Value::Array(_)));
        // 8 aggregate histograms plus 2 labeled per-index histograms for
        // each of the 2 registered indices.
        assert_eq!(obs_a.prometheus.matches("le=\"+Inf\"").count(), 12);
    }

    #[test]
    fn sharded_loadgen_is_deterministic_and_prunes() {
        // One worker: concurrent workers racing on the shared profile
        // caches would make backend choices — and thus modeled totals —
        // run-to-run dependent.
        let cfg = LoadgenConfig {
            queries: 256,
            points: 512,
            batch: 64,
            workers: 1,
            shards: 4,
            shard_threads: 2,
            skip_single: true,
            ..LoadgenConfig::default()
        };
        let (_, a, obs, par_a, sl, fused, _) = run(&cfg);
        let (_, b, _, _, _, _, _) = run(&cfg);
        // The fused replay also runs sharded: union admission must hold
        // through per-shard fan-out and exact merging.
        assert_eq!(fused.mismatches, 0, "sharded fused replay diverged");
        assert!(fused.fused_batches > 0);
        // The stackless comparison also runs sharded; zero stack traffic
        // must survive the sub-batch aggregation.
        assert!(sl.results_identical);
        assert!(sl.backends[1..]
            .iter()
            .all(|r| r.stack_transactions == 0 && r.stack_bytes_peak == 0));
        assert_eq!(a.batched_model_ms, b.batched_model_ms);
        assert_eq!(a.shards_pruned, b.shards_pruned);
        assert_eq!(a.shards, 4);
        // The clustered client mix sits near its anchor points, so shard
        // bounds must rule out distant shards at least sometimes.
        assert!(a.shards_pruned > 0, "no fan-outs pruned");
        // Sharded batches fan sub-batches out, so the trace carries
        // per-shard visit spans on their own tracks.
        assert!(obs.obs.trace_shard_visit_spans > 0, "no shard spans");
        // The comparison phase ran, replayed every query, and verified
        // result equality internally (replay asserts on divergence).
        let p = par_a.expect("sharded runs produce a parallel comparison");
        assert_eq!(p.shards, 4);
        assert_eq!(p.shard_threads, 2);
        assert!(p.batches > 0);
        assert!(
            p.profile_cache_hits + p.profile_cache_misses > 0,
            "parallel phase never consulted the profile cache"
        );
    }

    #[test]
    fn mixed_workload_fusion_saves_visits_and_stays_exact() {
        let cfg = LoadgenConfig {
            queries: 192,
            points: 512,
            batch: 48,
            mixed: true,
            ..LoadgenConfig::default()
        };
        let pts: Vec<PointN<3>> = uniform::<3>(cfg.points, cfg.seed);
        let data: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        let radius = 0.04 * bbox_diag(&data);
        let requests = synth_mixed(&data, radius, cfg.queries, 8, cfg.seed);
        assert_eq!(requests.len(), 192, "3 ops per sampled position");

        let flat: Vec<Arc<dyn TreeIndex>> = vec![Arc::new(KdIndex::build(
            "uniform3d",
            &pts,
            8,
            SplitPolicy::MedianCycle,
        ))];
        let fused = fused_phase(&flat, &requests, &cfg, 0);
        assert!(fused.fused_batches > 0);
        assert_eq!(
            fused.fused_lanes * 3,
            fused.queries,
            "every lane carries all three ops"
        );
        assert_eq!(fused.mismatches, 0, "fused answers diverged");
        // One union-pruned walk per position replaces three per-op
        // walks — the ISSUE's headline saving.
        assert!(
            fused.visit_ratio <= 0.75,
            "expected ≥25% node-visit saving, got ratio {:.3}",
            fused.visit_ratio
        );

        // Same invariants through the sharded fan-out path.
        let sharded: Vec<Arc<dyn TreeIndex>> = vec![Arc::new(ShardedIndex::build(
            "uniform3d",
            &pts,
            2,
            8,
            SplitPolicy::MedianCycle,
        ))];
        let fused = fused_phase(&sharded, &requests, &cfg, 0);
        assert_eq!(fused.mismatches, 0, "sharded fused answers diverged");
        assert!(fused.visit_ratio <= 0.75, "ratio {:.3}", fused.visit_ratio);
    }

    #[test]
    fn churn_phase_merges_and_stays_differentially_exact() {
        let cfg = LoadgenConfig {
            queries: 256,
            points: 512,
            batch: 64,
            workers: 1,
            shards: 2,
            skip_single: true,
            churn: 6,
            ..LoadgenConfig::default()
        };
        let c = churn_phase(&cfg);
        assert_eq!(c.churn_batches, 6);
        assert!(c.mutations_accepted > 0);
        assert_eq!(c.mutations_rejected, 0, "generator only deletes live ids");
        assert!(c.merges > 0, "no epoch merge ever landed");
        assert!(c.final_epoch > 0);
        assert_eq!(c.pending_after_quiesce, 0);
        // One check per mutation batch plus the post-quiesce check, each
        // replaying the sample across all three ops with zero divergence.
        assert_eq!(c.differential_checks, 7);
        assert_eq!(c.differential_mismatches, 0);
        // The generator keeps the live set above half the seed and every
        // accepted mutation moves it by exactly one.
        assert!(
            c.live_after >= 256,
            "live set thinned out: {}",
            c.live_after
        );
        assert!(c.live_after <= c.points + c.mutations_accepted);
    }
}
