//! The per-layer metrics of a traced run.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. Live numbers come from the timed interval the run just
//! finished; the rest come from the *replay*: the first
//! [`REPLAY_BATCHES`] batches of the workload's own request stream, grouped
//! by `(index, op)` in chunks of [`BATCH`] as the batcher would group them,
//! and run directly against the layer. A layer the workload does not
//! exercise keeps 0 for its metrics.

use crate::load::{self, percentile, Link, Load};
use crate::report::{self, Metrics};
use crate::spans::Spans;
use crate::workloads::{
    self, Built, Mutator, Points, Shape, Stream, World, BATCH, CHURN_HALF_BATCH, REPLAY_BATCHES,
    WORKERS,
};
use crate::RunArgs;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnKernel, NnPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_net::Frame;
use gts_points::profile::profile_sortedness;
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::cpu;
use gts_service::trace::NO_ID;
use gts_service::{
    Backend, BatchEntry, BatchKey, BatchOutcome, BatchRecord, Batcher, EventKind, ExecPolicy,
    FusedLane, KdIndex, Metrics as ServiceMetrics, MetricsSnapshot, MutableIndexBuilder, OpKey,
    Query, QueryKind, ServiceConfig, ShardedIndex, TraceRecorder, TreeIndex,
};
use gts_trees::{KdTree, PointN, SplitPolicy};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the timed interval of this run left behind.
pub struct Live<'a> {
    pub load: &'a Load,
    pub snapshot: &'a MetricsSnapshot,
    /// Every set-up time of the run, s.
    pub setup_s: &'a [f64],
    /// Warm-up and timed interval together: what the snapshot covers.
    pub service_wall: Duration,
    pub mutator: Option<&'a Mutator>,
}

/// Per-layer values by metric name.
#[derive(Default)]
struct Values(HashMap<String, f64>);

impl Values {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// One replay batch: queries of one op against one index.
struct Chunk {
    index: usize,
    op: OpKey,
    positions: Vec<Vec<f32>>,
}

fn op_of(q: &Query) -> OpKey {
    q.kind.op_key().expect("generated kinds are valid")
}

fn chunks_of(queries: &[Query]) -> Vec<Chunk> {
    // One unbounded chunk per `(index, op)`, in order of first appearance,
    // then cut to the batch size.
    let mut groups: Vec<Chunk> = Vec::new();
    for q in queries {
        let op = op_of(q);
        match groups.iter_mut().find(|g| (g.index, g.op) == (q.index, op)) {
            Some(g) => g.positions.push(q.pos.clone()),
            None => groups.push(Chunk {
                index: q.index,
                op,
                positions: vec![q.pos.clone()],
            }),
        }
    }
    groups
        .iter()
        .flat_map(|g| {
            g.positions.chunks(BATCH).map(|c| Chunk {
                index: g.index,
                op: g.op,
                positions: c.to_vec(),
            })
        })
        .collect()
}

fn typed<const D: usize>(positions: &[Vec<f32>]) -> Vec<PointN<D>> {
    positions
        .iter()
        .map(|p| PointN(std::array::from_fn(|i| p[i])))
        .collect()
}

/// A batch's wall time and what the index reported for it.
type Run = (Duration, BatchOutcome);

fn timed_batch(
    index: &dyn TreeIndex,
    op: OpKey,
    positions: &[Vec<f32>],
    policy: &ExecPolicy,
) -> Run {
    let started = Instant::now();
    let out = index.run_batch(op, black_box(positions), policy);
    (started.elapsed(), out)
}

fn total(runs: &[Run]) -> f64 {
    runs.iter().map(|r| r.0.as_secs_f64()).sum()
}

/// `gts-points` as `KdIndex` uses it on one chunk: the §4.4 profiler over
/// the sorted batch, with the CPU trace of the op's own kernel.
fn profile_flat<const D: usize>(
    index: &KdIndex<D>,
    op: OpKey,
    sorted: &[PointN<D>],
    policy: &ExecPolicy,
) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let tree = index.tree();
    let (pairs, threshold, seed) = (policy.profile_pairs, policy.threshold, policy.profile_seed);
    let started = Instant::now();
    let report = match op {
        OpKey::Nn => {
            let kernel = NnKernel::new(tree);
            let work: Vec<NnPoint<D>> = sorted.iter().map(|&p| NnPoint::new(p)).collect();
            profile_sortedness(n, pairs, threshold, seed, |i| {
                cpu::trace_one(&kernel, &mut work[i].clone())
            })
        }
        OpKey::Knn(k) => {
            let kernel = KnnKernel::new(tree);
            let work: Vec<KnnPoint<D>> = sorted.iter().map(|&p| KnnPoint::new(p, k)).collect();
            profile_sortedness(n, pairs, threshold, seed, |i| {
                cpu::trace_one(&kernel, &mut work[i].clone())
            })
        }
        OpKey::Pc(bits) => {
            let kernel = PcKernel::new(tree, f32::from_bits(bits));
            let work: Vec<PcPoint<D>> = sorted.iter().map(|&p| PcPoint::new(p)).collect();
            profile_sortedness(n, pairs, threshold, seed, |i| {
                cpu::trace_one(&kernel, &mut work[i].clone())
            })
        }
    };
    black_box(report);
    secs_since(started)
}

/// The replay's inputs: the head of the workload's stream against freshly
/// built indices. A sharded or mutable index the timed interval used carries
/// state (profile caches, deltas) in a run-dependent condition; fresh ones
/// make every count repeat.
struct Replay {
    policy: ExecPolicy,
    queries: Vec<Query>,
    chunks: Vec<Chunk>,
    built: Vec<Built>,
}

impl Replay {
    fn new(world: &World, args: RunArgs) -> Replay {
        let batches = match (args.quick, world.spec.name) {
            (false, _) => REPLAY_BATCHES,
            // The stage-share check runs on this workload and needs
            // several chunks for its median.
            (true, "flat_large") => 4,
            (true, _) => 2,
        };
        let queries =
            Stream::new(world.spec, args.seed).take(batches * BATCH, &world.data, &world.radii);
        Replay {
            policy: workloads::policy(world.spec),
            chunks: chunks_of(&queries),
            queries,
            built: workloads::build_indices(world.spec, &world.data),
        }
    }

    fn index(&self, c: &Chunk) -> std::sync::Arc<dyn TreeIndex> {
        self.built[c.index].as_dyn()
    }

    fn n(&self) -> f64 {
        self.queries.len() as f64
    }
}

/// `gts-trees`: a kd-tree over each dataset, built directly.
fn trees_probe(world: &World, v: &mut Values) {
    let (mut build_s, mut nodes, mut depth) = (0.0, 0usize, 0usize);
    for data in &world.data {
        let started = Instant::now();
        let (n_nodes, d) = match data {
            Points::D2(p) => {
                let t = KdTree::build(p, 8, SplitPolicy::MedianCycle);
                (t.n_nodes(), t.depth())
            }
            Points::D3(p) => {
                let t = KdTree::build(p, 8, SplitPolicy::MedianCycle);
                (t.n_nodes(), t.depth())
            }
        };
        build_s += secs_since(started);
        nodes += n_nodes;
        depth = depth.max(d);
    }
    v.put("trees.build_ms", build_s * 1e3);
    v.put("trees.nodes", nodes as f64);
    v.put("trees.depth", depth as f64);
}

/// `gts-points`, `gts-service::index` and `gts-runtime` over `gts-sim`,
/// chunk by chunk, so that what is compared was measured side by side on a
/// host whose speed drifts: the sort, the whole batch under the workload's
/// own policy, each executor alone on the sorted chunk with the sort and
/// the profile switched off (the one the policy chose first, right after
/// the batch it is compared with), then the profile. Returns the whole
/// batches.
fn batches_probe(r: &Replay, v: &mut Values) -> Vec<Run> {
    // The fresh indices are cold in every cache; one batch of each group,
    // not counted, warms them the same way every time.
    let mut warmed: Vec<(usize, OpKey)> = Vec::new();
    for c in &r.chunks {
        if !warmed.contains(&(c.index, c.op)) {
            warmed.push((c.index, c.op));
            black_box(timed_batch(&*r.index(c), c.op, &c.positions, &r.policy));
        }
    }

    let (mut sort_s, mut profile_s, mut profiled) = (0.0, 0.0, 0usize);
    // Per chunk, sort + profile: the stages besides the executor.
    let mut stages_s: Vec<f64> = Vec::with_capacity(r.chunks.len());
    let mut auto: Vec<Run> = Vec::with_capacity(r.chunks.len());
    let mut forced: Vec<Vec<Run>> = vec![Vec::new(); Backend::ALL.len()];
    for c in &r.chunks {
        let index = r.index(c);
        let started = Instant::now();
        let order = match c.positions[0].len() {
            2 => morton_order(&typed::<2>(&c.positions)),
            _ => morton_order(&typed::<3>(&c.positions)),
        };
        let sorted = apply_perm(&c.positions, &order);
        let mut stages = secs_since(started);
        sort_s += stages;

        let whole = timed_batch(&*index, c.op, &c.positions, &r.policy);
        let mut backends = Backend::ALL;
        backends.sort_by_key(|&b| b != whole.1.backend);
        auto.push(whole);
        for b in backends {
            let alone = ExecPolicy {
                force: Some(b),
                sort: false,
                ..r.policy.clone()
            };
            forced[b.index()].push(timed_batch(&*index, c.op, &sorted, &alone));
        }

        // Only a flat index under an unforced policy profiles every batch.
        let profile = match &r.built[c.index] {
            _ if r.policy.force.is_some() => None,
            Built::Flat3(i) => Some(profile_flat(i, c.op, &typed::<3>(&sorted), &r.policy)),
            Built::Flat2(i) => Some(profile_flat(i, c.op, &typed::<2>(&sorted), &r.policy)),
            Built::Sharded(_) | Built::Mutable(_) => None,
        };
        if let Some(s) = profile {
            profile_s += s;
            stages += s;
            profiled += 1;
        }
        stages_s.push(stages);
    }

    let n = r.n();
    v.put("points.sort_us_per_query", sort_s * 1e6 / n);
    v.put(
        "points.profile_us_per_batch",
        ratio(profile_s * 1e6, profiled as f64),
    );
    v.put("index.batch_us_per_query", total(&auto) * 1e6 / n);
    let similar: Vec<f64> = auto.iter().filter_map(|r| r.1.mean_similarity).collect();
    v.put(
        "points.mean_similarity",
        ratio(similar.iter().sum(), similar.len() as f64),
    );
    for b in Backend::ALL {
        let (name, runs) = (b.name(), &forced[b.index()]);
        let secs = total(runs);
        let visits: u64 = runs.iter().map(|r| r.1.node_visits).sum();
        let model_ms: f64 = runs.iter().map(|r| r.1.model_ms).sum();
        let stack: u64 = runs.iter().map(|r| r.1.stack_transactions).sum();
        v.put(format!("runtime.{name}.us_per_query"), secs * 1e6 / n);
        v.put(
            format!("runtime.{name}.node_visits_per_query"),
            visits as f64 / n,
        );
        v.put(
            format!("runtime.{name}.ns_per_node_visit"),
            ratio(secs * 1e9, visits as f64),
        );
        v.put(
            format!("sim.{name}.model_ms_per_kquery"),
            model_ms * 1e3 / n,
        );
        v.put(
            format!("sim.{name}.stack_transactions_per_query"),
            stack as f64 / n,
        );
        if b == Backend::Lockstep {
            let mean = |f: fn(&BatchOutcome) -> f64| {
                runs.iter().map(|r| f(&r.1)).sum::<f64>() / runs.len() as f64
            };
            v.put(
                "runtime.lockstep.work_expansion",
                mean(|o| o.work_expansion),
            );
            v.put(
                "runtime.lockstep.mask_occupancy",
                mean(|o| o.mask_occupancy),
            );
        }
    }

    // What the policy's choices cost beside the fastest executor, and what
    // a batch costs beyond sort, profile and executor: the latter as the
    // median over the chunks, each compared with its own batch, so that
    // one chunk measured while the host stalled does not decide it.
    let (mut chosen_s, mut fastest_s) = (0.0, 0.0);
    let mut explained: Vec<f64> = Vec::with_capacity(auto.len());
    for (i, run) in auto.iter().enumerate() {
        let chosen = forced[run.1.backend.index()][i].0.as_secs_f64();
        chosen_s += chosen;
        fastest_s += forced
            .iter()
            .map(|runs| runs[i].0.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        explained.push(ratio(stages_s[i] + chosen, run.0.as_secs_f64()));
    }
    v.put(
        "index.policy_regret_share",
        ratio(chosen_s - fastest_s, fastest_s),
    );
    v.put("index.overhead_share", 1.0 - load::median(&explained));
    auto
}

/// `gts-service::shard` on the unfused replay: fan-out, pruning, merging,
/// and both schedules of each chunk side by side for the speed-up.
fn shard_probe(r: &Replay, n_shards: usize, v: &mut Values) {
    let one_thread = ExecPolicy {
        shard_parallelism: 1,
        ..r.policy.clone()
    };
    let mut sequential: Vec<Run> = Vec::with_capacity(r.chunks.len());
    let mut parallel_s = 0.0;
    for c in &r.chunks {
        let index = r.index(c);
        parallel_s += timed_batch(&*index, c.op, &c.positions, &r.policy)
            .0
            .as_secs_f64();
        sequential.push(timed_batch(&*index, c.op, &c.positions, &one_thread));
    }
    let visits = || sequential.iter().flat_map(|r| &r.1.shard_visits);
    let n = r.n();
    v.put(
        "shard.fanout_per_query",
        visits().map(|s| s.queries as f64).sum::<f64>() / n,
    );
    v.put(
        "shard.pruned_share",
        sequential.iter().map(|r| r.1.shards_pruned).sum::<u64>() as f64 / (n * n_shards as f64),
    );
    let in_shards: f64 = visits().map(|s| s.dur_us as f64 * 1e-6).sum();
    v.put(
        "shard.merge_overhead_share",
        1.0 - ratio(in_shards, total(&sequential)),
    );
    v.put(
        "shard.parallel_speedup_unfused",
        ratio(total(&sequential), parallel_s),
    );
}

/// `ShardedIndex::run_fused` on the same requests as fused lanes, one lane
/// per position, against `unfused`, the per-op batches of those requests.
fn fused_probe(r: &Replay, index: &ShardedIndex<3>, unfused: &[Run], v: &mut Values) {
    let lanes: Vec<FusedLane> = r
        .queries
        .chunks(3)
        .map(|triple| {
            let mut lane = FusedLane::empty(triple[0].pos.clone());
            for q in triple {
                match q.kind {
                    QueryKind::Nn => lane.nn = true,
                    QueryKind::Knn { k } => lane.knn_ks.push(k),
                    QueryKind::Pc { radius } => lane.pc_radii.push(radius.to_bits()),
                }
            }
            lane
        })
        .collect();
    let one_thread = ExecPolicy {
        shard_parallelism: 1,
        ..r.policy.clone()
    };
    let (mut parallel_s, mut sequential_s, mut fused_visits) = (0.0, 0.0, 0u64);
    for batch in lanes.chunks(BATCH) {
        let started = Instant::now();
        let out = index
            .run_fused(black_box(batch), &r.policy)
            .expect("a sharded index fuses");
        parallel_s += secs_since(started);
        fused_visits += out.outcome.node_visits;
        let started = Instant::now();
        black_box(index.run_fused(black_box(batch), &one_thread));
        sequential_s += secs_since(started);
    }
    let unfused_visits: u64 = unfused.iter().map(|r| r.1.node_visits).sum();
    let n_lanes = lanes.len() as f64;
    v.put(
        "shard.fused_visit_ratio",
        ratio(fused_visits as f64, unfused_visits as f64),
    );
    v.put("shard.fused_us_per_lane", parallel_s * 1e6 / n_lanes);
    v.put("shard.unfused_us_per_lane", total(unfused) * 1e6 / n_lanes);
    v.put(
        "shard.parallel_speedup_fused",
        ratio(sequential_s, parallel_s),
    );
}

/// `gts-net`: the codec over one frame of queries and one of their answers.
fn codec_probe(r: &Replay, burst: usize, v: &mut Values) {
    let queries: Vec<Query> = r.queries[..burst].to_vec();
    let results = queries
        .iter()
        .map(|q| {
            let index = r.built[q.index].as_dyn();
            let out = index.run_batch(op_of(q), std::slice::from_ref(&q.pos), &r.policy);
            Ok(out.results.into_iter().next().expect("one answer"))
        })
        .collect();
    let frames = [
        Frame::BatchSubmit {
            base_req: 1,
            queries,
            ctx: None,
        },
        Frame::BatchResult {
            base_req: 1,
            results,
        },
    ];
    const ROUNDS: usize = 200;
    let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
    for frame in &frames {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            black_box(black_box(frame).encode());
        }
        encode_s += secs_since(started);
        let wire = frame.encode();
        bytes += wire.len();
        let started = Instant::now();
        for _ in 0..ROUNDS {
            // The body is everything after the u32 length prefix.
            black_box(gts_net::frame::decode_body(black_box(&wire[4..])).expect("decodes"));
        }
        decode_s += secs_since(started);
    }
    let per = (ROUNDS * burst) as f64;
    v.put("net.encode_ns_per_query", encode_s * 1e9 / per);
    v.put("net.decode_ns_per_query", decode_s * 1e9 / per);
    v.put("net.bytes_per_query", bytes as f64 / burst as f64);
}

/// The batcher and the observability code, called directly.
fn direct_probes(r: &Replay, a_batch: &Run, v: &mut Values) {
    let entries: Vec<(BatchKey, BatchEntry<()>)> = r
        .queries
        .iter()
        .map(|q| {
            let key = BatchKey {
                index: q.index,
                op: op_of(q),
            };
            let entry = BatchEntry {
                pos: q.pos.clone(),
                tag: (),
            };
            (key, entry)
        })
        .collect();
    let defaults = ServiceConfig::default();
    let mut batcher: Batcher<()> = Batcher::new(defaults.batch_queries, defaults.max_wait);
    let base = Instant::now();
    let started = Instant::now();
    for (i, (key, entry)) in entries.into_iter().enumerate() {
        // A query every 20 µs of batcher time, so both flush paths run.
        let now = base + Duration::from_micros(20 * i as u64);
        black_box(batcher.push(key, entry, now));
        black_box(batcher.flush_due(now));
    }
    v.put(
        "batcher.push_flush_ns_per_query",
        secs_since(started) * 1e9 / r.n(),
    );

    const CALLS: u64 = 100_000;
    let per_call = |started: Instant| secs_since(started) * 1e9 / CALLS as f64;
    let registry = ServiceMetrics::default();
    let started = Instant::now();
    for i in 0..CALLS {
        registry.on_complete("idx0", Duration::from_micros(500 + i % 1000), i, 0);
    }
    v.put("obs.on_complete_ns", per_call(started));
    let record = BatchRecord::from_outcome(&a_batch.1, defaults.max_wait, a_batch.0, "idx0");
    let started = Instant::now();
    for _ in 0..CALLS {
        registry.on_batch(black_box(&record));
    }
    v.put("obs.on_batch_ns", per_call(started));
    let ring = TraceRecorder::new(defaults.trace_capacity);
    let started = Instant::now();
    for i in 0..CALLS {
        ring.instant(i, i, NO_ID, EventKind::Submit);
    }
    v.put("obs.trace_record_ns", per_call(started));
}

/// Run one probe inside a span of its own.
fn probe<T>(
    spans: &mut Spans,
    v: &mut Values,
    name: &'static str,
    run: impl FnOnce(&mut Values) -> T,
) -> T {
    let span = spans.open(name, 0);
    let out = run(v);
    spans.close(span);
    out
}

/// Everything the replay yields. Counts among it repeat exactly for a
/// fixed seed; `--quick` runs it twice to check that.
fn replay(world: &World, args: RunArgs, spans: &mut Spans) -> Values {
    let mut v = Values::default();
    let r = Replay::new(world, args);
    probe(spans, &mut v, "probe.trees", |v| trees_probe(world, v));
    let auto = probe(spans, &mut v, "probe.batches", |v| batches_probe(&r, v));
    match &r.built[0] {
        Built::Sharded(index) => {
            let n_shards = index.n_shards();
            probe(spans, &mut v, "probe.shard", |v| {
                shard_probe(&r, n_shards, v)
            });
            probe(spans, &mut v, "probe.shard.fused", |v| {
                fused_probe(&r, index, &auto, v)
            });
        }
        Built::Mutable(index) => {
            let n_shards = index.n_shards();
            probe(spans, &mut v, "probe.shard", |v| {
                shard_probe(&r, n_shards, v)
            });
        }
        Built::Flat3(_) | Built::Flat2(_) => {}
    }
    if let Shape::NetPaced { burst, .. } = world.spec.shape {
        probe(spans, &mut v, "probe.net.codec", |v| {
            codec_probe(&r, burst, v)
        });
    }
    probe(spans, &mut v, "probe.direct", |v| {
        direct_probes(&r, &auto[0], v)
    });
    v
}

/// `gts-service::epoch`, on a private copy of the `churn` index with the
/// background merge off, so the number of pending deltas is known.
fn epoch_probe(world: &World, args: RunArgs, v: &mut Values) {
    let Points::D3(points) = &world.data[0] else {
        return;
    };
    let index = MutableIndexBuilder::new("probe", 4)
        .auto_merge(false)
        .build(points);
    let mut mutator = Mutator::new(args.seed, points.len());
    const ROUNDS: usize = 16;
    let mut mutate_s = 0.0;
    for _ in 0..ROUNDS {
        let muts = mutator.next(&world.data[0], world.radii[0] * 0.5);
        let started = Instant::now();
        let ack = index.mutate(&muts).expect("probe index accepts mutations");
        mutate_s += secs_since(started);
        mutator.acked(&muts, &ack.assigned, ack.pending);
    }
    v.put(
        "epoch.mutate_us_per_mutation",
        mutate_s * 1e6 / (ROUNDS * 2 * CHURN_HALF_BATCH) as f64,
    );
    let batches = if args.quick { 1 } else { 16 };
    let queries =
        Stream::new(world.spec, args.seed).take(batches * BATCH, &world.data, &world.radii);
    let chunks = chunks_of(&queries);
    let policy = workloads::policy(world.spec);
    let pass = || -> f64 {
        chunks
            .iter()
            .map(|c| {
                timed_batch(&index, c.op, &c.positions, &policy)
                    .0
                    .as_secs_f64()
            })
            .sum()
    };
    let pending_s = pass();
    index.merge_now();
    let merged_s = pass();
    v.put(
        "epoch.correction_overhead_share",
        1.0 - ratio(merged_s, pending_s),
    );
}

/// `obs.overhead_share`: closed-loop throughput with the trace ring and the
/// slow log at their defaults against both switched off, in alternation.
fn obs_probe(world: &World, args: RunArgs, v: &mut Values) {
    let defaults = workloads::service_config(world.spec);
    let off = ServiceConfig {
        trace_capacity: 0,
        slow_log_capacity: 0,
        ..defaults.clone()
    };
    let (pairs, seconds) = if args.quick { (1, 0.1) } else { (4, 0.5) };
    let short = RunArgs {
        seconds,
        traced: false,
        ..args
    };
    let mut quiet = Spans::new(false);
    let mut run = |config: &ServiceConfig| -> f64 {
        let w = World::build_with(world.spec, args.seed, config.clone(), &mut quiet);
        let mut stream = Stream::new(w.spec, args.seed);
        let load = load::closed_loop(&w, &mut stream, None, short, &mut quiet);
        w.teardown();
        load.median_qps()
    };
    // Each pair runs back to back, so the host's drift cancels in its ratio.
    let ratios: Vec<f64> = (0..pairs)
        .map(|_| ratio(run(&defaults), run(&off)))
        .collect();
    v.put("obs.overhead_share", 1.0 - load::median(&ratios));
}

/// `net.socket_added_p50_ms`: the schedule of `net_paced` once more, in
/// process, against a service set up the same way.
fn socket_probe(world: &World, live: &Live<'_>, args: RunArgs, v: &mut Values) {
    let mut quiet = Spans::new(false);
    let w = World::build(world.spec, args.seed, &mut quiet);
    let mut stream = Stream::new(w.spec, args.seed);
    let short = RunArgs {
        seconds: if args.quick { 0.2 } else { 3.0 },
        traced: false,
        ..args
    };
    let load = load::open_loop(&w, &mut Link::InProcess, &mut stream, short, &mut quiet);
    w.teardown();
    v.put(
        "net.socket_added_p50_ms",
        live.load.latency.segment_percentile(50.0) - load.latency.segment_percentile(50.0),
    );
}

/// What the timed interval itself says about the generator, the service
/// and, on `churn`, the epoch machinery.
fn live_values(world: &World, live: &Live<'_>, spans: &Spans, v: &mut Values) {
    let load = live.load;
    let late = load::sorted(load.late_ms.clone());
    v.put("load.late_p99_ms", percentile(&late, 99.0));
    v.put("load.late_max_ms", percentile(&late, 100.0));
    v.put("load.lat_p90_ms", load.latency.segment_percentile(90.0));
    v.put("load.lat_p99_ms", load.latency.overall_percentile(99.0));
    v.put("load.qps_median", load.median_qps());
    v.put("load.setup_median_ms", load::median(live.setup_s) * 1e3);
    v.put("load.trace_overhead_share", load.trace_overhead_share());

    let s = live.snapshot;
    let lookups = (s.profile_cache_hits + s.profile_cache_misses) as f64;
    v.put(
        "points.profile_cache_hit_rate",
        ratio(s.profile_cache_hits as f64, lookups),
    );
    for b in &s.backend_batches {
        v.put(
            format!("index.backend_share.{}", b.backend),
            ratio(b.batches as f64, s.batches as f64),
        );
    }
    // A burst's submits share one span; a closed-loop query has its own.
    let per_span = match world.spec.shape {
        Shape::Closed => 1.0,
        Shape::Paced { burst, .. } | Shape::NetPaced { burst, .. } => burst as f64,
    };
    v.put(
        "service.submit_us",
        spans.mean_us("service.submit") / per_span,
    );
    v.put("service.queue_wait_p50_ms", s.queue_wait_p50_ms);
    v.put("service.mean_batch_size", s.mean_batch_size);
    v.put("service.batches", s.batches as f64);
    v.put(
        "service.worker_busy_share",
        s.exec_ms_hist.sum / (live.service_wall.as_secs_f64() * 1e3 * WORKERS as f64),
    );
    if let Some(m) = live.mutator {
        v.put("epoch.mutate_ack_p50_ms", load::median(&load.mutate_ack_ms));
        v.put("epoch.merges", s.epoch_merges as f64);
        v.put("epoch.merge_ms_p50", s.epoch_merge_ms_hist.percentile(50.0));
        v.put(
            "epoch.delta_depth_mean",
            ratio(m.pending.iter().sum::<u64>() as f64, m.pending.len() as f64),
        );
    }
}

/// Measure every per-layer metric of `world`'s workload into `out`, in the
/// order `BENCHMARK.json` lists them. A `--quick` run also checks itself
/// and counts what it finds into `failed`.
pub fn measure(
    world: &World,
    live: &Live<'_>,
    args: RunArgs,
    spans: &mut Spans,
    out: &mut Metrics,
    failed: &mut u64,
) {
    spans.on = true;
    let mut v = replay(world, args, spans);
    if args.quick {
        let again = replay(world, args, &mut Spans::new(false));
        for (name, value) in &v.0 {
            if report::is_exact_count(name) && again.0.get(name) != Some(value) {
                eprintln!(
                    "gts-ledger: {name} must repeat exactly: {value} then {:?}",
                    again.0.get(name)
                );
                *failed += 1;
            }
        }
        let overhead = v.0["index.overhead_share"];
        if world.spec.name == "flat_large" && overhead.abs() > 0.10 {
            eprintln!(
                "gts-ledger: sort + profile + executor differ from a whole batch by {:.1} %",
                overhead * 100.0
            );
            *failed += 1;
        }
    }
    live_values(world, live, spans, &mut v);

    if live.mutator.is_some() {
        probe(spans, &mut v, "probe.epoch", |v| {
            epoch_probe(world, args, v)
        });
    }
    if world.spec.name == "flat_small" {
        probe(spans, &mut v, "probe.obs.overhead", |v| {
            obs_probe(world, args, v)
        });
    }
    if matches!(world.spec.shape, Shape::NetPaced { .. }) {
        probe(spans, &mut v, "probe.net.inprocess", |v| {
            socket_probe(world, live, args, v)
        });
    }

    for (name, unit) in report::per_layer() {
        out.put(name.clone(), v.0.get(&name).copied().unwrap_or(0.0), unit);
    }
}
