//! Differential oracle for parallel sharded dispatch: running a batch's
//! waves on a pool must produce exactly the results of running them
//! inline on one thread, which in turn must agree with a flat [`KdIndex`]
//! over the same dataset. Parallelism and AABB-bound pruning are
//! execution details, not semantics changes — and since there is one
//! schedule, the thread count cannot move anything else on a batch's
//! record either (`a_batchs_whole_record_is_the_same_for_every_thread_count`),
//! and what a batch executes is what its lanes execute alone
//! (`a_batch_executes_what_its_lanes_execute_alone`).
//!
//! Plus property tests pinning the profile-cache contract: a miss returns
//! exactly what a fresh profiler run returns, and a hit replays the
//! memoized decision verbatim under a fixed seed.

use gts_integration::{metering, mixed_lanes};
use gts_points::gen::uniform;
use gts_points::profile::{
    profile_key, profile_sortedness, profile_sortedness_cached, ProfileCache,
};
use gts_service::{
    Backend, ExecPolicy, FusedLane, FusedOutcome, KdIndex, MutableIndexBuilder, Mutation, OpKey,
    QueryResult, ShardedIndex, TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const N_POINTS: usize = 3000;
const N_QUERIES: usize = 2000;

/// Seeded query mix: half uniform over the cube, half hugging dataset
/// points (tight bounds, so pruning after the home shard actually engages).
fn queries(pts: &[PointN<3>], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..N_QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()
            } else {
                let anchor = pts[rng.gen_range(0..pts.len())];
                anchor
                    .0
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.02f32..0.02))
                    .collect()
            }
        })
        .collect()
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-6) || (a.is_infinite() && b.is_infinite())
}

fn sequential() -> ExecPolicy {
    ExecPolicy {
        force: Some(Backend::Cpu),
        shard_parallelism: 1,
        profile_cache: false,
        ..ExecPolicy::default()
    }
}

fn parallel(threads: usize) -> ExecPolicy {
    ExecPolicy {
        force: Some(Backend::Cpu),
        shard_parallelism: threads,
        profile_cache: false,
        ..ExecPolicy::default()
    }
}

/// Distances agree with the flat oracle within f32 epsilon (ids may
/// legitimately differ on exact ties, distances may not).
fn check_vs_flat(want: &QueryResult, got: &QueryResult, shards: usize, q: usize) {
    match (want, got) {
        (QueryResult::Nn { dist2: wd, .. }, QueryResult::Nn { dist2: gd, .. }) => {
            assert!(close(*wd, *gd), "{shards} shards, query {q}: {wd} vs {gd}");
        }
        (QueryResult::Knn { dist2: wd, .. }, QueryResult::Knn { dist2: gd, .. }) => {
            assert_eq!(wd.len(), gd.len(), "{shards} shards, query {q}");
            for (j, (a, b)) in wd.iter().zip(gd).enumerate() {
                assert!(
                    close(*a, *b),
                    "{shards} shards, query {q}, neighbor {j}: {a} vs {b}"
                );
            }
        }
        (QueryResult::Pc { count: wc }, QueryResult::Pc { count: gc }) => {
            assert_eq!(wc, gc, "{shards} shards, query {q}");
        }
        _ => panic!("mismatched result variants"),
    }
}

#[test]
fn parallel_matches_sequential_and_flat_for_every_op_and_shard_count() {
    let pts = uniform::<3>(N_POINTS, 0x5eed);
    let qs = queries(&pts, 0xfeed);
    let flat = KdIndex::build("flat", &pts, 8, SplitPolicy::MedianCycle);
    for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.15f32.to_bits())] {
        let want = flat.run_batch(op, &qs, &sequential());
        for shards in SHARD_COUNTS {
            let idx = ShardedIndex::build("sharded", &pts, shards, 8, SplitPolicy::MedianCycle);
            let seq = idx.run_batch(op, &qs, &sequential());
            let par = idx.run_batch(op, &qs, &parallel(4));
            // Bit-identical between the two dispatchers: both fold the
            // same per-query shard supersets in visit order, and every
            // merge admits only strict improvements.
            assert_eq!(
                seq.results, par.results,
                "{shards} shards, {op:?}: parallel diverged from sequential"
            );
            assert_eq!(seq.results.len(), want.results.len());
            for (q, (w, g)) in want.results.iter().zip(&seq.results).enumerate() {
                check_vs_flat(w, g, shards, q);
            }
        }
    }

    // The same oracle over mixed lane batches (each lane a random subset
    // of NN / two kNN ks / two PC radii): a lane is dispatched to a shard
    // while *any* of its ops could still improve there, at every
    // thread count.
    let lanes = mixed_lanes(&pts, 600, 0x1a9e5);
    let want = flat.run(&lanes, &sequential());
    for shards in SHARD_COUNTS {
        let idx = ShardedIndex::build("sharded", &pts, shards, 8, SplitPolicy::MedianCycle);
        let seq = idx.run(&lanes, &sequential());
        assert_eq!(seq.outcome.fused_lanes, lanes.len() as u64);
        for (q, (w, g)) in want.lanes.iter().zip(&seq.lanes).enumerate() {
            assert_eq!(w.answers().count(), g.answers().count());
            for (w, g) in w.answers().zip(g.answers()) {
                check_vs_flat(w, g, shards, q);
            }
        }
        // Fewer threads than the 8 shards, and one per shard.
        for threads in [4, shards] {
            let par = idx.run(&lanes, &parallel(threads));
            assert_eq!(
                seq.lanes, par.lanes,
                "{shards} shards, {threads} threads: mixed lanes diverged from sequential"
            );
            // Every (lane, shard) pair is decided with the accumulator
            // state one thread has at that check, so the executed set —
            // pure traversal counts on the CPU backend, whatever the
            // grouping — is the same.
            assert_eq!(par.outcome.node_visits, seq.outcome.node_visits);
            assert_eq!(par.outcome.shards_pruned, seq.outcome.shards_pruned);
        }
    }
}

/// A batch's record with its wall-clock fields zeroed: everything the
/// determinism contract covers, answers to shard spans.
fn record(mut out: FusedOutcome) -> String {
    for v in &mut out.outcome.shard_visits {
        (v.offset_us, v.dur_us) = (0, 0);
    }
    format!("{out:#?}")
}

fn single_op_lanes(op: OpKey, positions: &[Vec<f32>]) -> Vec<FusedLane> {
    (positions.iter())
        .map(|pos| {
            let mut lane = FusedLane::empty(pos.clone());
            lane.ask(op);
            lane
        })
        .collect()
}

/// One schedule for every thread count: `shard_parallelism` sizes the
/// wave pool and moves nothing a batch reports — answers, `node_visits`,
/// `shards_pruned`, the modeled series, and each `ShardVisit`'s `(shard,
/// round, queries, node_visits, pruned)`. Lockstep is forced because its
/// counts depend on how lanes are grouped into sub-batches, which is what
/// a second schedule would change; the unforced policy (cache off: a hit
/// on the second run would be a difference of its own) adds the §4.4
/// profile per sub-batch.
#[test]
fn a_batchs_whole_record_is_the_same_for_every_thread_count() {
    let pts = uniform::<3>(N_POINTS, 0x1dea);
    let positions = queries(&pts, 0xface)[..384].to_vec();
    let mut batches: Vec<(String, Vec<FusedLane>)> =
        [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.15f32.to_bits())]
            .map(|op| (format!("{op:?}"), single_op_lanes(op, &positions)))
            .into();
    batches.push(("mixed".into(), mixed_lanes(&pts, 384, 0x1a9e5)));
    batches.push(("one lane".into(), mixed_lanes(&pts, 1, 7)));

    let sharded = ShardedIndex::build("static", &pts, 8, 8, SplitPolicy::MedianCycle);
    // Frozen mid-window: deltas pending, so every batch sweeps tombstoned
    // shards plus the shard of pending inserts.
    let mutable = MutableIndexBuilder::new("window", 8)
        .auto_merge(false)
        .build(&pts);
    let mut muts: Vec<Mutation> = (positions.iter().step_by(5))
        .map(|pos| Mutation::Insert { pos: pos.clone() })
        .collect();
    muts.extend(
        (0..N_POINTS as u32)
            .step_by(7)
            .map(|id| Mutation::Delete { id }),
    );
    mutable.mutate(&muts).expect("mutations are valid");
    assert!(
        mutable.stats().pending > 0,
        "deltas must still be in flight"
    );
    let indices: [(&str, &dyn TreeIndex); 2] = [("static", &sharded), ("window", &mutable)];

    for (what, lanes) in &batches {
        let at: Vec<Vec<f32>> = lanes.iter().map(|l| l.pos.clone()).collect();
        let policies = [
            metering(ExecPolicy::forced(Backend::Lockstep), &at),
            ExecPolicy {
                profile_cache: false,
                ..ExecPolicy::default()
            },
        ];
        for (name, idx) in indices {
            for policy in &policies {
                let run = |threads: usize| {
                    let policy = ExecPolicy {
                        shard_parallelism: threads,
                        ..policy.clone()
                    };
                    record(idx.run(lanes, &policy))
                };
                let one = run(1);
                assert!(
                    one.contains("round: 1"),
                    "{name}, {what}: never left wave 0"
                );
                for threads in [2, 4, 8, 9] {
                    assert!(
                        run(threads) == one,
                        "{name}, {what}, forced {:?}: {threads} threads moved the record",
                        policy.force
                    );
                }
            }
        }
    }
}

/// The executed `(lane, shard)` set has a reference that needs no second
/// schedule: a lane's shards are decided against that lane's own earlier
/// answers only, so a batch executes exactly what its lanes execute when
/// each is run as a batch of one — and on the CPU backend, whose node
/// visits are per-lane traversal counts whatever the grouping,
/// `node_visits` and `shards_pruned` are those runs' sums. Every batch,
/// a lane of one op alone included, walks the one fused rule.
#[test]
fn a_batch_executes_what_its_lanes_execute_alone() {
    let pts = uniform::<3>(N_POINTS, 0x5eed);
    let idx = ShardedIndex::build("sharded", &pts, 8, 8, SplitPolicy::MedianCycle);
    let positions = &queries(&pts, 0xfeed)[..256];
    let mixed = mixed_lanes(&pts, 320, 0x1a9e5);
    let batches = [
        single_op_lanes(OpKey::Nn, positions),
        single_op_lanes(OpKey::Knn(8), positions),
        single_op_lanes(OpKey::Pc(0.15f32.to_bits()), positions),
        mixed,
    ];
    for (b, lanes) in batches.iter().enumerate() {
        for threads in [1, 4] {
            let whole = idx.run(lanes, &parallel(threads));
            let (mut visits, mut pruned) = (0, 0);
            for (q, lane) in lanes.iter().enumerate() {
                let alone = idx.run(std::slice::from_ref(lane), &parallel(threads));
                assert_eq!(alone.lanes[0], whole.lanes[q], "batch {b}, lane {q}");
                visits += alone.outcome.node_visits;
                pruned += alone.outcome.shards_pruned;
            }
            assert!(pruned > 0, "batch {b}: nothing pruned, nothing pinned");
            assert_eq!(whole.outcome.node_visits, visits, "batch {b}");
            assert_eq!(whole.outcome.shards_pruned, pruned, "batch {b}");
        }
    }
}

#[test]
fn parallel_matches_sequential_under_default_profiling_policy() {
    // No forced backend on a metered batch: the §4.4 profiler (and the
    // profile cache, warmed by the first run) picks executors per
    // sub-batch. All executors are exact, so results must still match
    // bit-for-bit across dispatchers.
    let pts = uniform::<3>(N_POINTS, 0xbead);
    let qs = queries(&pts, 0xdead);
    let idx = ShardedIndex::build("sharded", &pts, 8, 8, SplitPolicy::MedianCycle);
    let seq = metering(
        ExecPolicy {
            shard_parallelism: 1,
            ..ExecPolicy::default()
        },
        &qs[..512],
    );
    let par = ExecPolicy {
        shard_parallelism: 4,
        ..seq.clone()
    };
    for op in [OpKey::Nn, OpKey::Knn(8)] {
        let s = idx.run_batch(op, &qs[..512], &seq);
        let p = idx.run_batch(op, &qs[..512], &par);
        assert_eq!(s.results, p.results, "{op:?} diverged under default policy");
    }
    let stats = idx.profile_cache_stats();
    assert!(
        stats.hits + stats.misses > 0,
        "default policy never consulted the profile cache"
    );
}

/// Deterministic fake traversal: each point visits a seeded window of
/// node ids, so neighboring points overlap partially and the profiler's
/// similarity is a nontrivial function of (seed, i).
fn visits_for(seed: u64) -> impl Fn(usize) -> Vec<u32> + Copy {
    move |i: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (i as u64 >> 2));
        let base: u32 = rng.gen_range(0..64);
        (base..base + 8).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache miss must return exactly what an uncached profiler run
    /// returns — memoization never changes the decision, only skips the
    /// sampling.
    #[test]
    fn cache_miss_equals_fresh_profiler_run(
        n in 2usize..64,
        pairs in 1usize..16,
        seed in 0u64..1_000_000_000,
    ) {
        let visits = visits_for(seed);
        let fresh = profile_sortedness(n, pairs, 0.5, seed, visits);
        let cache = ProfileCache::new(8, 16);
        let key = profile_key(seed, &[n as u64, pairs as u64]);
        let (missed, outcome) =
            profile_sortedness_cached(&cache, key, 0, n, pairs, 0.5, seed, visits);
        prop_assert!(!outcome.hit);
        prop_assert_eq!(&missed, &fresh);
        // And the memoized entry replays that exact report on a hit.
        let (hit, outcome) =
            profile_sortedness_cached(&cache, key, 1, n, pairs, 0.5, seed, visits);
        prop_assert!(outcome.hit);
        prop_assert_eq!(&hit, &fresh);
    }

    /// Under a fixed seed the whole cached pipeline is deterministic:
    /// same inputs, same key, same decision — across separate caches.
    #[test]
    fn cached_decisions_are_deterministic_under_fixed_seed(
        n in 2usize..64,
        pairs in 1usize..16,
        seed in 0u64..1_000_000_000,
        epoch in 0u64..1000,
    ) {
        let visits = visits_for(seed);
        let key_a = profile_key(seed, &[n as u64, pairs as u64]);
        let key_b = profile_key(seed, &[n as u64, pairs as u64]);
        prop_assert_eq!(key_a, key_b);
        let run = || {
            let cache = ProfileCache::new(8, 16);
            profile_sortedness_cached(&cache, key_a, epoch, n, pairs, 0.5, seed, visits).0
        };
        prop_assert_eq!(run(), run());
    }
}
