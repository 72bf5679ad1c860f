//! Parallel sharded dispatch: there is one schedule, so a batch's waves
//! on a pool serve exactly the record they serve inline on one thread,
//! answers like brute force included — and what a batch executes is what
//! its lanes execute alone.

use gts_integration::{each, records, Ask, Config, Kind, Path, Script, Step, MENU};
use gts_points::gen::uniform;
use gts_service::{Backend, ExecPolicy, FusedLane, OpKey, ShardedIndex, TreeIndex};
use gts_trees::SplitPolicy;

const N_POINTS: usize = 3000;
const PC: OpKey = OpKey::Pc(0.15f32.to_bits());

/// A batch of NN, of kNN(8) and of PC(0.15) lanes, a batch of mixed
/// lanes (each a random subset of [`MENU`]: a lane is dispatched to a
/// shard while *any* of its ops could still improve there), and one lane.
fn batches(gen: &mut Script<3>, n: usize) -> Vec<Vec<FusedLane>> {
    let mut batches: Vec<_> = ([OpKey::Nn, OpKey::Knn(8), PC].iter())
        .map(|op| gen.lanes(n, Ask::All(std::slice::from_ref(op))))
        .collect();
    batches.push(gen.lanes(n / 3, Ask::Any(&MENU)));
    // More neighbours than a shard holds: the lone lane leaves its home.
    batches.push(gen.lanes(1, Ask::All(&[OpKey::Knn(N_POINTS / 6), PC])));
    batches
}

fn script(seed: u64, n: usize) -> Script<3> {
    let mut script = Script::new(seed, uniform::<3>(N_POINTS, seed));
    for lanes in batches(&mut script, n) {
        script = script.then(Step::Query(lanes));
    }
    script
}

/// One schedule for every thread count: `shard_parallelism` sizes the
/// wave pool and moves nothing a batch reports — answers (like brute
/// force), `node_visits`, `shards_pruned`, the modeled series, and each
/// `ShardVisit`'s `(shard, round, queries, node_visits, pruned)`. On the
/// host walk at 1, 2 and 8 shards, inline and on four threads; and at 8
/// shards on pools smaller than, equal to and past the shard count,
/// static and frozen mid-window (deltas pending, so every batch sweeps
/// tombstoned shards plus the shard of pending inserts), with Lockstep
/// forced — its counts depend on how lanes are grouped into sub-batches,
/// which is what a second schedule would change — and unforced: metered,
/// which adds the §4.4 profile per sub-batch, and static, unmetered.
#[test]
fn a_batchs_whole_record_is_the_same_for_every_thread_count() {
    let wide = script(0x5eed, 2000);
    let batches = script(0x1dea, 384);
    let mut window = Script::new(0x1dea, batches.points.clone()).mutate(80, 400);
    window.steps.extend(batches.steps.iter().cloned());
    let at = |shards, force, meter| Config {
        meter,
        ..Config::new(Kind::Sharded, Path::Direct).at(shards, 1, force)
    };
    let mut points = vec![];
    for shards in [1, 2, 8] {
        points.push((&wide, at(shards, Some(Backend::Cpu), None), vec![4]));
    }
    for (force, meter) in [(Some(Backend::Lockstep), true), (None, true), (None, false)] {
        let mut cfg = at(8, force, Some(meter));
        points.push((&batches, cfg, vec![2, 4, 8, 9]));
        cfg.kind = Kind::Mutable;
        if meter {
            points.push((&window, cfg, vec![2, 4, 8, 9]));
        }
    }
    each(&points, |(script, cfg, pools)| {
        let records = |threads| records(script, &Config { threads, ..*cfg });
        let one = records(1);
        let waves = one.iter().all(|r| r.contains("round: 1"));
        assert!(waves || cfg.shards < 8, "{cfg:?}: never left wave 0");
        for &threads in pools {
            assert!(records(threads) == one, "{cfg:?}: {threads} threads differ");
        }
    });
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
    let mut gen = Script::new(0x5eed, uniform::<3>(N_POINTS, 0x5eed));
    let idx = ShardedIndex::build("sharded", &gen.points, 8, 8, SplitPolicy::MedianCycle);
    for (b, lanes) in batches(&mut gen, 256).iter().enumerate() {
        for threads in [1, 4] {
            let policy = ExecPolicy {
                shard_parallelism: threads,
                ..ExecPolicy::forced(Backend::Cpu)
            };
            let whole = idx.run(lanes, &policy);
            let (mut visits, mut pruned) = (0, 0);
            for (q, lane) in lanes.iter().enumerate() {
                let alone = idx.run(std::slice::from_ref(lane), &policy);
                assert_eq!(alone.lanes[0], whole.lanes[q], "batch {b}, lane {q}");
                visits += alone.outcome.node_visits;
                pruned += alone.outcome.shards_pruned;
            }
            assert!(
                pruned > 0 || lanes.len() == 1,
                "batch {b}: nothing pruned, nothing pinned"
            );
            assert_eq!(whole.outcome.node_visits, visits, "batch {b}");
            assert_eq!(whole.outcome.shards_pruned, pruned, "batch {b}");
        }
    }
}
