//! Fused multi-op traversal oracle.
//!
//! One union-pruned tree walk answers NN + kNN + PC for a lane; the
//! answers must equal brute force over the index's points, and be
//! bit-identical to running each op as its own batch (the same rule over
//! other lanes: a lane's answers do not depend on its batch-mates) —
//! across shard counts, forced backends, mixed op subsets per lane, and
//! a mid-epoch mutation window with deltas pending. A property test pins
//! the soundness argument underneath: union admission never prunes a
//! node any constituent op's solo walk would visit.

use gts_apps::fused::{fused_ops_kernel, fused_ops_point};
use gts_apps::kbest::KBest;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnAabbKernel, NnPoint};
use gts_apps::oracle;
use gts_apps::pc::{PcKernel, PcPoint};
use gts_integration::mixed_lanes;
use gts_points::gen::uniform;
use gts_runtime::cpu::trace_one;
use gts_service::{
    Backend, ExecPolicy, FusedLane, FusedLaneResult, KdIndex, MutableIndexBuilder, Mutation, OpKey,
    QueryResult, ShardedIndex, TreeIndex,
};
use gts_trees::{KdTree, PointN, SplitPolicy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Per-op dispatch over the same lanes: gather each op's positions, run
/// one batch per op, scatter results back into the lanes' slot order.
fn unfused_answers(
    index: &dyn TreeIndex,
    lanes: &[FusedLane],
    policy: &ExecPolicy,
) -> Vec<FusedLaneResult> {
    let mut ops: Vec<OpKey> = Vec::new();
    for lane in lanes {
        if lane.nn && !ops.contains(&OpKey::Nn) {
            ops.push(OpKey::Nn);
        }
        for &k in &lane.knn_ks {
            if !ops.contains(&OpKey::Knn(k)) {
                ops.push(OpKey::Knn(k));
            }
        }
        for &bits in &lane.pc_radii {
            if !ops.contains(&OpKey::Pc(bits)) {
                ops.push(OpKey::Pc(bits));
            }
        }
    }
    let mut by_op: HashMap<OpKey, HashMap<usize, QueryResult>> = HashMap::new();
    for op in ops {
        let asked: Vec<usize> = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| match op {
                OpKey::Nn => l.nn,
                OpKey::Knn(k) => l.knn_ks.contains(&k),
                OpKey::Pc(bits) => l.pc_radii.contains(&bits),
            })
            .map(|(i, _)| i)
            .collect();
        let pos: Vec<Vec<f32>> = asked.iter().map(|&i| lanes[i].pos.clone()).collect();
        let out = index.run_batch(op, &pos, policy);
        by_op.insert(
            op,
            asked
                .into_iter()
                .zip(out.results)
                .collect::<HashMap<_, _>>(),
        );
    }
    lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| FusedLaneResult {
            nn: lane.nn.then(|| by_op[&OpKey::Nn][&i].clone()),
            knn: lane
                .knn_ks
                .iter()
                .map(|&k| by_op[&OpKey::Knn(k)][&i].clone())
                .collect(),
            pc: lane
                .pc_radii
                .iter()
                .map(|&bits| by_op[&OpKey::Pc(bits)][&i].clone())
                .collect(),
        })
        .collect()
}

/// Bit-identical per-op equality between two lane-result sets.
fn assert_identical(got: &[FusedLaneResult], want: &[FusedLaneResult], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: lane count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.nn, w.nn, "{ctx}: lane {i} nn");
        assert_eq!(g.knn, w.knn, "{ctx}: lane {i} knn");
        assert_eq!(g.pc, w.pc, "{ctx}: lane {i} pc");
    }
}

/// Each lane's answers by brute force over `points`. Ids are left empty:
/// on an exact distance tie either point is right, so only values are
/// compared ([`assert_values_match`]).
fn brute_force(points: &[PointN<3>], lanes: &[FusedLane]) -> Vec<FusedLaneResult> {
    (lanes.iter())
        .map(|lane| {
            let q = PointN(std::array::from_fn(|i| lane.pos[i]));
            FusedLaneResult {
                nn: lane.nn.then(|| QueryResult::Nn {
                    dist2: oracle::nn_dist2_nonself(points, &q),
                    id: u32::MAX,
                }),
                knn: (lane.knn_ks.iter())
                    .map(|&k| QueryResult::Knn {
                        dist2: oracle::knn_dists(points, &q, k),
                        ids: Vec::new(),
                    })
                    .collect(),
                pc: (lane.pc_radii.iter())
                    .map(|&bits| QueryResult::Pc {
                        count: oracle::pc_count(points, &q, f32::from_bits(bits)),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Value-level equality (distances and counts, not ids) — used against
/// brute force, where an id may legitimately differ on an exact distance
/// tie.
fn assert_values_match(got: &[FusedLaneResult], want: &[FusedLaneResult], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (&g.nn, &w.nn) {
            (Some(QueryResult::Nn { dist2: a, .. }), Some(QueryResult::Nn { dist2: b, .. })) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: lane {i} nn dist2")
            }
            (None, None) => {}
            _ => panic!("{ctx}: lane {i} nn shape"),
        }
        for (s, (gk, wk)) in g.knn.iter().zip(&w.knn).enumerate() {
            let (QueryResult::Knn { dist2: a, .. }, QueryResult::Knn { dist2: b, .. }) = (gk, wk)
            else {
                panic!("{ctx}: lane {i} knn slot {s} shape")
            };
            let abits: Vec<u32> = a.iter().map(|d| d.to_bits()).collect();
            let bbits: Vec<u32> = b.iter().map(|d| d.to_bits()).collect();
            assert_eq!(abits, bbits, "{ctx}: lane {i} knn slot {s}");
        }
        assert_eq!(g.pc, w.pc, "{ctx}: lane {i} pc");
    }
}

#[test]
fn fused_matches_unfused_and_flat_cpu_across_shards_and_backends() {
    let pts = uniform::<3>(600, 4213);
    for (mix, seed) in [(48usize, 71u64), (17, 72)] {
        let lanes = mixed_lanes(&pts, mix, seed);
        let oracle = brute_force(&pts, &lanes);
        for shards in [1usize, 2, 8] {
            let index: Box<dyn TreeIndex> = if shards == 1 {
                Box::new(KdIndex::build("fuse-kd", &pts, 8, SplitPolicy::MedianCycle))
            } else {
                Box::new(ShardedIndex::build(
                    "fuse-sharded",
                    &pts,
                    shards,
                    8,
                    SplitPolicy::MedianCycle,
                ))
            };
            for backend in [
                Backend::Lockstep,
                Backend::Autoropes,
                Backend::StacklessKd,
                Backend::StacklessBvh,
            ] {
                let policy = ExecPolicy::forced(backend);
                let ctx = format!("{shards} shard(s), {}", backend.name());
                let fused = index
                    .run_fused(&lanes, &policy)
                    .unwrap_or_else(|| panic!("{ctx}: index supports fused dispatch"));
                let want = unfused_answers(index.as_ref(), &lanes, &policy);
                assert_identical(&fused.lanes, &want, &ctx);
                assert_values_match(&fused.lanes, &oracle, &format!("{ctx} vs brute force"));
                assert!(fused.outcome.node_visits > 0, "{ctx}: no work recorded");
            }
        }
    }
}

#[test]
fn fused_stays_exact_mid_epoch_window() {
    let pts = uniform::<3>(512, 977);
    let lanes = mixed_lanes(&pts, 40, 5150);
    for shards in [2usize, 4] {
        // auto_merge(false) freezes the epoch mid-window: the deltas stay
        // pending, so every fused answer must come from a sweep whose rule
        // skips the tombstoned points and whose shards include the one of
        // pending inserts.
        let idx = MutableIndexBuilder::new("fuse-epoch", shards)
            .auto_merge(false)
            .build(&pts);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut muts = Vec::new();
        for _ in 0..40 {
            let anchor = pts[rng.gen_range(0..pts.len())];
            muts.push(Mutation::Insert {
                pos: anchor
                    .0
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.03f32..0.03))
                    .collect(),
            });
        }
        for id in (0..512u32).step_by(17) {
            muts.push(Mutation::Delete { id });
        }
        idx.mutate(&muts).expect("mutations are valid");
        assert!(idx.stats().pending > 0, "deltas must still be in flight");

        // Brute force over the live points is the reference the whole
        // window must agree with.
        let live: Vec<PointN<3>> = idx.live().into_iter().map(|(_, p)| p).collect();
        let oracle = brute_force(&live, &lanes);

        // Waves inline, on two threads, and on one thread per shard.
        for threads in [1, 2, shards] {
            for backend in [Backend::Autoropes, Backend::Cpu] {
                let policy = ExecPolicy {
                    shard_parallelism: threads,
                    ..ExecPolicy::forced(backend)
                };
                let ctx = format!(
                    "mid-epoch, {shards} shards, {threads} threads, {}",
                    backend.name()
                );
                let fused = idx
                    .run_fused(&lanes, &policy)
                    .unwrap_or_else(|| panic!("{ctx}: mutable index supports fused dispatch"));
                let want = unfused_answers(&idx, &lanes, &policy);
                assert_identical(&fused.lanes, &want, &ctx);
                assert_values_match(&fused.lanes, &oracle, &format!("{ctx} vs brute force"));
            }
        }
    }
}

/// What the one walk buys, through the index path: on lanes that each
/// ask NN + kNN + PC it visits at most three quarters of the nodes the
/// three per-op batches visit, flat and sharded.
#[test]
fn fused_walk_saves_a_quarter_of_the_per_op_node_visits() {
    let pts = uniform::<3>(512, 20130901);
    let radius = 0.04 * 3f32.sqrt();
    let ops = [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(radius.to_bits())];
    let mut rng = ChaCha8Rng::seed_from_u64(0xf05ed);
    let positions: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            let anchor = pts[rng.gen_range(0..pts.len())];
            (anchor.0.iter())
                .map(|&c| c + rng.gen_range(-0.5 * radius..0.5 * radius))
                .collect()
        })
        .collect();
    let lanes: Vec<FusedLane> = (positions.iter())
        .map(|pos| {
            let mut lane = FusedLane::empty(pos.clone());
            ops.iter().for_each(|&op| lane.ask(op));
            lane
        })
        .collect();
    let policy = ExecPolicy::forced(Backend::Autoropes);
    let flat = KdIndex::build("save-flat", &pts, 8, SplitPolicy::MedianCycle);
    let sharded = ShardedIndex::build("save-sharded", &pts, 2, 8, SplitPolicy::MedianCycle);
    for index in [&flat as &dyn TreeIndex, &sharded] {
        let fused = index
            .run_fused(&lanes, &policy)
            .expect("index supports fused dispatch")
            .outcome
            .node_visits;
        let solo: u64 = (ops.iter())
            .map(|&op| index.run_batch(op, &positions, &policy).node_visits)
            .sum();
        assert!(
            4 * fused <= 3 * solo,
            "{}: fused {fused} vs per-op {solo} node visits",
            index.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Union admission soundness: every node a constituent op's solo
    /// walk visits is also visited by the fused walk — the fused visit
    /// set is a superset of each op's, so no constituent can lose an
    /// update to over-pruning.
    #[test]
    fn union_admission_never_prunes_a_constituent_node(
        seed in 0u64..512,
        qx in 0.0f32..1.0,
        qy in 0.0f32..1.0,
        qz in 0.0f32..1.0,
        k in 1usize..12,
        r in 0.01f32..0.4,
    ) {
        let pts = uniform::<3>(300, seed);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let q = PointN([qx, qy, qz]);

        let fused_kernel = fused_ops_kernel(&tree);
        let mut fp = fused_ops_point(q, true, Some(k), &[r]);
        let fused_visits: HashSet<_> =
            trace_one(&fused_kernel, &mut fp).into_iter().collect();

        let nn_kernel = NnAabbKernel::new(&tree);
        let mut np = NnPoint::new(q);
        for node in trace_one(&nn_kernel, &mut np) {
            prop_assert!(fused_visits.contains(&node), "NN visits {node}, fused pruned it");
        }
        let knn_kernel = KnnKernel::new(&tree);
        let mut kp = KnnPoint { pos: q, best: KBest::new(k) };
        for node in trace_one(&knn_kernel, &mut kp) {
            prop_assert!(fused_visits.contains(&node), "kNN visits {node}, fused pruned it");
        }
        let pc_kernel = PcKernel::new(&tree, r);
        let mut pp = PcPoint::new(q);
        for node in trace_one(&pc_kernel, &mut pp) {
            prop_assert!(fused_visits.contains(&node), "PC visits {node}, fused pruned it");
        }
    }
}
