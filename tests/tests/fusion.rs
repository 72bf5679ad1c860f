//! Fused multi-op traversal: one union-pruned walk answers a lane's NN +
//! kNN + PC like brute force and bit for bit like each op as its own
//! batch — across shard counts, every forced backend, mixed op subsets
//! per lane and a mid-epoch window. A property test pins the soundness
//! argument underneath: union admission never prunes a node any
//! constituent op's solo walk would visit.

use gts_apps::fused::{fused_ops_kernel, fused_ops_point};
use gts_apps::kbest::KBest;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnAabbKernel, NnPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_integration::{each, run, Ask, Config, Kind, Path, Script, MENU};
use gts_points::gen::uniform;
use gts_runtime::cpu::trace_one;
use gts_service::Backend::{Autoropes, Cpu, Lockstep, StacklessBvh, StacklessKd};
use gts_service::{OpKey, QueryResult};
use gts_trees::{KdTree, PointN, SplitPolicy};
use proptest::prelude::*;
use std::collections::HashSet;
use Kind::{Flat, Sharded};

/// Fused (`Direct`) and per-op (`PerOp`) runs of `script` at `base`
/// answer alike, bit for bit, and return those answers.
fn fused_and_per_op(script: &Script<3>, base: Config) -> Vec<QueryResult> {
    let via = |path| Config { path, ..base };
    let fused = run(script, &via(Path::Direct)).answers;
    let per_op = run(script, &via(Path::PerOp)).answers;
    assert!(fused == per_op, "{base:?}: fused and per-op batches differ");
    fused
}

/// Flat, 1, 2 and 8 shards, each under every forced backend and metered,
/// so the stackless walks' rope-stack counters are on the model: every
/// backend answers alike, bit for bit — mixed lanes fused and per op, and
/// on the sharded indices 2 000 lanes of each op (a batch of single-op
/// lanes is what `run_batch` runs, so a per-op run would repeat it).
#[test]
fn every_backend_answers_fused_and_per_op_alike() {
    let mixed = |s: Script<3>| s.queries(48, Ask::Any(&MENU)).queries(17, Ask::Any(&MENU));
    let short = mixed(Script::new(4213, uniform::<3>(3000, 4213)));
    let mut long = mixed(Script::new(4213, short.points.clone()));
    for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.15f32.to_bits())] {
        long = long.queries(2000, Ask::All(&[op]));
    }
    for (kind, shards) in [(Flat, 1), (Sharded, 1), (Sharded, 2), (Sharded, 8)] {
        let base = Config {
            meter: Some(true),
            ..Config::new(kind, Path::Direct)
        };
        let points =
            [Autoropes, Lockstep, StacklessKd, StacklessBvh].map(|b| base.at(shards, 1, Some(b)));
        let answers = each(&points, |cfg| {
            let per_op = Config {
                path: Path::PerOp,
                ..*cfg
            };
            let per_op = run(&short, &per_op).answers;
            let fused = run(if kind == Sharded { &long } else { &short }, cfg).answers;
            assert!(fused.starts_with(&per_op), "{cfg:?}: per-op differs");
            fused
        });
        for (cfg, got) in points.iter().zip(&answers) {
            assert!(*got == answers[0], "{cfg:?}");
        }
    }
}

/// A mutable index frozen mid-window (the direct paths merge only when a
/// script says so): every answer comes from a sweep whose rule skips the
/// tombstoned points and whose shards include the one of pending
/// inserts — inline, on two threads, and one thread per shard.
#[test]
fn a_mid_epoch_window_answers_fused_and_per_op_alike() {
    let script = Script::new(977, uniform::<3>(512, 977))
        .queries(40, Ask::Any(&MENU))
        .mutate(40, 30)
        .queries(40, Ask::Any(&MENU));
    for shards in [2, 4] {
        for threads in [1, 2, 4].into_iter().filter(|&t| t <= shards) {
            for force in [Autoropes, Cpu] {
                let base = Config::new(Kind::Mutable, Path::Direct);
                fused_and_per_op(&script, base.at(shards, threads, Some(force)));
            }
        }
    }
}

/// What the one walk buys, through the index path: on lanes that each
/// ask NN + kNN + PC it visits at most three quarters of the nodes the
/// three per-op batches visit, flat and sharded.
#[test]
fn fused_walk_saves_a_quarter_of_the_per_op_node_visits() {
    let pc = OpKey::Pc((0.04 * 3f32.sqrt()).to_bits());
    let script = Script::new(0xf05ed, uniform::<3>(512, 20130901))
        .queries(64, Ask::All(&[OpKey::Nn, OpKey::Knn(8), pc]));
    for (kind, shards) in [(Flat, 1), (Sharded, 2)] {
        let cfg = Config::new(kind, Path::Direct).at(shards, 1, Some(Autoropes));
        let visits = |path| run(&script, &Config { path, ..cfg }).node_visits;
        let (fused, solo) = (visits(Path::Direct), visits(Path::PerOp));
        assert!(
            4 * fused <= 3 * solo,
            "{cfg:?}: fused {fused} vs per-op {solo} node visits"
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
