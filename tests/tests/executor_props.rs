//! Property tests over the executor matrix: for randomly drawn workloads,
//! the §3.3 equivalences hold across all execution strategies.

use gts_apps::fused::{fused_ops_kernel, fused_ops_point, FusedOpsRule, MultiPcPoint, MultiPcRule};
use gts_apps::kd::KdBox;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnAabbKernel, NnKernel, NnPoint, NnRule};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_apps::vp::{VpKernel, VpPoint};
use gts_points::gen::uniform;
use gts_runtime::gpu::{autoropes, lockstep, recursive, stackless, GpuConfig};
use gts_runtime::report::work_expansion;
use gts_runtime::{cpu, Child, Live, Tombstones, TraversalKernel, VisitOutcome};
use gts_trees::linearize::skip_links;
use gts_trees::{KdTree, NodeId, SplitPolicy, VpTree};
use proptest::prelude::*;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unguided kernels: every executor computes identical counts and the
    /// two iterative executors agree with the recursive baseline on
    /// per-point visit counts.
    #[test]
    fn prop_pc_executor_matrix(n in 2usize..250, seed in 0u64..100, r in 0.05f32..1.2) {
        let data = uniform::<3>(n, seed);
        let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
        let kernel = PcKernel::new(&tree, r);
        let cfg = GpuConfig::default();
        let fresh = || data.iter().map(|&p| PcPoint::new(p)).collect::<Vec<_>>();

        let mut c = fresh();
        let cr = cpu::run_sequential(&kernel, &mut c);
        let mut a = fresh();
        let ar = autoropes::run(&kernel, &mut a, &cfg);
        let mut l = fresh();
        let lr = lockstep::run(&kernel, &mut l, &cfg);
        let mut g = fresh();
        let _gr = recursive::run(&kernel, &mut g, &cfg, false);

        // Identical results everywhere.
        prop_assert_eq!(&c, &a);
        prop_assert_eq!(&c, &l);
        prop_assert_eq!(&c, &g);
        // Autoropes preserves per-point visit counts exactly (§3.3).
        prop_assert_eq!(&cr.stats.per_point_nodes, &ar.stats.per_point_nodes);
        // Work expansion is always ≥ 1 and finite.
        if !lr.per_warp_nodes.is_empty() {
            let (mean, sd) = work_expansion(&lr.per_warp_nodes, &ar.stats.per_point_nodes);
            prop_assert!(mean >= 1.0 - 1e-9);
            prop_assert!(sd.is_finite());
        }
    }

    /// Guided kernels under lockstep: the §4.3 vote may change traversal
    /// orders but never the computed nearest neighbor.
    #[test]
    fn prop_vp_lockstep_vote_preserves_answers(n in 2usize..200, seed in 0u64..100) {
        let data = uniform::<3>(n, seed);
        let tree = VpTree::build(&data, 4);
        let kernel = VpKernel::new(&tree);
        let cfg = GpuConfig::default();

        let mut reference: Vec<VpPoint<3>> = data.iter().map(|&p| VpPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut reference);
        let mut voted: Vec<VpPoint<3>> = data.iter().map(|&p| VpPoint::new(p)).collect();
        lockstep::run(&kernel, &mut voted, &cfg);
        for (r, v) in reference.iter().zip(&voted) {
            prop_assert_eq!(r.best_d.to_bits(), v.best_d.to_bits());
        }
    }

    /// Simulated *work* is monotone in problem size: a superset of points
    /// issues at least as many warp steps, transactions, and node visits.
    /// (Modeled *time* is deliberately not monotone — extra resident warps
    /// unlock latency hiding, as on real hardware.)
    #[test]
    fn prop_simulated_work_grows_with_points(seed in 0u64..50) {
        let data = uniform::<3>(512, seed);
        let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
        let kernel = PcKernel::new(&tree, 0.4);
        let cfg = GpuConfig::default();
        let mut small: Vec<PcPoint<3>> = data.iter().take(64).map(|&p| PcPoint::new(p)).collect();
        let mut large: Vec<PcPoint<3>> = data.iter().map(|&p| PcPoint::new(p)).collect();
        let rs = autoropes::run(&kernel, &mut small, &cfg);
        let rl = autoropes::run(&kernel, &mut large, &cfg);
        prop_assert!(rl.launch.counters.warp_steps >= rs.launch.counters.warp_steps);
        prop_assert!(rl.launch.counters.global_transactions >= rs.launch.counters.global_transactions);
        prop_assert!(rl.launch.counters.node_visits >= rs.launch.counters.node_visits);
        prop_assert!(rl.launch.counters.issue_cycles >= rs.launch.counters.issue_cycles);
    }
}

/// Walk every query through `kernel` and hold its declared constants to
/// what `visit` does at each interior node the query reaches — the facts
/// lockstep's vote, the skip walk and the fused rule take on trust.
fn assert_annotations_match_behaviour<K>(
    label: &str,
    kernel: &K,
    queries: &[K::Point],
    skip: &[NodeId],
) where
    K: TraversalKernel,
    K::Point: PartialEq + Debug,
    K::Args: PartialEq + Debug,
{
    let mut walked = queries.to_vec();
    let mut interior = 0usize;
    for p in &mut walked {
        let mut stack = vec![Child {
            node: 0,
            args: kernel.root_args(),
        }];
        while let Some(at) = stack.pop() {
            let before = p.clone();
            let visit = |state: &mut K::Point, forced: Option<usize>| {
                let mut kids = Vec::new();
                let outcome = kernel.visit(state, at.node, at.args, forced, &mut kids);
                (outcome, kids)
            };
            let (outcome, kids) = visit(p, None);
            let forced = [0, 1].map(|s| visit(&mut before.clone(), Some(s)));
            let VisitOutcome::Descended { call_set } = outcome else {
                // Truncation and the leaf update are not the vote's to move.
                assert!(forced.iter().all(|(o, k)| *o == outcome && k.is_empty()));
                continue;
            };
            interior += 1;
            let at_node = format!("{label} node {}", at.node);
            assert_eq!(
                call_set,
                kernel.choose(&before, at.node, at.args),
                "{at_node}"
            );
            if K::CALL_SETS == 1 {
                // One call set: set 0, whatever the warp forces.
                assert_eq!(call_set, 0, "{at_node}");
                for forced_visit in &forced {
                    assert_eq!(*forced_visit, (outcome, kids.clone()), "{at_node}");
                }
            } else {
                for (s, (forced_outcome, _)) in forced.iter().enumerate() {
                    let want = VisitOutcome::Descended { call_set: s };
                    assert_eq!(*forced_outcome, want, "{at_node}: forced set honored");
                }
                // The sets are mutual reversals, arguments riding along.
                let reversed: Vec<_> = forced[1].1.iter().rev().copied().collect();
                assert_eq!(forced[0].1, reversed, "{at_node}");
                assert_eq!(kids, forced[call_set].1, "{at_node}");
            }
            stack.extend(kids.into_iter().rev());
        }
    }
    assert!(interior > 0, "{label}: no query reached an interior node");

    // The skip walk takes exactly the kernels that declare no variant
    // argument, and gives them the answers of the walk above.
    let mut skipped = queries.to_vec();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        stackless::run_skip(kernel, &mut skipped, skip, &GpuConfig::default())
    }));
    assert_eq!(ran.is_ok(), !K::ARGS_VARIANT, "{label}: run_skip");
    if ran.is_ok() {
        assert_eq!(skipped, walked, "{label}: skip walk answers");
    }
}

#[test]
fn served_kernel_annotations_match_behaviour() {
    let data = uniform::<3>(700, 0xa22);
    let queries = uniform::<3>(48, 0xa23);
    for policy in [SplitPolicy::MidpointWidest, SplitPolicy::MedianCycle] {
        let tree = KdTree::build(&data, 4, policy);
        let skip = &skip_links(&tree.right);
        let nn: Vec<NnPoint<3>> = queries.iter().map(|&q| NnPoint::new(q)).collect();
        assert_annotations_match_behaviour("nn plane", &NnKernel::new(&tree), &nn, skip);
        assert_annotations_match_behaviour("nn box", &NnAabbKernel::new(&tree), &nn, skip);
        let knn: Vec<KnnPoint<3>> = queries.iter().map(|&q| KnnPoint::new(q, 5)).collect();
        assert_annotations_match_behaviour("knn", &KnnKernel::new(&tree), &knn, skip);
        let pc: Vec<PcPoint<3>> = queries.iter().map(|&q| PcPoint::new(q)).collect();
        assert_annotations_match_behaviour("pc", &PcKernel::new(&tree, 0.3), &pc, skip);
        let multi: Vec<MultiPcPoint<3>> = queries
            .iter()
            .map(|&q| MultiPcPoint::new(q, &[0.1, 0.3]))
            .collect();
        let multi_kernel = KdBox::<3, MultiPcRule>::new(&tree);
        assert_annotations_match_behaviour("multi-pc", &multi_kernel, &multi, skip);
        // The fused rule, with every constituent live and with only its
        // unguided one (a pair with a guided member stays guided).
        for (nn, k, radii) in [(true, Some(5), &[0.3f32][..]), (false, None, &[0.3f32][..])] {
            let lanes: Vec<_> = queries
                .iter()
                .map(|&q| fused_ops_point(q, nn, k, radii))
                .collect();
            assert_annotations_match_behaviour("fused", &fused_ops_kernel(&tree), &lanes, skip);
        }
        // Box-pruned rules again as `Live` of them, over a tree with every
        // third position tombstoned: the annotations are the inner rule's,
        // and must still describe what the kernels do.
        let dead: Tombstones = (0..data.len() as u32).step_by(3).collect();
        let live_nn = Live {
            rule: NnRule,
            dead: &dead,
        };
        let boxed = KdBox::with_rule(&tree, live_nn);
        assert_annotations_match_behaviour("live nn box", &boxed, &nn, skip);
        let lanes: Vec<_> = (queries.iter())
            .map(|&q| fused_ops_point(q, true, Some(5), &[0.3]))
            .collect();
        let rule = FusedOpsRule::default();
        let fused = KdBox::with_rule(&tree, Live { rule, dead: &dead });
        assert_annotations_match_behaviour("live fused", &fused, &lanes, skip);
    }
}
