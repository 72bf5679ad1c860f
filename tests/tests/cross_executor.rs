//! Every benchmark × every executor returns exactly the right answer.
//!
//! The apps' own unit tests cover uniform data; these integration tests
//! sweep the *surrogate* inputs (clustered, projected, power-law) where
//! degenerate geometry is most likely to break pruning logic.

use gts_apps::fused::{fused_ops_kernel, fused_ops_point, FusedOpsRule};
use gts_apps::kd::KdBox;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnAabbKernel, NnKernel, NnPoint};
use gts_apps::oracle;
use gts_apps::pc::{PcKernel, PcPoint};
use gts_apps::vp::{VpKernel, VpPoint};
use gts_points::gen;
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::gpu::{autoropes, lockstep, recursive, stackless, GpuConfig, Unmetered};
use gts_runtime::{GpuReport, Live, PointRule, Tombstones, TraversalKernel};
use gts_trees::linearize::skip_links;
use gts_trees::{Aabb, KdTree, LbKdTree, PointN, SplitPolicy, VpTree};

const N: usize = 700;

fn all_inputs_7d() -> Vec<(&'static str, Vec<PointN<7>>)> {
    vec![
        ("covtype", gen::covtype_like(N, 41)),
        ("mnist", gen::mnist_like(N, 42)),
        ("random", gen::uniform::<7>(N, 43)),
    ]
}

#[test]
fn pc_exact_on_all_surrogates() {
    let cfg = GpuConfig::default();
    for (name, data) in all_inputs_7d() {
        let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
        let bbox = Aabb::of_points(&data);
        let radius = 0.05 * bbox.lo.dist(&bbox.hi);
        let kernel = PcKernel::new(&tree, radius);
        for run in 0..3 {
            let mut pts: Vec<PcPoint<7>> = data.iter().map(|&p| PcPoint::new(p)).collect();
            match run {
                0 => drop(autoropes::run(&kernel, &mut pts, &cfg)),
                1 => drop(lockstep::run(&kernel, &mut pts, &cfg)),
                _ => drop(recursive::run(&kernel, &mut pts, &cfg, false)),
            }
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(
                    p.count,
                    oracle::pc_count(&data, &data[i], radius),
                    "{name} run {run} point {i}"
                );
            }
        }
    }
}

#[test]
fn knn_exact_on_all_surrogates() {
    let cfg = GpuConfig::default();
    let k = 5;
    for (name, data) in all_inputs_7d() {
        let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);
        for run in 0..2 {
            let mut pts: Vec<KnnPoint<7>> = data.iter().map(|&p| KnnPoint::new(p, k)).collect();
            match run {
                0 => drop(autoropes::run(&kernel, &mut pts, &cfg)),
                _ => drop(lockstep::run(&kernel, &mut pts, &cfg)),
            }
            for (i, p) in pts.iter().enumerate() {
                let want = oracle::knn_dists(&data, &data[i], k);
                for (g, w) in p.best.distances().iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-4 * w.max(1.0),
                        "{name} run {run} point {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn nn_exact_on_geocity_clusters() {
    // Geocity's extreme clustering stresses midpoint splits (empty-side
    // fallbacks) and the split-plane bounds.
    let data = gen::geocity_like(N, 44);
    let tree = KdTree::build(&data, 4, SplitPolicy::MidpointWidest);
    let kernel = NnKernel::new(&tree);
    let cfg = GpuConfig::default();
    let mut pts: Vec<NnPoint<2>> = data.iter().map(|&p| NnPoint::new(p)).collect();
    lockstep::run(&kernel, &mut pts, &cfg);
    for (i, p) in pts.iter().enumerate() {
        let want = oracle::nn_dist2_nonself(&data, &data[i]);
        assert!(
            (p.best_d2 - want).abs() <= 1e-4 * want.max(1e-6),
            "point {i}: {} vs {want}",
            p.best_d2
        );
    }
}

#[test]
fn vp_exact_on_mnist_surrogate() {
    let data = gen::mnist_like(N, 45);
    let tree = VpTree::build(&data, 4);
    let kernel = VpKernel::new(&tree);
    let cfg = GpuConfig::default();
    for lockstep_run in [false, true] {
        let mut pts: Vec<VpPoint<7>> = data.iter().map(|&p| VpPoint::new(p)).collect();
        if lockstep_run {
            lockstep::run(&kernel, &mut pts, &cfg);
        } else {
            recursive::run(&kernel, &mut pts, &cfg, true);
        }
        for (i, p) in pts.iter().enumerate() {
            let want = oracle::nn_dist2_nonself(&data, &data[i]).sqrt();
            assert!(
                (p.best_d - want).abs() <= 1e-3 * want.max(1e-4) + 1e-5,
                "lockstep={lockstep_run} point {i}: {} vs {want}",
                p.best_d
            );
        }
    }
}

#[test]
fn degenerate_inputs_do_not_break_executors() {
    // All-coincident points: zero distances everywhere, zero-extent boxes.
    let data = vec![PointN([1.0f32, 2.0]); 100];
    let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
    let kernel = PcKernel::new(&tree, 0.0);
    let cfg = GpuConfig::default();
    let mut pts: Vec<PcPoint<2>> = data.iter().map(|&p| PcPoint::new(p)).collect();
    lockstep::run(&kernel, &mut pts, &cfg);
    assert!(pts.iter().all(|p| p.count == 100));
}

#[test]
fn tail_warp_with_partial_mask() {
    // 33 points = one full warp + a 1-lane tail warp: the tail's partial
    // mask must flow through pops, ballots and leaf scans in every
    // executor.
    let data = gen::uniform::<2>(33, 46);
    let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
    let kernel = PcKernel::new(&tree, 0.5);
    let cfg = GpuConfig::default();
    let mk = || data.iter().map(|&p| PcPoint::new(p)).collect::<Vec<_>>();
    let mut a = mk();
    let ar = autoropes::run(&kernel, &mut a, &cfg);
    let mut l = mk();
    let lr = lockstep::run(&kernel, &mut l, &cfg);
    let mut r = mk();
    recursive::run(&kernel, &mut r, &cfg, true);
    assert_eq!(ar.per_warp_nodes.len(), 2);
    assert_eq!(lr.per_warp_nodes.len(), 2);
    for (i, p) in data.iter().enumerate() {
        let want = oracle::pc_count(&data, p, 0.5);
        assert_eq!(a[i].count, want);
        assert_eq!(l[i].count, want);
        assert_eq!(r[i].count, want);
    }
}

#[test]
fn single_point_single_lane() {
    let data = vec![PointN([5.0f32, -3.0])];
    let tree = KdTree::build(&data, 4, SplitPolicy::MedianCycle);
    let kernel = PcKernel::new(&tree, 1.0);
    let cfg = GpuConfig::default();
    let mut pts = vec![PcPoint::new(data[0])];
    let r = autoropes::run(&kernel, &mut pts, &cfg);
    assert_eq!(pts[0].count, 1);
    assert_eq!(r.per_warp_nodes.len(), 1);
}

/// One query kind through the four served executors, each under both
/// meters: `kernel` rides the rope-stack executors, `boxed` the skip-link
/// walk and its rule the Wald walk over `lb` — the pairing the service
/// dispatches. Everything an executor counts itself must not depend on the
/// meter, and on the metered run must add up to what the meter counted.
fn both_meters_agree<K, R>(
    kind: &str,
    kernel: &K,
    boxed: &KdBox<'_, 3, R>,
    lb: &LbKdTree<3>,
    tree: &KdTree<3>,
    points: &[K::Point],
) where
    K: TraversalKernel<Point = R::State>,
    K::Point: std::fmt::Debug,
    R: PointRule<3>,
{
    let cfg = GpuConfig::new(2);
    let skip = skip_links(&tree.right);
    type Launch<'a, P> = Box<dyn Fn(&mut [P], bool) -> GpuReport + 'a>;
    let execs: [(&str, Launch<'_, K::Point>); 4] = [
        (
            "autoropes",
            Box::new(|p, metered| match metered {
                true => autoropes::run(kernel, p, &cfg),
                false => autoropes::run_on::<Unmetered, _>(kernel, p, &cfg),
            }),
        ),
        (
            "lockstep",
            Box::new(|p, metered| match metered {
                true => lockstep::run(kernel, p, &cfg),
                false => lockstep::run_on::<Unmetered, _>(kernel, p, &cfg),
            }),
        ),
        (
            "skip",
            Box::new(|p, metered| match metered {
                true => stackless::run_skip(boxed, p, &skip, &cfg),
                false => stackless::run_skip_on::<Unmetered, _>(boxed, p, &skip, &cfg),
            }),
        ),
        (
            "wald",
            Box::new(|p, metered| match metered {
                true => stackless::run_wald(lb, boxed.rule(), p, &cfg),
                false => stackless::run_wald_on::<Unmetered, 3, _>(lb, boxed.rule(), p, &cfg),
            }),
        ),
    ];
    for (exec, run) in &execs {
        let ctx = format!("{kind} on {exec}");
        let (mut modeled, mut plain) = (points.to_vec(), points.to_vec());
        let (m, u) = (run(&mut modeled, true), run(&mut plain, false));
        assert_eq!(
            format!("{modeled:?}"),
            format!("{plain:?}"),
            "{ctx}: states"
        );
        assert_eq!(m.stats.per_point_nodes, u.stats.per_point_nodes, "{ctx}");
        assert_eq!(m.per_warp_nodes, u.per_warp_nodes, "{ctx}");
        assert_eq!(m.per_point_live_nodes, u.per_point_live_nodes, "{ctx}");
        assert_eq!(m.max_stack_depth, u.max_stack_depth, "{ctx}");
        // What makes live visits and mask occupancy exact without a meter.
        let counters = &m.launch.counters;
        assert_eq!(u.live_visits(), counters.node_visits, "{ctx}: lane visits");
        assert_eq!(
            u.per_warp_nodes.iter().sum::<u64>(),
            counters.warp_node_visits,
            "{ctx}: warp visits"
        );
        assert_eq!(u.mask_occupancy().to_bits(), m.mask_occupancy().to_bits());
        assert!(counters.warp_steps > 0 && u.launch.counters.warp_steps == 0);
    }
}

#[test]
fn executors_count_the_same_under_either_meter() {
    let data = gen::uniform::<3>(1024, 0x3e7e);
    // 200 queries: six full warps and an 8-lane tail.
    let unsorted = gen::uniform::<3>(200, 0x51a7);
    let sorted = apply_perm(&unsorted, &morton_order(&unsorted));
    let nn_tree = KdTree::build(&data, 8, SplitPolicy::MidpointWidest);
    let nn_lb = LbKdTree::build(&nn_tree.points);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let lb = LbKdTree::build(&tree.points);
    for (order, queries) in [("sorted", &sorted), ("unsorted", &unsorted)] {
        let nn: Vec<NnPoint<3>> = queries.iter().map(|&p| NnPoint::new(p)).collect();
        both_meters_agree(
            &format!("{order} nn"),
            &NnKernel::new(&nn_tree),
            &NnAabbKernel::new(&nn_tree),
            &nn_lb,
            &nn_tree,
            &nn,
        );
        let knn: Vec<KnnPoint<3>> = queries.iter().map(|&p| KnnPoint::new(p, 8)).collect();
        let kernel = KnnKernel::new(&tree);
        both_meters_agree(&format!("{order} knn"), &kernel, &kernel, &lb, &tree, &knn);
        let pc: Vec<PcPoint<3>> = queries.iter().map(|&p| PcPoint::new(p)).collect();
        let kernel = PcKernel::new(&tree, 0.2);
        both_meters_agree(&format!("{order} pc"), &kernel, &kernel, &lb, &tree, &pc);
        let fused: Vec<_> = (queries.iter())
            .map(|&p| fused_ops_point(p, true, Some(8), &[0.2]))
            .collect();
        let kernel = fused_ops_kernel(&tree);
        both_meters_agree(
            &format!("{order} fused"),
            &kernel,
            &kernel,
            &lb,
            &tree,
            &fused,
        );
        // The served walk with every third tree position tombstoned.
        let dead: Tombstones = (0..data.len() as u32).step_by(3).collect();
        let live_fused = Live {
            rule: FusedOpsRule::default(),
            dead: &dead,
        };
        let kernel = KdBox::with_rule(&tree, live_fused);
        both_meters_agree(
            &format!("{order} live fused"),
            &kernel,
            &kernel,
            &lb,
            &tree,
            &fused,
        );
    }
}
