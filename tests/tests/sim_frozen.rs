//! The simulator's model, frozen.
//!
//! One fixed seeded scene (2 048 uniform 3-d points, 256 Morton-sorted
//! queries) through every simulated executor × {L2 off, L2 on} × the three
//! rope-stack layouts, for NN, kNN, PC and the fused NN + kNN + PC kernel.
//! Every modeled number of every launch — cycles and milliseconds as bit
//! patterns, every [`gts_sim::SimCounters`] field, the whole per-region
//! transaction map — is rendered to one line and compared against
//! `sim_frozen.golden`, captured from the commit *before* the simulator's
//! access path was rewritten. (The eight `autoropes/…/SharedPerWarp` rows
//! are the exception: that commit could not run the pairing in a debug
//! build, so they were captured once the rewrite had landed.) Host-side
//! refactors of `gts-sim` / `gts-runtime` must leave this file's
//! expectations untouched; a change that means to move the model
//! regenerates the golden file deliberately (the failure message prints
//! the full actual table).

use std::fmt::Write as _;

use gts_apps::fused::{fused_ops_kernel, fused_ops_point};
use gts_apps::kd::KdBox;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnAabbKernel, NnKernel, NnPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_points::gen::uniform;
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::gpu::{autoropes, lockstep, recursive, stackless, GpuConfig};
use gts_runtime::{GpuReport, PointRule, StackLayout, TraversalKernel};
use gts_trees::linearize::skip_links;
use gts_trees::{KdTree, LbKdTree, NodeId, SplitPolicy};

const GOLDEN: &str = include_str!("sim_frozen.golden");

const N_POINTS: usize = 2048;
const N_QUERIES: usize = 256;
const K: usize = 8;
const RADIUS: f32 = 0.2;

/// One launch as one line: every modeled number, floats as bit patterns.
fn render(label: &str, rep: &GpuReport) -> String {
    let l = &rep.launch;
    let c = &l.counters;
    let mut s = format!(
        "{label} cycles={:016x} ms={:016x} warps={} resident={} steps={} insts={} gtx={} bus={} \
         useful={} shared={} l2={} replays={} calls={} visits={} warp_visits={} peak={} \
         issue={:016x} stall={:016x} depth={} lane_nodes={} regions=",
        l.cycles.to_bits(),
        l.time_ms.to_bits(),
        l.warps,
        l.resident_warps,
        c.warp_steps,
        c.compute_insts,
        c.global_transactions,
        c.global_bus_bytes,
        c.global_useful_bytes,
        c.shared_accesses,
        c.l2_hits,
        c.divergent_replays,
        c.calls,
        c.node_visits,
        c.warp_node_visits,
        c.stack_bytes_peak,
        c.issue_cycles.to_bits(),
        c.stall_cycles.to_bits(),
        rep.max_stack_depth,
        rep.stats
            .per_point_nodes
            .iter()
            .map(|&v| u64::from(v))
            .sum::<u64>(),
    );
    for (i, (name, n)) in c.per_region_transactions.iter().enumerate() {
        write!(s, "{}{name}:{n}", if i == 0 { "" } else { "," }).unwrap();
    }
    s
}

/// Every executor × L2 × stack layout for one query kind: `kernel` rides
/// the rope-stack executors, `boxed` the skip-link walk, and `boxed`'s
/// rule the left-balanced walk over `lb` — the same pair the service
/// dispatches.
fn rows<K, R>(
    out: &mut String,
    kind: &str,
    kernel: &K,
    boxed: &KdBox<'_, 3, R>,
    lb: &LbKdTree<3>,
    skip: &[NodeId],
    points: &[K::Point],
) where
    K: TraversalKernel<Point = R::State>,
    R: PointRule<3>,
{
    type Exec<'a, P> = (
        &'static str,
        Box<dyn Fn(&mut [P], &GpuConfig) -> GpuReport + 'a>,
    );
    let execs: Vec<Exec<'_, K::Point>> = vec![
        (
            "recursive",
            Box::new(|p, cfg| recursive::run(kernel, p, cfg, false)),
        ),
        (
            "recursive-lockstep",
            Box::new(|p, cfg| recursive::run(kernel, p, cfg, true)),
        ),
        (
            "autoropes",
            Box::new(|p, cfg| autoropes::run(kernel, p, cfg)),
        ),
        ("lockstep", Box::new(|p, cfg| lockstep::run(kernel, p, cfg))),
        (
            "skip",
            Box::new(|p, cfg| stackless::run_skip(boxed, p, skip, cfg)),
        ),
        (
            "wald",
            Box::new(|p, cfg| stackless::run_wald(lb, boxed.rule(), p, cfg)),
        ),
    ];
    for (exec, run) in &execs {
        for l2 in [false, true] {
            for layout in [
                StackLayout::InterleavedGlobal,
                StackLayout::ContiguousGlobal,
                StackLayout::SharedPerWarp,
            ] {
                let mut cfg = GpuConfig::default()
                    .with_host_threads(2)
                    .with_stack_layout(layout);
                if l2 {
                    cfg = cfg.with_l2();
                }
                let mut work = points.to_vec();
                let rep = run(&mut work, &cfg);
                let label = format!("{kind}/{exec}/l2={}/{layout:?}", u8::from(l2));
                out.push_str(&render(&label, &rep));
                out.push('\n');
            }
        }
    }
}

fn actual() -> String {
    let data = uniform::<3>(N_POINTS, 0xf20e);
    let queries = uniform::<3>(N_QUERIES, 0x51a7);
    let queries = apply_perm(&queries, &morton_order(&queries));
    // The paper's two kd shapes: midpoint splits under NN, median splits
    // under kNN / PC / the fusion.
    let nn_tree = KdTree::build(&data, 8, SplitPolicy::MidpointWidest);
    let nn_lb = LbKdTree::build(&nn_tree.points);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let lb = LbKdTree::build(&tree.points);
    let (nn_skip, skip) = (skip_links(&nn_tree.right), skip_links(&tree.right));

    let mut out = String::new();
    let nn: Vec<NnPoint<3>> = queries.iter().map(|&p| NnPoint::new(p)).collect();
    rows(
        &mut out,
        "nn",
        &NnKernel::new(&nn_tree),
        &NnAabbKernel::new(&nn_tree),
        &nn_lb,
        &nn_skip,
        &nn,
    );
    let knn: Vec<KnnPoint<3>> = queries.iter().map(|&p| KnnPoint::new(p, K)).collect();
    let knn_kernel = KnnKernel::new(&tree);
    rows(&mut out, "knn", &knn_kernel, &knn_kernel, &lb, &skip, &knn);
    let pc: Vec<PcPoint<3>> = queries.iter().map(|&p| PcPoint::new(p)).collect();
    let pc_kernel = PcKernel::new(&tree, RADIUS);
    rows(&mut out, "pc", &pc_kernel, &pc_kernel, &lb, &skip, &pc);
    let fused: Vec<_> = queries
        .iter()
        .map(|&p| fused_ops_point(p, true, Some(K), &[RADIUS]))
        .collect();
    let fused_kernel = fused_ops_kernel(&tree);
    rows(
        &mut out,
        "fused",
        &fused_kernel,
        &fused_kernel,
        &lb,
        &skip,
        &fused,
    );
    out
}

#[test]
fn every_modeled_number_matches_the_parent_capture() {
    let actual = actual();
    let (want, got): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), actual.lines().collect());
    assert_eq!(want.len(), 4 * 6 * 3 * 2, "golden file lost rows");
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("want {w}\n got {g}"))
        .collect();
    assert!(
        moved.is_empty() && want.len() == got.len(),
        "{} of {} launches moved:\n{}\n\nfull actual table:\n{actual}",
        moved.len(),
        want.len(),
        moved.join("\n"),
    );
}
