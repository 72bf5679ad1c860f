//! The paper's central qualitative claims, asserted as tests.
//!
//! Each test names the claim and the section it comes from. These run at
//! reduced scale (a few thousand points) — every claim asserted here is
//! one that already holds at this size; scale-sensitive crossovers are
//! exercised by the harness and discussed in EXPERIMENTS.md.

use gts_apps::bh::{BhKernel, BhPoint};
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_points::gen;
use gts_points::sort::{apply_perm, morton_order, shuffle};
use gts_runtime::gpu::{autoropes, lockstep, recursive, GpuConfig};
use gts_runtime::report::work_expansion;
use gts_trees::{Aabb, KdTree, Octree, PointN, SplitPolicy};

fn pc_setup(n: usize) -> (Vec<PointN<7>>, KdTree<7>, f32) {
    let data = gen::covtype_like(n, 17);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let bbox = Aabb::of_points(&data);
    let radius = 0.04 * bbox.lo.dist(&bbox.hi);
    (data, tree, radius)
}

/// §6.2: “our GPU implementations are far faster than naïve recursive
/// implementations on GPUs … our autoropes transformation is able to
/// deliver significant improvements.”
#[test]
fn autoropes_beats_naive_recursion() {
    let (data, tree, radius) = pc_setup(8_000);
    let kernel = PcKernel::new(&tree, radius);
    let cfg = GpuConfig::default();
    let mut a: Vec<PcPoint<7>> = data.iter().map(|&p| PcPoint::new(p)).collect();
    let mut b = a.clone();
    let ar = autoropes::run(&kernel, &mut a, &cfg);
    let rec = recursive::run(&kernel, &mut b, &cfg, false);
    assert!(
        rec.ms() > 1.3 * ar.ms(),
        "recursion {:.2} ms vs autoropes {:.2} ms",
        rec.ms(),
        ar.ms()
    );
}

/// §4.2/§6.2: for a sorted, unguided workload, lockstep outperforms
/// non-lockstep despite visiting more nodes.
#[test]
fn lockstep_wins_on_sorted_unguided_input() {
    let (data, tree, radius) = pc_setup(8_000);
    let kernel = PcKernel::new(&tree, radius);
    let cfg = GpuConfig::default();
    let sorted = apply_perm(&data, &morton_order(&data));
    let mut n_pts: Vec<PcPoint<7>> = sorted.iter().map(|&p| PcPoint::new(p)).collect();
    let mut l_pts = n_pts.clone();
    let n = autoropes::run(&kernel, &mut n_pts, &cfg);
    let l = lockstep::run(&kernel, &mut l_pts, &cfg);
    assert!(
        l.stats.avg_nodes() > n.stats.avg_nodes(),
        "lockstep must visit more nodes (the union)"
    );
    assert!(
        l.ms() < n.ms(),
        "lockstep {:.2} ms should beat non-lockstep {:.2} ms on sorted input",
        l.ms(),
        n.ms()
    );
}

/// §6.3 / Table 2: sorting bounds lockstep work expansion — sorted
/// expansion is strictly lower than unsorted, and both are ≥ 1.
#[test]
fn sorting_bounds_work_expansion() {
    let (data, tree, radius) = pc_setup(6_000);
    let kernel = PcKernel::new(&tree, radius);
    let cfg = GpuConfig::default();

    let mut expansions = Vec::new();
    for sorted in [true, false] {
        let queries = if sorted {
            apply_perm(&data, &morton_order(&data))
        } else {
            let mut v = data.clone();
            shuffle(&mut v, 3);
            v
        };
        let mut n_pts: Vec<PcPoint<7>> = queries.iter().map(|&p| PcPoint::new(p)).collect();
        let mut l_pts = n_pts.clone();
        let n = autoropes::run(&kernel, &mut n_pts, &cfg);
        let l = lockstep::run(&kernel, &mut l_pts, &cfg);
        let (mean, sd) = work_expansion(&l.per_warp_nodes, &n.stats.per_point_nodes);
        assert!(mean >= 1.0, "expansion below 1: {mean}");
        assert!(sd >= 0.0);
        expansions.push(mean);
    }
    assert!(
        expansions[0] < expansions[1],
        "sorted {} !< unsorted {}",
        expansions[0],
        expansions[1]
    );
}

/// §6.2 (Table 1 pattern): the lockstep “Avg. # Nodes” is the warp union —
/// sorted and unsorted differ for L, while N's per-point counts are a
/// property of the point alone and identical under reordering.
#[test]
fn avg_nodes_pattern_l_varies_n_does_not() {
    let (data, tree, radius) = pc_setup(4_000);
    let kernel = PcKernel::new(&tree, radius);
    let cfg = GpuConfig::default();
    let sorted = apply_perm(&data, &morton_order(&data));
    let mut unsorted = data.clone();
    shuffle(&mut unsorted, 9);

    let run_pair = |queries: &[PointN<7>]| {
        let mut n_pts: Vec<PcPoint<7>> = queries.iter().map(|&p| PcPoint::new(p)).collect();
        let mut l_pts = n_pts.clone();
        let n = autoropes::run(&kernel, &mut n_pts, &cfg);
        let l = lockstep::run(&kernel, &mut l_pts, &cfg);
        (n.stats.avg_nodes(), l.stats.avg_nodes())
    };
    let (n_sorted, l_sorted) = run_pair(&sorted);
    let (n_unsorted, l_unsorted) = run_pair(&unsorted);
    // N's average is order-invariant (same multiset of traversals).
    assert!((n_sorted - n_unsorted).abs() < 1e-9);
    // L's union shrinks dramatically when points are sorted.
    assert!(l_sorted < 0.8 * l_unsorted, "{l_sorted} vs {l_unsorted}");
}

/// §4.3/§6.2: for guided algorithms on unsorted inputs, the non-lockstep
/// variant wins (the vote drags points down wrong paths and the union
/// explodes).
#[test]
fn guided_unsorted_prefers_non_lockstep() {
    let data = gen::covtype_like(6_000, 23);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let kernel = KnnKernel::new(&tree);
    let cfg = GpuConfig::default();
    let mut queries = data.clone();
    shuffle(&mut queries, 7);
    let mut n_pts: Vec<KnnPoint<7>> = queries.iter().map(|&p| KnnPoint::new(p, 8)).collect();
    let mut l_pts = n_pts.clone();
    let n = autoropes::run(&kernel, &mut n_pts, &cfg);
    let l = lockstep::run(&kernel, &mut l_pts, &cfg);
    assert!(
        n.ms() < l.ms(),
        "non-lockstep {:.2} ms should beat lockstep {:.2} ms on unsorted guided",
        n.ms(),
        l.ms()
    );
}

/// §5.2: the shared-memory rope stack (per warp) reduces lockstep BH cost
/// relative to keeping the warp stack in global memory.
#[test]
fn shared_memory_stack_helps_lockstep_bh() {
    let bodies = gen::plummer(8_000, 31);
    let pos: Vec<PointN<3>> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f32> = bodies.iter().map(|b| b.mass).collect();
    let tree = Octree::build(&pos, &mass, 8);
    let kernel = BhKernel::new(&tree, 0.5, 0.05);
    let sorted = apply_perm(&pos, &morton_order(&pos));
    let mk = || {
        sorted
            .iter()
            .map(|&p| BhPoint::new(p))
            .collect::<Vec<BhPoint>>()
    };

    let global_cfg = GpuConfig::default();
    let shared_cfg = GpuConfig::default().with_shared_stack();
    let mut a = mk();
    let g = lockstep::run(&kernel, &mut a, &global_cfg);
    let mut b = mk();
    let s = lockstep::run(&kernel, &mut b, &shared_cfg);
    assert_eq!(a, b, "stack layout must not change results");
    assert!(
        s.ms() <= g.ms(),
        "shared stack {:.3} ms should not lose to global stack {:.3} ms",
        s.ms(),
        g.ms()
    );
}

/// §5.2, §4.4, §2.2: the design-choice orderings of `gts-harness
/// ablations` (EXPERIMENTS.md § Ablations) that hold — at a quarter of its
/// size, so that a debug run takes seconds. The node-layout pair is absent
/// on purpose: the model prices the hot/cold split *above* the monolithic
/// record on the 7-d kd-tree, which EXPERIMENTS.md explains.
#[test]
fn ablation_orderings_hold() {
    let rows = gts_harness::ablations::run(1_000, 2_000, 1309);
    let ms = |group: &str, variant: &str| {
        let row = rows
            .iter()
            .find(|r| r.group == group && r.variant == variant);
        row.unwrap_or_else(|| panic!("no row {group}/{variant}")).ms
    };
    let ascending = |group: &str, variants: &[&str]| {
        for pair in variants.windows(2) {
            let (a, b) = (ms(group, pair[0]), ms(group, pair[1]));
            assert!(
                a < b,
                "{group}: {} {a:.3} ms !< {} {b:.3} ms",
                pair[0],
                pair[1]
            );
        }
    };
    // The per-warp stack belongs in shared memory; among global layouts,
    // per-lane stacks at equal depths coalesce when interleaved.
    ascending(
        "stack_layout_bh_lockstep",
        &["shared_per_warp", "interleaved_global"],
    );
    ascending(
        "stack_layout_bh_lockstep",
        &["shared_per_warp", "contiguous_global"],
    );
    ascending(
        "stack_layout_bh_autoropes",
        &["interleaved_global", "contiguous_global"],
    );
    // Both sorts bound lockstep's expansion; the Morton curve does it best.
    ascending(
        "point_sorting_pc_lockstep",
        &["morton_sorted", "tree_order_sorted", "unsorted"],
    );
    // A hardware L2 helps both variants and does not reorder them.
    ascending("l2_cache_pc", &["autoropes_with_l2", "autoropes_dram_only"]);
    ascending("l2_cache_pc", &["lockstep_with_l2", "lockstep_dram_only"]);
    ascending("l2_cache_pc", &["lockstep_with_l2", "autoropes_with_l2"]);
    ascending(
        "l2_cache_pc",
        &["lockstep_dram_only", "autoropes_dram_only"],
    );
}

/// §3.3: the autoropes transformation preserves results bit-for-bit, even
/// for the order-sensitive floating-point accumulation of BH forces.
#[test]
fn autoropes_preserves_fp_accumulation_order() {
    let bodies = gen::random_bodies(3_000, 37);
    let pos: Vec<PointN<3>> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f32> = bodies.iter().map(|b| b.mass).collect();
    let tree = Octree::build(&pos, &mass, 8);
    let kernel = BhKernel::new(&tree, 0.6, 0.05);
    let mut cpu_pts: Vec<BhPoint> = pos.iter().map(|&p| BhPoint::new(p)).collect();
    let mut gpu_pts = cpu_pts.clone();
    gts_runtime::cpu::run_sequential(&kernel, &mut cpu_pts);
    autoropes::run(&kernel, &mut gpu_pts, &GpuConfig::default());
    // Bitwise equality: same visit order ⇒ same f32 rounding.
    assert_eq!(cpu_pts, gpu_pts);
}
