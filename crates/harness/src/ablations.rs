//! Ablations of the paper's §5 implementation choices, as modeled time —
//! the simulator's cycle count at the C2070 clock, a deterministic
//! function of the inputs like every other number the tables print:
//!
//! * rope-stack layout: per-warp shared memory vs. interleaved vs.
//!   contiguous global memory (paper §5.2, stack layout discussion),
//!   under lockstep and under autoropes,
//! * node layout: hot/cold field split vs. monolithic records (paper
//!   §5.2, `nodes0`/`nodes1`),
//! * point sorting: Morton order vs. kd-tree leaf order vs. none
//!   (paper §4.4),
//! * the L2 slice the headline model omits (paper §2.2).
//!
//! Not a paper exhibit; EXPERIMENTS.md § Ablations quotes `gts-harness
//! ablations`, which runs [`run`] at [`N_POINTS`] / [`N_BODIES`] /
//! [`SEED`], and CI diffs that output against `results/ablations.txt`.

use gts_apps::bh::{BhKernel, BhPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_points::gen;
use gts_points::sort::{apply_perm, morton_order, shuffle, tree_order};
use gts_runtime::gpu::{autoropes, lockstep, GpuConfig};
use gts_runtime::StackLayout;
use gts_trees::layout::NodeLayout;
use gts_trees::{KdTree, Octree, PointN, SplitPolicy};

use crate::suite::diag;

/// Points of the Point Correlation rows `gts-harness ablations` prints.
pub const N_POINTS: usize = 4_000;
/// Bodies of its Barnes-Hut rows.
pub const N_BODIES: usize = 8_000;
/// Its seed.
pub const SEED: u64 = 1309;

/// One variant of one design choice and what the model charges it.
#[derive(Debug)]
pub struct Ablation {
    /// The choice being varied, with benchmark and executor.
    pub group: &'static str,
    /// The variant.
    pub variant: &'static str,
    /// Modeled traversal milliseconds.
    pub ms: f64,
}

/// Run every ablation: Barnes-Hut over an `n_bodies` Plummer model for the
/// stack layouts, Point Correlation over `n_points` covtype-like points
/// (7-d, clustered; radius 4 % of the bounding-box diagonal) for the rest.
pub fn run(n_points: usize, n_bodies: usize, seed: u64) -> Vec<Ablation> {
    let mut rows = Vec::new();
    let mut row = |group, variant, ms| rows.push(Ablation { group, variant, ms });

    let bodies = gen::plummer(n_bodies, seed);
    let pos: Vec<PointN<3>> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f32> = bodies.iter().map(|b| b.mass).collect();
    let octree = Octree::build(&pos, &mass, 8);
    let bh = BhKernel::new(&octree, 0.5, 0.05);
    let sorted_bodies = apply_perm(&pos, &morton_order(&pos));
    let bh_points = || -> Vec<BhPoint> { sorted_bodies.iter().map(|&p| BhPoint::new(p)).collect() };
    for (variant, layout) in [
        ("shared_per_warp", StackLayout::SharedPerWarp),
        ("interleaved_global", StackLayout::InterleavedGlobal),
        ("contiguous_global", StackLayout::ContiguousGlobal),
    ] {
        let cfg = GpuConfig::default().with_stack_layout(layout);
        let ms = lockstep::run(&bh, &mut bh_points(), &cfg).ms();
        row("stack_layout_bh_lockstep", variant, ms);
    }
    // The non-lockstep case is where interleaving matters most: per-lane
    // stacks at (mostly) equal depths.
    for (variant, layout) in [
        ("interleaved_global", StackLayout::InterleavedGlobal),
        ("contiguous_global", StackLayout::ContiguousGlobal),
    ] {
        let cfg = GpuConfig::default().with_stack_layout(layout);
        let ms = autoropes::run(&bh, &mut bh_points(), &cfg).ms();
        row("stack_layout_bh_autoropes", variant, ms);
    }

    let data = gen::covtype_like(n_points, seed);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let pc = PcKernel::new(&tree, 0.04 * diag(&data));
    let sorted = apply_perm(&data, &morton_order(&data));
    let mut unsorted = data;
    shuffle(&mut unsorted, seed);
    // Tree-order sort: sort queries by the preorder id of the leaf each
    // lands in — the structure-aware alternative to the Morton curve.
    let tree_sorted = apply_perm(&unsorted, &tree_order(&unsorted, |p| tree.locate(p)));
    let pc_points =
        |qs: &[PointN<7>]| -> Vec<PcPoint<7>> { qs.iter().map(|&p| PcPoint::new(p)).collect() };
    let pc_autoropes = |cfg: &GpuConfig| autoropes::run(&pc, &mut pc_points(&sorted), cfg).ms();
    let pc_lockstep =
        |qs: &[PointN<7>], cfg: &GpuConfig| lockstep::run(&pc, &mut pc_points(qs), cfg).ms();

    for (variant, layout) in [
        ("hot_cold_split", NodeLayout::HotColdSplit),
        ("monolithic", NodeLayout::Monolithic),
    ] {
        let cfg = GpuConfig::default().with_node_layout(layout);
        row("node_layout_pc_autoropes", variant, pc_autoropes(&cfg));
    }
    let dram = GpuConfig::default();
    for (variant, queries) in [
        ("morton_sorted", &sorted),
        ("tree_order_sorted", &tree_sorted),
        ("unsorted", &unsorted),
    ] {
        row(
            "point_sorting_pc_lockstep",
            variant,
            pc_lockstep(queries, &dram),
        );
    }
    // With the L2 slice enabled, the hot tree top caches and the
    // lockstep-vs-autoropes gap narrows but persists.
    let l2 = GpuConfig::default().with_l2();
    row("l2_cache_pc", "autoropes_dram_only", pc_autoropes(&dram));
    row("l2_cache_pc", "autoropes_with_l2", pc_autoropes(&l2));
    row(
        "l2_cache_pc",
        "lockstep_dram_only",
        pc_lockstep(&sorted, &dram),
    );
    row("l2_cache_pc", "lockstep_with_l2", pc_lockstep(&sorted, &l2));
    rows
}

/// Render the rows as one aligned table.
pub fn render(rows: &[Ablation]) -> String {
    let mut out = format!(
        "{:<28} {:<20} {:>11}\n",
        "Ablation", "Variant", "Modeled ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:<20} {:>11.3}\n",
            r.group, r.variant, r.ms
        ));
    }
    out
}
