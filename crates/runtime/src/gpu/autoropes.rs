//! The autoropes executor (paper §3): non-lockstep iterative traversal.
//!
//! Each lane owns a rope stack; the recursive call sites of Figure 1 become
//! stack pushes **in reverse order** (Figure 6) so pops preserve the
//! original visit order; returns become `continue`. The warp iterates a
//! single loop — control re-converges at the top of every iteration, so
//! divergence is mild — but as lanes' traversals drift apart they load
//! *different* tree nodes simultaneously, which the coalescer prices as
//! many transactions. That memory divergence is exactly the phenomenon
//! lockstep traversal (§4) trades against.

use gts_sim::{Meter, WarpMask, WarpSim, WARP_SIZE};
use gts_trees::NodeId;

use crate::kernel::{Child, ChildBuf, TraversalKernel, VisitOutcome};
use crate::report::GpuReport;

use super::{drive, scan_leaves_per_lane, GpuConfig, Scene};

/// Run the autoropes (non-lockstep) traversal of `points` over `kernel`.
/// Points are updated in place with the traversal's real results.
pub fn run<K: TraversalKernel>(kernel: &K, points: &mut [K::Point], cfg: &GpuConfig) -> GpuReport {
    run_on::<WarpSim<'_>, K>(kernel, points, cfg)
}

/// [`run`] under meter `M`. With [`gts_sim::Unmetered`] this is Figure 6
/// on the host: same results and visit counts, no modeled number.
pub fn run_on<M: Meter, K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    cfg: &GpuConfig,
) -> GpuReport {
    let scene = Scene::build(kernel, points.len(), cfg, "rope_stack", 0);
    drive::<M, _, _>(kernel, points, cfg, &scene, |kernel, _warp, lanes, sim| {
        warp_body(kernel, &scene, lanes, sim)
    })
}

fn warp_body<K: TraversalKernel>(
    kernel: &K,
    scene: &Scene,
    lanes: &mut [K::Point],
    sim: &mut impl Meter,
) -> (Vec<u32>, u64, usize) {
    let n_lanes = lanes.len();
    let root = Child {
        node: 0 as NodeId,
        args: kernel.root_args(),
    };
    // A binary DFS holds at most depth + 1 entries; wider trees grow.
    let mut stacks: Vec<Vec<Child<K::Args>>> = (0..n_lanes)
        .map(|_| {
            let mut stack = Vec::with_capacity(kernel.max_depth() + 2);
            stack.push(root);
            stack
        })
        .collect();
    let mut counts = vec![0u32; n_lanes];
    let mut warp_iters = 0u64;
    let mut max_depth = 1usize;
    let mut kids: ChildBuf<K::Args> = Vec::with_capacity(K::MAX_KIDS);

    loop {
        let active = WarpMask::ballot(|l| l < n_lanes && !stacks[l].is_empty());
        if active.none_active() {
            break;
        }
        warp_iters += 1;
        // Loop header: emptiness test + pop bookkeeping.
        sim.step(2);
        // Pop: each active lane reads the top of its own stack.
        scene
            .stack
            .access_per_lane(sim, active, |l| (stacks[l].len() - 1) as u64);
        let mut current: [Option<Child<K::Args>>; WARP_SIZE] = [None; WARP_SIZE];
        for l in active.iter_active() {
            current[l] = stacks[l].pop();
        }
        // Hot node-fragment load: lanes sit at (generally) different nodes.
        sim.load(scene.tree.nodes0, active, |l| {
            current[l].expect("active lane").node as u64
        });
        sim.step(kernel.visit_insts());
        sim.visit_node(active.count() as u64);

        // Execute the real visit per lane; classify outcomes. Bit `k` of
        // `outcome_kinds` is set when some lane's outcome was of kind `k`:
        // 1 truncated, 2 leaf, 3 + call set descended.
        let mut outcome_kinds = 0u64;
        let mut leaf_of: [Option<(u32, u32)>; WARP_SIZE] = [None; WARP_SIZE];
        let mut pushed = [0u8; WARP_SIZE];
        let mut descend_mask = WarpMask::NONE;
        for l in active.iter_active() {
            let Child { node, args } = current[l].expect("active lane");
            counts[l] += 1;
            kids.clear();
            match kernel.visit(&mut lanes[l], node, args, None, &mut kids) {
                VisitOutcome::Truncated => outcome_kinds |= 1 << 1,
                VisitOutcome::Leaf => {
                    outcome_kinds |= 1 << 2;
                    leaf_of[l] = kernel.leaf_range(node);
                }
                VisitOutcome::Descended { call_set } => {
                    outcome_kinds |= 1 << (3 + call_set);
                    descend_mask = descend_mask.set(l);
                    pushed[l] = kids.len() as u8;
                    // Push in reverse so the first child pops first
                    // (Figure 6, lines 11–12).
                    for child in kids.drain(..).rev() {
                        stacks[l].push(child);
                    }
                    max_depth = max_depth.max(stacks[l].len());
                }
            }
        }

        // Branch divergence: distinct outcome classes among active lanes.
        sim.diverge(u64::from(outcome_kinds.count_ones()));

        // Leaf lanes scan their buckets together (ragged, masked).
        if active.iter_active().any(|l| leaf_of[l].is_some()) {
            scan_leaves_per_lane(kernel, scene, sim, &leaf_of);
        }

        // Descending lanes read the cold fragment and write their pushes.
        if descend_mask.any_active() {
            if let Some(nodes1) = scene.tree.nodes1 {
                sim.load(nodes1, descend_mask, |l| {
                    current[l].expect("lane").node as u64
                });
            }
            // Stack writes: in push round j, every lane that pushed more
            // than j children writes one slot of its own stack.
            let max_pushed = descend_mask
                .iter_active()
                .map(|l| pushed[l])
                .max()
                .unwrap_or(0);
            for j in 0..max_pushed {
                let m = WarpMask::ballot(|l| descend_mask.is_set(l) && pushed[l] > j);
                sim.step(1);
                scene
                    .stack
                    .access_per_lane(sim, m, |l| (stacks[l].len() - 1 - j as usize) as u64);
            }
        }
    }
    // Per-lane stacks: the warp's peak footprint is its deepest observed
    // stack times one entry per lane.
    sim.stack_peak(max_depth as u64 * scene.stack.entry_bytes() * n_lanes as u64);
    (counts, warp_iters, max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use crate::test_kernels::BinKernel;

    #[test]
    fn autoropes_matches_recursive_results_and_counts() {
        let kernel = BinKernel::new(6, 37);
        let mut cpu_pts = vec![0u64; 100];
        let mut gpu_pts = vec![0u64; 100];
        let cpu_r = cpu::run_sequential(&kernel, &mut cpu_pts);
        let cfg = GpuConfig::default();
        let gpu_r = run(&kernel, &mut gpu_pts, &cfg);
        assert_eq!(cpu_pts, gpu_pts, "autoropes changed computed results");
        assert_eq!(
            cpu_r.stats.per_point_nodes, gpu_r.stats.per_point_nodes,
            "autoropes changed visit counts"
        );
    }

    #[test]
    fn single_warp_report_shape() {
        let kernel = BinKernel::new(4, u32::MAX);
        let mut pts = vec![0u64; 20];
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        assert_eq!(r.per_warp_nodes.len(), 1);
        assert_eq!(r.stats.per_point_nodes.len(), 20);
        assert!(r.launch.cycles > 0.0);
        assert!(r.max_stack_depth >= 2);
    }

    #[test]
    fn empty_points_is_a_noop() {
        let kernel = BinKernel::new(3, u32::MAX);
        let mut pts: Vec<u64> = Vec::new();
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        assert_eq!(r.stats.per_point_nodes.len(), 0);
        assert_eq!(r.per_warp_nodes.len(), 0);
    }

    #[test]
    fn host_thread_count_does_not_change_results() {
        let kernel = BinKernel::new(7, 93);
        let mut a = vec![0u64; 500];
        let mut b = vec![0u64; 500];
        let cfg1 = GpuConfig::default().with_host_threads(1);
        let cfg8 = GpuConfig::default().with_host_threads(8);
        let ra = run(&kernel, &mut a, &cfg1);
        let rb = run(&kernel, &mut b, &cfg8);
        assert_eq!(a, b);
        assert_eq!(ra.stats.per_point_nodes, rb.stats.per_point_nodes);
        assert_eq!(
            ra.launch.counters.global_transactions,
            rb.launch.counters.global_transactions
        );
        assert_eq!(ra.launch.cycles, rb.launch.cycles);
    }
}
