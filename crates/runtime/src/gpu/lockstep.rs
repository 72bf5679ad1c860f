//! The lockstep executor (paper §4): warp-synchronous autoropes with mask
//! bit-vectors on the rope stack.
//!
//! One rope stack per *warp*; every entry carries `(node, mask, args)`
//! exactly as in Figure 8. Truncated lanes clear their bit and are carried
//! along; the warp truncates only when the combined mask is empty. Because
//! all lanes visit the same node at the same time, node loads are
//! broadcasts — one transaction — and the per-warp stack can live in
//! shared memory (paper §5.2, [`crate::stack::StackLayout::SharedPerWarp`]).
//!
//! **Traversal-variant arguments are per-lane**: even though the rope and
//! mask are shared, a lane's argument (e.g. NN's split-plane bound) is its
//! own — each stack entry carries one argument slot per lane, stored
//! interleaved next to the rope word exactly as a real implementation
//! would. Sharing one lane's bound across the warp would over-prune other
//! lanes and return wrong neighbors.
//!
//! For guided kernels annotated `CALL_SETS_EQUIVALENT`, the dynamic
//! single-call-set reduction (§4.3) takes a majority vote between the
//! active lanes each step and forces the winning order on the whole warp.

use gts_sim::mask::majority_vote;
use gts_sim::{Meter, WarpMask, WarpSim, WARP_SIZE};
use gts_trees::NodeId;

use crate::kernel::{ChildBuf, TraversalKernel, VisitOutcome};
use crate::report::GpuReport;

use super::{drive, scan_leaf_broadcast, GpuConfig, Scene};

/// Run the lockstep traversal of `points` over `kernel`.
///
/// # Panics
/// Panics if the kernel is guided (`CALL_SETS > 1`) without the §4.3
/// semantic-equivalence annotation — the paper's system refuses the same
/// combination (“in the absence of this information, we do not perform the
/// transformation”).
pub fn run<K: TraversalKernel>(kernel: &K, points: &mut [K::Point], cfg: &GpuConfig) -> GpuReport {
    run_on::<WarpSim<'_>, K>(kernel, points, cfg)
}

/// [`run`] under meter `M`. With [`gts_sim::Unmetered`] this is point
/// blocking at warp granularity on the host: same results, pops and live
/// sets, no modeled number.
pub fn run_on<M: Meter, K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    cfg: &GpuConfig,
) -> GpuReport {
    assert!(
        K::CALL_SETS == 1 || K::CALL_SETS_EQUIVALENT,
        "lockstep traversal of a guided kernel requires the CALL_SETS_EQUIVALENT annotation (§4.3)"
    );
    // Stack entries carry the 4-byte mask word; point-dependent variant
    // arguments add one interleaved slot per lane (the base entry already
    // counts one slot), while warp-uniform arguments stay at a single slot
    // (paper §5.2's per-warp storage optimization).
    let extra = 4 + if K::ARGS_VARIANT && !K::ARGS_WARP_UNIFORM {
        (WARP_SIZE as u64 - 1) * K::ARG_BYTES
    } else {
        0
    };
    let scene = Scene::build(kernel, points.len(), cfg, "warp_rope_stack", extra);
    let mut rep = drive::<M, _, _>(kernel, points, cfg, &scene, |kernel, _warp, lanes, sim| {
        warp_body(kernel, &scene, lanes, sim)
    });
    // The warp bodies count the pops each lane was live for. Every carried
    // point is *charged* for every pop of its warp — the warp drags masked
    // lanes through the node (this is what makes lockstep's “Avg. # Nodes”
    // the union size; see Table 1).
    let charged = (rep.per_warp_nodes.iter())
        .flat_map(|&pops| std::iter::repeat_n(pops as u32, WARP_SIZE))
        .take(points.len())
        .collect();
    rep.per_point_live_nodes = std::mem::replace(&mut rep.stats.per_point_nodes, charged);
    rep
}

/// One shared stack entry: the rope, the activity mask, and one argument
/// slot per lane.
struct Entry<A> {
    node: NodeId,
    mask: WarpMask,
    args: [A; WARP_SIZE],
}

fn warp_body<K: TraversalKernel>(
    kernel: &K,
    scene: &Scene,
    lanes: &mut [K::Point],
    sim: &mut impl Meter,
) -> (Vec<u32>, u64, usize) {
    let n_lanes = lanes.len();
    let full = WarpMask::first(n_lanes);
    let mut stack: Vec<Entry<K::Args>> = vec![Entry {
        node: 0,
        mask: full,
        args: [kernel.root_args(); WARP_SIZE],
    }];
    // Pops each lane was live for: its own walk in the voted order.
    let mut live = vec![0u32; n_lanes];
    let mut warp_nodes = 0u64;
    let mut max_depth = 1usize;
    let mut kids: ChildBuf<K::Args> = Vec::with_capacity(K::MAX_KIDS);
    // The children the warp descends into at the current node: their ids
    // and, per child, one argument slot per lane. Reused across pops.
    let mut slot_nodes: Vec<NodeId> = Vec::with_capacity(K::MAX_KIDS);
    let mut slot_args: Vec<[K::Args; WARP_SIZE]> = Vec::with_capacity(K::MAX_KIDS);

    while let Some(Entry { node, mask, args }) = stack.pop() {
        // Loop header + pop of the shared entry.
        sim.step(2);
        scene.stack.access_warp(sim, full, stack.len() as u64);
        warp_nodes += 1;
        // Broadcast hot-fragment load: the whole warp reads one node.
        sim.load_broadcast(scene.tree.nodes0, full, node as u64);
        sim.step(kernel.visit_insts());
        sim.visit_node(mask.count() as u64);

        // §4.3 vote (guided kernels only): the active lanes elect the call
        // set the warp will use at this node.
        let forced = if K::CALL_SETS > 1 && !kernel.is_leaf(node) {
            majority_vote(
                mask,
                |l| kernel.choose(&lanes[l], node, args[l]),
                K::CALL_SETS,
            )
        } else {
            None
        };

        // Per-lane execution under the mask (Figure 8 lines 9–18). The
        // warp's child *order* comes from the first descending lane (all
        // lanes agree once the call set is forced); each lane contributes
        // its own argument for every child slot.
        let mut new_mask = mask;
        slot_nodes.clear();
        slot_args.clear();
        for l in mask.iter_active() {
            live[l] += 1;
            kids.clear();
            match kernel.visit(&mut lanes[l], node, args[l], forced, &mut kids) {
                VisitOutcome::Truncated | VisitOutcome::Leaf => {
                    new_mask = new_mask.clear(l);
                }
                VisitOutcome::Descended { .. } => {
                    if slot_nodes.is_empty() {
                        slot_nodes.extend(kids.iter().map(|c| c.node));
                        // Placeholder: carried lanes inherit the parent's
                        // argument (never read — their mask bit is clear).
                        slot_args.resize(kids.len(), args);
                    } else {
                        debug_assert!(
                            slot_nodes.iter().copied().eq(kids.iter().map(|c| c.node)),
                            "lockstep lanes disagreed on child order despite the forced call set"
                        );
                    }
                    for (j, c) in kids.iter().enumerate() {
                        slot_args[j][l] = c.args;
                    }
                }
            }
        }

        // The truncate-vs-continue split is predicated, not branched; it
        // still costs one replay when lanes disagree.
        if new_mask != mask && new_mask.any_active() {
            sim.diverge(2);
        }

        // Leaf bucket: the warp scans one shared bucket, broadcasting each
        // element (a leaf visit clears every surviving bit above, so use
        // the pre-visit mask for the scan's activity).
        if let Some((first, count)) = kernel.leaf_range(node) {
            scan_leaf_broadcast(kernel, scene, sim, mask, first, count);
        }

        // Warp vote combine (Figure 8 line 20) and conditional push
        // (lines 21–24): push children in reverse with the combined mask.
        sim.step(1); // ballot
        if new_mask.any_active() && !slot_nodes.is_empty() {
            if let Some(nodes1) = scene.tree.nodes1 {
                sim.load_broadcast(nodes1, full, node as u64);
            }
            for j in (0..slot_nodes.len()).rev() {
                stack.push(Entry {
                    node: slot_nodes[j],
                    mask: new_mask,
                    args: slot_args[j],
                });
                sim.step(1);
                scene.stack.access_warp(sim, full, (stack.len() - 1) as u64);
            }
            max_depth = max_depth.max(stack.len());
        }
    }
    // One shared stack per warp: the footprint does not scale with lanes
    // (each entry already carries the per-lane argument slots).
    sim.stack_peak(max_depth as u64 * scene.stack.entry_bytes());
    (live, warp_nodes, max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::autoropes;
    use crate::test_kernels::{BinKernel, GuidedKernel, GuidedPoint};
    use crate::{cpu, StackLayout};

    #[test]
    fn lockstep_computes_identical_results_unguided() {
        let kernel = BinKernel::new(6, 41);
        let mut cpu_pts: Vec<u64> = (0..100).map(|i| i as u64 * 1000).collect();
        let mut gpu_pts = cpu_pts.clone();
        cpu::run_sequential(&kernel, &mut cpu_pts);
        let r = run(&kernel, &mut gpu_pts, &GpuConfig::default());
        assert_eq!(cpu_pts, gpu_pts, "lockstep changed computed results");
        assert!(r.per_warp_nodes.iter().all(|&n| n > 0));
    }

    #[test]
    fn lockstep_per_point_counts_are_warp_union() {
        // All lanes of a warp get charged the warp's node count.
        let kernel = BinKernel::new(5, 17);
        let mut pts = vec![0u64; 64]; // 2 warps
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        for w in 0..2 {
            let warp_count = r.per_warp_nodes[w] as u32;
            for l in 0..32 {
                assert_eq!(r.stats.per_point_nodes[w * 32 + l], warp_count);
            }
        }
    }

    #[test]
    fn live_counts_are_each_lanes_own_walk() {
        // One call set: the pops a lane is live for are exactly the nodes
        // its independent walk visits, and they add up to the simulator's
        // live-lane visit counter.
        let kernel = BinKernel::new(6, 41);
        let mut ls_pts: Vec<u64> = (0..70).map(|i| i as u64 * 1000).collect();
        let mut ar_pts = ls_pts.clone();
        let ls = run(&kernel, &mut ls_pts, &GpuConfig::default());
        let ar = autoropes::run(&kernel, &mut ar_pts, &GpuConfig::default());
        assert_eq!(ls.per_point_live_nodes, ar.stats.per_point_nodes);
        assert_eq!(
            ls.per_point_live_nodes
                .iter()
                .map(|&v| u64::from(v))
                .sum::<u64>(),
            ls.launch.counters.node_visits
        );
        assert!(ar.per_point_live_nodes.is_empty());
    }

    #[test]
    fn lockstep_visits_at_least_the_individual_traversal() {
        let kernel = BinKernel::new(6, 23);
        let mut ls_pts = vec![0u64; 96];
        let mut ar_pts = vec![0u64; 96];
        let ls = run(&kernel, &mut ls_pts, &GpuConfig::default());
        let ar = autoropes::run(&kernel, &mut ar_pts, &GpuConfig::default());
        for (a, b) in ls
            .stats
            .per_point_nodes
            .iter()
            .zip(&ar.stats.per_point_nodes)
        {
            assert!(
                a >= b,
                "lockstep visited fewer nodes than the point's own traversal"
            );
        }
    }

    #[test]
    fn mask_occupancy_full_when_no_lane_truncates() {
        // No truncation: every lane stays live on every pop, so the mean
        // mask occupancy is exactly 1.
        let kernel = BinKernel::new(8, u32::MAX);
        let mut pts = vec![0u64; 64];
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        assert_eq!(r.mask_occupancy(), 1.0);
    }

    #[test]
    fn mask_occupancy_dilutes_under_truncation() {
        let kernel = BinKernel::new(6, 41);
        let mut pts: Vec<u64> = (0..96).map(|i| i * 1000).collect();
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        let occ = r.mask_occupancy();
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn lockstep_broadcast_loads_coalesce_better_than_autoropes() {
        let kernel = BinKernel::new(8, u32::MAX);
        let mut a = vec![0u64; 128];
        let mut b = vec![0u64; 128];
        let ls = run(&kernel, &mut a, &GpuConfig::default());
        let ar = autoropes::run(&kernel, &mut b, &GpuConfig::default());
        // Identical traversals here (no truncation): both visit every
        // node, but lockstep's node loads are broadcasts.
        assert!(
            ls.launch.counters.coalescing_efficiency()
                >= ar.launch.counters.coalescing_efficiency()
        );
    }

    #[test]
    fn guided_kernel_with_annotation_runs_and_matches() {
        let kernel = GuidedKernel::new(6);
        let mut cpu_pts: Vec<GuidedPoint> =
            (0..64).map(|i| GuidedPoint { id: i, acc: 0 }).collect();
        let mut gpu_pts = cpu_pts.clone();
        cpu::run_sequential(&kernel, &mut cpu_pts);
        run(&kernel, &mut gpu_pts, &GpuConfig::default());
        // Full-tree traversal with a commutative update: the vote changes
        // the order, not the result (§4.3's correctness claim).
        for (c, g) in cpu_pts.iter().zip(&gpu_pts) {
            assert_eq!(c.acc, g.acc);
        }
    }

    #[test]
    fn shared_stack_layout_pins_shared_memory() {
        let kernel = BinKernel::new(5, u32::MAX);
        let mut pts = vec![0u64; 32];
        let cfg = GpuConfig::default().with_shared_stack();
        let r = run(&kernel, &mut pts, &cfg);
        assert!(r.launch.resident_warps <= cfg.device.max_warps_per_sm);
        // Shared stack: stack traffic must not appear in global transactions.
        assert!(r.launch.counters.shared_accesses > 0);
    }

    #[test]
    fn stack_depth_within_bound() {
        let kernel = BinKernel::new(10, u32::MAX);
        let mut pts = vec![0u64; 32];
        let r = run(&kernel, &mut pts, &GpuConfig::default());
        // Binary DFS stack depth ≤ depth + 1.
        assert!(r.max_stack_depth <= 11 + 1, "depth {}", r.max_stack_depth);
    }

    #[test]
    fn lockstep_interleaved_global_stack_works_too() {
        let kernel = BinKernel::new(5, 19);
        let mut a = vec![0u64; 40];
        let mut b = a.clone();
        let shared = run(&kernel, &mut a, &GpuConfig::default().with_shared_stack());
        let global = run(&kernel, &mut b, &GpuConfig::default());
        assert_eq!(a, b);
        assert_eq!(shared.stats.per_point_nodes, global.stats.per_point_nodes);
        // Same traversal, different stack cost centers.
        assert!(shared.launch.counters.shared_accesses > global.launch.counters.shared_accesses);
    }

    #[test]
    fn stack_layout_enum_is_exported() {
        // Guard against the re-export being dropped from the crate root.
        let _ = StackLayout::SharedPerWarp;
    }
}

/// Panic path: guided kernel without the annotation.
#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::test_kernels::GuidedPoint;
    use gts_trees::layout::NodeBytes;
    use gts_trees::NodeId;

    struct UnannotatedGuided;
    impl TraversalKernel for UnannotatedGuided {
        type Point = GuidedPoint;
        type Args = ();
        const MAX_KIDS: usize = 2;
        const CALL_SETS: usize = 2;
        const CALL_SETS_EQUIVALENT: bool = false;
        fn n_nodes(&self) -> usize {
            3
        }
        fn is_leaf(&self, node: NodeId) -> bool {
            node > 0
        }
        fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
            self.is_leaf(node).then_some((0, 1))
        }
        fn node_bytes(&self) -> NodeBytes {
            NodeBytes::kd(2)
        }
        fn max_depth(&self) -> usize {
            1
        }
        fn root_args(&self) {}
        fn visit(
            &self,
            _p: &mut GuidedPoint,
            _node: NodeId,
            _args: (),
            _forced: Option<usize>,
            _kids: &mut ChildBuf<()>,
        ) -> VisitOutcome {
            VisitOutcome::Leaf
        }
    }

    #[test]
    #[should_panic(expected = "CALL_SETS_EQUIVALENT")]
    fn guided_without_annotation_is_refused() {
        let mut pts = vec![GuidedPoint { id: 0, acc: 0 }];
        let _ = run(&UnannotatedGuided, &mut pts, &GpuConfig::default());
    }
}
