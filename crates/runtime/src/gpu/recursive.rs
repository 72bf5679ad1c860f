//! The naïve recursive GPU baseline (paper §6.1).
//!
//! CUDA compute capability 2.0 supports device-side recursion, so the
//! paper's baseline maps Figure 1 onto the GPU unchanged. The costs this
//! executor models — and autoropes removes — are:
//!
//! * **call/return overhead** per node ([`gts_sim::CostModel::call_overhead`]),
//! * **stack-frame traffic** in DRAM-backed local memory (saved locals and
//!   the return address; autoropes needs neither, §3.2.2),
//! * **call-site serialization**: lanes that issue different recursive
//!   calls (guided kernels' two call sets) split the warp, and each side
//!   executes serially — “if one thread in a warp makes a method call, all
//!   other threads will wait until the call returns” (§4.1).
//!
//! Both masking variants are provided, as in the paper's evaluation: the
//! *non-lockstep* recursive baseline lets the hardware reconvergence stack
//! handle truncated lanes (divergent replays at every mask change), while
//! the *lockstep* variant predicates the truncation test and — for guided
//! kernels — votes a single call set (footnote 5 observes this helps the
//! recursive code too).

use gts_sim::mask::majority_vote;
use gts_sim::{WarpMask, WarpSim, WARP_SIZE};
use gts_trees::NodeId;

use crate::kernel::{ChildBuf, TraversalKernel, VisitOutcome};
use crate::report::GpuReport;

use super::{drive, scan_leaf_broadcast, GpuConfig, Scene};

/// Bytes of one recursion frame in local memory: return address + saved
/// node/arg registers + spilled locals. This is the storage the autoropes
/// transformation eliminates (§3.2.2).
const FRAME_BYTES: u64 = 64;

/// Run the naïve recursive traversal. `lockstep` selects the masking
/// variant (§6.1: “we use a masking technique similar to that described in
/// Section 4 to implement non-lockstep and lockstep variants of the
/// recursive implementation”).
pub fn run<K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    cfg: &GpuConfig,
    lockstep: bool,
) -> GpuReport {
    if lockstep {
        assert!(
            K::CALL_SETS == 1 || K::CALL_SETS_EQUIVALENT,
            "lockstep recursion of a guided kernel requires the CALL_SETS_EQUIVALENT annotation (§4.3)"
        );
    }
    // The "stack" region models the per-lane call frames in local memory;
    // frames are interleaved per thread like CUDA local memory.
    let base_entry = 4 + if K::ARGS_VARIANT { K::ARG_BYTES } else { 0 };
    let scene = Scene::build(
        kernel,
        points.len(),
        cfg,
        "call_frames",
        FRAME_BYTES - base_entry,
    );
    drive::<WarpSim<'_>, _, _>(kernel, points, cfg, &scene, |kernel, _warp, lanes, sim| {
        let n_lanes = lanes.len();
        let full = WarpMask::first(n_lanes);
        let mut ctx = Ctx {
            kernel,
            scene: &scene,
            lockstep,
            counts: vec![0u32; n_lanes],
            warp_nodes: 0,
            max_depth: 0,
            kids: Vec::with_capacity(K::MAX_KIDS),
        };
        warp_recurse(
            &mut ctx,
            sim,
            lanes,
            0,
            full,
            [kernel.root_args(); WARP_SIZE],
            0,
        );
        // Per-lane call frames in local memory: peak = deepest recursion ×
        // one frame per lane.
        sim.stack_peak(ctx.max_depth as u64 * scene.stack.entry_bytes() * n_lanes as u64);
        (ctx.counts, ctx.warp_nodes, ctx.max_depth)
    })
}

struct Ctx<'k, K: TraversalKernel> {
    kernel: &'k K,
    scene: &'k Scene,
    lockstep: bool,
    counts: Vec<u32>,
    warp_nodes: u64,
    max_depth: usize,
    kids: ChildBuf<K::Args>,
}

fn warp_recurse<K: TraversalKernel>(
    ctx: &mut Ctx<'_, K>,
    sim: &mut WarpSim<'_>,
    lanes: &mut [K::Point],
    node: NodeId,
    mask: WarpMask,
    args: [K::Args; WARP_SIZE],
    depth: usize,
) {
    if mask.none_active() {
        return;
    }
    // Call overhead + frame traffic in local memory: each live lane writes
    // its frame at its depth on the way in and reloads it on the way out
    // (interleaved per-thread layout, like CUDA local memory). These two
    // fat accesses per call edge are the storage cost the autoropes
    // transformation eliminates (§3.2.2: no locals, no return address).
    sim.call();
    ctx.scene.stack.access_per_lane(sim, mask, |_| depth as u64);
    ctx.max_depth = ctx.max_depth.max(depth + 1);
    ctx.warp_nodes += 1;

    // Node load: the lanes entered this call together, so the hot fragment
    // is a broadcast even in the naïve code.
    sim.load_broadcast(ctx.scene.tree.nodes0, mask, node as u64);
    sim.step(ctx.kernel.visit_insts());
    sim.visit_node(mask.count() as u64);

    // §4.3 vote for the lockstep variant of a guided kernel.
    let forced = if ctx.lockstep && K::CALL_SETS > 1 && !ctx.kernel.is_leaf(node) {
        majority_vote(
            mask,
            |l| ctx.kernel.choose(&lanes[l], node, args[l]),
            K::CALL_SETS,
        )
    } else {
        None
    };

    // Execute visits; group continuing lanes by the call set they chose.
    // Each group shares a child *order*; arguments stay per-lane (a lane's
    // split-plane bound is its own even when the warp calls together).
    struct Group<A> {
        set: usize,
        mask: WarpMask,
        slot_nodes: Vec<NodeId>,
        slot_args: Vec<[A; WARP_SIZE]>,
    }
    let mut groups: Vec<Group<K::Args>> = Vec::new();
    let mut new_mask = WarpMask::NONE;
    let mut leaf: Option<(u32, u32)> = None;
    for l in mask.iter_active() {
        ctx.counts[l] += 1;
        ctx.kids.clear();
        match ctx
            .kernel
            .visit(&mut lanes[l], node, args[l], forced, &mut ctx.kids)
        {
            VisitOutcome::Truncated => {}
            VisitOutcome::Leaf => {
                leaf = ctx.kernel.leaf_range(node);
            }
            VisitOutcome::Descended { call_set } => {
                new_mask = new_mask.set(l);
                let group = match groups.iter_mut().find(|g| g.set == call_set) {
                    Some(g) => g,
                    None => {
                        groups.push(Group {
                            set: call_set,
                            mask: WarpMask::NONE,
                            slot_nodes: ctx.kids.iter().map(|c| c.node).collect(),
                            slot_args: vec![args; ctx.kids.len()],
                        });
                        groups.last_mut().expect("just pushed")
                    }
                };
                group.mask = group.mask.set(l);
                debug_assert_eq!(
                    group.slot_nodes,
                    ctx.kids.iter().map(|c| c.node).collect::<Vec<_>>(),
                    "lanes in one call-set group disagreed on child order"
                );
                for (j, c) in ctx.kids.iter().enumerate() {
                    group.slot_args[j][l] = c.args;
                }
            }
        }
    }

    // Divergence accounting: the truncation split replays unless the
    // lockstep variant predicated it away (footnote 5).
    if !ctx.lockstep && new_mask != mask && new_mask.any_active() {
        sim.diverge(2);
    }

    if let Some((first, count)) = leaf {
        scan_leaf_broadcast(ctx.kernel, ctx.scene, sim, mask, first, count);
    }

    if new_mask.none_active() {
        return;
    }
    if let Some(nodes1) = ctx.scene.tree.nodes1 {
        sim.load_broadcast(nodes1, new_mask, node as u64);
    }

    // Call-site serialization: each call-set group executes its child
    // sequence while the other groups wait.
    sim.diverge(groups.len() as u64);
    for g in groups {
        for j in 0..g.slot_nodes.len() {
            warp_recurse(
                ctx,
                sim,
                lanes,
                g.slot_nodes[j],
                g.mask,
                g.slot_args[j],
                depth + 1,
            );
        }
    }
    // Return path: restore the frame.
    sim.step(1);
    ctx.scene
        .stack
        .access_per_lane(sim, new_mask, |_| depth as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use crate::gpu::autoropes;
    use crate::test_kernels::{BinKernel, GuidedKernel, GuidedPoint};

    #[test]
    fn recursive_gpu_matches_cpu_results() {
        let kernel = BinKernel::new(6, 29);
        let mut cpu_pts: Vec<u64> = (0..70).map(|i| i as u64).collect();
        let mut gpu_pts = cpu_pts.clone();
        cpu::run_sequential(&kernel, &mut cpu_pts);
        run(&kernel, &mut gpu_pts, &GpuConfig::default(), false);
        assert_eq!(cpu_pts, gpu_pts);
    }

    #[test]
    fn recursion_pays_call_overhead_autoropes_does_not() {
        // Launch enough warps for realistic occupancy: with memory stalls
        // hidden by warp multithreading, the recursive baseline's per-edge
        // call overhead and fat frame traffic dominate — the regime the
        // paper's 200k–1M-point evaluations run in.
        let kernel = BinKernel::new(7, u32::MAX);
        let mut a = vec![0u64; 20_000];
        let mut b = vec![0u64; 20_000];
        let cfg = GpuConfig::default();
        let rec = run(&kernel, &mut a, &cfg, false);
        let ar = autoropes::run(&kernel, &mut b, &cfg);
        assert!(rec.launch.counters.calls > 0);
        assert_eq!(ar.launch.counters.calls, 0);
        // The paper's headline: autoropes is much faster than recursion.
        assert!(
            rec.launch.cycles > 1.5 * ar.launch.cycles,
            "recursive {} vs autoropes {}",
            rec.launch.cycles,
            ar.launch.cycles
        );
    }

    #[test]
    fn guided_recursion_serializes_call_sets() {
        let kernel = GuidedKernel::new(6);
        let mk = || {
            (0..32)
                .map(|i| GuidedPoint { id: i, acc: 0 })
                .collect::<Vec<_>>()
        };
        let cfg = GpuConfig::default();
        let non_lockstep = run(&kernel, &mut mk(), &cfg, false);
        let lockstep = run(&kernel, &mut mk(), &cfg, true);
        // The §4.3 vote collapses the two call sets into one dynamic set,
        // so the lockstep variant replays far less.
        assert!(
            non_lockstep.launch.counters.divergent_replays
                > lockstep.launch.counters.divergent_replays
        );
        assert!(non_lockstep.launch.cycles > lockstep.launch.cycles);
    }

    #[test]
    fn lockstep_recursion_matches_results_for_equivalent_kernels() {
        let kernel = GuidedKernel::new(5);
        let mut cpu_pts: Vec<GuidedPoint> =
            (0..48).map(|i| GuidedPoint { id: i, acc: 0 }).collect();
        let mut gpu_pts = cpu_pts.clone();
        cpu::run_sequential(&kernel, &mut cpu_pts);
        run(&kernel, &mut gpu_pts, &GpuConfig::default(), true);
        for (c, g) in cpu_pts.iter().zip(&gpu_pts) {
            assert_eq!(c.acc, g.acc);
        }
    }

    #[test]
    fn recursion_depth_tracked() {
        let kernel = BinKernel::new(9, u32::MAX);
        let mut pts = vec![0u64; 32];
        let r = run(&kernel, &mut pts, &GpuConfig::default(), false);
        assert_eq!(r.max_stack_depth, 10);
    }
}
