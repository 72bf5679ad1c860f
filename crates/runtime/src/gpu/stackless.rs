//! Stackless executors: traversals that keep **no rope stack at all**.
//!
//! The paper's executors (§3 autoropes, §4 lockstep) trade the recursive
//! baseline's call frames for an explicit rope stack. These two executors
//! go one step further and eliminate the stack itself — their traversal
//! state is one or two node ids per lane, held in registers. Observable
//! consequence in the simulator: the `rope_stack` region records **zero
//! transactions** and [`gts_sim::SimCounters::stack_bytes_peak`] is 0.
//!
//! * [`run_skip`] — the ropes-free *skip-link* walk over any left-biased
//!   preorder tree (kd, BVH, …): descend to `n + 1`, escape to `skip[n]`
//!   (the Apetrei-style escape link, a function of the tree's right-child
//!   links: [`gts_trees::linearize::skip_links`]). One live node id per lane.
//!   Because the walk hard-codes the canonical left-first order it demands
//!   the same annotation lockstep does: a guided kernel must declare
//!   `CALL_SETS_EQUIVALENT` (§4.3), and per-node variant arguments cannot
//!   ride along (there is nowhere to keep them) — pruning must be
//!   re-derivable at the node, e.g. from its bounding box.
//!
//! * [`run_wald`] — the stack-free kd walk of Wald's left-balanced
//!   implicit-layout tree ([`gts_trees::LbKdTree`]): children at
//!   `2n + 1` / `2n + 2`, parents recomputed arithmetically, traversal
//!   state just `(current, previous)`. Backtracking re-visits interior
//!   nodes (extra node loads instead of stack traffic); the far child is
//!   culled against the query's *current* shrunken radius at decision
//!   time, which recovers most of what a stack's deferred entries would
//!   have pruned. Consumes a [`PointRule`] directly: there are no child
//!   pushes for [`TraversalKernel`]'s visit contract to describe.
//!
//! Neither executor's node schedule depends on how sorted the batch is —
//! there is no per-warp stack to thrash — which is why the §4.4 policy
//! prefers them on low-similarity batches.

use gts_sim::{AddressMap, MemSpace, Meter, WarpMask, WarpSim, WARP_SIZE};
use gts_trees::layout::{NodeBytes, NodeLayout, TreeRegions};
use gts_trees::{LbKdTree, NodeId, NO_NODE};

use crate::kernel::{ChildBuf, PointRule, TraversalKernel, VisitOutcome};
use crate::report::GpuReport;
use crate::stack::{StackLayout, StackRegion};

use super::{drive, drive_points, scan_leaves_per_lane, GpuConfig, Scene};

/// Run the ropes-free skip-link traversal of `points` over `kernel`.
///
/// `skip` is the tree's escape-link table
/// ([`gts_trees::linearize::skip_links`] of its right-child links); the
/// tree must be in left-biased preorder with the left child at `n + 1` —
/// the invariant every builder in `gts-trees` maintains.
///
/// # Panics
/// Panics if the kernel is guided without the §4.3 equivalence annotation
/// (the walk forces the canonical left-first order), if it carries
/// traversal-variant arguments (a stackless walk has nowhere to keep
/// them), or if `skip` does not match the kernel's node count.
pub fn run_skip<K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    skip: &[NodeId],
    cfg: &GpuConfig,
) -> GpuReport {
    run_skip_on::<WarpSim<'_>, K>(kernel, points, skip, cfg)
}

/// [`run_skip`] under meter `M`.
pub fn run_skip_on<M: Meter, K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    skip: &[NodeId],
    cfg: &GpuConfig,
) -> GpuReport {
    assert!(
        K::CALL_SETS == 1 || K::CALL_SETS_EQUIVALENT,
        "skip-link traversal forces the canonical child order; a guided kernel requires the CALL_SETS_EQUIVALENT annotation (§4.3)"
    );
    assert!(
        !K::ARGS_VARIANT,
        "skip-link traversal cannot carry traversal-variant arguments; prune from per-node state (e.g. bounding boxes) instead"
    );
    assert_eq!(
        skip.len(),
        kernel.n_nodes(),
        "skip-link table does not match the tree"
    );
    // The scene keeps a stack region for shape uniformity, but the walk
    // never touches it: its absence from per-region transactions *is* the
    // result. Pin the global layout so no shared memory gets pinned either.
    let cfg = GpuConfig {
        stack_layout: StackLayout::InterleavedGlobal,
        ..cfg.clone()
    };
    let scene = Scene::build(kernel, points.len(), &cfg, "rope_stack", 0);
    drive::<M, _, _>(kernel, points, &cfg, &scene, |kernel, _warp, lanes, sim| {
        skip_warp_body(kernel, &scene, skip, lanes, sim)
    })
}

fn skip_warp_body<K: TraversalKernel>(
    kernel: &K,
    scene: &Scene,
    skip: &[NodeId],
    lanes: &mut [K::Point],
    sim: &mut impl Meter,
) -> (Vec<u32>, u64, usize) {
    let n_lanes = lanes.len();
    let mut curr = [NO_NODE; WARP_SIZE];
    for c in curr.iter_mut().take(n_lanes) {
        *c = 0;
    }
    let mut counts = vec![0u32; n_lanes];
    let mut warp_iters = 0u64;
    let mut kids: ChildBuf<K::Args> = Vec::with_capacity(K::MAX_KIDS);

    loop {
        let active = WarpMask::ballot(|l| l < n_lanes && curr[l] != NO_NODE);
        if active.none_active() {
            break;
        }
        warp_iters += 1;
        // Loop header: done test + next-node select. No pop — the next
        // node is computed, not loaded.
        sim.step(2);
        sim.load(scene.tree.nodes0, active, |l| curr[l] as u64);
        sim.step(kernel.visit_insts());
        sim.visit_node(active.count() as u64);

        // Bit `k` set: some lane's outcome was 1 truncated, 2 leaf, 3 descend.
        let mut outcome_kinds = 0u32;
        let mut leaf_of: [Option<(u32, u32)>; WARP_SIZE] = [None; WARP_SIZE];
        let mut descend_mask = WarpMask::NONE;
        for l in active.iter_active() {
            let node = curr[l];
            counts[l] += 1;
            kids.clear();
            match kernel.visit(&mut lanes[l], node, kernel.root_args(), None, &mut kids) {
                VisitOutcome::Truncated => {
                    outcome_kinds |= 1 << 1;
                    curr[l] = skip[node as usize];
                }
                VisitOutcome::Leaf => {
                    outcome_kinds |= 1 << 2;
                    leaf_of[l] = kernel.leaf_range(node);
                    curr[l] = skip[node as usize];
                }
                VisitOutcome::Descended { .. } => {
                    // The left-biased preorder invariant puts the first
                    // child at n + 1; the guided order (if any) is ignored.
                    outcome_kinds |= 1 << 3;
                    descend_mask = descend_mask.set(l);
                    curr[l] = node + 1;
                }
            }
        }

        // Branch divergence: distinct outcome classes among active lanes.
        sim.diverge(u64::from(outcome_kinds.count_ones()));

        if active.iter_active().any(|l| leaf_of[l].is_some()) {
            scan_leaves_per_lane(kernel, scene, sim, &leaf_of);
        }
        // Descending lanes read the cold fragment of the node they leave.
        if descend_mask.any_active() {
            if let Some(nodes1) = scene.tree.nodes1 {
                sim.load(nodes1, descend_mask, |l| (curr[l] - 1) as u64);
            }
        }
    }
    // Stackless: depth 0, and `stack_bytes_peak` stays at its zero default.
    (counts, warp_iters, 0)
}

/// Run the Wald stack-free walk of `points` over the left-balanced
/// implicit kd-tree `tree`, answering `rule`.
///
/// One point per node (the node's own coordinate is the split plane),
/// children implicit at `2n + 1` / `2n + 2` — no leaf buckets and no child
/// pushes, so all the walk needs from the application is the
/// [`PointRule`]: each arrival from the parent offers the node's point,
/// and the far child is entered iff the split plane lies within the
/// rule's *current* bound. Traversal state per lane is
/// `(current, previous)`; the parent is recomputed as `(n − 1) / 2`. Every
/// step classifies itself from where it came: arriving from the parent
/// processes the node and descends toward the near child; returning from
/// the near child tries the far child; returning from the far child (or a
/// culled far) backtracks.
///
/// **Index space**: offers name points through the tree's `perm`, i.e. as
/// indices into the array the [`LbKdTree`] was built over. When that array
/// is a pointer tree's reordered `points` (how `gts-service` builds it),
/// the ids land in the same space a [`TraversalKernel`] over that tree
/// reports.
pub fn run_wald<const D: usize, R: PointRule<D>>(
    tree: &LbKdTree<D>,
    rule: &R,
    points: &mut [R::State],
    cfg: &GpuConfig,
) -> GpuReport {
    run_wald_on::<WarpSim<'_>, D, R>(tree, rule, points, cfg)
}

/// [`run_wald`] under meter `M`.
pub fn run_wald_on<M: Meter, const D: usize, R: PointRule<D>>(
    tree: &LbKdTree<D>,
    rule: &R,
    points: &mut [R::State],
    cfg: &GpuConfig,
) -> GpuReport {
    assert!(tree.n_nodes() > 0, "Wald walk over an empty tree");
    let scene = wald_scene::<D, R>(tree.n_nodes(), points.len());
    drive_points::<M, _, _>(points, cfg, &scene, |_warp, lanes, sim| {
        wald_warp_body(tree, rule, &scene, lanes, sim)
    })
}

/// Address space of a Wald launch: monolithic node records (the point's
/// coordinates only — the axis is `depth % D`, the links are arithmetic,
/// and there is no cold fragment to defer), no leaf buckets, and a
/// placeholder stack region that never sees a transaction.
fn wald_scene<const D: usize, R: PointRule<D>>(n_nodes: usize, n_points: usize) -> Scene {
    let mut map = AddressMap::new();
    let coords = D as u64 * 4;
    let node_bytes = NodeBytes {
        hot: coords,
        cold: 0,
        leaf_elem: coords,
    };
    let tree = TreeRegions::alloc(
        &mut map,
        "tree",
        node_bytes,
        NodeLayout::Monolithic,
        n_nodes as u64,
        1,
    );
    let points = map.alloc(
        "points",
        MemSpace::Global,
        n_points.max(1) as u64,
        R::POINT_BYTES,
    );
    let stack = StackRegion::alloc(&mut map, "rope_stack", StackLayout::InterleavedGlobal, 1, 4);
    Scene {
        map,
        tree,
        points,
        stack,
        shared_bytes_per_warp: 0,
    }
}

fn wald_warp_body<const D: usize, R: PointRule<D>>(
    tree: &LbKdTree<D>,
    rule: &R,
    scene: &Scene,
    lanes: &mut [R::State],
    sim: &mut impl Meter,
) -> (Vec<u32>, u64, usize) {
    let n_lanes = lanes.len();
    let n_nodes = tree.n_nodes() as u64;
    let mut curr = [NO_NODE; WARP_SIZE];
    let mut prev = [NO_NODE; WARP_SIZE];
    for c in curr.iter_mut().take(n_lanes) {
        *c = 0;
    }
    let mut counts = vec![0u32; n_lanes];
    // Steps on which some lane arrived at a node from its parent — the
    // warp's node visits; a step of pure backtracking re-loads and visits
    // nothing.
    let mut warp_nodes = 0u64;

    loop {
        let active = WarpMask::ballot(|l| l < n_lanes && curr[l] != NO_NODE);
        if active.none_active() {
            break;
        }
        // Loop header: done test + parent/near arithmetic (registers only).
        sim.step(2);
        // The node is (re)loaded on every step, including backtracking —
        // the walk pays node reloads where a stack would pay entry traffic.
        sim.load(scene.tree.nodes0, active, |l| curr[l] as u64);
        sim.step(R::VISIT_INSTS);

        let mut arrivals = 0u64;
        // Bit `k` set: some lane took step kind 1 enter-near, 2 enter-far,
        // 3..=4 backtrack variants.
        let mut outcome_kinds = 0u32;
        for l in active.iter_active() {
            let n = curr[l];
            let point = &tree.points[n as usize];
            let parent = if n == 0 { NO_NODE } else { (n - 1) / 2 };
            let from_parent = prev[l] == parent;
            if from_parent {
                counts[l] += 1;
                arrivals += 1;
                let d2 = point.dist2(R::pos(&lanes[l]));
                rule.offer(&mut lanes[l], d2, tree.perm[n as usize]);
            }
            let axis = tree.split_dim[n as usize] as usize;
            let sd = R::pos(&lanes[l])[axis] - point[axis];
            let lo = 2 * n as u64 + 1;
            let (near, far) = if sd < 0.0 { (lo, lo + 1) } else { (lo + 1, lo) };
            let far_in_range = far < n_nodes && sd * sd <= rule.bound(&lanes[l]);
            let (next, kind) = if from_parent {
                if near < n_nodes {
                    (near as NodeId, 1)
                } else if far_in_range {
                    (far as NodeId, 2)
                } else {
                    (parent, 3)
                }
            } else if prev[l] as u64 == near && far_in_range {
                // Returning from the near side: the far child is culled
                // against the *current* radius, not the one at entry.
                (far as NodeId, 2)
            } else {
                (parent, 4)
            };
            outcome_kinds |= 1 << kind;
            prev[l] = n;
            curr[l] = next;
        }
        if arrivals > 0 {
            warp_nodes += 1;
            sim.visit_node(arrivals);
        }
        sim.diverge(u64::from(outcome_kinds.count_ones()));
    }
    // Stackless: depth 0, and `stack_bytes_peak` stays at its zero default.
    (counts, warp_nodes, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{autoropes, lockstep};
    use crate::kernel::Child;
    use crate::{cpu, StackLayout};
    use gts_trees::{linearize, LbKdTree, PointN};
    use rand::{Rng, SeedableRng};

    /// BinKernel's heap layout violates the left-child-at-`n + 1` contract
    /// the skip walk requires, so the skip tests use this left-biased
    /// preorder complete binary tree with the same accumulate-visited-ids
    /// semantics (truncation at `limit`).
    struct PreBin {
        right: Vec<NodeId>,
        leaf_idx: Vec<u32>,
        limit: NodeId,
        depth: usize,
    }

    impl PreBin {
        fn new(depth: usize, limit: NodeId) -> Self {
            fn rec(right: &mut Vec<NodeId>, h: usize) {
                let id = right.len();
                right.push(NO_NODE);
                if h == 0 {
                    return;
                }
                rec(right, h - 1);
                right[id] = right.len() as NodeId;
                rec(right, h - 1);
            }
            let mut right = Vec::new();
            rec(&mut right, depth);
            let mut leaf_idx = vec![u32::MAX; right.len()];
            let mut n_leaves = 0;
            for (i, &r) in right.iter().enumerate() {
                if r == NO_NODE {
                    leaf_idx[i] = n_leaves;
                    n_leaves += 1;
                }
            }
            PreBin {
                right,
                leaf_idx,
                limit,
                depth,
            }
        }
    }

    impl TraversalKernel for PreBin {
        type Point = u64;
        type Args = ();
        const MAX_KIDS: usize = 2;
        const CALL_SETS: usize = 1;
        fn n_nodes(&self) -> usize {
            self.right.len()
        }
        fn is_leaf(&self, n: NodeId) -> bool {
            self.right[n as usize] == NO_NODE
        }
        fn leaf_range(&self, n: NodeId) -> Option<(u32, u32)> {
            self.is_leaf(n).then(|| (self.leaf_idx[n as usize], 1))
        }
        fn node_bytes(&self) -> NodeBytes {
            NodeBytes::kd(2)
        }
        fn max_depth(&self) -> usize {
            self.depth
        }
        fn root_args(&self) {}
        fn visit(
            &self,
            p: &mut u64,
            node: NodeId,
            _args: (),
            _forced: Option<usize>,
            kids: &mut ChildBuf<()>,
        ) -> VisitOutcome {
            if node >= self.limit {
                return VisitOutcome::Truncated;
            }
            *p += node as u64;
            if self.is_leaf(node) {
                return VisitOutcome::Leaf;
            }
            kids.push(Child {
                node: node + 1,
                args: (),
            });
            kids.push(Child {
                node: self.right[node as usize],
                args: (),
            });
            VisitOutcome::Descended { call_set: 0 }
        }
    }

    #[test]
    fn skip_walk_matches_cpu_and_autoropes_exactly() {
        let kernel = PreBin::new(6, 41);
        let skip = linearize::skip_links(&kernel.right);
        let mut cpu_pts: Vec<u64> = (0..100).map(|i| i * 1000).collect();
        let mut sk_pts = cpu_pts.clone();
        let mut ar_pts = cpu_pts.clone();
        let cpu_r = cpu::run_sequential(&kernel, &mut cpu_pts);
        let cfg = GpuConfig::default();
        let sk = run_skip(&kernel, &mut sk_pts, &skip, &cfg);
        let ar = autoropes::run(&kernel, &mut ar_pts, &cfg);
        assert_eq!(cpu_pts, sk_pts, "skip walk changed computed results");
        assert_eq!(sk_pts, ar_pts);
        // Truncation at a node skips exactly its subtree in both
        // executors, so visit counts match node for node.
        assert_eq!(cpu_r.stats.per_point_nodes, sk.stats.per_point_nodes);
        assert_eq!(sk.stats.per_point_nodes, ar.stats.per_point_nodes);
        assert_eq!(
            sk.launch.counters.node_visits,
            ar.launch.counters.node_visits
        );
    }

    #[test]
    fn skip_walk_has_zero_stack_traffic_and_footprint() {
        let kernel = PreBin::new(7, u32::MAX);
        let skip = linearize::skip_links(&kernel.right);
        let cfg = GpuConfig::default();
        let mut sk_pts = vec![0u64; 200];
        let mut ar_pts = vec![0u64; 200];
        let sk = run_skip(&kernel, &mut sk_pts, &skip, &cfg);
        let ar = autoropes::run(&kernel, &mut ar_pts, &cfg);
        let stack_tx = |r: &GpuReport| {
            r.launch
                .counters
                .per_region_transactions
                .iter()
                .filter(|(k, _)| k.contains("stack"))
                .map(|(_, v)| *v)
                .sum::<u64>()
        };
        assert_eq!(stack_tx(&sk), 0, "skip walk touched the rope stack");
        assert!(
            stack_tx(&ar) > 0,
            "autoropes baseline must pay stack traffic"
        );
        assert_eq!(sk.launch.counters.stack_bytes_peak, 0);
        assert!(ar.launch.counters.stack_bytes_peak > 0);
        assert_eq!(sk.max_stack_depth, 0);
    }

    #[test]
    fn skip_walk_shared_stack_config_pins_no_shared_memory() {
        // Even under a shared-stack config the stackless walk must not pin
        // shared memory (which would silently tax occupancy).
        let kernel = PreBin::new(5, u32::MAX);
        let skip = linearize::skip_links(&kernel.right);
        let mut pts = vec![0u64; 64];
        let cfg = GpuConfig::default().with_shared_stack();
        let r = run_skip(&kernel, &mut pts, &skip, &cfg);
        assert_eq!(r.launch.counters.shared_accesses, 0);
    }

    #[test]
    fn stackful_executors_report_their_footprints() {
        let kernel = PreBin::new(6, u32::MAX);
        let cfg = GpuConfig::default();
        let mut a = vec![0u64; 64];
        let mut b = vec![0u64; 64];
        let ar = autoropes::run(&kernel, &mut a, &cfg);
        let ls = lockstep::run(&kernel, &mut b, &cfg);
        // Autoropes: one 4-byte entry per lane per level; lockstep shares
        // one (4 + 4)-byte entry across the warp — far smaller.
        assert_eq!(
            ar.launch.counters.stack_bytes_peak,
            ar.max_stack_depth as u64 * 4 * 32
        );
        assert_eq!(
            ls.launch.counters.stack_bytes_peak,
            ls.max_stack_depth as u64 * 8
        );
        assert!(ls.launch.counters.stack_bytes_peak < ar.launch.counters.stack_bytes_peak);
    }

    struct VariantArgs;
    impl TraversalKernel for VariantArgs {
        type Point = u64;
        type Args = f32;
        const MAX_KIDS: usize = 2;
        const CALL_SETS: usize = 1;
        const ARGS_VARIANT: bool = true;
        const ARG_BYTES: u64 = 4;
        fn n_nodes(&self) -> usize {
            1
        }
        fn is_leaf(&self, _n: NodeId) -> bool {
            true
        }
        fn leaf_range(&self, _n: NodeId) -> Option<(u32, u32)> {
            Some((0, 1))
        }
        fn node_bytes(&self) -> NodeBytes {
            NodeBytes::kd(2)
        }
        fn max_depth(&self) -> usize {
            0
        }
        fn root_args(&self) -> f32 {
            0.0
        }
        fn visit(
            &self,
            _p: &mut u64,
            _node: NodeId,
            _args: f32,
            _forced: Option<usize>,
            _kids: &mut ChildBuf<f32>,
        ) -> VisitOutcome {
            VisitOutcome::Leaf
        }
    }

    #[test]
    #[should_panic(expected = "traversal-variant arguments")]
    fn skip_walk_refuses_variant_args() {
        let mut pts = vec![0u64; 1];
        let _ = run_skip(&VariantArgs, &mut pts, &[NO_NODE], &GpuConfig::default());
    }

    // ---- Wald walker ----

    #[derive(Clone)]
    struct NnState {
        pos: PointN<2>,
        best_d2: f32,
        best: u32,
    }

    /// Plain nearest neighbor (self-matches included).
    struct Nearest;

    impl PointRule<2> for Nearest {
        type State = NnState;
        const GUIDED: bool = true;
        fn pos(p: &NnState) -> &PointN<2> {
            &p.pos
        }
        fn bound(&self, p: &NnState) -> f32 {
            p.best_d2
        }
        fn offer(&self, p: &mut NnState, d2: f32, idx: u32) {
            if d2 < p.best_d2 {
                p.best_d2 = d2;
                p.best = idx;
            }
        }
    }

    fn random_pts(n: usize, seed: u64) -> Vec<PointN<2>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| PointN(std::array::from_fn(|_| rng.gen_range(-100.0f32..100.0))))
            .collect()
    }

    #[test]
    fn wald_nn_matches_brute_force() {
        let data = random_pts(300, 11);
        let tree = LbKdTree::build(&data);
        let queries = random_pts(64, 12);
        let mut states: Vec<NnState> = queries
            .iter()
            .map(|&pos| NnState {
                pos,
                best_d2: f32::INFINITY,
                best: u32::MAX,
            })
            .collect();
        let r = run_wald(&tree, &Nearest, &mut states, &GpuConfig::default());
        for (q, s) in queries.iter().zip(&states) {
            let (bi, bd) = data
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u32, q.dist2(p)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(s.best_d2, bd, "wrong NN distance");
            assert_eq!(s.best, bi, "wrong NN id");
        }
        assert!(r.launch.counters.node_visits > 0);
        // Pruning must engage: nobody visits the whole tree per query.
        assert!(r
            .stats
            .per_point_nodes
            .iter()
            .all(|&c| (c as usize) < tree.n_nodes()));
    }

    #[test]
    fn wald_has_zero_stack_traffic() {
        let data = random_pts(500, 21);
        let tree = LbKdTree::build(&data);
        let mut states: Vec<NnState> = random_pts(100, 22)
            .into_iter()
            .map(|pos| NnState {
                pos,
                best_d2: f32::INFINITY,
                best: u32::MAX,
            })
            .collect();
        let r = run_wald(&tree, &Nearest, &mut states, &GpuConfig::default());
        let stack_tx: u64 = r
            .launch
            .counters
            .per_region_transactions
            .iter()
            .filter(|(k, _)| k.contains("stack"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(stack_tx, 0);
        assert_eq!(r.launch.counters.stack_bytes_peak, 0);
        assert_eq!(r.max_stack_depth, 0);
        assert_eq!(r.launch.counters.calls, 0);
    }

    #[test]
    fn wald_single_node_tree() {
        let data = random_pts(1, 31);
        let tree = LbKdTree::build(&data);
        let mut states = vec![NnState {
            pos: PointN([1.0, 2.0]),
            best_d2: f32::INFINITY,
            best: u32::MAX,
        }];
        run_wald(&tree, &Nearest, &mut states, &GpuConfig::default());
        assert_eq!(states[0].best, 0);
    }

    #[test]
    fn wald_host_thread_count_does_not_change_results() {
        let data = random_pts(400, 41);
        let tree = LbKdTree::build(&data);
        let mk = || -> Vec<NnState> {
            random_pts(300, 42)
                .into_iter()
                .map(|pos| NnState {
                    pos,
                    best_d2: f32::INFINITY,
                    best: u32::MAX,
                })
                .collect()
        };
        let mut a = mk();
        let mut b = mk();
        let ra = run_wald(
            &tree,
            &Nearest,
            &mut a,
            &GpuConfig::default().with_host_threads(1),
        );
        let rb = run_wald(
            &tree,
            &Nearest,
            &mut b,
            &GpuConfig::default().with_host_threads(8),
        );
        assert_eq!(ra.stats.per_point_nodes, rb.stats.per_point_nodes);
        assert_eq!(ra.launch.cycles, rb.launch.cycles);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.best, y.best);
        }
    }

    #[test]
    fn skip_walk_insensitive_to_batch_order() {
        // What sets the stackless walk apart from lockstep: shuffling the
        // batch leaves the model time unchanged (per-warp work just
        // permutes).
        let kernel = PreBin::new(7, 83);
        let skip = linearize::skip_links(&kernel.right);
        let cfg = GpuConfig::default();
        let mut sorted: Vec<u64> = (0..256).map(|i| i * 7).collect();
        let mut shuffled = sorted.clone();
        // Deterministic shuffle.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let rs = run_skip(&kernel, &mut sorted, &skip, &cfg);
        let rr = run_skip(&kernel, &mut shuffled, &skip, &cfg);
        // Same total work either way; this kernel's schedule is
        // point-independent so even the cycle model agrees.
        assert_eq!(
            rs.launch.counters.node_visits,
            rr.launch.counters.node_visits
        );
        let _ = StackLayout::InterleavedGlobal;
    }
}
