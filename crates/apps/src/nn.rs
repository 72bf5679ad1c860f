//! Nearest Neighbor over a midpoint-split kd-tree (paper §6.1.2: “a
//! variation of nearest neighbor search with a different implementation of
//! the kd-tree structure”).
//!
//! Unlike kNN's bounding-box pruning, this implementation prunes with
//! **split-plane distances**: the recursive call to the far child carries
//! the squared distance from the query to the separating plane, and the
//! visit truncates when that carried bound already exceeds the current
//! best. The bound is a *traversal-variant argument* — exactly the `arg`
//! of the paper's Figure 5/7 — so `ARGS_VARIANT` is set and the value
//! rides the rope stack.
//!
//! Self-matches are excluded: queries drawn from the dataset search for
//! the nearest *distinct-position* neighbor (a zero-distance match would
//! collapse every traversal immediately, which does not match the NN
//! traversal lengths the paper reports).

use gts_runtime::{Child, ChildBuf, PointRule, TraversalKernel, VisitOutcome};
use gts_trees::layout::NodeBytes;
use gts_trees::{KdTree, NodeId, PointN};

use crate::kd::KdBox;

/// Traversal state of one NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct NnPoint<const D: usize> {
    /// Query position.
    pub pos: PointN<D>,
    /// Best squared distance found so far.
    pub best_d2: f32,
    /// Index (in the tree's reordered point array) of the best neighbor,
    /// or `u32::MAX` when none was found. Map through the tree's `perm`
    /// for the original dataset index.
    pub best_idx: u32,
}

impl<const D: usize> NnPoint<D> {
    /// Fresh query at `pos`.
    pub fn new(pos: PointN<D>) -> Self {
        NnPoint {
            pos,
            best_d2: f32::INFINITY,
            best_idx: u32::MAX,
        }
    }
}

/// NN's `truncate?`/`update`: keep the strictly closest point at a
/// strictly nonzero distance; prune beyond the best so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct NnRule;

impl<const D: usize> PointRule<D> for NnRule {
    type State = NnPoint<D>;
    const GUIDED: bool = true;

    fn pos(p: &NnPoint<D>) -> &PointN<D> {
        &p.pos
    }
    fn bound(&self, p: &NnPoint<D>) -> f32 {
        p.best_d2
    }
    fn offer(&self, p: &mut NnPoint<D>, d2: f32, idx: u32) {
        if d2 > 0.0 && d2 < p.best_d2 {
            p.best_d2 = d2;
            p.best_idx = idx;
        }
    }
    /// The best pair kept in locals for the whole bucket.
    #[inline]
    fn offer_bucket(&self, p: &mut NnPoint<D>, d2: &[f32], ids: &[u32]) {
        let (mut best_d2, mut best_idx) = (p.best_d2, p.best_idx);
        for (&d2, &idx) in d2.iter().zip(ids) {
            if d2 > 0.0 && d2 < best_d2 {
                (best_d2, best_idx) = (d2, idx);
            }
        }
        (p.best_d2, p.best_idx) = (best_d2, best_idx);
    }
}

/// The NN kernel over a midpoint-split kd-tree: [`NnRule`] under
/// split-plane pruning.
pub struct NnKernel<'t, const D: usize> {
    tree: &'t KdTree<D>,
    depth: usize,
}

impl<'t, const D: usize> NnKernel<'t, D> {
    /// Kernel over `tree` (build it with
    /// [`gts_trees::SplitPolicy::MidpointWidest`] for the paper's NN
    /// benchmark shape; any kd-tree works).
    pub fn new(tree: &'t KdTree<D>) -> Self {
        NnKernel {
            tree,
            depth: tree.depth(),
        }
    }
}

impl<const D: usize> TraversalKernel for NnKernel<'_, D> {
    type Point = NnPoint<D>;
    /// Squared distance from the query to the plane separating it from
    /// this subtree (0 for the subtree containing the query).
    type Args = f32;
    const MAX_KIDS: usize = 2;
    const CALL_SETS: usize = 2;
    const CALL_SETS_EQUIVALENT: bool = true;
    const ARGS_VARIANT: bool = true;
    const ARG_BYTES: u64 = 4;

    fn n_nodes(&self) -> usize {
        self.tree.n_nodes()
    }
    fn is_leaf(&self, node: NodeId) -> bool {
        self.tree.is_leaf(node)
    }
    fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
        self.tree.is_leaf(node).then(|| {
            (
                self.tree.first[node as usize],
                self.tree.count[node as usize],
            )
        })
    }
    fn n_leaf_elems(&self) -> u64 {
        self.tree.n_points() as u64
    }
    fn node_bytes(&self) -> NodeBytes {
        NodeBytes::kd(D)
    }
    fn max_depth(&self) -> usize {
        self.depth
    }
    fn root_args(&self) -> f32 {
        0.0
    }

    fn choose(&self, p: &NnPoint<D>, node: NodeId, _args: f32) -> usize {
        let axis = self.tree.split_dim[node as usize] as usize;
        usize::from(p.pos[axis] >= self.tree.split_val[node as usize])
    }

    fn visit(
        &self,
        p: &mut NnPoint<D>,
        node: NodeId,
        plane_d2: f32,
        forced: Option<usize>,
        kids: &mut ChildBuf<f32>,
    ) -> VisitOutcome {
        // Split-plane pruning: the carried bound is a lower bound on any
        // distance inside this subtree.
        if plane_d2 > p.best_d2 {
            return VisitOutcome::Truncated;
        }
        if self.tree.is_leaf(node) {
            let first = self.tree.first[node as usize];
            for (k, q) in self.tree.leaf_points(node).iter().enumerate() {
                let d2 = q.dist2(&p.pos);
                NnRule.offer(p, d2, first + k as u32);
            }
            return VisitOutcome::Leaf;
        }
        let axis = self.tree.split_dim[node as usize] as usize;
        let diff = p.pos[axis] - self.tree.split_val[node as usize];
        let far_bound = plane_d2.max(diff * diff);
        let set = forced.unwrap_or_else(|| self.choose(p, node, plane_d2));
        let l = self.tree.left(node);
        let r = self.tree.right[node as usize];
        // Near child inherits the current bound; the far child's bound
        // tightens with this node's separating plane.
        let (near, far) = if p.pos[axis] < self.tree.split_val[node as usize] {
            (l, r)
        } else {
            (r, l)
        };
        if set == self.choose(p, node, plane_d2) {
            kids.push(Child {
                node: near,
                args: plane_d2,
            });
            kids.push(Child {
                node: far,
                args: far_bound,
            });
        } else {
            // Outvoted: far side first. Bounds stay attached to the right
            // children — order changes, correctness does not (§4.3).
            kids.push(Child {
                node: far,
                args: far_bound,
            });
            kids.push(Child {
                node: near,
                args: plane_d2,
            });
        }
        VisitOutcome::Descended { call_set: set }
    }
}

/// NN over the same kd-tree with **bounding-box pruning instead of the
/// carried split-plane bound** — no traversal-variant argument.
///
/// Slightly weaker pruning than [`NnKernel`] (the box distance at the node
/// replaces the accumulated plane bound), but the truncation test is fully
/// re-derivable from per-node state, which is what the stackless skip-link
/// walk ([`gts_runtime::gpu::stackless::run_skip`]) requires: it has no
/// stack to carry an argument on. Results are identical — a pruned box
/// only hides points the update rule would reject anyway.
pub type NnAabbKernel<'t, const D: usize> = KdBox<'t, D, NnRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use gts_points::gen::uniform;
    use gts_runtime::cpu;
    use gts_runtime::gpu::{autoropes, lockstep, recursive, stackless, GpuConfig};
    use gts_trees::SplitPolicy;
    use proptest::prelude::*;

    fn check<const D: usize>(pts: &[PointN<D>], results: &[NnPoint<D>]) {
        for (i, r) in results.iter().enumerate() {
            let want = oracle::nn_dist2_nonself(pts, &pts[i]);
            assert!(
                (r.best_d2 - want).abs() <= 1e-5 * want.max(1e-6),
                "point {i}: {} vs {}",
                r.best_d2,
                want
            );
        }
    }

    #[test]
    fn cpu_matches_oracle_midpoint_tree() {
        let pts = uniform::<3>(300, 41);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MidpointWidest);
        let kernel = NnKernel::new(&tree);
        let mut qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        check(&pts, &qs);
    }

    #[test]
    fn cpu_matches_oracle_median_tree_too() {
        let pts = uniform::<2>(200, 42);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        let kernel = NnKernel::new(&tree);
        let mut qs: Vec<NnPoint<2>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        check(&pts, &qs);
    }

    #[test]
    fn gpu_executors_exact_with_variant_args() {
        // The variant argument must survive the rope stack in every
        // executor (Figure 7 line 16's behavior).
        let pts = uniform::<3>(130, 43);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let kernel = NnKernel::new(&tree);
        let cfg = GpuConfig::default();
        let make = || pts.iter().map(|&p| NnPoint::new(p)).collect::<Vec<_>>();

        let mut a = make();
        autoropes::run(&kernel, &mut a, &cfg);
        check(&pts, &a);
        let mut l = make();
        lockstep::run(&kernel, &mut l, &cfg);
        check(&pts, &l);
        let mut r = make();
        recursive::run(&kernel, &mut r, &cfg, false);
        check(&pts, &r);
        let mut rl = make();
        recursive::run(&kernel, &mut rl, &cfg, true);
        check(&pts, &rl);
    }

    #[test]
    fn best_idx_names_the_actual_neighbor() {
        let pts = uniform::<3>(200, 45);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let kernel = NnKernel::new(&tree);
        let mut qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        for q in &qs {
            assert_ne!(q.best_idx, u32::MAX);
            let neighbor = tree.points[q.best_idx as usize];
            assert!((neighbor.dist2(&q.pos) - q.best_d2).abs() <= 1e-6 * q.best_d2.max(1e-9));
        }
    }

    #[test]
    fn self_match_is_excluded() {
        let pts = uniform::<2>(64, 44);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let kernel = NnKernel::new(&tree);
        let mut qs: Vec<NnPoint<2>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        // Never the trivial zero; always the nearest distinct point.
        assert!(qs.iter().all(|q| q.best_d2 > 0.0 && q.best_d2.is_finite()));
    }

    #[test]
    fn aabb_kernel_matches_plane_kernel_everywhere() {
        let pts = uniform::<3>(250, 46);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let plane = NnKernel::new(&tree);
        let aabb = NnAabbKernel::new(&tree);
        let cfg = GpuConfig::default();
        let make = || pts.iter().map(|&p| NnPoint::new(p)).collect::<Vec<_>>();

        let mut a = make();
        autoropes::run(&plane, &mut a, &cfg);
        let mut b = make();
        autoropes::run(&aabb, &mut b, &cfg);
        // Weaker pruning, identical answers — bitwise.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.best_d2, y.best_d2);
            assert_eq!(x.best_idx, y.best_idx);
        }
    }

    #[test]
    fn aabb_kernel_rides_the_skip_walk() {
        // The reason this kernel exists: NN through the stackless
        // skip-link executor, which refuses variant-argument kernels.
        let pts = uniform::<3>(300, 47);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let aabb = NnAabbKernel::new(&tree);
        let cfg = GpuConfig::default();

        let mut sk = pts.iter().map(|&p| NnPoint::new(p)).collect::<Vec<_>>();
        let skip = gts_trees::linearize::skip_links(&tree.right);
        let r = stackless::run_skip(&aabb, &mut sk, &skip, &cfg);
        check(&pts, &sk);
        assert_eq!(r.launch.counters.stack_bytes_peak, 0);

        let mut ar = pts.iter().map(|&p| NnPoint::new(p)).collect::<Vec<_>>();
        autoropes::run(&aabb, &mut ar, &cfg);
        for (x, y) in sk.iter().zip(&ar) {
            assert_eq!(x.best_d2, y.best_d2);
            assert_eq!(x.best_idx, y.best_idx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_nn_exact_across_executors(n in 2usize..100, seed in 0u64..50) {
            let pts = uniform::<3>(n, seed);
            let tree = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
            let kernel = NnKernel::new(&tree);
            let mut qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
            lockstep::run(&kernel, &mut qs, &GpuConfig::default());
            for (i, q) in qs.iter().enumerate() {
                let want = oracle::nn_dist2_nonself(&pts, &pts[i]);
                if want.is_finite() {
                    prop_assert!((q.best_d2 - want).abs() <= 1e-5 * want.max(1e-6));
                } else {
                    prop_assert!(q.best_d2.is_infinite());
                }
            }
        }
    }
}
