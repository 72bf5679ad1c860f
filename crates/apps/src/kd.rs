//! The box-pruned kd-tree walk of any [`PointRule`] — the *structure* half
//! of NN, kNN, PC and their fusion.
//!
//! A rule says what a dataset point does to a query and how far the query
//! still needs to look; [`KdBox`] supplies the rest of Figure 1 over a
//! [`KdTree`]: truncate when the node's bounding box lies beyond the
//! rule's bound, offer a reached leaf as one bucket
//! ([`PointRule::offer_bucket`]: its distances and tree positions, computed
//! into stack buffers — [`BUCKET`] points at a time, since the leaf size
//! is the tree's), and otherwise name the two children. The truncation
//! test is re-derivable from per-node state (no traversal-variant
//! argument), so the same kernel rides the rope-stack executors, the CPU
//! baseline *and* the stackless skip-link walk
//! ([`gts_runtime::gpu::stackless::run_skip`]). Each descent also reports
//! its box distance to [`PointRule::solo_descents`], which is how a fused
//! rule counts the walks it replaced while it walks.
//!
//! Guided rules search the query's side of the split plane first — two
//! static call sets (the paper's Figure 5 shape), semantically equivalent
//! (§4.3): descending the “wrong” child first only delays the bound from
//! tightening, so a warp may vote one order for all its lanes. Unguided
//! rules have one call set, left child then right child, always (Figures 4
//! and 6).

use gts_runtime::{Child, ChildBuf, PointRule, TraversalKernel, VisitOutcome, BUCKET};
use gts_trees::layout::NodeBytes;
use gts_trees::{Aabb, KdTree, NodeId};

/// The box-pruned [`TraversalKernel`] of rule `R` over a pointer kd-tree.
pub struct KdBox<'t, const D: usize, R> {
    tree: &'t KdTree<D>,
    rule: R,
}

impl<'t, const D: usize, R: PointRule<D>> KdBox<'t, D, R> {
    /// Kernel answering `rule` over `tree`.
    pub fn with_rule(tree: &'t KdTree<D>, rule: R) -> Self {
        KdBox { tree, rule }
    }

    /// The rule this kernel walks — what the Wald walk over the same
    /// points consumes.
    pub fn rule(&self) -> &R {
        &self.rule
    }
}

impl<'t, const D: usize, R: PointRule<D> + Default> KdBox<'t, D, R> {
    /// Kernel over `tree` for a rule with no parameters of its own (what
    /// a query asks for — `k`, the radii — lives in each point).
    pub fn new(tree: &'t KdTree<D>) -> Self {
        Self::with_rule(tree, R::default())
    }
}

impl<const D: usize, R: PointRule<D>> TraversalKernel for KdBox<'_, D, R> {
    type Point = R::State;
    type Args = ();
    const MAX_KIDS: usize = 2;
    const CALL_SETS: usize = if R::GUIDED { 2 } else { 1 };
    const CALL_SETS_EQUIVALENT: bool = R::GUIDED;

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
        self.tree.depth()
    }
    fn root_args(&self) {}

    /// `closer_to_left` from the paper's Figure 5: call set 1 iff the
    /// query lies on the right of the split plane.
    fn choose(&self, p: &R::State, node: NodeId, _args: ()) -> usize {
        let axis = self.tree.split_dim[node as usize] as usize;
        usize::from(R::GUIDED && R::pos(p)[axis] >= self.tree.split_val[node as usize])
    }

    fn visit(
        &self,
        p: &mut R::State,
        node: NodeId,
        _args: (),
        forced: Option<usize>,
        kids: &mut ChildBuf<()>,
    ) -> VisitOutcome {
        let b = Aabb {
            lo: self.tree.bbox_lo[node as usize],
            hi: self.tree.bbox_hi[node as usize],
        };
        // `can_correlate` from the paper's Figure 4, for any rule. Neither
        // side is ever NaN; an inert state's `-inf` truncates everywhere.
        let lb = b.dist2_to(R::pos(p));
        if lb > self.rule.bound(p) {
            return VisitOutcome::Truncated;
        }
        if self.tree.is_leaf(node) {
            let pos = *R::pos(p);
            let mut first = self.tree.first[node as usize];
            for chunk in self.tree.leaf_points(node).chunks(BUCKET) {
                let (mut d2, mut ids) = ([0.0; BUCKET], [0; BUCKET]);
                for (k, q) in chunk.iter().enumerate() {
                    (d2[k], ids[k]) = (q.dist2(&pos), first + k as u32);
                }
                let n = chunk.len();
                self.rule.offer_bucket(p, &d2[..n], &ids[..n]);
                first += n as u32;
            }
            return VisitOutcome::Leaf;
        }
        // Accounting only: which of the rule's ops would be here alone. A
        // solo rule keeps no tally and the call folds away.
        self.rule.solo_descents(p, lb);
        // An unguided rule has one call set: a forced set is not its to
        // honor, and it reports set 0.
        let set = match forced {
            Some(s) if R::GUIDED => s,
            _ => self.choose(p, node, ()),
        };
        let l = Child {
            node: self.tree.left(node),
            args: (),
        };
        let r = Child {
            node: self.tree.right[node as usize],
            args: (),
        };
        kids.extend_from_slice(&if set == 0 { [l, r] } else { [r, l] });
        VisitOutcome::Descended { call_set: set }
    }

    fn visit_insts(&self) -> u64 {
        R::VISIT_INSTS
    }
    fn leaf_elem_insts(&self) -> u64 {
        R::LEAF_ELEM_INSTS
    }
    fn point_bytes(&self) -> u64 {
        R::POINT_BYTES
    }
}
