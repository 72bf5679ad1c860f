//! Traversal fusion: one tree walk serving several kernels at once.
//!
//! [`FusedKernel`] composes two [`TraversalKernel`]s over the *same tree*
//! into a single kernel whose admission rule is the **union** of its
//! constituents': a node is descended iff *any* constituent would descend
//! it, and each constituent re-evaluates its own truncation test at every
//! visited node. Because every constituent's prune bound is a monotone
//! lower-bound test (`lb(node) > bound`, with `lb` non-decreasing along
//! any root-to-leaf path and `bound` non-increasing over time), a
//! constituent that truncates at a node also truncates at every
//! descendant — so the extra nodes the union walk visits can never change
//! a constituent's answer, and per-op results stay bit-identical to the
//! unfused kernels (the same argument that makes box pruning interchangeable
//! with plane pruning in `gts-apps::nn`).
//!
//! Composition nests: `FusedKernel<A, FusedKernel<B, C>>` fuses three
//! traversals. Per-lane state is the matching [`FusedPoint`] nest; a lane
//! opts out of a constituent by carrying *inert* state for it (a bound of
//! `-inf`, so that constituent truncates everywhere and updates nothing).
//!
//! # Contract
//!
//! Both constituents must describe the same tree (node ids, leaf structure,
//! depth — checked at construction where cheap), carry no traversal-variant
//! arguments (`Args = ()`), and be order-insensitive: unguided
//! (`CALL_SETS == 1`) or annotated `CALL_SETS_EQUIVALENT` (§4.3). For
//! guided constituents call set 1's child order must be the reverse of call
//! set 0's (true of every binary kernel in `gts-apps`); the fused kernel
//! re-orders an outvoted constituent's children itself.
//!
//! [`FusedWaldKernel`] is the same composition for the stack-free Wald
//! walk: `process` runs both constituents, and the culling radius is the
//! union (maximum) of theirs.

use crate::gpu::stackless::WaldKernel;
use crate::kernel::{ChildBuf, TraversalKernel, VisitOutcome};
use gts_trees::layout::NodeBytes;
use gts_trees::NodeId;

/// Per-lane state of a fused traversal: the two constituents' states side
/// by side. Nests like the kernels do.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPoint<A, B> {
    /// First constituent's per-lane state.
    pub a: A,
    /// Second constituent's per-lane state.
    pub b: B,
}

impl<A, B> FusedPoint<A, B> {
    /// Pair `a` and `b` into one fused lane.
    pub fn new(a: A, b: B) -> Self {
        FusedPoint { a, b }
    }
}

const fn max_usize(a: usize, b: usize) -> usize {
    if a > b {
        a
    } else {
        b
    }
}

/// Union-admission composition of two [`TraversalKernel`]s over one tree.
pub struct FusedKernel<K1, K2> {
    a: K1,
    b: K2,
}

impl<K1, K2> FusedKernel<K1, K2>
where
    K1: TraversalKernel<Args = ()>,
    K2: TraversalKernel<Args = ()>,
{
    /// Fuse `a` and `b`.
    ///
    /// # Panics
    /// Panics when the constituents disagree on the tree shape, or when a
    /// guided constituent lacks the §4.3 equivalence annotation (the fused
    /// walk picks one child order for all constituents).
    pub fn new(a: K1, b: K2) -> Self {
        assert_eq!(a.n_nodes(), b.n_nodes(), "fused kernels over one tree");
        assert!(
            K1::CALL_SETS == 1 || K1::CALL_SETS_EQUIVALENT,
            "fusion requires order-insensitive constituents (§4.3)"
        );
        assert!(
            K2::CALL_SETS == 1 || K2::CALL_SETS_EQUIVALENT,
            "fusion requires order-insensitive constituents (§4.3)"
        );
        assert!(K1::MAX_KIDS == K2::MAX_KIDS, "same arity");
        FusedKernel { a, b }
    }

    /// First constituent.
    pub fn a(&self) -> &K1 {
        &self.a
    }

    /// Second constituent.
    pub fn b(&self) -> &K2 {
        &self.b
    }
}

impl<K1, K2> TraversalKernel for FusedKernel<K1, K2>
where
    K1: TraversalKernel<Args = ()>,
    K2: TraversalKernel<Args = ()>,
{
    type Point = FusedPoint<K1::Point, K2::Point>;
    type Args = ();
    const MAX_KIDS: usize = K1::MAX_KIDS;
    const CALL_SETS: usize = max_usize(K1::CALL_SETS, K2::CALL_SETS);
    const CALL_SETS_EQUIVALENT: bool = true;

    fn n_nodes(&self) -> usize {
        self.a.n_nodes()
    }
    fn is_leaf(&self, node: NodeId) -> bool {
        self.a.is_leaf(node)
    }
    fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
        self.a.leaf_range(node)
    }
    fn n_leaf_elems(&self) -> u64 {
        self.a.n_leaf_elems()
    }
    fn node_bytes(&self) -> NodeBytes {
        self.a.node_bytes()
    }
    fn max_depth(&self) -> usize {
        max_usize(self.a.max_depth(), self.b.max_depth())
    }
    fn root_args(&self) {}

    fn choose(&self, p: &Self::Point, node: NodeId, _args: ()) -> usize {
        // Defer to a guided constituent; for two guided constituents the
        // first wins (the walk is legal for the other by equivalence).
        if K1::CALL_SETS > 1 {
            self.a.choose(&p.a, node, ())
        } else {
            self.b.choose(&p.b, node, ())
        }
    }

    fn visit(
        &self,
        p: &mut Self::Point,
        node: NodeId,
        _args: (),
        forced_set: Option<usize>,
        kids: &mut ChildBuf<()>,
    ) -> VisitOutcome {
        if self.a.is_leaf(node) {
            // Each constituent applies its own truncation test and update;
            // neither pushes children.
            let oa = self.a.visit(&mut p.a, node, (), forced_set, kids);
            let ob = self.b.visit(&mut p.b, node, (), forced_set, kids);
            return if oa == VisitOutcome::Leaf || ob == VisitOutcome::Leaf {
                VisitOutcome::Leaf
            } else {
                VisitOutcome::Truncated
            };
        }
        // Interior node: one child order for the whole fused lane.
        let set = forced_set.unwrap_or_else(|| self.choose(p, node, ()));
        let start = kids.len();
        match self.a.visit(&mut p.a, node, (), Some(set), kids) {
            VisitOutcome::Descended { .. } => {
                // The union descends; the other constituent re-evaluates
                // its own test at the children, so it need not run here.
                VisitOutcome::Descended { call_set: set }
            }
            _ => match self.b.visit(&mut p.b, node, (), Some(set), kids) {
                VisitOutcome::Descended { call_set } => {
                    if call_set != set {
                        // An unguided constituent ignored the forced set;
                        // equivalent call sets of a binary kernel are
                        // mutual reversals, so re-order its children.
                        kids[start..].reverse();
                    }
                    VisitOutcome::Descended { call_set: set }
                }
                outcome => outcome,
            },
        }
    }

    fn visit_insts(&self) -> u64 {
        self.a.visit_insts() + self.b.visit_insts()
    }
    fn leaf_elem_insts(&self) -> u64 {
        self.a.leaf_elem_insts() + self.b.leaf_elem_insts()
    }
    fn point_bytes(&self) -> u64 {
        self.a.point_bytes() + self.b.point_bytes()
    }
}

/// Union composition of two [`WaldKernel`]s over one left-balanced tree:
/// both constituents process every entered node, and the far child is
/// entered iff it is within *either* constituent's culling radius.
pub struct FusedWaldKernel<W1, W2> {
    a: W1,
    b: W2,
}

impl<W1, W2> FusedWaldKernel<W1, W2>
where
    W1: WaldKernel,
    W2: WaldKernel,
{
    /// Fuse `a` and `b`.
    ///
    /// # Panics
    /// Panics when the constituents disagree on the tree size.
    pub fn new(a: W1, b: W2) -> Self {
        assert_eq!(a.n_nodes(), b.n_nodes(), "fused kernels over one tree");
        FusedWaldKernel { a, b }
    }
}

impl<W1, W2> WaldKernel for FusedWaldKernel<W1, W2>
where
    W1: WaldKernel,
    W2: WaldKernel,
{
    type Point = FusedPoint<W1::Point, W2::Point>;

    fn n_nodes(&self) -> usize {
        self.a.n_nodes()
    }
    fn axis(&self, node: NodeId) -> usize {
        self.a.axis(node)
    }
    fn split(&self, node: NodeId) -> f32 {
        self.a.split(node)
    }
    fn coord(&self, p: &Self::Point, axis: usize) -> f32 {
        self.a.coord(&p.a, axis)
    }
    fn process(&self, p: &mut Self::Point, node: NodeId) {
        self.a.process(&mut p.a, node);
        self.b.process(&mut p.b, node);
    }
    fn cull_d2(&self, p: &Self::Point) -> f32 {
        // Union prune bound: enter the far side if any constituent still
        // needs it. Inert constituents report `-inf` and never widen it.
        self.a.cull_d2(&p.a).max(self.b.cull_d2(&p.b))
    }
    fn node_bytes(&self) -> NodeBytes {
        self.a.node_bytes()
    }
    fn point_bytes(&self) -> u64 {
        self.a.point_bytes() + self.b.point_bytes()
    }
    fn visit_insts(&self) -> u64 {
        self.a.visit_insts() + self.b.visit_insts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{autoropes, GpuConfig};
    use crate::kernel::Child;

    // A counting kernel over an implicit complete binary tree whose lane
    // state tracks visited leaves under a per-lane depth bound (a monotone
    // lower-bound test, like every distance prune). Fusing two with
    // different bounds must visit the union and keep each side's count
    // identical to a solo run.
    #[derive(Debug, Clone, PartialEq)]
    struct CountState {
        limit: f32,
        leaves: u32,
    }

    struct DepthCount {
        depth: usize,
    }

    impl DepthCount {
        fn n(&self) -> usize {
            (1usize << (self.depth + 1)) - 1
        }
        fn depth_of(node: NodeId) -> u32 {
            (node + 1).ilog2()
        }
    }

    impl TraversalKernel for DepthCount {
        type Point = CountState;
        type Args = ();
        const MAX_KIDS: usize = 2;
        const CALL_SETS: usize = 1;

        fn n_nodes(&self) -> usize {
            self.n()
        }
        fn is_leaf(&self, n: NodeId) -> bool {
            (n as usize) >= self.n() / 2
        }
        fn leaf_range(&self, n: NodeId) -> Option<(u32, u32)> {
            self.is_leaf(n).then(|| (n - (self.n() / 2) as u32, 1))
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
            p: &mut CountState,
            node: NodeId,
            _args: (),
            _forced: Option<usize>,
            kids: &mut ChildBuf<()>,
        ) -> VisitOutcome {
            if Self::depth_of(node) as f32 > p.limit {
                return VisitOutcome::Truncated;
            }
            if self.is_leaf(node) {
                p.leaves += 1;
                return VisitOutcome::Leaf;
            }
            kids.push(Child {
                node: 2 * node + 1,
                args: (),
            });
            kids.push(Child {
                node: 2 * node + 2,
                args: (),
            });
            VisitOutcome::Descended { call_set: 0 }
        }
    }

    fn solo(limit: f32) -> u32 {
        let k = DepthCount { depth: 5 };
        let mut pts = vec![CountState { limit, leaves: 0 }];
        autoropes::run(&k, &mut pts, &GpuConfig::default());
        pts[0].leaves
    }

    fn lane(la: f32, lb: f32) -> FusedPoint<CountState, CountState> {
        FusedPoint::new(
            CountState {
                limit: la,
                leaves: 0,
            },
            CountState {
                limit: lb,
                leaves: 0,
            },
        )
    }

    #[test]
    fn fused_counts_match_solo_runs() {
        let fused = FusedKernel::new(DepthCount { depth: 5 }, DepthCount { depth: 5 });
        for (la, lb) in [(2.0, 5.0), (5.0, 2.0), (3.0, 3.0), (f32::NEG_INFINITY, 4.0)] {
            let mut pts = vec![lane(la, lb)];
            autoropes::run(&fused, &mut pts, &GpuConfig::default());
            assert_eq!(pts[0].a.leaves, solo(la), "constituent a at limit {la}");
            assert_eq!(pts[0].b.leaves, solo(lb), "constituent b at limit {lb}");
        }
    }

    #[test]
    fn inert_constituents_truncate_at_the_root() {
        let fused = FusedKernel::new(DepthCount { depth: 4 }, DepthCount { depth: 4 });
        let mut pts = vec![lane(f32::NEG_INFINITY, f32::NEG_INFINITY)];
        let rep = autoropes::run(&fused, &mut pts, &GpuConfig::default());
        assert_eq!(pts[0].a.leaves, 0);
        assert_eq!(pts[0].b.leaves, 0);
        assert_eq!(rep.stats.per_point_nodes[0], 1);
    }

    #[test]
    fn union_visits_at_most_the_sum_of_constituents() {
        let fused = FusedKernel::new(DepthCount { depth: 5 }, DepthCount { depth: 5 });
        let solo_nodes = |limit: f32| {
            let k = DepthCount { depth: 5 };
            let mut pts = vec![CountState { limit, leaves: 0 }];
            let rep = autoropes::run(&k, &mut pts, &GpuConfig::default());
            rep.stats.per_point_nodes[0]
        };
        let mut pts = vec![lane(3.0, 5.0)];
        let rep = autoropes::run(&fused, &mut pts, &GpuConfig::default());
        let fused_nodes = rep.stats.per_point_nodes[0];
        assert!(fused_nodes <= solo_nodes(3.0) + solo_nodes(5.0));
        // And at least the larger constituent's walk.
        assert!(fused_nodes >= solo_nodes(5.0));
    }

    #[test]
    #[should_panic(expected = "one tree")]
    fn mismatched_trees_rejected() {
        let _ = FusedKernel::new(DepthCount { depth: 3 }, DepthCount { depth: 4 });
    }

    #[test]
    fn fused_cost_model_sums_constituents() {
        let a = DepthCount { depth: 3 };
        let b = DepthCount { depth: 3 };
        let (va, pa) = (a.visit_insts(), a.point_bytes());
        let fused = FusedKernel::new(a, b);
        assert_eq!(fused.visit_insts(), 2 * va);
        assert_eq!(fused.point_bytes(), 2 * pa);
    }
}
