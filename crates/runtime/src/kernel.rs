//! The traversal-kernel abstraction.
//!
//! A [`TraversalKernel`] is the paper's Figure 1 pseudocode with the
//! application-specific parts (`truncate?`, `update`, child order) filled
//! in and the *structural facts* the transformations need exposed as
//! constants: the number of static call sets (§3.2.1), whether multiple
//! call sets are annotated semantically equivalent (§4.3), and whether the
//! recursive call's extra argument is traversal-variant (§3.2.2 —
//! variant arguments must ride the rope stack; invariant ones live in
//! registers).
//!
//! Every kernel in `gts-apps` is *pseudo-tail-recursive by construction*:
//! `visit` does all of a node's work and merely *names* the children to
//! descend into, so there is nothing to execute after the recursive calls
//! — the property §3.2 requires for the autoropes transformation. The IR
//! crate (`gts-ir`) carries the general checker for kernels written as
//! arbitrary control-flow graphs.
//!
//! A [`PointRule`] is the application-specific part on its own, for ops
//! that score dataset points by distance: kernels for such an op are
//! derived from its rule instead of written per tree and per executor.

use gts_trees::{NodeId, PointN};

/// A child to descend into, with the argument passed to its visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Child<A> {
    /// The child node.
    pub node: NodeId,
    /// The (possibly traversal-variant) argument for the child's visit.
    pub args: A,
}

/// Reusable buffer for the children emitted by one visit, in traversal
/// order (first element is visited first).
pub type ChildBuf<A> = Vec<Child<A>>;

/// What one visit did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOutcome {
    /// The truncation condition fired; no update, no children.
    Truncated,
    /// A leaf: the update ran against the leaf bucket; no children.
    Leaf,
    /// An interior node: children were pushed using call set `call_set`.
    Descended {
        /// Which static call set ordered the children (0 when unguided).
        call_set: usize,
    },
}

impl VisitOutcome {
    /// Did this visit stop the point's descent here?
    pub fn stops(self) -> bool {
        !matches!(self, VisitOutcome::Descended { .. })
    }
}

/// One benchmark's per-node work plus the structural facts the
/// transformations key on.
pub trait TraversalKernel: Sync {
    /// Per-traversal state: the paper's *point* (query position, running
    /// accumulator, current best, ...). Mutated in place by visits.
    type Point: Send + Clone;

    /// Extra argument threaded through recursive calls (`dsq` in the
    /// Barnes-Hut code of Figure 9). Use `()` when there is none.
    type Args: Copy + Send;

    /// Maximum children one visit can push (8 for the oct-tree, 2 for
    /// binary trees). Bounds rope-stack growth per visit.
    const MAX_KIDS: usize;

    /// Number of static call sets (§3.2.1). 1 ⇒ unguided: every point
    /// linearizes the tree identically and lockstep traversal applies
    /// directly.
    const CALL_SETS: usize;

    /// Programmer annotation (§4.3): the call sets differ only in
    /// performance, so a warp may legally vote one set for all its lanes.
    /// Meaningless when `CALL_SETS == 1`.
    const CALL_SETS_EQUIVALENT: bool = false;

    /// Is [`TraversalKernel::Args`] traversal-variant? Variant arguments
    /// are pushed on the rope stack next to the node pointer (Figure 7,
    /// line 16); invariant ones are kept outside the loop.
    const ARGS_VARIANT: bool = false;

    /// Modeled size of one stacked argument in bytes (0 when invariant).
    const ARG_BYTES: u64 = 0;

    /// Is the variant argument *point-independent* (a function of the tree
    /// path only, like Barnes-Hut's `dsq`)? Paper §5.2: “any data which is
    /// not dependent on a particular point \[can\] be saved per warp rather
    /// than per thread” — lockstep stack entries then carry one argument
    /// slot instead of 32, shrinking the shared-memory footprint and
    /// raising occupancy.
    const ARGS_WARP_UNIFORM: bool = false;

    /// Total nodes in the tree (ids are `0..n_nodes`).
    fn n_nodes(&self) -> usize;

    /// Is `node` a leaf?
    fn is_leaf(&self, node: NodeId) -> bool;

    /// Leaf bucket `(first, count)` in leaf-element array coordinates, or
    /// `None` for interior nodes. Drives the memory model's bucket-scan
    /// accounting.
    fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)>;

    /// Length of the leaf-element array [`TraversalKernel::leaf_range`]
    /// indexes into; sizes its simulated region. The default scans every
    /// leaf for the furthest bucket end — kernels over a tree that knows
    /// its own point count should answer directly, since this is asked
    /// once per launch.
    fn n_leaf_elems(&self) -> u64 {
        (0..self.n_nodes() as NodeId)
            .filter_map(|n| self.leaf_range(n))
            .map(|(first, count)| u64::from(first) + u64::from(count))
            .max()
            .unwrap_or(1)
    }

    /// GPU byte sizes of this tree's node fragments.
    fn node_bytes(&self) -> gts_trees::layout::NodeBytes;

    /// Maximum tree depth (root = 0); sizes rope stacks.
    fn max_depth(&self) -> usize;

    /// Argument passed to the root visit.
    fn root_args(&self) -> Self::Args;

    /// Which call set `p` would choose at interior `node` — the vote cast
    /// in the dynamic single-call-set reduction (§4.3). Must match what
    /// [`TraversalKernel::visit`] does when `forced_set` is `None`.
    /// Only consulted for nodes the point does not truncate at.
    fn choose(&self, _p: &Self::Point, _node: NodeId, _args: Self::Args) -> usize {
        0
    }

    /// Execute the node body for `p` at `node`: evaluate the truncation
    /// condition, apply the update, and — for interior nodes — append the
    /// children to `kids` in traversal order (first visited first). Append
    /// only: `kids` may already hold entries that are not this visit's
    /// (the CPU walk keeps its whole child stack on one buffer).
    ///
    /// When `forced_set` is `Some(s)`, a guided kernel must emit children
    /// in call set `s`'s order regardless of its own preference (the warp
    /// outvoted this point). Unguided kernels may ignore it.
    fn visit(
        &self,
        p: &mut Self::Point,
        node: NodeId,
        args: Self::Args,
        forced_set: Option<usize>,
        kids: &mut ChildBuf<Self::Args>,
    ) -> VisitOutcome;

    /// Modeled ALU instruction count of one visit body (order of
    /// magnitude; feeds the issue-cycle term). Defaults to a distance
    /// computation plus compares.
    fn visit_insts(&self) -> u64 {
        12
    }

    /// Modeled ALU instruction count per leaf-bucket element processed.
    fn leaf_elem_insts(&self) -> u64 {
        8
    }

    /// Modeled bytes of one point record in GPU memory (loaded at thread
    /// start, stored at thread end).
    fn point_bytes(&self) -> u64 {
        32
    }
}

/// The most points one [`PointRule::offer_bucket`] call is handed by the
/// structures in this workspace, and the size of the stack buffers a rule
/// that rewrites a bucket ([`crate::Live`], [`crate::Renamed`]) copies it
/// through. A leaf holds as many points as its tree was built with, so a
/// walk offers a larger leaf in chunks of this size.
pub const BUCKET: usize = 64;

/// The *semantic* half of a point-distance traversal: the paper's
/// `truncate?` and `update` (Figure 1) with the tree taken out. An op is
/// written once as a rule; the structure that walks it — the box-pruned
/// kd kernel in `gts-apps`, the Wald walk
/// ([`crate::gpu::stackless::run_wald`]) — is derived, and a pair of
/// rules is itself a rule (`crate::fused`), which is all of fusion.
///
/// # Contract
///
/// Every walk prunes a subtree when a lower bound on its distances exceeds
/// [`bound`](Self::bound), and may offer a rule points a solo walk would
/// have pruned. Both are exact iff, over any offer sequence, `bound` never
/// grows and an [`offer`](Self::offer) with `d2 > bound` leaves the state
/// unchanged. An *inert* state (a lane that did not ask for this op)
/// reports `-inf` and so rejects everything.
///
/// A walk that reaches a leaf hands the rule the whole bucket at once
/// ([`offer_bucket`](Self::offer_bucket)); its meaning is the per-point
/// fold, so the contract above is stated, and tested, on single offers.
pub trait PointRule<const D: usize>: Sync {
    /// Per-query state: the position plus the running answer.
    type State: Send + Clone;

    /// Does the answer tighten [`bound`](Self::bound), so that searching
    /// the near side first pays? Guided rules get the two (equivalent,
    /// §4.3) call sets; unguided ones the canonical left-first order.
    const GUIDED: bool;

    /// Modeled ALU instructions of one node visit.
    const VISIT_INSTS: u64 = 12;

    /// Modeled ALU instructions per leaf-bucket element offered.
    const LEAF_ELEM_INSTS: u64 = 8;

    /// Modeled bytes of one per-query record in GPU memory.
    const POINT_BYTES: u64 = 32;

    /// The query position.
    fn pos(state: &Self::State) -> &PointN<D>;

    /// Current squared prune bound: subtrees farther than this cannot
    /// change the answer.
    fn bound(&self, state: &Self::State) -> f32;

    /// The update: a dataset point at squared distance `d2`, named `idx`
    /// in whatever id space the walking structure reports.
    fn offer(&self, state: &mut Self::State, d2: f32, idx: u32);

    /// The update for a run of points: `d2[i]` named `ids[i]`, in order.
    /// It must leave the state that [`offer`](Self::offer) on each in turn
    /// leaves — which is the default. A rule overrides it to keep its
    /// running answer in locals for the whole run instead of storing to
    /// the state point by point. `d2` and `ids` have one length.
    #[inline]
    fn offer_bucket(&self, state: &mut Self::State, d2: &[f32], ids: &[u32]) {
        for (&d2, &idx) in d2.iter().zip(ids) {
            self.offer(state, d2, idx);
        }
    }

    /// Accounting, not answer: a box-pruned walk calls this each time it
    /// descends below a node whose box lies `lb` (squared) from the query,
    /// and gets back how many of this rule's ops would have descended
    /// there walking alone — one, unless `lb` is beyond the bound. A pair
    /// sums its halves and keeps the running total in its state
    /// (`crate::fused`); a rule that serves several ops from one state
    /// overrides it to count each.
    ///
    /// The count is exact by the contract above. Bounds never grow and box
    /// lower bounds never shrink down a path, so an op that would descend
    /// here also descended at every ancestor; offers beyond its bound left
    /// it unchanged, so its bound here is the one its own walk holds at
    /// this node. That walk, taken in this walk's order over a binary
    /// tree, therefore visits exactly `1 + 2 × (its descents)` nodes.
    fn solo_descents(&self, state: &mut Self::State, lb: f32) -> u32 {
        u32::from(lb <= self.bound(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_stops() {
        assert!(VisitOutcome::Truncated.stops());
        assert!(VisitOutcome::Leaf.stops());
        assert!(!VisitOutcome::Descended { call_set: 1 }.stops());
    }
}
