//! The fused multi-op point benchmark: one kd-tree walk answering NN, kNN
//! and point-correlation for the same query position (Sakka et al.'s
//! traversal fusion, applied to the paper's three point kernels).
//!
//! A pair of [`PointRule`]s is a rule (`gts_runtime::fused`), so the
//! fusion is just the rule `(NN, (kNN, multi-PC))` walked by the same
//! [`KdBox`] — or the same Wald walk — as any solo op:
//!
//! * **NN** keeps its own `(best_d2, best_idx)` register pair with the
//!   distinct-position rule (`d2 > 0`). A k-best heap cannot subsume it in
//!   general — zero-distance duplicates of the query could fill the heap
//!   and evict the nearest *distinct* point — so the register pair stays.
//! * **kNN** carries one [`KBest`] sized to the *largest* k requested at
//!   the lane. Smaller k answers are prefixes of the heap: `KBest(j)` holds
//!   exactly the j smallest offers under `(d2, arrival)` order, so the
//!   first j entries of the k_max heap are bit-identical to a solo
//!   `KBest(j)` run (pinned in `kbest`'s tests).
//! * **PC** generalizes to [`MultiPcPoint`]: per-lane radius slots (the
//!   lane may serve several PC radii at once), each counted over a leaf's
//!   bucket in one branch-free pass, admitted under the largest slot
//!   radius.
//!
//! A lane opts out of a constituent with *inert* state — `best_d2 = -inf`
//! for NN, [`KBest::inactive`] for kNN, zero slots for PC — which rejects
//! every offer and never widens the union prune bound. Each constituent's
//! answer is bit-identical to its unfused kernel: the union walk reaches a
//! point a solo walk would have pruned only when its distance exceeds that
//! constituent's bound, and every rule's `offer` rejects exactly those
//! (the [`PointRule`] contract, property-tested below). The same contract
//! lets the walk count, at each descent, which constituents would have
//! descended there alone ([`PointRule::solo_descents`]; NN, the kNN heap
//! and each PC radius slot count one apiece) — what the fusion saved,
//! without re-walking the tree per op.
//!
//! A sharded index walks one state over a lane's shards in turn, offers
//! renamed to one id space (`gts_runtime::Renamed`): every rule folds its
//! offers, so that is one walk over the union in that order, kNN ties
//! included. [`reaches`] admits a set at lower-bound distance `lb` iff its
//! walk can move the state — NN iff `lb < best_d2`, kNN iff the heap is not
//! full or `lb < bound`, PC iff `lb <= max_r2`; every distance the set
//! offers is `≥ lb`, which each part refuses otherwise. Inert parts never
//! reach.

use gts_runtime::{FusedPoint, PointRule};
use gts_trees::{KdTree, PointN};

use crate::kbest::KBest;
use crate::kd::KdBox;
use crate::knn::{KnnPoint, KnnRule};
use crate::nn::{NnPoint, NnRule};
use crate::pc::within;

/// One point-correlation radius served by a fused lane.
#[derive(Debug, Clone, PartialEq)]
pub struct PcSlot {
    /// Squared radius (computed as `radius * radius`, matching
    /// [`crate::pc::PcRule`] bit-for-bit).
    pub radius2: f32,
    /// Points found within this radius so far.
    pub count: u32,
}

/// Traversal state of the multi-radius PC constituent: like
/// [`crate::pc::PcPoint`] but with the radii per lane instead of per
/// rule, so one fused batch can mix different radii (and lanes that
/// asked for no PC at all).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPcPoint<const D: usize> {
    /// Query position.
    pub pos: PointN<D>,
    /// Union admission bound: the largest slot radius², or `-inf` when the
    /// lane has no PC slots (inert — prunes everywhere).
    pub max_r2: f32,
    /// The radius slots, in the order given at construction.
    pub slots: Vec<PcSlot>,
}

impl<const D: usize> MultiPcPoint<D> {
    /// Fresh lane at `pos` counting within each of `radii`.
    ///
    /// # Panics
    /// Panics on a radius that is not a finite non-negative number.
    pub fn new(pos: PointN<D>, radii: &[f32]) -> Self {
        let slots: Vec<PcSlot> = radii
            .iter()
            .map(|&radius| {
                assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
                PcSlot {
                    radius2: radius * radius,
                    count: 0,
                }
            })
            .collect();
        let max_r2 = slots
            .iter()
            .map(|s| s.radius2)
            .fold(f32::NEG_INFINITY, f32::max);
        MultiPcPoint { pos, max_r2, slots }
    }
}

/// Multi-radius point correlation: `can_correlate` under the union of the
/// lane's radii, each slot counting under its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiPcRule;

impl<const D: usize> PointRule<D> for MultiPcRule {
    type State = MultiPcPoint<D>;
    const GUIDED: bool = false;

    fn pos(p: &MultiPcPoint<D>) -> &PointN<D> {
        &p.pos
    }
    fn bound(&self, p: &MultiPcPoint<D>) -> f32 {
        p.max_r2
    }
    fn offer(&self, p: &mut MultiPcPoint<D>, d2: f32, _idx: u32) {
        for slot in &mut p.slots {
            if d2 <= slot.radius2 {
                slot.count += 1;
            }
        }
    }
    /// One branch-free count of the bucket per slot; no slot, no pass.
    #[inline]
    fn offer_bucket(&self, p: &mut MultiPcPoint<D>, d2: &[f32], _ids: &[u32]) {
        for slot in &mut p.slots {
            slot.count += within(d2, slot.radius2);
        }
    }
    /// One op per radius slot: each would descend under its own radius.
    fn solo_descents(&self, p: &mut MultiPcPoint<D>, lb: f32) -> u32 {
        p.slots.iter().filter(|s| lb <= s.radius2).count() as u32
    }
}

/// The NN + kNN + PC fusion, as a rule.
pub type FusedOpsRule = (NnRule, (KnnRule, MultiPcRule));

/// Per-lane state of the full NN + kNN + PC fusion.
pub type FusedOpsPoint<const D: usize> =
    FusedPoint<NnPoint<D>, FusedPoint<KnnPoint<D>, MultiPcPoint<D>>>;

/// The NN + kNN + PC fusion over the pointer kd-tree; its
/// [`rule`](KdBox::rule) is what the Wald walk over the left-balanced
/// mirror consumes.
pub type FusedOpsKernel<'t, const D: usize> = KdBox<'t, D, FusedOpsRule>;

/// Build the fused NN + kNN + PC kernel over `tree`.
pub fn fused_ops_kernel<const D: usize>(tree: &KdTree<D>) -> FusedOpsKernel<'_, D> {
    FusedOpsKernel::new(tree)
}

/// Build one fused lane at `pos`: NN state iff `nn`, a kNN heap of
/// capacity `knn_k` (pass the largest k the lane serves; `None` for no
/// kNN), and one PC slot per radius (empty slice for no PC). Constituents
/// the lane does not ask for are inert — they never update and never
/// widen the union prune bound.
pub fn fused_ops_point<const D: usize>(
    pos: PointN<D>,
    nn: bool,
    knn_k: Option<usize>,
    pc_radii: &[f32],
) -> FusedOpsPoint<D> {
    let nn_state = if nn {
        NnPoint::new(pos)
    } else {
        NnPoint {
            pos,
            best_d2: f32::NEG_INFINITY,
            best_idx: u32::MAX,
        }
    };
    let knn_state = KnnPoint {
        pos,
        best: match knn_k {
            Some(k) => KBest::new(k),
            None => KBest::inactive(),
        },
    };
    FusedPoint::new(
        nn_state,
        FusedPoint::new(knn_state, MultiPcPoint::new(pos, pc_radii)),
    )
}

/// Can a point set whose lower-bound squared distance is `lb` still change
/// `state`? The union of its parts' admissions (module docs).
pub fn reaches<const D: usize>(state: &FusedOpsPoint<D>, lb: f32) -> bool {
    let knn = &state.b.a.best;
    lb < state.a.best_d2 || !knn.full() || lb < knn.bound() || lb <= state.b.b.max_r2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnKernel;
    use crate::nn::{NnAabbKernel, NnKernel};
    use crate::pc::{PcKernel, PcPoint, PcRule};
    use gts_points::gen::uniform;
    use gts_runtime::gpu::{autoropes, lockstep, stackless, GpuConfig};
    use gts_runtime::{
        cpu, ChildBuf, Live, Renamed, Tombstones, TraversalKernel, VisitOutcome, BUCKET,
    };
    use gts_trees::layout::NodeBytes;
    use gts_trees::linearize::skip_links;
    use gts_trees::{LbKdTree, NodeId, SplitPolicy};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    type MultiPcBox<'t> = KdBox<'t, 3, MultiPcRule>;

    fn setup(n: usize, seed: u64) -> (Vec<PointN<3>>, KdTree<3>, LbKdTree<3>) {
        let pts = uniform::<3>(n, seed);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let lb = LbKdTree::build(&tree.points);
        (pts, tree, lb)
    }

    /// Delegates everything but `n_leaf_elems`, so that method is the
    /// trait's default leaf scan over the wrapped kernel's buckets.
    struct DefaultScan<'k, K>(&'k K);

    impl<K: TraversalKernel> TraversalKernel for DefaultScan<'_, K> {
        type Point = K::Point;
        type Args = K::Args;
        const MAX_KIDS: usize = K::MAX_KIDS;
        const CALL_SETS: usize = K::CALL_SETS;
        fn n_nodes(&self) -> usize {
            self.0.n_nodes()
        }
        fn is_leaf(&self, node: NodeId) -> bool {
            self.0.is_leaf(node)
        }
        fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
            self.0.leaf_range(node)
        }
        fn node_bytes(&self) -> NodeBytes {
            self.0.node_bytes()
        }
        fn max_depth(&self) -> usize {
            self.0.max_depth()
        }
        fn root_args(&self) -> K::Args {
            self.0.root_args()
        }
        fn visit(
            &self,
            p: &mut K::Point,
            node: NodeId,
            args: K::Args,
            forced: Option<usize>,
            kids: &mut ChildBuf<K::Args>,
        ) -> VisitOutcome {
            self.0.visit(p, node, args, forced, kids)
        }
    }

    #[test]
    fn kd_kernels_leaf_elem_count_equals_the_default_scan() {
        let mut dup_heavy = vec![PointN([0.5f32, -0.25, 0.125]); 300];
        dup_heavy.extend(uniform::<3>(200, 5));
        for pts in [uniform::<3>(1, 1), uniform::<3>(777, 2), dup_heavy] {
            for policy in [SplitPolicy::MedianCycle, SplitPolicy::MidpointWidest] {
                for leaf_size in [1, 8, 32] {
                    let tree = KdTree::build(&pts, leaf_size, policy);
                    let n = pts.len() as u64;
                    let label = format!("{n} points, {policy:?}, leaf_size {leaf_size}");
                    macro_rules! check {
                        ($kernel:expr) => {
                            let k = $kernel;
                            assert_eq!(k.n_leaf_elems(), n, "{label}");
                            assert_eq!(DefaultScan(&k).n_leaf_elems(), n, "{label}");
                        };
                    }
                    check!(NnKernel::new(&tree));
                    check!(NnAabbKernel::new(&tree));
                    check!(KnnKernel::new(&tree));
                    check!(PcKernel::new(&tree, 0.2));
                    check!(MultiPcBox::new(&tree));
                    check!(fused_ops_kernel(&tree));
                }
            }
        }
    }

    #[test]
    fn multi_pc_slots_match_single_radius_kernels_bitwise() {
        let (pts, tree, _) = setup(200, 71);
        let radii = [0.1f32, 0.3, 0.6];
        let multi = MultiPcBox::new(&tree);
        let cfg = GpuConfig::default();
        let mut lanes: Vec<MultiPcPoint<3>> =
            pts.iter().map(|&p| MultiPcPoint::new(p, &radii)).collect();
        autoropes::run(&multi, &mut lanes, &cfg);
        for (slot_i, &radius) in radii.iter().enumerate() {
            let single = PcKernel::new(&tree, radius);
            let mut solo: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
            autoropes::run(&single, &mut solo, &cfg);
            for (lane, s) in lanes.iter().zip(&solo) {
                assert_eq!(lane.slots[slot_i].count, s.count, "radius {radius}");
            }
        }
    }

    #[test]
    fn fused_ops_match_solo_kernels_bitwise_on_every_executor() {
        let (pts, tree, lb) = setup(250, 72);
        let cfg = GpuConfig::default();
        let k = 4usize;
        let radius = 0.3f32;

        // Solo baselines (autoropes; solo kernels agree across executors
        // per their own tests).
        let mut nn_solo: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        autoropes::run(&NnKernel::new(&tree), &mut nn_solo, &cfg);
        let mut knn_solo: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, k)).collect();
        autoropes::run(&KnnKernel::new(&tree), &mut knn_solo, &cfg);
        let mut pc_solo: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        autoropes::run(&PcKernel::new(&tree, radius), &mut pc_solo, &cfg);

        let kernel = fused_ops_kernel(&tree);
        let make = || -> Vec<FusedOpsPoint<3>> {
            pts.iter()
                .map(|&p| fused_ops_point(p, true, Some(k), &[radius]))
                .collect()
        };
        let check = |lanes: &[FusedOpsPoint<3>], label: &str| {
            for (i, lane) in lanes.iter().enumerate() {
                assert_eq!(lane.a.best_d2, nn_solo[i].best_d2, "{label} nn {i}");
                assert_eq!(lane.a.best_idx, nn_solo[i].best_idx, "{label} nn {i}");
                assert_eq!(
                    lane.b.a.best.distances(),
                    knn_solo[i].best.distances(),
                    "{label} knn {i}"
                );
                assert_eq!(
                    lane.b.a.best.ids(),
                    knn_solo[i].best.ids(),
                    "{label} knn {i}"
                );
                assert_eq!(lane.b.b.slots[0].count, pc_solo[i].count, "{label} pc {i}");
            }
        };

        let mut a = make();
        autoropes::run(&kernel, &mut a, &cfg);
        check(&a, "autoropes");
        let mut l = make();
        lockstep::run(&kernel, &mut l, &cfg);
        check(&l, "lockstep");
        let mut s = make();
        stackless::run_skip(&kernel, &mut s, &skip_links(&tree.right), &cfg);
        check(&s, "skip");
        let mut w = make();
        let wald_lanes = {
            stackless::run_wald(&lb, kernel.rule(), &mut w, &cfg);
            &w
        };
        // Wald kernels record dataset-space ids through the lb-tree perm;
        // the rope-stack solo ids are tree-internal. Compare distances and
        // mapped ids.
        for (i, lane) in wald_lanes.iter().enumerate() {
            assert_eq!(lane.a.best_d2, nn_solo[i].best_d2, "wald nn {i}");
            assert_eq!(
                lane.a.best_idx, nn_solo[i].best_idx,
                "wald nn id {i} (lb built over tree.points: same space)"
            );
            assert_eq!(
                lane.b.a.best.distances(),
                knn_solo[i].best.distances(),
                "wald knn {i}"
            );
            assert_eq!(lane.b.b.slots[0].count, pc_solo[i].count, "wald pc {i}");
        }
    }

    #[test]
    fn fused_walk_visits_fewer_nodes_than_the_sum_of_solo_walks() {
        let (pts, tree, _) = setup(600, 73);
        let cfg = GpuConfig::default();
        let k = 8usize;
        let radius = 0.25f32;

        let solo_visits = |run: &dyn Fn() -> u64| run();
        let nn_visits = solo_visits(&|| {
            let mut q: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
            let r = autoropes::run(&NnAabbKernel::new(&tree), &mut q, &cfg);
            r.stats.per_point_nodes.iter().map(|&v| v as u64).sum()
        });
        let knn_visits = solo_visits(&|| {
            let mut q: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, k)).collect();
            let r = autoropes::run(&KnnKernel::new(&tree), &mut q, &cfg);
            r.stats.per_point_nodes.iter().map(|&v| v as u64).sum()
        });
        let pc_visits = solo_visits(&|| {
            let mut q: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
            let r = autoropes::run(&PcKernel::new(&tree, radius), &mut q, &cfg);
            r.stats.per_point_nodes.iter().map(|&v| v as u64).sum()
        });

        let kernel = fused_ops_kernel(&tree);
        let mut lanes: Vec<FusedOpsPoint<3>> = pts
            .iter()
            .map(|&p| fused_ops_point(p, true, Some(k), &[radius]))
            .collect();
        let rep = autoropes::run(&kernel, &mut lanes, &cfg);
        let fused_visits: u64 = rep.stats.per_point_nodes.iter().map(|&v| v as u64).sum();

        let unfused = nn_visits + knn_visits + pc_visits;
        assert!(
            (fused_visits as f64) < 0.75 * unfused as f64,
            "fused {fused_visits} vs unfused sum {unfused}"
        );
    }

    #[test]
    fn inert_lanes_answer_only_what_they_asked_for() {
        let (pts, tree, _) = setup(120, 74);
        let kernel = fused_ops_kernel(&tree);
        let cfg = GpuConfig::default();
        // PC-only lanes: NN and kNN stay inert.
        let mut lanes: Vec<FusedOpsPoint<3>> = pts
            .iter()
            .map(|&p| fused_ops_point(p, false, None, &[0.4]))
            .collect();
        autoropes::run(&kernel, &mut lanes, &cfg);
        let mut solo: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        autoropes::run(&PcKernel::new(&tree, 0.4), &mut solo, &cfg);
        for (lane, s) in lanes.iter().zip(&solo) {
            assert_eq!(lane.b.b.slots[0].count, s.count);
            assert_eq!(lane.a.best_idx, u32::MAX, "inert NN untouched");
            assert!(lane.b.a.best.is_empty(), "inert kNN untouched");
        }
    }

    /// A lane's answer: distances, ids, counts.
    type Answer = (Vec<f32>, Vec<u32>, Vec<u32>);

    /// Each lane's answer after every walk a rule is served with — the CPU
    /// walk, autoropes, lockstep, the skip walk, and the Wald walk over the
    /// tree's left-balanced mirror — with `ids` mapping tree positions.
    fn served_walks<R: PointRule<3>>(
        tree: &KdTree<3>,
        rule: R,
        lanes: &[R::State],
        answer: fn(&R::State) -> Answer,
        ids: &dyn Fn(u32) -> u32,
    ) -> Vec<(&'static str, Vec<Answer>)> {
        let (lb, skip) = (LbKdTree::build(&tree.points), skip_links(&tree.right));
        let kernel = KdBox::with_rule(tree, rule);
        let cfg = GpuConfig::default();
        let run = |walk: &dyn Fn(&mut [R::State])| -> Vec<Answer> {
            let mut lanes = lanes.to_vec();
            walk(&mut lanes);
            (lanes.iter().map(answer))
                .map(|(d2, at, counts)| (d2, at.into_iter().map(ids).collect(), counts))
                .collect()
        };
        vec![
            ("cpu", run(&|p| drop(cpu::run_sequential(&kernel, p)))),
            (
                "autoropes",
                run(&|p| drop(autoropes::run(&kernel, p, &cfg))),
            ),
            ("lockstep", run(&|p| drop(lockstep::run(&kernel, p, &cfg)))),
            (
                "skip",
                run(&|p| drop(stackless::run_skip(&kernel, p, &skip, &cfg))),
            ),
            (
                "wald",
                run(&|p| drop(stackless::run_wald(&lb, kernel.rule(), p, &cfg))),
            ),
        ]
    }

    /// A tree with every `nth` dataset point tombstoned, beside a tree
    /// built without those points.
    struct Pruned {
        tree: KdTree<3>,
        dead: Tombstones,
        bare: KdTree<3>,
        /// `keep[i]` = the dataset id of `bare`'s build point `i`.
        keep: Vec<u32>,
    }

    impl Pruned {
        fn new(pts: &[PointN<3>], nth: u32) -> Self {
            let tree = KdTree::build(pts, 8, SplitPolicy::MedianCycle);
            let dead = ((0..).zip(&tree.perm))
                .filter(|&(_, &id)| id % nth == 0)
                .map(|(at, _)| at)
                .collect();
            let keep: Vec<u32> = (0..pts.len() as u32).filter(|id| id % nth != 0).collect();
            let kept: Vec<PointN<3>> = keep.iter().map(|&id| pts[id as usize]).collect();
            let bare = KdTree::build(&kept, 8, SplitPolicy::MedianCycle);
            Pruned {
                tree,
                dead,
                bare,
                keep,
            }
        }

        /// `Live` of `rule` over the tombstoned tree answers like `rule`
        /// over the bare one on every served walk, ids compared through
        /// each tree's `perm` — and unlike `rule` over the whole tree.
        fn check<R: PointRule<3> + Clone>(
            &self,
            op: &str,
            rule: R,
            lanes: &[R::State],
            answer: fn(&R::State) -> Answer,
        ) {
            let id = |at: u32, of: &dyn Fn(usize) -> u32| match at {
                u32::MAX => at,
                at => of(at as usize),
            };
            let tree_ids = |at| id(at, &|at| self.tree.perm[at]);
            let bare_ids = |at| id(at, &|at| self.keep[self.bare.perm[at] as usize]);
            let live = Live {
                rule: rule.clone(),
                dead: &self.dead,
            };
            let got = served_walks(&self.tree, live, lanes, answer, &tree_ids);
            let want = served_walks(&self.bare, rule.clone(), lanes, answer, &bare_ids);
            for ((walk, got), (_, want)) in got.iter().zip(&want) {
                assert_eq!(got, want, "{op} on {walk}");
            }
            let whole = served_walks(&self.tree, rule, lanes, answer, &tree_ids);
            assert_ne!(got[0].1, whole[0].1, "{op}: no dead point ever answered");
        }
    }

    #[test]
    fn live_rules_answer_like_a_tree_built_without_the_dead() {
        let pts = uniform::<3>(400, 76);
        let case = Pruned::new(&pts, 5);
        // Off the data, and on it: dead points among the queries.
        let queries: Vec<PointN<3>> = (uniform::<3>(60, 77).into_iter())
            .chain(pts[..20].iter().copied())
            .collect();
        let nn: Vec<_> = queries.iter().map(|&q| NnPoint::new(q)).collect();
        case.check("nn", NnRule, &nn, |p| {
            (vec![p.best_d2], vec![p.best_idx], vec![])
        });
        let knn: Vec<_> = queries.iter().map(|&q| KnnPoint::new(q, 6)).collect();
        case.check("knn", KnnRule, &knn, |p| {
            (p.best.distances().to_vec(), p.best.ids().to_vec(), vec![])
        });
        let pc: Vec<_> = queries.iter().map(|&q| PcPoint::new(q)).collect();
        case.check("pc", PcRule::new(0.3), &pc, |p| {
            (vec![], vec![], vec![p.count])
        });
        let fused: Vec<_> = (queries.iter())
            .map(|&q| fused_ops_point(q, true, Some(6), &[0.2, 0.45]))
            .collect();
        case.check("fused", FusedOpsRule::default(), &fused, |p| {
            let d2 = std::iter::once(p.a.best_d2).chain(p.b.a.best.distances().iter().copied());
            let ids = std::iter::once(p.a.best_idx).chain(p.b.a.best.ids().iter().copied());
            let counts = p.b.b.slots.iter().map(|s| s.count);
            (d2.collect(), ids.collect(), counts.collect())
        });
    }

    /// Figure 1 as written, recording each visit: the reference the host
    /// walk's loop is held to.
    fn figure1<K: TraversalKernel<Args = ()>>(
        kernel: &K,
        p: &mut K::Point,
        node: NodeId,
        visits: &mut Vec<NodeId>,
    ) {
        visits.push(node);
        let mut kids = Vec::new();
        if let VisitOutcome::Descended { .. } = kernel.visit(p, node, (), None, &mut kids) {
            for child in kids {
                figure1(kernel, p, child.node, visits);
            }
        }
    }

    #[test]
    fn the_served_stack_runs_one_loop_in_the_recursions_order() {
        let pts = uniform::<3>(500, 78);
        let case = Pruned::new(&pts, 4);
        let rule = Renamed {
            rule: FusedOpsRule::default(),
            ids: &case.tree.perm,
        };
        let kernel = KdBox::with_rule(
            &case.tree,
            Live {
                rule,
                dead: &case.dead,
            },
        );
        let queries = (uniform::<3>(40, 79).into_iter()).chain(pts[..40].iter().copied());
        for (i, pos) in queries.enumerate() {
            let (nn, knn_k, radii) = lane_shape(i % 5, 1 + i % 9);
            let lane = fused_ops_point(pos, nn, knn_k, radii);
            let (mut recursed, mut want) = (lane.clone(), Vec::new());
            figure1(&kernel, &mut recursed, 0, &mut want);
            let (mut traced, mut counted) = (lane.clone(), lane);
            let visits = cpu::trace_one(&kernel, &mut traced);
            assert_eq!(visits, want, "lane {i}: the recursion's visits");
            assert_eq!(
                cpu::traverse_one(&kernel, &mut counted) as usize,
                want.len()
            );
            for state in [&traced, &counted] {
                assert_eq!(state_bits(state), state_bits(&recursed), "lane {i}");
                assert_eq!(*state, recursed, "lane {i}");
            }
        }
    }

    #[test]
    fn a_leaf_past_one_bucket_is_offered_whole_and_in_order() {
        let pts = uniform::<3>(2 * BUCKET + 22, 80);
        let tree = KdTree::build(&pts, pts.len(), SplitPolicy::MedianCycle);
        assert_eq!(tree.n_nodes(), 1, "one leaf holds every point");
        let pos = PointN([0.5f32; 3]);
        let mut seen = (pos, Vec::new());
        cpu::traverse_one(&KdBox::with_rule(&tree, Offers), &mut seen);
        let want: Vec<(f32, u32)> = (tree.points.iter().zip(0..))
            .map(|(q, at)| (q.dist2(&pos), at))
            .collect();
        assert_eq!(seen.1, want);
    }

    #[test]
    fn no_op_lane_truncates_immediately() {
        let (pts, tree, _) = setup(64, 75);
        let kernel = fused_ops_kernel(&tree);
        let mut lanes: Vec<FusedOpsPoint<3>> = vec![fused_ops_point(pts[0], false, None, &[])];
        let rep = autoropes::run(&kernel, &mut lanes, &GpuConfig::default());
        assert_eq!(rep.stats.per_point_nodes[0], 1, "root visit only");
    }

    /// Every field of a state as bits — each pair's solo tally included,
    /// which its `PartialEq` leaves out.
    trait StateBits {
        fn bits(&self, out: &mut Vec<u32>);
    }

    impl StateBits for NnPoint<3> {
        fn bits(&self, out: &mut Vec<u32>) {
            out.extend([self.best_d2.to_bits(), self.best_idx]);
        }
    }

    impl StateBits for KnnPoint<3> {
        fn bits(&self, out: &mut Vec<u32>) {
            out.extend([self.best.k() as u32, self.best.len() as u32]);
            out.extend(self.best.distances().iter().map(|d| d.to_bits()));
            out.extend(self.best.ids());
        }
    }

    impl StateBits for PcPoint<3> {
        fn bits(&self, out: &mut Vec<u32>) {
            out.push(self.count);
        }
    }

    impl StateBits for MultiPcPoint<3> {
        fn bits(&self, out: &mut Vec<u32>) {
            out.push(self.max_r2.to_bits());
            out.extend((self.slots.iter()).flat_map(|s| [s.radius2.to_bits(), s.count]));
        }
    }

    impl<A: StateBits, B: StateBits> StateBits for FusedPoint<A, B> {
        fn bits(&self, out: &mut Vec<u32>) {
            self.a.bits(out);
            self.b.bits(out);
            out.push(self.solo_descents);
        }
    }

    fn state_bits(state: &impl StateBits) -> Vec<u32> {
        let mut out = Vec::new();
        state.bits(&mut out);
        out
    }

    /// The [`PointRule`] contract on one offer sequence: `bound` never
    /// grows, and an offer beyond the bound it met changes nothing. The
    /// accounting hook, asked about a box as far as each offer, changes no
    /// answer field and counts between none and all of the `ops` the state
    /// asks — some iff the box is within the bound, so none when inert.
    ///
    /// Then the bucket form is the fold: from where that sequence left the
    /// state (tallies and all), the same offers cut into buckets of the
    /// `cuts` lengths in turn — empty ones and ones past [`BUCKET`]
    /// included — leave the state, every bit of it, that offering them one
    /// by one leaves.
    fn assert_rule_contract<R: PointRule<3>>(
        label: &str,
        rule: &R,
        mut state: R::State,
        ops: usize,
        offers: &[(f32, u32)],
        cuts: &[usize],
    ) where
        R::State: PartialEq + std::fmt::Debug + StateBits,
    {
        for (step, &(d2, idx)) in offers.iter().enumerate() {
            let before = state.clone();
            let bound = rule.bound(&before);
            let counted = rule.solo_descents(&mut state, d2) as usize;
            assert_eq!(
                state, before,
                "{label} step {step}: the hook moved an answer"
            );
            assert_eq!(
                counted > 0,
                d2 <= bound,
                "{label} step {step}: {d2} vs {bound}"
            );
            assert!(
                counted <= ops,
                "{label} step {step}: {counted} of {ops} ops"
            );
            rule.offer(&mut state, d2, idx);
            assert!(
                rule.bound(&state) <= bound,
                "{label} step {step}: bound grew {bound} -> {}",
                rule.bound(&state)
            );
            if d2 > bound {
                assert_eq!(state, before, "{label} step {step}: offer {d2} > {bound}");
            }
        }
        let (d2, ids): (Vec<f32>, Vec<u32>) = offers.iter().copied().unzip();
        let mut one_by_one = state.clone();
        for (&d2, &idx) in d2.iter().zip(&ids) {
            rule.offer(&mut one_by_one, d2, idx);
        }
        let (mut bucketed, mut at) = (state, 0);
        for &len in cuts {
            let end = (at + len).min(offers.len());
            rule.offer_bucket(&mut bucketed, &d2[at..end], &ids[at..end]);
            at = end;
        }
        assert_eq!(
            state_bits(&bucketed),
            state_bits(&one_by_one),
            "{label}: bucket bits"
        );
        assert_eq!(bucketed, one_by_one, "{label}: bucket answer");
    }

    /// Bucket lengths that cover `len` offers: empty ones, and some a few
    /// past [`BUCKET`].
    fn bucket_cuts(rng: &mut impl Rng, len: usize) -> Vec<usize> {
        let mut cuts = Vec::new();
        while cuts.iter().sum::<usize>() < len {
            cuts.push(rng.gen_range(0..BUCKET + 8));
        }
        cuts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Fusion legality, tested: the union walk offers a constituent
        /// points its solo walk would have pruned, which is exact only
        /// because every rule — live, inert, or a pair — honors this; and
        /// the bucket each leaf is offered as is exact because every rule's
        /// bucket form is its fold of single offers.
        #[test]
        fn prop_fused_and_solo_rules_keep_the_offer_contract(
            seed in 0u64..10_000,
            len in 0usize..160,
            k in 1usize..6,
        ) {
            // A coarse grid of distances, so duplicates and zeros are
            // common and offers land on both sides of every bound.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let offers: Vec<(f32, u32)> = (0..len)
                .map(|_| (rng.gen_range(0u32..12) as f32 * 0.25, rng.gen_range(0u32..40)))
                .collect();
            let cuts = bucket_cuts(&mut rng, len);
            let pos = PointN([0.5f32; 3]);
            let radii = [0.5f32, 1.25, 0.0];
            let inert = fused_ops_point(pos, false, None, &[]);
            let multi = MultiPcPoint::new(pos, &radii);

            assert_rule_contract("nn", &NnRule, NnPoint::new(pos), 1, &offers, &cuts);
            assert_rule_contract("nn inert", &NnRule, inert.a, 0, &offers, &cuts);
            assert_rule_contract("knn", &KnnRule, KnnPoint::new(pos, k), 1, &offers, &cuts);
            assert_rule_contract("knn inert", &KnnRule, inert.b.a, 0, &offers, &cuts);
            assert_rule_contract("pc", &PcRule::new(1.0), PcPoint::new(pos), 1, &offers, &cuts);
            assert_rule_contract("multi-pc", &MultiPcRule, multi, radii.len(), &offers, &cuts);
            assert_rule_contract("multi-pc inert", &MultiPcRule, inert.b.b, 0, &offers, &cuts);
            let fused = FusedOpsRule::default();
            for (nn, knn_k, pc) in [
                (true, Some(k), &radii[..]),
                (true, None, &[][..]),
                (false, Some(k), &[][..]),
                (false, None, &radii[..1]),
                (false, None, &[][..]),
            ] {
                let label = format!("fused nn={nn} k={knn_k:?} radii={pc:?}");
                let lane = fused_ops_point(pos, nn, knn_k, pc);
                let ops = usize::from(nn) + usize::from(knn_k.is_some()) + pc.len();
                assert_rule_contract(&label, &fused, lane, ops, &offers, &cuts);
            }
        }
    }

    /// Lane shape `0..5` as `(nn, knn_k, radii)`: every part live, or some
    /// of them inert.
    fn lane_shape(shape: usize, k: usize) -> (bool, Option<usize>, &'static [f32]) {
        const RADII: [f32; 3] = [0.5, 1.25, 0.0];
        match shape {
            0 => (true, Some(k), &RADII),
            1 => (true, None, &[]),
            2 => (false, Some(k), &RADII[..1]),
            3 => (false, None, &RADII),
            _ => (false, None, &[]),
        }
    }

    /// A squared distance on a coarse grid, so ties and zeros are common.
    fn quantized(rng: &mut impl Rng) -> f32 {
        rng.gen_range(0u32..24) as f32 * 0.125
    }

    /// Everything a lane's state answers with, as bits: NN's distance and
    /// id, the heap's size, distances and ids, the PC union bound and every
    /// slot's radius and count — inert parts included, the tallies not.
    fn answer_bits(p: &FusedOpsPoint<3>) -> Vec<u32> {
        let mut answer = p.clone();
        (answer.solo_descents, answer.b.solo_descents) = (0, 0);
        state_bits(&answer)
    }

    /// Prunes nothing and records every offer, in the order a guided walk
    /// of the fused rule meets the points (`KdBox`'s child order is the
    /// query's side of each split, whatever the state holds).
    struct Offers;

    impl PointRule<3> for Offers {
        type State = (PointN<3>, Vec<(f32, u32)>);
        const GUIDED: bool = true;
        fn pos(s: &Self::State) -> &PointN<3> {
            &s.0
        }
        fn bound(&self, _s: &Self::State) -> f32 {
            f32::INFINITY
        }
        fn offer(&self, s: &mut Self::State, d2: f32, idx: u32) {
            s.1.push((d2, idx));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// One state walked over disjoint point sets in turn, each set's
        /// tree offering its positions renamed to the sets' shared ids,
        /// ends where one walk over the union in that order, pruning
        /// nothing, ends — the continuation a sharded sweep makes. Points
        /// sit on a coarse grid, so duplicates, zero distances and ties at
        /// every bound are common.
        #[test]
        fn continued_walk_over_disjoint_sets_equals_one_walk_over_their_union(
            seed in 0u64..1 << 40,
            sets in 1usize..6,
            per_set in 1usize..30,
            k in 1usize..9,
            shape in 0usize..5,
            leaf_size in 1usize..5,
        ) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let at = |rng: &mut rand_chacha::ChaCha8Rng| {
                PointN(std::array::from_fn(|_| rng.gen_range(0u32..5) as f32 * 0.25))
            };
            let pos = at(&mut rng);
            let (nn, knn_k, radii) = lane_shape(shape, k);
            let fresh = || fused_ops_point(pos, nn, knn_k, radii);
            let rule = FusedOpsRule::default();
            let (mut continued, mut union) = (fresh(), fresh());
            let mut base = 0u32;
            for _ in 0..sets {
                let n = rng.gen_range(1..=per_set);
                let pts: Vec<PointN<3>> = (0..n).map(|_| at(&mut rng)).collect();
                let tree = KdTree::build(&pts, leaf_size, SplitPolicy::MedianCycle);
                // Distinct across sets, and in no order the walk could
                // lean on.
                let ids: Vec<u32> = (tree.perm.iter())
                    .map(|&b| (base + b).wrapping_mul(0x9e37_79b1))
                    .collect();
                let renamed = Renamed { rule, ids: &ids };
                cpu::traverse_one(&KdBox::with_rule(&tree, renamed), &mut continued);
                let mut seen = (pos, Vec::new());
                cpu::traverse_one(&KdBox::with_rule(&tree, Offers), &mut seen);
                for (d2, at) in seen.1 {
                    rule.offer(&mut union, d2, ids[at as usize]);
                }
                base += n as u32;
            }
            prop_assert_eq!(answer_bits(&continued), answer_bits(&union));
            prop_assert_eq!(continued, union);
        }

        /// A state that a set with lower bound `lb` does not reach is left
        /// as it was by a continued walk over that set, each of whose
        /// offers is at least `lb`.
        #[test]
        fn continued_walk_beyond_an_unreached_bound_changes_nothing(
            seed in 0u64..1 << 40,
            len in 0usize..30,
            k in 1usize..9,
            shape in 0usize..5,
        ) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (nn, knn_k, radii) = lane_shape(shape, k);
            let rule = FusedOpsRule::default();
            let mut state = fused_ops_point(PointN([0.5f32; 3]), nn, knn_k, radii);
            for i in 0..len as u32 {
                rule.offer(&mut state, quantized(&mut rng), i);
            }
            let lb = quantized(&mut rng);
            prop_assume!(!reaches(&state, lb));
            let ids: Vec<u32> = (1000..1000 + len as u32).collect();
            let renamed = Renamed { rule, ids: &ids };
            let before = state.clone();
            for i in 0..len as u32 {
                renamed.offer(&mut state, lb + quantized(&mut rng), i);
            }
            prop_assert_eq!(answer_bits(&state), answer_bits(&before));
            prop_assert_eq!(state, before);
        }
    }

    #[test]
    fn continued_walk_admission_is_strict_for_nn_and_knn_only() {
        let pos = PointN([0.0f32; 3]);
        let rule = FusedOpsRule::default();
        let mut nn = fused_ops_point(pos, true, None, &[]);
        rule.offer(&mut nn, 1.0, 0);
        let mut knn = fused_ops_point(pos, false, Some(2), &[]);
        rule.offer(&mut knn, 0.5, 0);
        assert!(reaches(&knn, 9.0), "a heap that is not full takes anything");
        rule.offer(&mut knn, 1.0, 1);
        // The largest radius² is 1.
        let pc = fused_ops_point(pos, false, None, &[0.5, 1.0]);
        for (op, state) in [("nn", &nn), ("knn", &knn), ("pc", &pc)] {
            assert!(reaches(state, 0.75), "{op}");
            assert!(!reaches(state, 1.5), "{op}");
        }
        assert!(!reaches(&nn, 1.0), "nn: a tie cannot improve");
        assert!(!reaches(&knn, 1.0), "knn: a tie cannot improve");
        assert!(reaches(&pc, 1.0), "pc: a point at the radius counts");
        let inert = fused_ops_point(pos, false, None, &[]);
        assert!(!reaches(&inert, 0.0), "inert parts never reach");
    }
}
