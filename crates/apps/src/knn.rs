//! k-Nearest Neighbor search over a median-split kd-tree (paper §6.1.2).
//!
//! The traversal prunes any subtree whose bounding box lies farther than
//! the current k-th-best distance, and searches the query's side of each
//! split plane first — kNN is a **guided** traversal (the paper's Figure 5
//! shape) whose call sets are semantically equivalent (§4.3): the final
//! k-best set does not depend on the order. [`KnnRule`] states the op;
//! [`crate::kd::KdBox`] is the walk.

use gts_runtime::PointRule;
use gts_trees::PointN;

use crate::kbest::KBest;
use crate::kd::KdBox;

/// Traversal state of one kNN query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnPoint<const D: usize> {
    /// Query position.
    pub pos: PointN<D>,
    /// The k best squared distances so far.
    pub best: KBest,
}

impl<const D: usize> KnnPoint<D> {
    /// Fresh query at `pos` for `k` neighbors.
    pub fn new(pos: PointN<D>, k: usize) -> Self {
        KnnPoint {
            pos,
            best: KBest::new(k),
        }
    }
}

/// kNN's `truncate?`/`update`: keep the k closest points; prune beyond
/// the k-th best once k are held.
#[derive(Debug, Clone, Copy, Default)]
pub struct KnnRule;

impl<const D: usize> PointRule<D> for KnnRule {
    type State = KnnPoint<D>;
    const GUIDED: bool = true;

    fn pos(p: &KnnPoint<D>) -> &PointN<D> {
        &p.pos
    }
    fn bound(&self, p: &KnnPoint<D>) -> f32 {
        p.best.bound()
    }
    fn offer(&self, p: &mut KnnPoint<D>, d2: f32, idx: u32) {
        p.best.offer(d2, idx);
    }
    /// An inert heap returns at once; otherwise the admission test reads
    /// a bound kept in a local, refreshed only after an admission.
    #[inline]
    fn offer_bucket(&self, p: &mut KnnPoint<D>, d2: &[f32], ids: &[u32]) {
        let best = &mut p.best;
        if best.k() == 0 {
            return;
        }
        let (mut full, mut bound) = (best.full(), best.bound());
        for (&d2, &idx) in d2.iter().zip(ids) {
            // `KBest::offer`'s own refusal, on the locals.
            if full && d2 >= bound {
                continue;
            }
            best.offer(d2, idx);
            (full, bound) = (best.full(), best.bound());
        }
    }
}

/// The kNN kernel over a median-split kd-tree. The neighbor count `k`
/// lives in each point.
pub type KnnKernel<'t, const D: usize> = KdBox<'t, D, KnnRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use gts_points::gen::uniform;
    use gts_runtime::gpu::{autoropes, lockstep, recursive, GpuConfig};
    use gts_runtime::{cpu, ChildBuf, TraversalKernel, VisitOutcome};
    use gts_trees::layout::NodeBytes;
    use gts_trees::{KdTree, NodeId, SplitPolicy};
    use proptest::prelude::*;

    const K: usize = 4;

    fn check_matches_oracle<const D: usize>(pts: &[PointN<D>], results: &[KnnPoint<D>], k: usize) {
        for (i, r) in results.iter().enumerate() {
            let want = oracle::knn_dists(pts, &pts[i], k);
            let got = r.best.distances();
            assert_eq!(got.len(), want.len().min(k), "point {i} count");
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-5 * w.max(1.0),
                    "point {i}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn cpu_matches_oracle() {
        let pts = uniform::<3>(250, 31);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);
        let mut qs: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, K)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        check_matches_oracle(&pts, &qs, K);
    }

    #[test]
    fn guided_traversal_beats_canonical_order() {
        // The whole point of the two call sets: visiting the near child
        // first tightens the bound sooner and prunes more.
        let pts = uniform::<3>(2000, 32);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);

        // Guided run (kernel picks the order).
        let mut guided: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, K)).collect();
        let g = cpu::run_sequential(&kernel, &mut guided);

        // Degraded run: anti-guided (always the far child first) via the
        // forced-set hook.
        struct AntiGuided<'t>(KnnKernel<'t, 3>);
        impl TraversalKernel for AntiGuided<'_> {
            type Point = KnnPoint<3>;
            type Args = ();
            const MAX_KIDS: usize = 2;
            const CALL_SETS: usize = 2;
            const CALL_SETS_EQUIVALENT: bool = true;
            fn n_nodes(&self) -> usize {
                self.0.n_nodes()
            }
            fn is_leaf(&self, n: NodeId) -> bool {
                self.0.is_leaf(n)
            }
            fn leaf_range(&self, n: NodeId) -> Option<(u32, u32)> {
                self.0.leaf_range(n)
            }
            fn node_bytes(&self) -> NodeBytes {
                self.0.node_bytes()
            }
            fn max_depth(&self) -> usize {
                self.0.max_depth()
            }
            fn root_args(&self) {}
            fn visit(
                &self,
                p: &mut KnnPoint<3>,
                node: NodeId,
                _a: (),
                _f: Option<usize>,
                kids: &mut ChildBuf<()>,
            ) -> VisitOutcome {
                let anti = 1 - self.0.choose(p, node, ());
                self.0.visit(p, node, (), Some(anti), kids)
            }
        }
        let anti = AntiGuided(KnnKernel::new(&tree));
        let mut degraded: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, K)).collect();
        let d = cpu::run_sequential(&anti, &mut degraded);

        // Same answers (§4.3's equivalence claim) ...
        check_matches_oracle(&pts, &degraded, K);
        // ... but the guided order visits meaningfully fewer nodes.
        assert!(
            g.stats.avg_nodes() < 0.9 * d.stats.avg_nodes(),
            "{} vs {}",
            g.stats.avg_nodes(),
            d.stats.avg_nodes()
        );
    }

    #[test]
    fn all_gpu_executors_return_exact_neighbors() {
        let pts = uniform::<2>(150, 33);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);
        let cfg = GpuConfig::default();
        let make = || pts.iter().map(|&p| KnnPoint::new(p, K)).collect::<Vec<_>>();

        let mut a = make();
        autoropes::run(&kernel, &mut a, &cfg);
        check_matches_oracle(&pts, &a, K);

        let mut l = make();
        lockstep::run(&kernel, &mut l, &cfg);
        check_matches_oracle(&pts, &l, K);

        let mut r = make();
        recursive::run(&kernel, &mut r, &cfg, false);
        check_matches_oracle(&pts, &r, K);

        let mut rl = make();
        recursive::run(&kernel, &mut rl, &cfg, true);
        check_matches_oracle(&pts, &rl, K);
    }

    #[test]
    fn reported_ids_match_reported_distances() {
        let pts = uniform::<3>(200, 35);
        let tree = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);
        let mut qs: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, K)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        for q in &qs {
            for (&d2, &id) in q.best.distances().iter().zip(q.best.ids()) {
                let neighbor = tree.points[id as usize];
                assert!((neighbor.dist2(&q.pos) - d2).abs() <= 1e-6 * d2.max(1.0));
            }
        }
    }

    #[test]
    fn k_exceeding_dataset_collects_everything() {
        let pts = uniform::<2>(5, 34);
        let tree = KdTree::build(&pts, 2, SplitPolicy::MedianCycle);
        let kernel = KnnKernel::new(&tree);
        let mut qs: Vec<KnnPoint<2>> = pts.iter().map(|&p| KnnPoint::new(p, 50)).collect();
        cpu::run_sequential(&kernel, &mut qs);
        assert!(qs.iter().all(|q| q.best.len() == 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_lockstep_knn_exact(n in 2usize..120, seed in 0u64..50, k in 1usize..6) {
            let pts = uniform::<3>(n, seed);
            let tree = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
            let kernel = KnnKernel::new(&tree);
            let mut qs: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, k)).collect();
            lockstep::run(&kernel, &mut qs, &GpuConfig::default());
            for (i, q) in qs.iter().enumerate() {
                let want = oracle::knn_dists(&pts, &pts[i], k);
                for (g, w) in q.best.distances().iter().zip(&want) {
                    prop_assert!((g - w).abs() <= 1e-5 * w.max(1.0));
                }
            }
        }
    }
}
