//! The paper's point benchmarks on the **left-balanced implicit kd-tree**
//! ([`gts_trees::LbKdTree`]), traversed by the stack-free Wald walk
//! ([`gts_runtime::gpu::stackless::run_wald`]).
//!
//! There is no kernel to write: one point per node and implicit children
//! leave the walk needing only the op's [`gts_runtime::PointRule`], so it
//! takes [`crate::nn::NnRule`], [`crate::knn::KnnRule`],
//! [`crate::pc::PcRule`] and their fusion as they are, with the point
//! types the rope-stack kernels use. This module holds the tests pinning
//! those rules on that walk to the oracles and to the rope-stack answers.

#[cfg(test)]
mod tests {
    use crate::knn::{KnnPoint, KnnRule};
    use crate::nn::{NnKernel, NnPoint, NnRule};
    use crate::oracle;
    use crate::pc::{PcPoint, PcRule};
    use gts_points::gen::uniform;
    use gts_runtime::gpu::{autoropes, stackless, GpuConfig};
    use gts_trees::{KdTree, LbKdTree, SplitPolicy};
    use proptest::prelude::*;

    #[test]
    fn wald_nn_matches_rope_stack_nn_exactly() {
        let pts = uniform::<3>(400, 61);
        let lb = LbKdTree::build(&pts);
        let kd = KdTree::build(&pts, 4, SplitPolicy::MidpointWidest);
        let cfg = GpuConfig::default();

        let mut wald_qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        stackless::run_wald(&lb, &NnRule, &mut wald_qs, &cfg);

        let mut rope_qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        autoropes::run(&NnKernel::new(&kd), &mut rope_qs, &cfg);

        for (i, (w, r)) in wald_qs.iter().zip(&rope_qs).enumerate() {
            // Same pairwise f32 arithmetic on both sides: the distances
            // are bit-identical, not just close.
            assert_eq!(w.best_d2, r.best_d2, "point {i} distance");
            // Map the rope-stack kernel's reordered index back to the
            // dataset; the Wald kernel already reports dataset ids.
            assert_eq!(w.best_idx, kd.perm[r.best_idx as usize], "point {i} id");
        }
    }

    #[test]
    fn wald_knn_matches_oracle_exactly() {
        let pts = uniform::<3>(300, 62);
        let lb = LbKdTree::build(&pts);
        let mut qs: Vec<KnnPoint<3>> = pts.iter().map(|&p| KnnPoint::new(p, 4)).collect();
        stackless::run_wald(&lb, &KnnRule, &mut qs, &GpuConfig::default());
        for (i, q) in qs.iter().enumerate() {
            let want = oracle::knn_dists(&pts, &pts[i], 4);
            assert_eq!(q.best.distances(), &want[..], "point {i}");
        }
    }

    #[test]
    fn wald_pc_matches_oracle() {
        let pts = uniform::<3>(300, 63);
        let lb = LbKdTree::build(&pts);
        let mut qs: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        let r = stackless::run_wald(&lb, &PcRule::new(0.4), &mut qs, &GpuConfig::default());
        for q in &qs {
            assert_eq!(q.count, oracle::pc_count(&pts, &q.pos, 0.4));
        }
        assert_eq!(r.launch.counters.stack_bytes_peak, 0);
    }

    #[test]
    fn wald_walk_pays_no_stack_traffic() {
        let pts = uniform::<3>(500, 64);
        let lb = LbKdTree::build(&pts);
        let mut qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        let r = stackless::run_wald(&lb, &NnRule, &mut qs, &GpuConfig::default());
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_wald_nn_exact(n in 2usize..150, seed in 0u64..50) {
            let pts = uniform::<3>(n, seed);
            let lb = LbKdTree::build(&pts);
            let mut qs: Vec<NnPoint<3>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
            stackless::run_wald(&lb, &NnRule, &mut qs, &GpuConfig::default());
            for (i, q) in qs.iter().enumerate() {
                let want = oracle::nn_dist2_nonself(&pts, &pts[i]);
                if want.is_finite() {
                    prop_assert_eq!(q.best_d2, want, "point {}", i);
                } else {
                    prop_assert!(q.best_d2.is_infinite());
                }
            }
        }

        #[test]
        fn prop_wald_pc_exact(n in 1usize..150, seed in 0u64..50, r in 0.05f32..1.0) {
            let pts = uniform::<3>(n, seed);
            let lb = LbKdTree::build(&pts);
            let mut qs: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
            stackless::run_wald(&lb, &PcRule::new(r), &mut qs, &GpuConfig::default());
            for (i, q) in qs.iter().enumerate() {
                prop_assert_eq!(q.count, oracle::pc_count(&pts, &pts[i], r));
            }
        }
    }

    #[test]
    fn index_space_documented_behavior() {
        // Building the lb tree over a *reordered* array (as the service
        // does) makes perm point into that array, not the original.
        let pts = uniform::<2>(50, 65);
        let kd = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        let lb = LbKdTree::build(&kd.points);
        let mut qs: Vec<NnPoint<2>> = pts.iter().map(|&p| NnPoint::new(p)).collect();
        stackless::run_wald(&lb, &NnRule, &mut qs, &GpuConfig::default());
        for q in &qs {
            let neighbor = kd.points[q.best_idx as usize];
            assert_eq!(neighbor.dist2(&q.pos), q.best_d2);
        }
    }
}
