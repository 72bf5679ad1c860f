//! Point Correlation (paper §6.1.2, Moore et al. \[20\]).
//!
//! For every point, count how many dataset points lie within a fixed
//! radius, by traversing a kd-tree and truncating at nodes whose bounding
//! box is entirely farther than the radius. This is the paper's running
//! unguided example (Figures 4 and 6): one call set, left child then
//! right child, always.

use gts_runtime::PointRule;
use gts_trees::{KdTree, PointN};

use crate::kd::KdBox;

/// Traversal state of one PC query.
#[derive(Debug, Clone, PartialEq)]
pub struct PcPoint<const D: usize> {
    /// Query position.
    pub pos: PointN<D>,
    /// Points found within the radius so far.
    pub count: u32,
}

impl<const D: usize> PcPoint<D> {
    /// Fresh query at `pos`.
    pub fn new(pos: PointN<D>) -> Self {
        PcPoint { pos, count: 0 }
    }
}

/// PC's `truncate?`/`update`: count the points within a fixed radius;
/// prune beyond it (`can_correlate` from the paper's Figure 4).
#[derive(Debug, Clone, Copy)]
pub struct PcRule {
    radius2: f32,
}

impl PcRule {
    /// Rule counting neighbors within `radius`.
    ///
    /// # Panics
    /// Panics on a radius that is not a finite non-negative number.
    pub fn new(radius: f32) -> Self {
        assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        PcRule {
            radius2: radius * radius,
        }
    }
}

impl<const D: usize> PointRule<D> for PcRule {
    type State = PcPoint<D>;
    const GUIDED: bool = false;

    fn pos(p: &PcPoint<D>) -> &PointN<D> {
        &p.pos
    }
    fn bound(&self, _p: &PcPoint<D>) -> f32 {
        self.radius2
    }
    fn offer(&self, p: &mut PcPoint<D>, d2: f32, _idx: u32) {
        if d2 <= self.radius2 {
            p.count += 1;
        }
    }
    /// One branch-free count for the whole bucket.
    #[inline]
    fn offer_bucket(&self, p: &mut PcPoint<D>, d2: &[f32], _ids: &[u32]) {
        p.count += within(d2, self.radius2);
    }
}

/// How many of `d2` are at most `radius2`, counted without a branch per
/// point.
#[inline]
pub(crate) fn within(d2: &[f32], radius2: f32) -> u32 {
    d2.iter().map(|&d2| u32::from(d2 <= radius2)).sum()
}

/// The Point Correlation kernel over a median-split kd-tree.
pub type PcKernel<'t, const D: usize> = KdBox<'t, D, PcRule>;

impl<'t, const D: usize> PcKernel<'t, D> {
    /// Kernel counting neighbors within `radius` of each query.
    pub fn new(tree: &'t KdTree<D>, radius: f32) -> Self {
        KdBox::with_rule(tree, PcRule::new(radius))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use gts_points::gen::uniform;
    use gts_runtime::cpu;
    use gts_runtime::gpu::{autoropes, lockstep, recursive, GpuConfig};
    use gts_trees::SplitPolicy;

    fn setup(n: usize, radius: f32) -> (Vec<PointN<3>>, KdTree<3>) {
        let pts = uniform::<3>(n, 21);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let _ = radius;
        (pts, tree)
    }

    #[test]
    fn cpu_matches_oracle() {
        let (pts, tree) = setup(300, 0.4);
        let kernel = PcKernel::new(&tree, 0.4);
        let mut queries: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut queries);
        for q in &queries {
            assert_eq!(q.count, oracle::pc_count(&pts, &q.pos, 0.4));
        }
    }

    #[test]
    fn all_executors_agree_with_oracle() {
        let (pts, tree) = setup(200, 0.5);
        let kernel = PcKernel::new(&tree, 0.5);
        let cfg = GpuConfig::default();
        let make = || pts.iter().map(|&p| PcPoint::new(p)).collect::<Vec<_>>();

        let mut a = make();
        autoropes::run(&kernel, &mut a, &cfg);
        let mut l = make();
        lockstep::run(&kernel, &mut l, &cfg);
        let mut r = make();
        recursive::run(&kernel, &mut r, &cfg, false);
        let mut rl = make();
        recursive::run(&kernel, &mut rl, &cfg, true);

        for (i, p) in pts.iter().enumerate() {
            let expect = oracle::pc_count(&pts, p, 0.5);
            assert_eq!(a[i].count, expect, "autoropes point {i}");
            assert_eq!(l[i].count, expect, "lockstep point {i}");
            assert_eq!(r[i].count, expect, "recursive point {i}");
            assert_eq!(rl[i].count, expect, "recursive-lockstep point {i}");
        }
    }

    #[test]
    fn zero_radius_counts_coincident_points_only() {
        let (pts, tree) = setup(100, 0.0);
        let kernel = PcKernel::new(&tree, 0.0);
        let mut queries: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut queries);
        // Every point at least finds itself.
        assert!(queries.iter().all(|q| q.count >= 1));
    }

    #[test]
    fn huge_radius_counts_everything() {
        let (pts, tree) = setup(150, 100.0);
        let kernel = PcKernel::new(&tree, 100.0);
        let mut queries: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        cpu::run_sequential(&kernel, &mut queries);
        assert!(queries.iter().all(|q| q.count == pts.len() as u32));
    }

    #[test]
    fn smaller_radius_visits_fewer_nodes() {
        // §6.3: “by decreasing this radius traversals will truncate more
        // quickly”.
        let (pts, tree) = setup(400, 0.0);
        let small = PcKernel::new(&tree, 0.05);
        let large = PcKernel::new(&tree, 0.8);
        let mut qs: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        let rs = cpu::run_sequential(&small, &mut qs);
        let mut ql: Vec<PcPoint<3>> = pts.iter().map(|&p| PcPoint::new(p)).collect();
        let rl = cpu::run_sequential(&large, &mut ql);
        assert!(rs.stats.avg_nodes() < rl.stats.avg_nodes());
    }

    #[test]
    #[should_panic(expected = "bad radius")]
    fn nan_radius_rejected() {
        let (_, tree) = setup(10, 0.0);
        let _ = PcKernel::new(&tree, f32::NAN);
    }
}
