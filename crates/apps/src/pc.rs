//! Point Correlation (paper §6.1.2, Moore et al. \[20\]).
//!
//! For every point, count how many dataset points lie within a fixed
//! radius, by traversing a kd-tree and truncating at nodes whose bounding
//! box is entirely farther than the radius. This is the paper's running
//! unguided example (Figures 4 and 6): one call set, left child then
//! right child, always.

use gts_runtime::{Child, ChildBuf, TraversalKernel, VisitOutcome};
use gts_trees::layout::NodeBytes;
use gts_trees::{Aabb, KdTree, NodeId, PointN};

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

/// The Point Correlation kernel over a median-split kd-tree.
pub struct PcKernel<'t, const D: usize> {
    tree: &'t KdTree<D>,
    radius2: f32,
    depth: usize,
}

impl<'t, const D: usize> PcKernel<'t, D> {
    /// Kernel counting neighbors within `radius` of each query.
    pub fn new(tree: &'t KdTree<D>, radius: f32) -> Self {
        assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        PcKernel {
            tree,
            radius2: radius * radius,
            depth: tree.depth(),
        }
    }

    /// `can_correlate` from the paper's Figure 4: can this subtree contain
    /// any point within the radius?
    fn can_correlate(&self, node: NodeId, pos: &PointN<D>) -> bool {
        let b = Aabb {
            lo: self.tree.bbox_lo[node as usize],
            hi: self.tree.bbox_hi[node as usize],
        };
        b.dist2_to(pos) <= self.radius2
    }
}

impl<const D: usize> TraversalKernel for PcKernel<'_, D> {
    type Point = PcPoint<D>;
    type Args = ();
    const MAX_KIDS: usize = 2;
    const CALL_SETS: usize = 1;

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
    fn root_args(&self) {}

    fn visit(
        &self,
        p: &mut PcPoint<D>,
        node: NodeId,
        _args: (),
        _forced: Option<usize>,
        kids: &mut ChildBuf<()>,
    ) -> VisitOutcome {
        if !self.can_correlate(node, &p.pos) {
            return VisitOutcome::Truncated;
        }
        if self.tree.is_leaf(node) {
            for q in self.tree.leaf_points(node) {
                if q.dist2(&p.pos) <= self.radius2 {
                    p.count += 1;
                }
            }
            return VisitOutcome::Leaf;
        }
        kids.push(Child {
            node: self.tree.left(node),
            args: (),
        });
        kids.push(Child {
            node: self.tree.right[node as usize],
            args: (),
        });
        VisitOutcome::Descended { call_set: 0 }
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
