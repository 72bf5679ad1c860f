//! kd-trees in left-biased preorder linearization.
//!
//! Two build policies cover the paper's two kd-tree benchmarks:
//!
//! * [`SplitPolicy::MedianCycle`] — cycle the split axis with depth, split
//!   at the coordinate median. Used by Point Correlation and kNN.
//! * [`SplitPolicy::MidpointWidest`] — split the widest bounding-box axis
//!   at its midpoint (falling back to a median split when one side would
//!   be empty). This is the “different implementation of the kd-tree
//!   structure” behind the paper's separate NN benchmark (§6.1.2): it
//!   produces different shapes, different traversal lengths, and supports
//!   split-plane pruning rather than bbox pruning.
//!
//! Nodes are emitted in **preorder with the left child first** so that
//! `left(n) == n + 1` for every interior node — the paper's left-biased
//! linearization (§5.2). Only the right child index is stored.

use serde::{Deserialize, Serialize};

use crate::geom::{Aabb, PointN};
use crate::{NodeId, NO_NODE};

/// How interior nodes choose their split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitPolicy {
    /// Axis = depth mod D; split at the median coordinate.
    MedianCycle,
    /// Axis = widest bbox axis; split at the bbox midpoint, median fallback.
    MidpointWidest,
}

/// A linearized kd-tree over `D`-dimensional points, structure-of-arrays.
///
/// Index 0 is the root; interior node `n` has its left child at `n + 1`
/// and its right child at `right[n]`. Leaves own a contiguous bucket
/// `points[first[n] .. first[n] + count[n]]` of the (reordered) input.
#[derive(Debug, Clone)]
pub struct KdTree<const D: usize> {
    /// Per-node bounding-box minimum corner.
    pub bbox_lo: Vec<PointN<D>>,
    /// Per-node bounding-box maximum corner.
    pub bbox_hi: Vec<PointN<D>>,
    /// Split axis (meaningful for interior nodes only).
    pub split_dim: Vec<u8>,
    /// Split coordinate (meaningful for interior nodes only).
    pub split_val: Vec<f32>,
    /// Right child, or [`NO_NODE`] for leaves. The stackless walk's escape
    /// links are a function of it ([`crate::linearize::skip_links`]).
    pub right: Vec<NodeId>,
    /// First point of the leaf bucket (leaves only).
    pub first: Vec<u32>,
    /// Bucket length; 0 for interior nodes.
    pub count: Vec<u32>,
    /// Input points, reordered so every leaf bucket is contiguous.
    pub points: Vec<PointN<D>>,
    /// `perm[i]` = original index of `points[i]`.
    pub perm: Vec<u32>,
    /// Policy the tree was built with.
    pub policy: SplitPolicy,
    /// Maximum bucket size.
    pub leaf_size: usize,
    /// Deepest leaf (root = 0), recorded while [`KdTree::build`] recurses.
    depth: usize,
}

impl<const D: usize> KdTree<D> {
    /// Build a kd-tree over `pts` with buckets of at most `leaf_size`.
    ///
    /// # Panics
    /// Panics if `pts` is empty, `leaf_size` is 0, or any coordinate is
    /// non-finite (NaN would corrupt the median partition).
    pub fn build(pts: &[PointN<D>], leaf_size: usize, policy: SplitPolicy) -> Self {
        assert!(!pts.is_empty(), "kd-tree over zero points");
        assert!(leaf_size > 0, "leaf_size must be positive");
        assert!(
            pts.iter().all(PointN::is_finite),
            "kd-tree input contains non-finite coordinates"
        );
        let n = pts.len();
        let mut tree = KdTree {
            bbox_lo: Vec::new(),
            bbox_hi: Vec::new(),
            split_dim: Vec::new(),
            split_val: Vec::new(),
            right: Vec::new(),
            first: Vec::new(),
            count: Vec::new(),
            points: pts.to_vec(),
            perm: (0..n as u32).collect(),
            policy,
            leaf_size,
            depth: 0,
        };
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let bbox = Aabb::of_points(pts);
        tree.build_rec(pts, &mut idx, 0, bbox, 0);
        // Reorder points so leaf buckets are contiguous: `idx` is now the
        // leaf-order permutation.
        tree.points = idx.iter().map(|&i| pts[i as usize]).collect();
        tree.perm = idx;
        tree
    }

    /// Recursive preorder build over the index slice `idx[lo..]`; returns
    /// the id of the subtree root. `offset` is the absolute position of
    /// `idx[0]` within the full index array (for leaf `first` values).
    fn build_rec(
        &mut self,
        pts: &[PointN<D>],
        idx: &mut [u32],
        offset: u32,
        bbox: Aabb<D>,
        depth: usize,
    ) -> NodeId {
        let id = self.bbox_lo.len() as NodeId;
        self.bbox_lo.push(bbox.lo);
        self.bbox_hi.push(bbox.hi);
        self.split_dim.push(0);
        self.split_val.push(0.0);
        self.right.push(NO_NODE);
        self.first.push(offset);
        self.count.push(0);

        if idx.len() <= self.leaf_size {
            self.count[id as usize] = idx.len() as u32;
            self.depth = self.depth.max(depth);
            return id;
        }

        let (axis, mid) = self.partition(pts, idx, &bbox, depth);
        self.split_dim[id as usize] = axis as u8;
        // Split value: the plane between the two halves. For the median
        // policy the pivot element sits at the start of the right half;
        // left coords are <= pivot, right coords >= pivot, which is what
        // split-plane pruning needs.
        let split_val = pts[idx[mid] as usize][axis];
        self.split_val[id as usize] = split_val;

        let tight_left = Aabb::of_points_idx(pts, &idx[..mid]);
        let tight_right = Aabb::of_points_idx(pts, &idx[mid..]);
        let (l, r) = idx.split_at_mut(mid);
        let left_id = self.build_rec(pts, l, offset, tight_left, depth + 1);
        debug_assert_eq!(left_id, id + 1, "left-biased preorder violated");
        let right_id = self.build_rec(pts, r, offset + mid as u32, tight_right, depth + 1);
        self.right[id as usize] = right_id;
        id
    }

    /// Choose an axis and partition `idx` around it; returns `(axis, mid)`
    /// where `idx[..mid]` goes left. Guarantees `0 < mid < idx.len()`.
    fn partition(
        &self,
        pts: &[PointN<D>],
        idx: &mut [u32],
        bbox: &Aabb<D>,
        depth: usize,
    ) -> (usize, usize) {
        match self.policy {
            SplitPolicy::MedianCycle => {
                let axis = depth % D;
                let mid = idx.len() / 2;
                idx.select_nth_unstable_by(mid, |&a, &b| {
                    pts[a as usize][axis].total_cmp(&pts[b as usize][axis])
                });
                (axis, mid)
            }
            SplitPolicy::MidpointWidest => {
                let axis = bbox.widest_axis();
                let plane = bbox.mid(axis);
                let mid = partition_in_place(idx, |&i| pts[i as usize][axis] < plane);
                if mid == 0 || mid == idx.len() {
                    // All points on one side of the midpoint (duplicates or
                    // heavy clustering): fall back to a median split so the
                    // recursion always makes progress.
                    let mid = idx.len() / 2;
                    idx.select_nth_unstable_by(mid, |&a, &b| {
                        pts[a as usize][axis].total_cmp(&pts[b as usize][axis])
                    });
                    (axis, mid)
                } else {
                    // Order within halves is irrelevant, but the element at
                    // `mid` must carry a coordinate >= every left coord for
                    // split-plane pruning; establish that by selecting the
                    // minimum of the right half to the boundary.
                    idx[mid..].select_nth_unstable_by(0, |&a, &b| {
                        pts[a as usize][axis].total_cmp(&pts[b as usize][axis])
                    });
                    (axis, mid)
                }
            }
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.bbox_lo.len()
    }

    /// Bounding box of the whole tree (the root node's box).
    pub fn bbox(&self) -> Aabb<D> {
        Aabb {
            lo: self.bbox_lo[0],
            hi: self.bbox_hi[0],
        }
    }

    /// Number of points.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    /// Is `n` a leaf?
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.right[n as usize] == NO_NODE && self.count[n as usize] > 0 || self.n_nodes() == 1
    }

    /// Left child of interior node `n` (always `n + 1` by construction).
    pub fn left(&self, n: NodeId) -> NodeId {
        n + 1
    }

    /// The points of leaf `n`'s bucket.
    pub fn leaf_points(&self, n: NodeId) -> &[PointN<D>] {
        let f = self.first[n as usize] as usize;
        let c = self.count[n as usize] as usize;
        &self.points[f..f + c]
    }

    /// Maximum depth (root = 0). Recorded at build time: kernels read it
    /// on every batch to size their rope stacks.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Leaf that `p` would descend to following split planes (used for
    /// tree-order point sorting, paper §4.4).
    pub fn locate(&self, p: &PointN<D>) -> NodeId {
        let mut n = 0 as NodeId;
        while !self.is_leaf(n) {
            let axis = self.split_dim[n as usize] as usize;
            n = if p[axis] < self.split_val[n as usize] {
                self.left(n)
            } else {
                self.right[n as usize]
            };
        }
        n
    }

    /// Check structural invariants; returns a description of the first
    /// violation. Used by tests and property tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_nodes();
        if n == 0 {
            return Err("empty tree".into());
        }
        let mut seen_points = 0usize;
        let mut stack = vec![0 as NodeId];
        let mut visited = vec![false; n];
        while let Some(id) = stack.pop() {
            let i = id as usize;
            if i >= n {
                return Err(format!("node id {id} out of range"));
            }
            if visited[i] {
                return Err(format!("node {id} reachable twice"));
            }
            visited[i] = true;
            let bbox = Aabb {
                lo: self.bbox_lo[i],
                hi: self.bbox_hi[i],
            };
            if !bbox.is_valid() {
                return Err(format!("node {id} has an invalid bbox"));
            }
            if self.is_leaf(id) {
                let f = self.first[i] as usize;
                let c = self.count[i] as usize;
                if c == 0 && n > 1 {
                    return Err(format!("leaf {id} is empty"));
                }
                if c > self.leaf_size {
                    return Err(format!("leaf {id} exceeds leaf_size"));
                }
                if f + c > self.points.len() {
                    return Err(format!("leaf {id} bucket out of range"));
                }
                for p in &self.points[f..f + c] {
                    if !bbox.contains(p) {
                        return Err(format!("leaf {id} bbox does not contain its points"));
                    }
                }
                seen_points += c;
            } else {
                let (l, r) = (self.left(id), self.right[i]);
                if r == NO_NODE {
                    return Err(format!("interior {id} missing right child"));
                }
                let axis = self.split_dim[i] as usize;
                let sv = self.split_val[i];
                // Child bboxes inside parent, split separates them.
                for (side, c) in [("left", l), ("right", r)] {
                    let cb = Aabb {
                        lo: self.bbox_lo[c as usize],
                        hi: self.bbox_hi[c as usize],
                    };
                    if !(bbox.union(&cb) == bbox) {
                        return Err(format!("{side} child of {id} escapes parent bbox"));
                    }
                }
                if self.bbox_hi[l as usize][axis] > sv + 1e-6
                    && self.policy == SplitPolicy::MedianCycle
                {
                    return Err(format!("left subtree of {id} crosses split plane"));
                }
                if self.bbox_lo[r as usize][axis] < sv - 1e-6 {
                    return Err(format!("right subtree of {id} crosses split plane"));
                }
                stack.push(r);
                stack.push(l);
            }
        }
        if seen_points != self.points.len() {
            return Err(format!(
                "leaves cover {seen_points} points, expected {}",
                self.points.len()
            ));
        }
        if !visited.iter().all(|&v| v) {
            return Err("unreachable nodes exist".into());
        }
        let right = &self.right;
        crate::linearize::check_skip_links(right, &crate::linearize::skip_links(right))
    }
}

impl<const D: usize> Aabb<D> {
    /// Bounding box of the points selected by `idx`.
    fn of_points_idx(pts: &[PointN<D>], idx: &[u32]) -> Aabb<D> {
        idx.iter()
            .fold(Aabb::empty(), |b, &i| b.grow(pts[i as usize]))
    }
}

/// Stable-order-free in-place partition: elements satisfying `pred` move to
/// the front; returns the boundary index.
fn partition_in_place<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut i = 0;
    for j in 0..xs.len() {
        if pred(&xs[j]) {
            xs.swap(i, j);
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<PointN<D>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| PointN(std::array::from_fn(|_| rng.gen_range(-100.0..100.0))))
            .collect()
    }

    #[test]
    fn single_point_is_one_leaf() {
        let t = KdTree::build(&[PointN([1.0, 2.0])], 4, SplitPolicy::MedianCycle);
        assert_eq!(t.n_nodes(), 1);
        assert!(t.is_leaf(0));
        assert_eq!(t.leaf_points(0).len(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn median_tree_validates() {
        let pts = random_points::<3>(500, 1);
        let t = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        t.validate().unwrap();
        assert!(t.n_nodes() > 64);
    }

    #[test]
    fn midpoint_tree_validates() {
        let pts = random_points::<3>(500, 2);
        let t = KdTree::build(&pts, 8, SplitPolicy::MidpointWidest);
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_points_terminate() {
        // All identical: midpoint split would loop without the median
        // fallback; both policies must terminate and validate.
        let pts = vec![PointN([3.0, 3.0]); 100];
        for policy in [SplitPolicy::MedianCycle, SplitPolicy::MidpointWidest] {
            let t = KdTree::build(&pts, 4, policy);
            t.validate().unwrap();
            assert_eq!(t.n_points(), 100);
        }
    }

    #[test]
    fn left_child_is_next_node() {
        let pts = random_points::<2>(200, 3);
        let t = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        for n in 0..t.n_nodes() as NodeId {
            if !t.is_leaf(n) {
                assert_eq!(t.left(n), n + 1);
                assert!(t.right[n as usize] > n + 1);
            }
        }
    }

    #[test]
    fn perm_is_permutation() {
        let pts = random_points::<2>(300, 4);
        let t = KdTree::build(&pts, 4, SplitPolicy::MedianCycle);
        let mut seen = vec![false; 300];
        for &p in &t.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        for (i, &p) in t.perm.iter().enumerate() {
            assert_eq!(t.points[i], pts[p as usize]);
        }
    }

    #[test]
    fn locate_finds_containing_leaf() {
        let pts = random_points::<2>(400, 5);
        let t = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        for p in &pts {
            let leaf = t.locate(p);
            assert!(t.is_leaf(leaf));
        }
    }

    #[test]
    fn depth_is_logarithmic_for_median() {
        let pts = random_points::<3>(1024, 6);
        let t = KdTree::build(&pts, 1, SplitPolicy::MedianCycle);
        // Perfectly balanced would be 10; allow slack for bucket rounding.
        assert!(t.depth() <= 12, "depth {} too large", t.depth());
    }

    /// The walk `depth()` used to be: deepest leaf, root = 0.
    fn walked_depth<const D: usize>(t: &KdTree<D>, n: NodeId, d: usize) -> usize {
        if t.is_leaf(n) {
            d
        } else {
            walked_depth(t, t.left(n), d + 1).max(walked_depth(t, t.right[n as usize], d + 1))
        }
    }

    #[test]
    fn recorded_depth_equals_the_walked_depth() {
        let mut dup_heavy = vec![PointN([0.25f32, 0.75, 0.5]); 300];
        dup_heavy.extend(random_points::<3>(200, 9));
        let inputs = [
            random_points::<3>(1, 1),
            random_points::<3>(7, 2),
            random_points::<3>(1000, 3),
            dup_heavy,
        ];
        for pts in &inputs {
            for policy in [SplitPolicy::MedianCycle, SplitPolicy::MidpointWidest] {
                for leaf_size in [1, 8, 32] {
                    let t = KdTree::build(pts, leaf_size, policy);
                    assert_eq!(
                        t.depth(),
                        walked_depth(&t, 0, 0),
                        "{} points, {policy:?}, leaf_size {leaf_size}",
                        pts.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_input_rejected() {
        let _ = KdTree::<2>::build(&[], 4, SplitPolicy::MedianCycle);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_rejected() {
        let _ = KdTree::build(&[PointN([f32::NAN, 0.0])], 4, SplitPolicy::MedianCycle);
    }

    proptest! {
        #[test]
        fn prop_tree_invariants_median(n in 1usize..300, leaf in 1usize..16, seed in 0u64..1000) {
            let pts = random_points::<3>(n, seed);
            let t = KdTree::build(&pts, leaf, SplitPolicy::MedianCycle);
            prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        }

        #[test]
        fn prop_tree_invariants_midpoint(n in 1usize..300, leaf in 1usize..16, seed in 0u64..1000) {
            let pts = random_points::<3>(n, seed);
            let t = KdTree::build(&pts, leaf, SplitPolicy::MidpointWidest);
            prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        }

        #[test]
        fn prop_clustered_duplicates(dups in 1usize..50, uniq in 0usize..50, seed in 0u64..100) {
            let mut pts = vec![PointN([1.0f32, 1.0]); dups];
            pts.extend(random_points::<2>(uniq, seed));
            for policy in [SplitPolicy::MedianCycle, SplitPolicy::MidpointWidest] {
                let t = KdTree::build(&pts, 4, policy);
                prop_assert!(t.validate().is_ok());
                prop_assert_eq!(t.n_points(), pts.len());
            }
        }
    }
}
