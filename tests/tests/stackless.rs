//! The left-balanced implicit kd layout the stack-free Wald walk runs on:
//! the builder emits a permutation of its input, the heap-order partition
//! invariant holds at every node, and `locate` descends to a leaf whose
//! path respects every split plane. (The stackless walks' answers are
//! `fusion::every_backend_answers_fused_and_per_op_alike`'s.)

use gts_points::gen::uniform;
use gts_trees::{LbKdTree, NO_NODE};
use proptest::prelude::*;
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The left-balanced builder is a pure relabeling: `perm` is a
    /// permutation of the input and `points[i] == input[perm[i]]`, with
    /// the heap-order partition invariant intact (checked by
    /// `validate`).
    #[test]
    fn lb_layout_round_trips_the_input(
        n in 1usize..300,
        seed in 0u64..1_000_000_000,
    ) {
        let pts = uniform::<3>(n, seed);
        let tree = LbKdTree::build(&pts);
        tree.validate().expect("structural invariants");
        prop_assert_eq!(tree.n_nodes(), n);
        let mut seen = vec![false; n];
        for (i, &src) in tree.perm.iter().enumerate() {
            prop_assert!(!seen[src as usize], "perm not a permutation");
            seen[src as usize] = true;
            prop_assert_eq!(tree.points[i], pts[src as usize]);
        }
    }

    /// Implicit navigation round-trips: every non-root node's parent
    /// link inverts the child link, and `locate` lands on a node whose
    /// root path respects each split plane for the query point.
    #[test]
    fn lb_navigation_and_locate_respect_split_planes(
        n in 1usize..300,
        seed in 0u64..1_000_000_000,
    ) {
        let pts = uniform::<3>(n, seed);
        let tree = LbKdTree::build(&pts);
        for node in 0..n as u32 {
            let (l, r) = (tree.left(node), tree.right(node));
            if l != NO_NODE {
                prop_assert_eq!(tree.parent(l), node);
            }
            if r != NO_NODE {
                prop_assert_eq!(tree.parent(r), node);
            }
            prop_assert_eq!(tree.is_leaf(node), l == NO_NODE && r == NO_NODE);
        }
        for p in &pts {
            let mut node = tree.locate(p);
            prop_assert!(tree.is_leaf(node) || tree.left(node) == NO_NODE);
            // Walk back to the root checking each plane crossing was the
            // one `locate` should have taken (or a forced sibling detour
            // where the preferred child does not exist in the array).
            while node != 0 {
                let parent = tree.parent(node);
                let axis = tree.split_dim[parent as usize] as usize;
                let went_left = tree.left(parent) == node;
                let prefers_left = p[axis] < tree.points[parent as usize][axis];
                let forced = if prefers_left {
                    tree.left(parent) == NO_NODE
                } else {
                    tree.right(parent) == NO_NODE
                };
                prop_assert!(went_left == prefers_left || forced);
                node = parent;
            }
        }
    }
}
