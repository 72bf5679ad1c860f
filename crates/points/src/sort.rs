//! Point sorting (paper §4.4) and its inverse, shuffling.
//!
//! Sorting places points with similar traversals consecutively so that the
//! 32 points of a warp traverse similar parts of the tree, bounding
//! lockstep work expansion. Two general sorts are provided:
//!
//! * [`morton_order`] — interleave the bits of quantized coordinates
//!   (Z-order curve); purely geometric, works for any dimension.
//! * [`tree_order`] — sort points by the preorder index of the tree leaf
//!   they descend to, using any tree's `locate`; this matches the
//!   traversal structure even for metric trees (VP) where geometric
//!   curves are less faithful.
//!
//! [`shuffle`] produces the paper's “unsorted” configuration from any
//! point set, deterministically.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gts_trees::{Aabb, PointN};

/// Bits per dimension used by the Morton quantization.
const MORTON_BITS: u32 = 10;

/// Morton (Z-order) key of `p` within `bbox`: quantize each coordinate to
/// `MORTON_BITS` (10) bits and interleave across dimensions.
pub fn morton_key<const D: usize>(p: &PointN<D>, bbox: &Aabb<D>) -> u128 {
    let mut q = [0u32; D];
    for a in 0..D {
        let ext = bbox.extent(a).max(f32::MIN_POSITIVE);
        let t = ((p[a] - bbox.lo[a]) / ext).clamp(0.0, 1.0);
        q[a] = (t * ((1 << MORTON_BITS) - 1) as f32) as u32;
    }
    let mut key: u128 = 0;
    // Interleave from the most significant bit so the key orders by the
    // coarsest spatial split first.
    for bit in (0..MORTON_BITS).rev() {
        for qa in q.iter().take(D) {
            key = (key << 1) | ((qa >> bit) & 1) as u128;
        }
    }
    key
}

/// Return the permutation that sorts `pts` in Morton order. Apply it with
/// [`apply_perm`].
pub fn morton_order<const D: usize>(pts: &[PointN<D>]) -> Vec<u32> {
    let bbox = Aabb::of_points(pts);
    let mut order: Vec<u32> = (0..pts.len() as u32).collect();
    order.sort_by_cached_key(|&i| morton_key(&pts[i as usize], &bbox));
    order
}

/// Return the permutation that sorts points by a tree-derived key (e.g.
/// the preorder id of the leaf each point descends to, via
/// `KdTree::locate` / `VpTree::locate`).
pub fn tree_order<T, K: Ord>(pts: &[T], locate: impl Fn(&T) -> K) -> Vec<u32> {
    let mut order: Vec<u32> = (0..pts.len() as u32).collect();
    order.sort_by_cached_key(|&i| locate(&pts[i as usize]));
    order
}

/// Apply a permutation: `out[k] = xs[perm[k]]`.
pub fn apply_perm<T: Clone>(xs: &[T], perm: &[u32]) -> Vec<T> {
    assert_eq!(xs.len(), perm.len(), "permutation length mismatch");
    perm.iter().map(|&i| xs[i as usize].clone()).collect()
}

/// Deterministically shuffle `xs` — the paper's “unsorted” inputs.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    xs.shuffle(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn morton_key_orders_quadrants() {
        let bbox = Aabb {
            lo: PointN([0.0, 0.0]),
            hi: PointN([1.0, 1.0]),
        };
        // Z-order visits (lo,lo) before (hi,hi).
        let k00 = morton_key(&PointN([0.1, 0.1]), &bbox);
        let k11 = morton_key(&PointN([0.9, 0.9]), &bbox);
        assert!(k00 < k11);
    }

    #[test]
    fn morton_order_groups_neighbors() {
        // Two tight clusters; after sorting, each cluster must be
        // contiguous (no interleaving between clusters).
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(PointN([0.01 * i as f32, 0.0]));
            pts.push(PointN([100.0 + 0.01 * i as f32, 100.0]));
        }
        let order = morton_order(&pts);
        let sorted = apply_perm(&pts, &order);
        let labels: Vec<bool> = sorted.iter().map(|p| p[0] > 50.0).collect();
        let transitions = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "clusters interleaved: {labels:?}");
    }

    #[test]
    fn tree_order_sorts_by_key() {
        let xs = [5, 3, 9, 1];
        let order = tree_order(&xs, |&x| x);
        assert_eq!(apply_perm(&xs, &order), vec![1, 3, 5, 9]);
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        shuffle(&mut a, 3);
        shuffle(&mut b, 3);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_perm_checks_len() {
        let _ = apply_perm(&[1, 2, 3], &[0, 1]);
    }

    proptest! {
        #[test]
        fn prop_morton_order_is_permutation(n in 1usize..200, seed in 0u64..100) {
            let pts = crate::gen::uniform::<3>(n, seed);
            let order = morton_order(&pts);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        }

        #[test]
        fn prop_sorting_preserves_multiset(n in 1usize..200, seed in 0u64..100) {
            let pts = crate::gen::uniform::<2>(n, seed);
            let sorted = apply_perm(&pts, &morton_order(&pts));
            let key = |p: &PointN<2>| (p[0].to_bits(), p[1].to_bits());
            let mut a: Vec<_> = pts.iter().map(key).collect();
            let mut b: Vec<_> = sorted.iter().map(key).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
