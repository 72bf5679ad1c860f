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

/// Hilbert-curve key of a 2-d point within `bbox`: the classic `xy2d`
/// walk over a `2^HILBERT_ORDER × 2^HILBERT_ORDER` grid. The Hilbert curve
/// has strictly better locality than the Z-order curve (no long diagonal
/// jumps), at the cost of being dimension-specific; [`morton_key`] covers
/// arbitrary `D`.
pub fn hilbert_key_2d(p: &PointN<2>, bbox: &Aabb<2>) -> u64 {
    const ORDER: u32 = 16;
    let n: u64 = 1 << ORDER;
    let quant = |a: usize| -> u64 {
        let ext = bbox.extent(a).max(f32::MIN_POSITIVE);
        let t = ((p[a] - bbox.lo[a]) / ext).clamp(0.0, 1.0);
        ((t * (n - 1) as f32) as u64).min(n - 1)
    };
    let (mut x, mut y) = (quant(0), quant(1));
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant (canonical xy2d rotation over the full grid).
        if ry == 0 {
            if rx == 1 {
                x = (n - 1) - x;
                y = (n - 1) - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Return the permutation that sorts 2-d points along the Hilbert curve.
pub fn hilbert_order_2d(pts: &[PointN<2>]) -> Vec<u32> {
    let bbox = Aabb::of_points(pts);
    let mut order: Vec<u32> = (0..pts.len() as u32).collect();
    order.sort_by_cached_key(|&i| hilbert_key_2d(&pts[i as usize], &bbox));
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

    #[test]
    fn hilbert_matches_canonical_4x4_reference() {
        // xy2d reference values for the order-2 (4×4) curve.
        let expect = [
            [0u64, 1, 14, 15],
            [3, 2, 13, 12],
            [4, 7, 8, 11],
            [5, 6, 9, 10],
        ];
        // Quantization maps cell centers of a 4×4 grid onto the 2^16 grid;
        // scale the keys back down: each 4×4 cell covers (2^14)² sub-cells.
        let bbox = Aabb {
            lo: PointN([0.0, 0.0]),
            hi: PointN([1.0, 1.0]),
        };
        let cell = 1u64 << (2 * 14);
        for (yi, row) in expect.iter().enumerate() {
            for (xi, &want) in row.iter().enumerate() {
                let p = PointN([(xi as f32 + 0.5) / 4.0, (yi as f32 + 0.5) / 4.0]);
                let got = hilbert_key_2d(&p, &bbox) / cell;
                assert_eq!(got, want, "cell ({xi},{yi})");
            }
        }
    }

    #[test]
    fn hilbert_keys_of_adjacent_cells_are_close() {
        // Walk a fine grid row: consecutive cells' Hilbert keys never jump
        // by more than a small constant on average (the locality property
        // Z-order lacks at quadrant boundaries).
        let bbox = Aabb {
            lo: PointN([0.0, 0.0]),
            hi: PointN([1.0, 1.0]),
        };
        let steps = 256;
        let mut total_jump: u64 = 0;
        let mut prev = hilbert_key_2d(&PointN([0.0, 0.5]), &bbox);
        for i in 1..steps {
            let x = i as f32 / steps as f32;
            let k = hilbert_key_2d(&PointN([x, 0.5]), &bbox);
            total_jump += k.abs_diff(prev);
            prev = k;
        }
        // A straight row crosses the full curve range; the average jump
        // stays bounded by ~range/steps × small constant.
        let range: u64 = 1 << 32;
        assert!(
            total_jump / (steps - 1) < range / 16,
            "avg jump {}",
            total_jump / (steps - 1)
        );
    }

    #[test]
    fn hilbert_order_groups_clusters_contiguously() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(PointN([0.01 * i as f32, 0.0]));
            pts.push(PointN([100.0 + 0.01 * i as f32, 100.0]));
        }
        let sorted = apply_perm(&pts, &hilbert_order_2d(&pts));
        let labels: Vec<bool> = sorted.iter().map(|p| p[0] > 50.0).collect();
        let transitions = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "clusters interleaved: {labels:?}");
    }

    proptest! {
        #[test]
        fn prop_hilbert_order_is_permutation(n in 1usize..200, seed in 0u64..100) {
            let pts = crate::gen::uniform::<2>(n, seed);
            let order = hilbert_order_2d(&pts);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        }

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
