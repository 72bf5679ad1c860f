//! A bounded set of the k smallest squared distances, the per-point state
//! of the kNN benchmark.
//!
//! Stored as a sorted insertion list: k is small (the paper's kNN uses a
//! handful of neighbors), so `O(k)` insertion beats a heap on both CPU and
//! (modeled) GPU. The distances and ids are two `Vec`s created with
//! capacity `k`, and a full set evicts before it inserts, so neither ever
//! grows — no dynamic allocation per visit. The prune bound, which a walk
//! reads at every node, is kept beside them and set when an insert leaves
//! the set full, instead of being read back out of the distances.

/// The k smallest squared distances seen so far, ascending, each with the
/// index of the point that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct KBest {
    k: usize,
    /// What [`KBest::bound`] reports, kept up to date by `offer`.
    bound: f32,
    d2: Vec<f32>,
    ids: Vec<u32>,
}

impl KBest {
    /// Empty set of capacity `k`.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "kNN with k = 0");
        KBest {
            k,
            bound: f32::INFINITY,
            d2: Vec::with_capacity(k),
            ids: Vec::with_capacity(k),
        }
    }

    /// A zero-capacity set that is permanently full with a `-inf` bound:
    /// it rejects every offer and prunes every subtree. Fused traversals
    /// use this as the *inert* kNN constituent for lanes that did not ask
    /// for kNN — it never updates and never widens the union prune bound.
    pub fn inactive() -> Self {
        KBest {
            k: 0,
            bound: f32::NEG_INFINITY,
            d2: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors collected so far.
    pub fn len(&self) -> usize {
        self.d2.len()
    }

    /// Nothing collected yet?
    pub fn is_empty(&self) -> bool {
        self.d2.is_empty()
    }

    /// Has the set reached capacity? Pruning is only sound once it has.
    pub fn full(&self) -> bool {
        self.d2.len() == self.k
    }

    /// Current pruning bound: the k-th best squared distance, or infinity
    /// while the set is not yet full. An [`inactive`](Self::inactive) set
    /// reports `-inf` (always prune).
    #[inline]
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Offer a squared distance from point `id`; keeps the k smallest.
    /// Returns whether it was admitted.
    pub fn offer(&mut self, d2: f32, id: u32) -> bool {
        if self.full() && d2 >= self.bound() {
            return false;
        }
        // A full set evicts its worst (the bound `d2` just beat) before
        // the insert, so the vectors never outgrow the capacity `k` they
        // were created with.
        if self.full() {
            self.d2.pop();
            self.ids.pop();
        }
        let pos = self.d2.partition_point(|&x| x <= d2);
        self.d2.insert(pos, d2);
        self.ids.insert(pos, id);
        if self.full() {
            self.bound = self.d2[self.k - 1];
        }
        true
    }

    /// The collected squared distances, ascending.
    pub fn distances(&self) -> &[f32] {
        &self.d2
    }

    /// The neighbor indices, aligned with [`KBest::distances`]. Indices
    /// refer to the tree's (reordered) point array; map back through the
    /// tree's `perm` for original dataset indices.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest_sorted_with_ids() {
        let mut kb = KBest::new(3);
        for (i, d) in [5.0, 1.0, 9.0, 3.0, 2.0].into_iter().enumerate() {
            kb.offer(d, i as u32);
        }
        assert_eq!(kb.distances(), &[1.0, 2.0, 3.0]);
        assert_eq!(kb.ids(), &[1, 4, 3]);
        assert_eq!(kb.bound(), 3.0);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut kb = KBest::new(2);
        assert_eq!(kb.bound(), f32::INFINITY);
        kb.offer(4.0, 0);
        assert_eq!(kb.bound(), f32::INFINITY);
        kb.offer(7.0, 1);
        assert_eq!(kb.bound(), 7.0);
        assert!(kb.full());
    }

    #[test]
    fn the_kept_bound_is_the_kth_distance_after_every_offer() {
        for k in 1..5 {
            let mut kb = KBest::new(k);
            for (d, i) in [5.0, 1.0, 9.0, 3.0, 3.0, 2.0, 0.0, 7.0]
                .into_iter()
                .zip(0..)
            {
                kb.offer(d, i);
                let want = if kb.full() {
                    kb.distances()[k - 1]
                } else {
                    f32::INFINITY
                };
                assert_eq!(kb.bound(), want, "k = {k}, offer {i}");
            }
        }
    }

    #[test]
    fn rejects_worse_than_bound() {
        let mut kb = KBest::new(1);
        assert!(kb.offer(2.0, 0));
        assert!(!kb.offer(3.0, 1));
        assert!(kb.offer(1.0, 2));
        assert_eq!(kb.distances(), &[1.0]);
        assert_eq!(kb.ids(), &[2]);
    }

    #[test]
    fn duplicates_allowed() {
        let mut kb = KBest::new(3);
        for i in 0..5 {
            kb.offer(1.0, i);
        }
        assert_eq!(kb.distances(), &[1.0, 1.0, 1.0]);
        // First-come kept on ties.
        assert_eq!(kb.ids(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "k = 0")]
    fn zero_k_rejected() {
        let _ = KBest::new(0);
    }

    #[test]
    fn inactive_rejects_everything_and_prunes_always() {
        let mut kb = KBest::inactive();
        assert!(kb.full());
        assert_eq!(kb.bound(), f32::NEG_INFINITY);
        assert!(!kb.offer(0.0, 0));
        assert!(kb.is_empty());
        assert_eq!(kb.bound(), f32::NEG_INFINITY);
    }

    #[test]
    fn prefix_property_smaller_k_is_a_prefix_of_larger_k() {
        // The fused kernel serves several k's from one k_max-capacity set
        // by taking prefixes; that is sound because KBest(j) equals the j
        // smallest offers under (d2, arrival) order — including ties.
        let offers = [
            (2.0, 0),
            (1.0, 1),
            (2.0, 2),
            (0.5, 3),
            (1.0, 4),
            (3.0, 5),
            (0.5, 6),
        ];
        let mut big = KBest::new(5);
        for &(d, i) in &offers {
            big.offer(d, i);
        }
        for j in 1..=5usize {
            let mut small = KBest::new(j);
            for &(d, i) in &offers {
                small.offer(d, i);
            }
            let n = small.len();
            assert_eq!(small.distances(), &big.distances()[..n], "k = {j}");
            assert_eq!(small.ids(), &big.ids()[..n], "k = {j}");
        }
    }
}
