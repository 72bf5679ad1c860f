//! Run-time sortedness profiling (paper §4.4).
//!
//! “Jo and Kulkarni's run-time profiling method can be adopted to determine
//! whether points are sorted (by drawing several samples of neighboring
//! points from the set of points and seeing whether their traversals are
//! similar). If the points are sorted, we use the lockstep implementation;
//! otherwise we use the non-lockstep version.”
//!
//! The profiler is agnostic to the traversal: callers supply a closure
//! mapping a point index to its visit list (typically by running the
//! sequential traversal for just the sampled points). Similarity of two
//! traversals is Jaccard similarity of their visited-node sets.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outcome of sortedness profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct SortednessReport {
    /// Mean Jaccard similarity of sampled neighboring traversals, in
    /// `[0, 1]`.
    pub mean_similarity: f64,
    /// Number of neighbor pairs sampled.
    pub pairs_sampled: usize,
    /// The decision: lockstep when similarity clears the threshold.
    pub use_lockstep: bool,
    /// The threshold used.
    pub threshold: f64,
}

/// Default similarity threshold above which lockstep pays off. Calibrated
/// against the Table 2 work-expansion sweep: sorted inputs profile well
/// above it, shuffled inputs well below.
pub const DEFAULT_THRESHOLD: f64 = 0.35;

/// Sample `pairs` neighboring point pairs from `n_points` and compare
/// their traversals. `visits(i)` returns the node-visit list of point `i`'s
/// traversal (order-insensitive; the profiler compares sets).
pub fn profile_sortedness(
    n_points: usize,
    pairs: usize,
    threshold: f64,
    seed: u64,
    visits: impl Fn(usize) -> Vec<u32>,
) -> SortednessReport {
    assert!(n_points >= 2, "profiling needs at least two points");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pairs = pairs.max(1);
    let mut total = 0.0;
    for _ in 0..pairs {
        let i = rng.gen_range(0..n_points - 1);
        let a = visits(i);
        let b = visits(i + 1);
        total += jaccard(&a, &b);
    }
    let mean = total / pairs as f64;
    SortednessReport {
        mean_similarity: mean,
        pairs_sampled: pairs,
        use_lockstep: mean >= threshold,
        threshold,
    }
}

/// Jaccard similarity of two visit lists, treated as sets.
fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut sa: Vec<u32> = a.to_vec();
    let mut sb: Vec<u32> = b.to_vec();
    sa.sort_unstable();
    sa.dedup();
    sb.sort_unstable();
    sb.dedup();
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_edges() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(jaccard(&[1, 2, 2, 3], &[2, 3, 4]), 0.5); // {1,2,3} vs {2,3,4}
    }

    #[test]
    fn identical_traversals_profile_as_sorted() {
        let r = profile_sortedness(100, 16, DEFAULT_THRESHOLD, 1, |_| vec![0, 1, 2, 3]);
        assert!(r.use_lockstep);
        assert_eq!(r.mean_similarity, 1.0);
    }

    #[test]
    fn disjoint_traversals_profile_as_unsorted() {
        // Each point visits its own disjoint node range.
        let r = profile_sortedness(100, 16, DEFAULT_THRESHOLD, 1, |i| {
            vec![10 * i as u32, 10 * i as u32 + 1]
        });
        assert!(!r.use_lockstep);
        assert_eq!(r.mean_similarity, 0.0);
    }

    #[test]
    fn profiler_is_deterministic() {
        let f = |i: usize| vec![i as u32 / 8];
        let a = profile_sortedness(64, 8, 0.5, 9, f);
        let b = profile_sortedness(64, 8, 0.5, 9, f);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn profiling_one_point_rejected() {
        let _ = profile_sortedness(1, 4, 0.5, 0, |_| vec![]);
    }
}
