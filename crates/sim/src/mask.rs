//! Warp lane masks and warp-wide vote operations.
//!
//! The lockstep transformation (paper §4.2) keeps truncated points moving
//! with their warp under a *mask bit-vector* pushed onto the rope stack.
//! Lanes clear their own bit when their point truncates; a warp-wide
//! combine (`warp_and` in the paper's pseudocode, `ballot` on real
//! hardware) produces the mask propagated to child nodes. This module
//! implements that algebra on a `u32`.

use std::fmt;

use crate::WARP_SIZE;

/// A 32-lane activity mask. Bit `i` set means lane `i` participates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WarpMask(pub u32);

impl WarpMask {
    /// Mask with all 32 lanes active (`~0` in the paper's Figure 8).
    pub const ALL: WarpMask = WarpMask(u32::MAX);
    /// Mask with no lanes active; a warp popping this mask does no work.
    pub const NONE: WarpMask = WarpMask(0);

    /// Mask with the low `n` lanes active. Used for the tail warp when the
    /// point count is not a multiple of 32.
    pub fn first(n: usize) -> WarpMask {
        assert!(n <= WARP_SIZE, "warp has only {WARP_SIZE} lanes");
        if n == WARP_SIZE {
            WarpMask::ALL
        } else {
            WarpMask((1u32 << n) - 1)
        }
    }

    /// Mask with exactly lane `lane` active.
    pub fn lane(lane: usize) -> WarpMask {
        assert!(lane < WARP_SIZE);
        WarpMask(1 << lane)
    }

    /// Is lane `lane` active? (`bit_set` in the paper's Figure 8.)
    pub fn is_set(self, lane: usize) -> bool {
        debug_assert!(lane < WARP_SIZE);
        self.0 & (1 << lane) != 0
    }

    /// Clear lane `lane` (`bit_clear` in the paper's Figure 8): the lane's
    /// point truncated here and stops computing, though it is still carried
    /// along by the warp.
    pub fn clear(self, lane: usize) -> WarpMask {
        debug_assert!(lane < WARP_SIZE);
        WarpMask(self.0 & !(1 << lane))
    }

    /// Set lane `lane`.
    pub fn set(self, lane: usize) -> WarpMask {
        debug_assert!(lane < WARP_SIZE);
        WarpMask(self.0 | (1 << lane))
    }

    /// Warp vote: combine per-lane masks with bitwise AND. Each lane holds
    /// the shared mask with *its own* bit possibly cleared, so the AND
    /// yields the set of lanes still active (paper §4.2, footnote 3: the
    /// `ballot` instruction implements the equivalent).
    pub fn warp_and(lane_masks: &[WarpMask]) -> WarpMask {
        lane_masks
            .iter()
            .fold(WarpMask::ALL, |acc, m| WarpMask(acc.0 & m.0))
    }

    /// Warp ballot: build a mask from a per-lane predicate.
    pub fn ballot(pred: impl Fn(usize) -> bool) -> WarpMask {
        let mut m = 0u32;
        for lane in 0..WARP_SIZE {
            if pred(lane) {
                m |= 1 << lane;
            }
        }
        WarpMask(m)
    }

    /// Number of active lanes.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no lane is active — the warp truncates its traversal
    /// ("a warp only truncates its traversal when all the points in the
    /// warp have been truncated", paper §4.2).
    pub fn none_active(self) -> bool {
        self.0 == 0
    }

    /// True if at least one lane is active.
    pub fn any_active(self) -> bool {
        self.0 != 0
    }

    /// Intersection of two masks.
    pub fn and(self, other: WarpMask) -> WarpMask {
        WarpMask(self.0 & other.0)
    }

    /// Union of two masks.
    pub fn or(self, other: WarpMask) -> WarpMask {
        WarpMask(self.0 | other.0)
    }

    /// Iterate over the indices of active lanes, ascending.
    pub fn iter_active(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                lane
            })
        })
    }
}

impl fmt::Debug for WarpMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WarpMask({:032b})", self.0)
    }
}

/// Majority vote between active lanes over a small choice space, used by
/// the dynamic single-call-set reduction (paper §4.3): each active lane
/// proposes a call set index and the warp adopts the most popular one.
/// Ties break toward the lower index, making the vote deterministic.
/// Returns `None` when no lane is active.
pub fn majority_vote(
    mask: WarpMask,
    choice: impl Fn(usize) -> usize,
    n_choices: usize,
) -> Option<usize> {
    if mask.none_active() {
        return None;
    }
    assert!(
        n_choices > 0 && n_choices <= WARP_SIZE,
        "choice space must fit a warp vote"
    );
    let mut counts = [0usize; WARP_SIZE];
    for lane in mask.iter_active() {
        let c = choice(lane);
        assert!(
            c < n_choices,
            "lane {lane} voted for out-of-range call set {c}"
        );
        counts[c] += 1;
    }
    counts[..n_choices]
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_lanes() {
        assert_eq!(WarpMask::first(0), WarpMask::NONE);
        assert_eq!(WarpMask::first(32), WarpMask::ALL);
        assert_eq!(WarpMask::first(3).0, 0b111);
        assert_eq!(WarpMask::first(3).count(), 3);
    }

    #[test]
    #[should_panic(expected = "warp has only")]
    fn first_rejects_oversize() {
        let _ = WarpMask::first(33);
    }

    #[test]
    fn set_clear_roundtrip() {
        let m = WarpMask::ALL.clear(5);
        assert!(!m.is_set(5));
        assert!(m.is_set(4));
        assert_eq!(m.set(5), WarpMask::ALL);
        assert_eq!(m.count(), 31);
    }

    #[test]
    fn warp_and_matches_paper_semantics() {
        // Lanes 2 and 7 truncate: each clears its own bit in a private copy
        // of the shared mask; AND-combining yields the surviving set.
        let shared = WarpMask::first(8);
        let lanes: Vec<WarpMask> = (0..WARP_SIZE)
            .map(|l| {
                if l == 2 || l == 7 {
                    shared.clear(l)
                } else {
                    shared
                }
            })
            .collect();
        let combined = WarpMask::warp_and(&lanes);
        assert_eq!(combined, shared.clear(2).clear(7));
        assert_eq!(combined.count(), 6);
    }

    #[test]
    fn ballot_builds_mask_from_predicate() {
        let m = WarpMask::ballot(|l| l % 2 == 0);
        assert_eq!(m.count(), 16);
        assert!(m.is_set(0));
        assert!(!m.is_set(1));
    }

    #[test]
    fn none_and_any() {
        assert!(WarpMask::NONE.none_active());
        assert!(!WarpMask::NONE.any_active());
        assert!(WarpMask::lane(31).any_active());
    }

    #[test]
    fn iter_active_ascending() {
        let m = WarpMask::lane(3)
            .or(WarpMask::lane(17))
            .or(WarpMask::lane(0));
        let lanes: Vec<usize> = m.iter_active().collect();
        assert_eq!(lanes, vec![0, 3, 17]);
    }

    #[test]
    fn majority_vote_picks_most_popular() {
        // 5 active lanes: 3 vote for set 1, 2 for set 0.
        let mask = WarpMask::first(5);
        let v = majority_vote(mask, |l| if l < 3 { 1 } else { 0 }, 2);
        assert_eq!(v, Some(1));
    }

    #[test]
    fn majority_vote_tie_breaks_low() {
        let mask = WarpMask::first(4);
        let v = majority_vote(mask, |l| l % 2, 2);
        assert_eq!(v, Some(0));
    }

    #[test]
    fn majority_vote_empty_warp() {
        assert_eq!(majority_vote(WarpMask::NONE, |_| 0, 2), None);
    }

    #[test]
    fn majority_vote_ignores_inactive_lanes() {
        // Inactive lanes would vote 1; only active lanes (voting 0) count.
        let mask = WarpMask::first(2);
        let v = majority_vote(mask, |l| if l < 2 { 0 } else { 1 }, 2);
        assert_eq!(v, Some(0));
    }
}
