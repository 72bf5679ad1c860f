//! Traversal fusion: one tree walk serving several ops at once.
//!
//! A pair of [`PointRule`]s is a [`PointRule`]: every point is offered to
//! both, and the prune bound is the larger of the two — a subtree is
//! skipped only when *neither* constituent can still use it. That is the
//! whole of fusion; whatever walks a rule (the box-pruned kd kernel, the
//! Wald walk) walks a pair unchanged. Each constituent's answer is
//! bit-identical to its solo walk because the extra points the union
//! admits lie beyond that constituent's own bound, which its `offer`
//! rejects (the rule contract). Pairs nest — `(A, (B, C))` fuses three —
//! with per-lane state the matching [`FusedPoint`] nest; a lane opts out
//! of a constituent by carrying *inert* state for it (a bound of `-inf`).
//!
//! What the fusion saved is counted inside the same walk
//! ([`PointRule::solo_descents`]): at each descent the pair asks both
//! halves whether they would have come this way alone and adds the answers
//! to [`FusedPoint::solo_descents`], from which the visits of the walks it
//! replaced follow without walking them.
//!
//! Deletion is the same kind of algebra: [`Live`] is a rule over the points
//! a [`Tombstones`] set leaves alive. It drops a dead point's offer and is
//! its inner rule in everything else, so any walk of a rule — a pair
//! included — walks a tree minus its dead points without being rebuilt.
//! [`Renamed`] renames each offer through an id table, the same way.
//!
//! Every rule here hands on a leaf bucket ([`PointRule::offer_bucket`]) as
//! it hands on single offers: a pair gives each half the whole bucket,
//! [`Renamed`] renames it into a stack buffer, and [`Live`] passes a bucket
//! with nothing dead through unchanged and compacts the rest.

use crate::kernel::{PointRule, BUCKET};
use gts_trees::PointN;

/// A set of dead point positions, one bit each, in the id space the
/// walking structure offers points in. The empty set allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tombstones(Vec<u64>);

impl Tombstones {
    /// The empty set, usable where a `'static` one is needed.
    pub const NONE: &'static Tombstones = &Tombstones(Vec::new());

    /// Is position `idx` dead?
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        (self.0.get(idx as usize / 64)).is_some_and(|word| word >> (idx % 64) & 1 == 1)
    }

    /// Is nothing dead? (Bits are only ever set, so no word means no bit.)
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Mark position `idx` dead, growing the set to hold it.
    pub fn insert(&mut self, idx: u32) {
        let at = idx as usize / 64;
        if at >= self.0.len() {
            self.0.resize(at + 1, 0);
        }
        self.0[at] |= 1 << (idx % 64);
    }
}

/// The dead positions a [`Live`] rule consults: a [`Tombstones`] set, or
/// [`AllLive`] where a caller knows nothing is dead.
pub trait Dead: Copy + Sync {
    /// Is position `idx` dead?
    fn contains(&self, idx: u32) -> bool;
}

impl Dead for &Tombstones {
    #[inline]
    fn contains(&self, idx: u32) -> bool {
        Tombstones::contains(self, idx)
    }
}

/// The empty dead set as a zero-sized type: [`Live`] over it compiles to
/// its inner rule, without a test per offer.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllLive;

impl Dead for AllLive {
    #[inline]
    fn contains(&self, _idx: u32) -> bool {
        false
    }
}

impl FromIterator<u32> for Tombstones {
    fn from_iter<I: IntoIterator<Item = u32>>(dead: I) -> Self {
        let mut set = Tombstones::default();
        for idx in dead {
            set.insert(idx);
        }
        set
    }
}

/// Rule `R` over the points `dead` leaves alive: a dead point's offer is
/// dropped, and everything else — position, bound, guidance, cost
/// constants, the descent tally — is `R`'s. Pruning stays exact by the
/// [`PointRule`] contract: `R` builds its bound from the offers it is
/// given, so dropping some only keeps the bound where a walk of the live
/// points alone would hold it.
#[derive(Debug, Clone, Copy)]
pub struct Live<R, T> {
    /// The rule answering for the live points.
    pub rule: R,
    /// The dead positions.
    pub dead: T,
}

impl<const D: usize, R: PointRule<D>, T: Dead> PointRule<D> for Live<R, T> {
    type State = R::State;
    const GUIDED: bool = R::GUIDED;
    const VISIT_INSTS: u64 = R::VISIT_INSTS;
    const LEAF_ELEM_INSTS: u64 = R::LEAF_ELEM_INSTS;
    const POINT_BYTES: u64 = R::POINT_BYTES;

    fn pos(state: &Self::State) -> &PointN<D> {
        R::pos(state)
    }
    fn bound(&self, state: &Self::State) -> f32 {
        self.rule.bound(state)
    }
    #[inline]
    fn offer(&self, state: &mut Self::State, d2: f32, idx: u32) {
        if !self.dead.contains(idx) {
            self.rule.offer(state, d2, idx);
        }
    }
    /// A bucket with nothing dead goes to `R` as it is — over [`AllLive`]
    /// the test folds away and so does the copy; otherwise its live
    /// entries, in order, through a stack buffer.
    #[inline]
    fn offer_bucket(&self, state: &mut Self::State, d2: &[f32], ids: &[u32]) {
        if !ids.iter().any(|&idx| self.dead.contains(idx)) {
            return self.rule.offer_bucket(state, d2, ids);
        }
        for (d2, ids) in d2.chunks(BUCKET).zip(ids.chunks(BUCKET)) {
            let (mut live_d2, mut live_ids, mut n) = ([0.0; BUCKET], [0; BUCKET], 0);
            for (&d2, &idx) in d2.iter().zip(ids) {
                (live_d2[n], live_ids[n]) = (d2, idx);
                n += usize::from(!self.dead.contains(idx));
            }
            self.rule.offer_bucket(state, &live_d2[..n], &live_ids[..n]);
        }
    }
    fn solo_descents(&self, state: &mut Self::State, lb: f32) -> u32 {
        self.rule.solo_descents(state, lb)
    }
}

/// Rule `R` offered `ids[idx]` where a walk offers position `idx`, and `R`
/// in everything else (no bound reads an id). Inside a [`Live`], the
/// tombstones are tested on the position, then the id is renamed.
#[derive(Debug, Clone, Copy)]
pub struct Renamed<'a, R> {
    /// The rule the renamed offers go to.
    pub rule: R,
    /// `ids[idx]` = the id of the point at position `idx`.
    pub ids: &'a [u32],
}

impl<const D: usize, R: PointRule<D>> PointRule<D> for Renamed<'_, R> {
    type State = R::State;
    const GUIDED: bool = R::GUIDED;
    const VISIT_INSTS: u64 = R::VISIT_INSTS;
    const LEAF_ELEM_INSTS: u64 = R::LEAF_ELEM_INSTS;
    const POINT_BYTES: u64 = R::POINT_BYTES;

    fn pos(state: &Self::State) -> &PointN<D> {
        R::pos(state)
    }
    fn bound(&self, state: &Self::State) -> f32 {
        self.rule.bound(state)
    }
    #[inline]
    fn offer(&self, state: &mut Self::State, d2: f32, idx: u32) {
        self.rule.offer(state, d2, self.ids[idx as usize]);
    }
    /// The bucket's positions renamed into a stack buffer.
    #[inline]
    fn offer_bucket(&self, state: &mut Self::State, d2: &[f32], ids: &[u32]) {
        for (d2, at) in d2.chunks(BUCKET).zip(ids.chunks(BUCKET)) {
            let mut named = [0; BUCKET];
            for (name, &at) in named.iter_mut().zip(at) {
                *name = self.ids[at as usize];
            }
            self.rule.offer_bucket(state, d2, &named[..at.len()]);
        }
    }
    fn solo_descents(&self, state: &mut Self::State, lb: f32) -> u32 {
        self.rule.solo_descents(state, lb)
    }
}

/// Per-lane state of a fused traversal: the two constituents' states side
/// by side. Nests like the rules do.
#[derive(Debug, Clone)]
pub struct FusedPoint<A, B> {
    /// First constituent's per-lane state.
    pub a: A,
    /// Second constituent's per-lane state.
    pub b: B,
    /// Descents the ops under this pair would have made walking alone, in
    /// the order the fused walk took ([`PointRule::solo_descents`]).
    pub solo_descents: u32,
}

impl<A, B> FusedPoint<A, B> {
    /// Pair `a` and `b` into one fused lane.
    pub fn new(a: A, b: B) -> Self {
        FusedPoint {
            a,
            b,
            solo_descents: 0,
        }
    }
}

/// Equality of the answers. The tally describes the walk that was taken —
/// two executors that order children differently reach the same answers
/// with different tallies — so it is no part of it.
impl<A: PartialEq, B: PartialEq> PartialEq for FusedPoint<A, B> {
    fn eq(&self, other: &Self) -> bool {
        self.a == other.a && self.b == other.b
    }
}

impl<const D: usize, A: PointRule<D>, B: PointRule<D>> PointRule<D> for (A, B) {
    type State = FusedPoint<A::State, B::State>;
    const GUIDED: bool = A::GUIDED || B::GUIDED;
    const VISIT_INSTS: u64 = A::VISIT_INSTS + B::VISIT_INSTS;
    const LEAF_ELEM_INSTS: u64 = A::LEAF_ELEM_INSTS + B::LEAF_ELEM_INSTS;
    const POINT_BYTES: u64 = A::POINT_BYTES + B::POINT_BYTES;

    /// Both constituents sit at the same position; the first one's copy.
    fn pos(state: &Self::State) -> &PointN<D> {
        A::pos(&state.a)
    }
    fn bound(&self, state: &Self::State) -> f32 {
        self.0.bound(&state.a).max(self.1.bound(&state.b))
    }
    fn offer(&self, state: &mut Self::State, d2: f32, idx: u32) {
        self.0.offer(&mut state.a, d2, idx);
        self.1.offer(&mut state.b, d2, idx);
    }
    /// Each half takes the whole bucket: their states are disjoint, so
    /// the order of the two folds is no part of either answer.
    #[inline]
    fn offer_bucket(&self, state: &mut Self::State, d2: &[f32], ids: &[u32]) {
        self.0.offer_bucket(&mut state.a, d2, ids);
        self.1.offer_bucket(&mut state.b, d2, ids);
    }
    fn solo_descents(&self, state: &mut Self::State, lb: f32) -> u32 {
        let here = self.0.solo_descents(&mut state.a, lb) + self.1.solo_descents(&mut state.b, lb);
        state.solo_descents += here;
        here
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts offers within a fixed radius² (unguided, non-default costs).
    #[derive(Clone, Copy)]
    struct Within(f32);
    /// Keeps the smallest offer (guided, default costs).
    struct Nearest;

    type S = (PointN<2>, f32, u32);

    impl PointRule<2> for Within {
        type State = S;
        const GUIDED: bool = false;
        const VISIT_INSTS: u64 = 5;
        const LEAF_ELEM_INSTS: u64 = 3;
        const POINT_BYTES: u64 = 16;
        fn pos(s: &S) -> &PointN<2> {
            &s.0
        }
        fn bound(&self, _s: &S) -> f32 {
            self.0
        }
        fn offer(&self, s: &mut S, d2: f32, _idx: u32) {
            if d2 <= self.0 {
                s.2 += 1;
            }
        }
    }

    impl PointRule<2> for Nearest {
        type State = S;
        const GUIDED: bool = true;
        fn pos(s: &S) -> &PointN<2> {
            &s.0
        }
        fn bound(&self, s: &S) -> f32 {
            s.1
        }
        fn offer(&self, s: &mut S, d2: f32, idx: u32) {
            if d2 < s.1 {
                (s.1, s.2) = (d2, idx);
            }
        }
    }

    #[test]
    fn fused_pair_is_the_union_of_its_constituents() {
        type Pair = (Within, Nearest);
        let rule: Pair = (Within(4.0), Nearest);
        let origin = PointN([0.0f32; 2]);
        let mut lane = FusedPoint::new((origin, 0.0, 0), (origin, f32::INFINITY, u32::MAX));
        // The bound is the larger constituent bound, whichever side has it.
        assert_eq!(rule.bound(&lane), f32::INFINITY);
        rule.offer(&mut lane, 9.0, 7);
        assert_eq!(lane.a.2, 0, "beyond the radius: only the NN side moved");
        assert_eq!((lane.b.1, lane.b.2), (9.0, 7));
        assert_eq!(rule.bound(&lane), 9.0);
        rule.offer(&mut lane, 1.0, 3);
        assert_eq!(lane.a.2, 1, "the offer reached the first constituent");
        assert_eq!((lane.b.1, lane.b.2), (1.0, 3), "and the second");
        assert_eq!(rule.bound(&lane), 4.0, "now the fixed radius is the max");
        // Cost constants sum, guidance is the OR, and pairs nest.
        assert_eq!(<Pair as PointRule<2>>::VISIT_INSTS, 5 + 12);
        assert_eq!(<Pair as PointRule<2>>::LEAF_ELEM_INSTS, 3 + 8);
        assert_eq!(<Pair as PointRule<2>>::POINT_BYTES, 16 + 32);
        fn guided<R: PointRule<2>>() -> bool {
            R::GUIDED
        }
        assert!(guided::<Pair>());
        assert!(!guided::<(Within, Within)>());
        assert!(guided::<(Within, (Within, Nearest))>());
        assert_eq!(<(Within, Pair) as PointRule<2>>::VISIT_INSTS, 5 + 5 + 12);
    }

    #[test]
    fn pair_tallies_what_each_half_would_descend_alone() {
        let rule = (Within(4.0), (Within(1.0), Nearest));
        let origin = PointN([0.0f32; 2]);
        let fresh = FusedPoint::new(
            (origin, 0.0, 0),
            FusedPoint::new((origin, 0.0, 0), (origin, 9.0, 7)),
        );
        let mut lane = fresh.clone();
        // Bounds 4, 1 and 9: a node 0.5 away is on all three walks, one 2
        // away on two, one 5 away on the nearest's only, one 10 away on none.
        assert_eq!(rule.solo_descents(&mut lane, 0.5), 3);
        assert_eq!(rule.solo_descents(&mut lane, 2.0), 2);
        assert_eq!(rule.solo_descents(&mut lane, 5.0), 1);
        assert_eq!(rule.solo_descents(&mut lane, 10.0), 0);
        assert_eq!(lane.solo_descents, 6);
        assert_eq!(lane.b.solo_descents, 4, "a nested pair tallies its own two");
        assert_eq!(lane, fresh, "the tally is no part of the answer");
    }

    #[test]
    fn tombstones_insert_grows_sets_once_and_builds_the_collected_set() {
        let mut dead = Tombstones::default();
        dead.insert(5);
        assert!(!dead.is_empty() && dead.contains(5));
        assert_eq!(dead.0.len(), 1);
        // Past the current words: the set grows to the word holding it.
        dead.insert(64 * 3 + 1);
        assert_eq!(dead.0.len(), 4);
        assert!(dead.contains(193) && !dead.contains(192) && !dead.contains(64));
        // Idempotent: a second insert changes nothing.
        let once = dead.clone();
        dead.insert(5);
        dead.insert(193);
        assert_eq!(dead, once);
        // Collecting is inserting one by one, in any order.
        let collected: Tombstones = [193, 5, 193].into_iter().collect();
        assert_eq!(collected, dead);
    }

    #[test]
    fn live_rule_drops_dead_offers_and_is_its_rule_otherwise() {
        let dead: Tombstones = [200, 3, 64].into_iter().collect();
        for idx in [0, 63, 65, 199, 201, u32::MAX] {
            assert!(!dead.contains(idx), "{idx}");
        }
        assert!(dead.contains(3) && dead.contains(64) && dead.contains(200));
        assert!(!Tombstones::NONE.contains(0));
        assert_eq!(Tombstones::default(), *Tombstones::NONE);
        assert!(Tombstones::NONE.is_empty() && !dead.is_empty());

        type Pair = (Within, Nearest);
        let rule = Live {
            rule: (Within(4.0), Nearest),
            dead: &dead,
        };
        let origin = PointN([0.0f32; 2]);
        let mut lane = FusedPoint::new((origin, 0.0, 0), (origin, f32::INFINITY, u32::MAX));
        rule.offer(&mut lane, 1.0, 64);
        assert_eq!(
            (lane.a.2, lane.b.2),
            (0, u32::MAX),
            "a dead offer reaches neither"
        );
        rule.offer(&mut lane, 1.0, 65);
        assert_eq!((lane.a.2, lane.b.1, lane.b.2), (1, 1.0, 65));
        // The bound and the tally are the pair's.
        assert_eq!(rule.bound(&lane), 4.0);
        assert_eq!(rule.solo_descents(&mut lane, 2.0), 1);
        assert_eq!(lane.solo_descents, 1);
        fn facts<R: PointRule<2>>() -> (bool, u64, u64, u64) {
            (
                R::GUIDED,
                R::VISIT_INSTS,
                R::LEAF_ELEM_INSTS,
                R::POINT_BYTES,
            )
        }
        assert_eq!(facts::<Live<Pair, &Tombstones>>(), facts::<Pair>());
        assert_eq!(facts::<Live<Within, AllLive>>(), facts::<Within>());

        // Over `AllLive` every offer goes through, dead-listed or not.
        let all = Live {
            rule: Nearest,
            dead: AllLive,
        };
        let mut lane = (origin, f32::INFINITY, u32::MAX);
        all.offer(&mut lane, 1.0, 64);
        assert_eq!((lane.1, lane.2), (1.0, 64));
        assert_eq!(std::mem::size_of::<Live<Nearest, AllLive>>(), 0);
    }

    #[test]
    fn live_rule_of_a_renamed_rule_tests_positions_and_offers_ids() {
        // Position 1 is dead; the table names positions 0..3.
        let dead: Tombstones = [1].into_iter().collect();
        let ids = [40, 41, 42];
        let rule = Live {
            rule: Renamed {
                rule: (Within(4.0), Nearest),
                ids: &ids,
            },
            dead: &dead,
        };
        let origin = PointN([0.0f32; 2]);
        let mut lane = FusedPoint::new((origin, 0.0, 0), (origin, f32::INFINITY, u32::MAX));
        rule.offer(&mut lane, 0.5, 1);
        assert_eq!(
            (lane.a.2, lane.b.2),
            (0, u32::MAX),
            "a dead position is dropped before it is renamed"
        );
        rule.offer(&mut lane, 2.0, 2);
        assert_eq!((lane.a.2, lane.b.1, lane.b.2), (1, 2.0, 42), "renamed");
        rule.offer(&mut lane, 1.0, 0);
        assert_eq!((lane.a.2, lane.b.1, lane.b.2), (2, 1.0, 40));
        // The bound and the tally are the pair's.
        assert_eq!(rule.bound(&lane), 4.0);
        assert_eq!(rule.solo_descents(&mut lane, 2.0), 1);
        assert_eq!(lane.solo_descents, 1);
        fn facts<R: PointRule<2>>() -> (bool, u64, u64, u64) {
            (
                R::GUIDED,
                R::VISIT_INSTS,
                R::LEAF_ELEM_INSTS,
                R::POINT_BYTES,
            )
        }
        type Pair = (Within, Nearest);
        assert_eq!(facts::<Renamed<'_, Pair>>(), facts::<Pair>());
        assert_eq!(facts::<Renamed<'_, Within>>(), facts::<Within>());
    }

    /// Prunes nothing and records every offer it is given, in order.
    #[derive(Clone, Copy)]
    struct Seen;

    impl PointRule<2> for Seen {
        type State = (PointN<2>, Vec<(u32, u32)>);
        const GUIDED: bool = false;
        fn pos(s: &Self::State) -> &PointN<2> {
            &s.0
        }
        fn bound(&self, _s: &Self::State) -> f32 {
            f32::INFINITY
        }
        fn offer(&self, s: &mut Self::State, d2: f32, idx: u32) {
            s.1.push((d2.to_bits(), idx));
        }
    }

    /// `rule`'s bucket form, over `offers` cut at `cuts`, leaves `state`
    /// where offering them one by one leaves it.
    fn assert_bucket_is_the_fold<R: PointRule<2>>(
        label: &str,
        rule: &R,
        state: &R::State,
        offers: &[(f32, u32)],
        cuts: &[usize],
    ) where
        R::State: PartialEq + std::fmt::Debug,
    {
        let mut one_by_one = state.clone();
        for &(d2, idx) in offers {
            rule.offer(&mut one_by_one, d2, idx);
        }
        let (d2, ids): (Vec<f32>, Vec<u32>) = offers.iter().copied().unzip();
        let (mut bucketed, mut at) = (state.clone(), 0);
        for &len in cuts {
            let end = (at + len).min(offers.len());
            rule.offer_bucket(&mut bucketed, &d2[at..end], &ids[at..end]);
            at = end;
        }
        assert_eq!(bucketed, one_by_one, "{label}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// `Live` over a random tombstone set and `Renamed` over a random id
        /// table, alone and nested as a walk serves them, hand a bucket on
        /// as they hand single offers: the dead dropped, the rest renamed,
        /// order kept — across buckets cut anywhere, empty ones and ones
        /// longer than [`BUCKET`] included.
        #[test]
        fn prop_live_and_renamed_buckets_are_their_folds(
            seed in 0u64..1 << 40,
            len in 0usize..200,
            positions in 1u32..150,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dead: Tombstones = (0..positions).filter(|_| rng.gen_range(0..4) == 0).collect();
            let ids: Vec<u32> = (0..positions).map(|_| rng.gen_range(0..u32::MAX)).collect();
            let offers: Vec<(f32, u32)> = (0..len)
                .map(|_| (rng.gen_range(0u32..12) as f32 * 0.5, rng.gen_range(0..positions)))
                .collect();
            let mut cuts = Vec::new();
            while cuts.iter().sum::<usize>() < len {
                cuts.push(rng.gen_range(0..BUCKET + 24));
            }
            let origin = PointN([0.0f32; 2]);
            let seen = (origin, Vec::new());
            let lane = FusedPoint::new((origin, 0.0, 0), seen.clone());
            let pair = (Within(4.0), Seen);
            let renamed = Renamed { rule: pair, ids: &ids };
            assert_bucket_is_the_fold("renamed", &renamed, &lane, &offers, &cuts);
            let live = Live { rule: pair, dead: &dead };
            assert_bucket_is_the_fold("live", &live, &lane, &offers, &cuts);
            let served = Live { rule: renamed, dead: &dead };
            assert_bucket_is_the_fold("live of renamed", &served, &lane, &offers, &cuts);
            let all = Live { rule: Renamed { rule: Seen, ids: &ids }, dead: AllLive };
            assert_bucket_is_the_fold("all live", &all, &seen, &offers, &cuts);
        }
    }
}
