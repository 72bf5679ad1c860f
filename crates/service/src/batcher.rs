//! Batch accumulation: the time-or-size flush policy.
//!
//! Pure data structure, no threads — the service keeps one behind its
//! front lock, where submitters push and a worker about to take a dispatch
//! flushes what is due; tests drive it directly. Queries coalesce per [`BatchKey`]
//! (same index, same op). A bucket flushes when its oldest entry has
//! waited past the deadline (so a trickle of queries still makes latency),
//! or on size, by one rule: an index's buckets leave together, so the size
//! that counts is what their dispatch runs — the index's *distinct*
//! pending positions, across all of its op buckets. The push that brings
//! them up to the target (rounded up to a warp multiple) flushes. A bucket
//! that reaches the target in entries still flushes too, so queries piling
//! up at one position cannot grow a bucket past it.
//!
//! Any bucket leaving resets its index's count, and the caller takes the
//! index's other buckets with [`Batcher::flush_index`] under the same
//! borrow. A position counts by an unkeyed hash of its bits, the same bits
//! the service's lanes compare (`0.0` and `-0.0` are two lanes), so the
//! count is a function of the pushes alone; a collision can only delay a
//! flush by a lane.

use crate::query::BatchKey;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hasher};
use std::time::{Duration, Instant};

/// Simulated-GPU warp width; full batches are a multiple of this.
pub const WARP: usize = 32;

/// One query waiting in a bucket. `T` is the service's completion handle
/// (a ticket plus timing); tests use plain markers.
#[derive(Debug)]
pub struct BatchEntry<T> {
    /// Erased query position.
    pub pos: Vec<f32>,
    /// Caller payload, returned with the flushed batch.
    pub tag: T,
}

/// A flushed batch, ready for dispatch.
#[derive(Debug)]
pub struct ReadyBatch<T> {
    /// Batch id, unique and ascending per [`Batcher`] (the trace
    /// recorder's span key).
    pub id: u64,
    /// Coalescing key all entries share.
    pub key: BatchKey,
    /// The entries, in arrival order.
    pub entries: Vec<BatchEntry<T>>,
}

struct Bucket<T> {
    key: BatchKey,
    entries: Vec<BatchEntry<T>>,
    oldest: Instant,
}

/// Accumulates queries into per-key buckets under a time-or-size policy.
pub struct Batcher<T> {
    target: usize,
    max_wait: Duration,
    // Vec, not HashMap: bucket scan is tiny (distinct live keys), and
    // iteration order stays deterministic for flush ordering.
    buckets: Vec<Bucket<T>>,
    next_id: u64,
    /// Each index's pending position hashes, by index id (cleared, not
    /// dropped, so a warm set never reallocates).
    lanes: Vec<HashSet<u64>>,
}

impl<T> Batcher<T> {
    /// A batcher flushing an index at `target` distinct positions and a
    /// bucket at `target` entries (rounded up to a warp multiple, minimum
    /// one warp), and a partial bucket after `max_wait` anyway.
    pub fn new(target: usize, max_wait: Duration) -> Self {
        Batcher {
            target: target.max(1).div_ceil(WARP) * WARP,
            max_wait,
            buckets: Vec::new(),
            next_id: 0,
            lanes: Vec::new(),
        }
    }

    /// Take the next batch id (ascending in flush order). The service's
    /// coalescer also draws ids here, so a dispatch of several buckets
    /// shares one id space with single buckets.
    pub fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The effective size target (warp-rounded).
    pub fn target(&self) -> usize {
        self.target
    }

    /// Queries currently waiting across all buckets.
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }

    /// Add a query. Returns the key's batch if this push filled its
    /// index's lanes, or the bucket, to the size target.
    pub fn push(
        &mut self,
        key: BatchKey,
        entry: BatchEntry<T>,
        now: Instant,
    ) -> Option<ReadyBatch<T>> {
        if self.lanes.len() <= key.index {
            self.lanes.resize_with(key.index + 1, HashSet::new);
        }
        let mut h = DefaultHasher::new();
        entry.pos.iter().for_each(|v| h.write_u32(v.to_bits()));
        let lanes = &mut self.lanes[key.index];
        lanes.insert(h.finish());
        let lanes_full = lanes.len() >= self.target;
        let at = (self.buckets.iter().position(|b| b.key == key)).unwrap_or_else(|| {
            self.buckets.push(Bucket {
                key,
                entries: Vec::new(),
                oldest: now,
            });
            self.buckets.len() - 1
        });
        self.buckets[at].entries.push(entry);
        if !lanes_full && self.buckets[at].entries.len() < self.target {
            return None;
        }
        let b = self.buckets.swap_remove(at);
        Some(self.ready(b))
    }

    /// A bucket on its way out: its batch id, and its index's count
    /// starts over.
    fn ready(&mut self, b: Bucket<T>) -> ReadyBatch<T> {
        if let Some(set) = self.lanes.get_mut(b.key.index) {
            set.clear();
        }
        ReadyBatch {
            id: self.take_id(),
            key: b.key,
            entries: b.entries,
        }
    }

    /// Flush the buckets `leaves` selects, in bucket order.
    fn flush_where(&mut self, leaves: impl Fn(&Bucket<T>) -> bool) -> Vec<ReadyBatch<T>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.buckets.len() {
            if leaves(&self.buckets[i]) {
                let b = self.buckets.remove(i);
                out.push(self.ready(b));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Flush every bucket whose oldest entry has waited at least
    /// `max_wait` as of `now`. Empty when nothing is due.
    pub fn flush_due(&mut self, now: Instant) -> Vec<ReadyBatch<T>> {
        let max_wait = self.max_wait;
        self.flush_where(|b| now.duration_since(b.oldest) >= max_wait)
    }

    /// The next instant at which some bucket becomes due, if any —
    /// lets the driver sleep exactly long enough.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.buckets.iter().map(|b| b.oldest + self.max_wait).min()
    }

    /// Flush every bucket of `index` regardless of size or age — the rest
    /// of an index one of whose buckets just flushed.
    pub fn flush_index(&mut self, index: usize) -> Vec<ReadyBatch<T>> {
        self.flush_where(|b| b.key.index == index)
    }

    /// Flush everything regardless of size or age (shutdown drain).
    pub fn flush_all(&mut self) -> Vec<ReadyBatch<T>> {
        self.flush_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::OpKey;

    fn key(index: usize) -> BatchKey {
        BatchKey {
            index,
            op: OpKey::Nn,
        }
    }

    fn entry(tag: usize) -> BatchEntry<usize> {
        BatchEntry {
            pos: vec![0.0; 3],
            tag,
        }
    }

    fn op_key(index: usize, op: OpKey) -> BatchKey {
        BatchKey { index, op }
    }

    /// Query `tag` at position `at` (one coordinate varies).
    fn at(at: f32, tag: usize) -> BatchEntry<usize> {
        BatchEntry {
            pos: vec![at, 0.5, 0.5],
            tag,
        }
    }

    const OPS: [OpKey; 3] = [OpKey::Nn, OpKey::Knn(4), OpKey::Pc(0)];

    #[test]
    fn target_rounds_up_to_warp_multiple() {
        assert_eq!(Batcher::<usize>::new(1, Duration::ZERO).target(), 32);
        assert_eq!(Batcher::<usize>::new(32, Duration::ZERO).target(), 32);
        assert_eq!(Batcher::<usize>::new(33, Duration::ZERO).target(), 64);
        assert_eq!(Batcher::<usize>::new(100, Duration::ZERO).target(), 128);
    }

    #[test]
    fn fills_to_target_then_flushes() {
        let mut b = Batcher::new(32, Duration::from_secs(60));
        let now = Instant::now();
        for i in 0..31 {
            assert!(b.push(key(0), entry(i), now).is_none());
        }
        let ready = b.push(key(0), entry(31), now).expect("32nd query flushes");
        assert_eq!(ready.entries.len(), 32);
        assert_eq!(b.pending(), 0);
        // Arrival order is preserved.
        assert!(ready.entries.iter().map(|e| e.tag).eq(0..32));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let mut b = Batcher::new(32, Duration::from_secs(60));
        let now = Instant::now();
        for i in 0..31 {
            b.push(key(0), entry(i), now);
            b.push(key(1), entry(i), now);
        }
        assert_eq!(b.pending(), 62, "two buckets of 31");
        assert!(b.push(key(0), entry(31), now).is_some());
        assert_eq!(b.pending(), 31, "other key's bucket untouched");
    }

    #[test]
    fn deadline_flushes_partial_bucket() {
        let mut b = Batcher::new(64, Duration::from_millis(5));
        let t0 = Instant::now();
        b.push(key(0), entry(0), t0);
        b.push(key(0), entry(1), t0);
        assert!(b.flush_due(t0).is_empty(), "not due yet");
        let due = b.flush_due(t0 + Duration::from_millis(5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].entries.len(), 2, "smaller than one warp is fine");
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn empty_flush_on_deadline_with_no_pending() {
        let mut b: Batcher<usize> = Batcher::new(32, Duration::ZERO);
        assert!(b.flush_due(Instant::now()).is_empty());
        assert!(b.flush_all().is_empty());
        assert!(b.next_deadline().is_none());
    }

    #[test]
    fn deadline_is_keyed_to_oldest_entry() {
        let mut b = Batcher::new(64, Duration::from_millis(10));
        let t0 = Instant::now();
        b.push(key(0), entry(0), t0);
        // A later arrival does not reset the bucket's clock.
        b.push(key(0), entry(1), t0 + Duration::from_millis(8));
        assert_eq!(b.next_deadline(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(b.flush_due(t0 + Duration::from_millis(10)).len(), 1);
    }

    #[test]
    fn flush_all_drains_everything() {
        let mut b = Batcher::new(64, Duration::from_secs(60));
        let now = Instant::now();
        for i in 0..5 {
            b.push(key(i % 2), entry(i), now);
        }
        let all = b.flush_all();
        assert_eq!(all.iter().map(|r| r.entries.len()).sum::<usize>(), 5);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn batch_ids_ascend_across_flush_paths() {
        let mut b = Batcher::new(32, Duration::from_millis(1));
        let t0 = Instant::now();
        for i in 0..32 {
            if let Some(r) = b.push(key(0), entry(i), t0) {
                assert_eq!(r.id, 0, "first flush takes id 0");
            }
        }
        b.push(key(1), entry(0), t0);
        let due = b.flush_due(t0 + Duration::from_millis(1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].id, 1);
        b.push(key(2), entry(0), t0);
        let drained = b.flush_all();
        assert_eq!(drained[0].id, 2, "ids keep ascending across paths");
    }

    #[test]
    fn lanes_count_distinct_positions_across_op_buckets() {
        let mut b = Batcher::new(32, Duration::from_secs(60));
        let now = Instant::now();
        // A triple at one position is one lane, however many buckets.
        for p in 0..31 {
            for op in OPS {
                assert!(b.push(op_key(0, op), at(p as f32, p), now).is_none());
            }
        }
        assert_eq!(b.pending(), 93, "31 lanes, 93 entries");
        let full = (b.push(op_key(0, OpKey::Nn), at(31.0, 31), now))
            .expect("the 32nd distinct position flushes");
        assert_eq!((full.key.op, full.entries.len()), (OpKey::Nn, 32));
        let rest = b.flush_index(0);
        assert_eq!(
            rest.iter().map(|r| r.entries.len()).collect::<Vec<_>>(),
            [31, 31]
        );
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn lanes_tell_positions_apart_by_bits() {
        let mut b = Batcher::new(32, Duration::from_secs(60));
        let now = Instant::now();
        for p in 1..31 {
            assert!(b.push(key(0), at(p as f32, p), now).is_none());
        }
        assert!(b.push(key(0), at(0.0, 31), now).is_none(), "31 lanes");
        // `-0.0 == 0.0`, but its bits differ: a lane of its own.
        let full = b.push(op_key(0, OpKey::Knn(4)), at(-0.0, 32), now);
        assert!(full.is_some(), "-0.0 is the 32nd lane");
    }

    #[test]
    fn lanes_reset_when_the_index_flushes_on_size_or_deadline() {
        let mut b = Batcher::new(32, Duration::from_millis(5));
        let t0 = Instant::now();
        // Size path.
        for p in 0..32 {
            b.push(key(0), at(p as f32, p), t0);
        }
        assert_eq!(b.pending(), 0);
        // Index 1's 20 lanes wait out index 0's flushes for the deadline.
        for p in 0..20 {
            b.push(op_key(1, OpKey::Knn(4)), at(p as f32, p), t0);
        }
        // Positions seen before the flush count again after it.
        for p in 0..31 {
            assert!(b
                .push(op_key(0, OpKey::Pc(0)), at(p as f32, p), t0)
                .is_none());
        }
        assert!(b.push(key(0), at(0.0, 31), t0).is_none(), "still 31 lanes");
        assert!(b.push(key(0), at(31.0, 32), t0).is_some(), "32nd lane");
        b.flush_index(0);
        // Deadline path: index 1 falls due and starts over.
        let t1 = t0 + Duration::from_millis(5);
        assert_eq!(b.flush_due(t1).len(), 1);
        for p in 0..31 {
            assert!(b.push(op_key(1, OpKey::Nn), at(p as f32, p), t1).is_none());
        }
        assert!(b.push(op_key(1, OpKey::Nn), at(31.0, 31), t1).is_some());
    }

    #[test]
    fn lanes_still_cap_a_bucket_at_one_position() {
        let mut b = Batcher::new(32, Duration::from_secs(60));
        let now = Instant::now();
        for i in 0..31 {
            assert!(b.push(key(0), entry(i), now).is_none());
        }
        let full = b.push(key(0), entry(31), now).expect("the bucket cap");
        assert_eq!(full.entries.len(), 32, "one lane, 32 entries");
    }
}
