//! Batch accumulation: the time-or-size flush policy, and the lanes.
//!
//! Pure data structure, no threads — the service keeps one behind its
//! front lock, where submitters push and a worker about to take a dispatch
//! flushes what is due; tests drive it directly. Each index has one
//! bucket, and the bucket is the dispatch it will become ([`ReadyBatch`]):
//! the lanes' positions, each query's lane and op in arrival order, and a
//! count of queries per op key. A lane is a distinct position by its bits
//! (`0.0` and `-0.0` are two lanes): a query's position is hashed once, by
//! the bucket's keyed hasher, and a hit is settled by comparing bits, so
//! two positions sharing a 64-bit hash cost the later its dedup, never an
//! answer.
//!
//! A bucket flushes when its oldest entry has waited past the deadline (so
//! a trickle of queries still makes latency), or on size: the push that
//! brings its lanes up to the target (rounded up to a warp multiple)
//! flushes it, and so does the push that brings one op key's queries up
//! to the target, so queries piling up at one position cannot grow a
//! bucket past it. The cap is per op key, not on all entries: a stream
//! asking three ops at each position would otherwise leave at a third of
//! its lanes.

use crate::query::{BatchKey, IndexId, OpKey};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::time::{Duration, Instant};

/// Simulated-GPU warp width; full batches are a multiple of this.
pub const WARP: usize = 32;

/// One query on its way into a bucket. `T` is the service's completion
/// handle (a ticket plus timing); tests use plain markers.
#[derive(Debug)]
pub struct BatchEntry<T> {
    /// Erased query position.
    pub pos: Vec<f32>,
    /// Caller payload, returned with the flushed batch.
    pub tag: T,
}

/// A flushed bucket: one index's dispatch, ready for a worker.
#[derive(Debug)]
pub struct ReadyBatch<T> {
    /// Batch id, dense and ascending in flush order per [`Batcher`] (the
    /// trace recorder's span key).
    pub id: u64,
    /// The index every query names.
    pub index: IndexId,
    /// One position per lane, distinct by bits, in order of first arrival.
    pub positions: Vec<Vec<f32>>,
    /// Each query's `(tag, lane, op)` in arrival order: its payload, the
    /// lane serving it (an index into `positions`) and what it asks there.
    pub entries: Vec<(T, u32, OpKey)>,
    /// Each distinct op key asked, with its count of queries, in order of
    /// first arrival.
    pub ops: Vec<(OpKey, usize)>,
}

struct Bucket<T> {
    batch: ReadyBatch<T>,
    /// A keyed hash of a lane's position bits → the lane.
    lane_of: HashMap<u64, u32>,
    oldest: Instant,
}

impl<T> Bucket<T> {
    /// An empty bucket, sized to `target` lanes and entries so that
    /// filing under the front lock neither rehashes nor regrows (entries
    /// still grow when several ops share positions).
    fn open(index: IndexId, target: usize, now: Instant) -> Self {
        let batch = ReadyBatch {
            id: 0,
            index,
            positions: Vec::with_capacity(target),
            entries: Vec::with_capacity(target),
            ops: Vec::new(),
        };
        Bucket {
            batch,
            lane_of: HashMap::with_capacity(target),
            oldest: now,
        }
    }

    /// File a query asking `op`; whether its lanes, or `op`'s queries,
    /// have reached `target`.
    fn file(&mut self, op: OpKey, BatchEntry { pos, tag }: BatchEntry<T>, target: usize) -> bool {
        let b = &mut self.batch;
        let mut h = self.lane_of.hasher().build_hasher();
        pos.iter().for_each(|v| h.write_u32(v.to_bits()));
        let same_bits = |a: &[f32], b: &[f32]| {
            (a.iter().map(|v| v.to_bits())).eq(b.iter().map(|v| v.to_bits()))
        };
        let lane = match self.lane_of.entry(h.finish()) {
            Entry::Occupied(at) if same_bits(&b.positions[*at.get() as usize], &pos) => *at.get(),
            slot => {
                if let Entry::Vacant(slot) = slot {
                    slot.insert(b.positions.len() as u32);
                }
                b.positions.push(pos);
                b.positions.len() as u32 - 1
            }
        };
        b.entries.push((tag, lane, op));
        let at = (b.ops.iter().position(|(key, _)| *key == op)).unwrap_or_else(|| {
            b.ops.push((op, 0));
            b.ops.len() - 1
        });
        b.ops[at].1 += 1;
        b.positions.len() >= target || b.ops[at].1 >= target
    }
}

/// Accumulates queries into one bucket per index under a time-or-size
/// policy.
pub struct Batcher<T> {
    target: usize,
    max_wait: Duration,
    // Vec, not HashMap: one bucket per index with queries waiting makes a
    // tiny scan, and flush order stays the buckets' opening order.
    buckets: Vec<Bucket<T>>,
    next_id: u64,
}

impl<T> Batcher<T> {
    /// A batcher flushing a bucket at `target` lanes or `target` queries
    /// of one op key (rounded up to a warp multiple, minimum one warp),
    /// and a partial bucket after `max_wait` anyway.
    pub fn new(target: usize, max_wait: Duration) -> Self {
        Batcher {
            target: target.max(1).div_ceil(WARP) * WARP,
            max_wait,
            buckets: Vec::new(),
            next_id: 0,
        }
    }

    /// The effective size target (warp-rounded).
    pub fn target(&self) -> usize {
        self.target
    }

    /// Queries currently waiting across all buckets.
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(|b| b.batch.entries.len()).sum()
    }

    /// Add a query. Returns its index's batch if this push filled the
    /// bucket's lanes, or its op key's queries, to the size target.
    pub fn push(
        &mut self,
        key: BatchKey,
        entry: BatchEntry<T>,
        now: Instant,
    ) -> Option<ReadyBatch<T>> {
        let at =
            (self.buckets.iter().position(|b| b.batch.index == key.index)).unwrap_or_else(|| {
                (self.buckets).push(Bucket::open(key.index, self.target, now));
                self.buckets.len() - 1
            });
        (self.buckets[at].file(key.op, entry, self.target)).then(|| self.take(at))
    }

    /// Take bucket `at` out as a batch with the next id.
    fn take(&mut self, at: usize) -> ReadyBatch<T> {
        let mut batch = self.buckets.remove(at).batch;
        batch.id = self.next_id;
        self.next_id += 1;
        batch
    }

    /// Flush the buckets `leaves` selects, in bucket order.
    fn flush_where(&mut self, leaves: impl Fn(&Bucket<T>) -> bool) -> Vec<ReadyBatch<T>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.buckets.len() {
            if leaves(&self.buckets[i]) {
                out.push(self.take(i));
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

    /// Flush `index`'s bucket regardless of size or age, if it has one.
    pub fn flush_index(&mut self, index: IndexId) -> Option<ReadyBatch<T>> {
        let at = self.buckets.iter().position(|b| b.batch.index == index)?;
        Some(self.take(at))
    }

    /// Flush everything regardless of size or age (shutdown drain).
    pub fn flush_all(&mut self) -> Vec<ReadyBatch<T>> {
        self.flush_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(ready.entries.iter().map(|e| e.0).eq(0..32));
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
        assert_eq!((full.positions.len(), full.entries.len()), (32, 94));
        assert_eq!(full.ops, [(OPS[0], 32), (OPS[1], 31), (OPS[2], 31)]);
        assert!(b.flush_index(0).is_none(), "the index left whole");
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
        assert!(b.flush_index(0).is_none(), "the index left whole");
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
