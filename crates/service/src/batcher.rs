//! Batch accumulation: the time-or-size flush policy.
//!
//! Pure data structure, no threads — the service keeps one behind its
//! front lock, where submitters push and the deadline keeper flushes what
//! is due; tests drive it directly. Queries
//! coalesce per [`BatchKey`] (same index, same kernel parameters); a
//! bucket flushes when it reaches the size target (rounded up to a warp
//! multiple, so full flushes are always N×32) or when its oldest entry has
//! waited past the deadline (so a trickle of queries still makes latency).

use crate::query::BatchKey;
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
}

impl<T> Batcher<T> {
    /// Policy with `target` queries per batch (rounded up to a warp
    /// multiple, minimum one warp) and `max_wait` before a partial bucket
    /// flushes anyway.
    pub fn new(target: usize, max_wait: Duration) -> Self {
        Batcher {
            target: target.max(1).div_ceil(WARP) * WARP,
            max_wait,
            buckets: Vec::new(),
            next_id: 0,
        }
    }

    /// Take the next batch id (ascending in flush order). The service's
    /// fusion coalescer also draws ids here, so fused dispatches share
    /// one id space with per-op batches.
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

    /// Add a query. Returns the key's batch if this push filled it to the
    /// size target.
    pub fn push(
        &mut self,
        key: BatchKey,
        entry: BatchEntry<T>,
        now: Instant,
    ) -> Option<ReadyBatch<T>> {
        let at = (self.buckets.iter().position(|b| b.key == key)).unwrap_or_else(|| {
            self.buckets.push(Bucket {
                key,
                entries: Vec::new(),
                oldest: now,
            });
            self.buckets.len() - 1
        });
        self.buckets[at].entries.push(entry);
        if self.buckets[at].entries.len() < self.target {
            return None;
        }
        let b = self.buckets.swap_remove(at);
        Some(ReadyBatch {
            id: self.take_id(),
            key: b.key,
            entries: b.entries,
        })
    }

    /// Flush every bucket whose oldest entry has waited at least
    /// `max_wait` as of `now`. Empty when nothing is due.
    pub fn flush_due(&mut self, now: Instant) -> Vec<ReadyBatch<T>> {
        let max_wait = self.max_wait;
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.buckets.len() {
            if now.duration_since(self.buckets[i].oldest) >= max_wait {
                let b = self.buckets.remove(i);
                let id = self.take_id();
                out.push(ReadyBatch {
                    id,
                    key: b.key,
                    entries: b.entries,
                });
            } else {
                i += 1;
            }
        }
        out
    }

    /// The next instant at which some bucket becomes due, if any —
    /// lets the driver sleep exactly long enough.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.buckets.iter().map(|b| b.oldest + self.max_wait).min()
    }

    /// Ops of the non-empty buckets currently accumulating for `index` —
    /// what the fusion coalescer inspects before deciding to pull
    /// companions into a fused dispatch.
    pub fn pending_ops(&self, index: usize) -> Vec<crate::query::OpKey> {
        self.buckets
            .iter()
            .filter(|b| b.key.index == index)
            .map(|b| b.key.op)
            .collect()
    }

    /// Flush every bucket of `index` regardless of size or age — the
    /// fusion coalescer pulls same-index companion buckets into the
    /// fused dispatch a full or due bucket just triggered.
    pub fn flush_index(&mut self, index: usize) -> Vec<ReadyBatch<T>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.buckets.len() {
            if self.buckets[i].key.index == index {
                let b = self.buckets.remove(i);
                let id = self.take_id();
                out.push(ReadyBatch {
                    id,
                    key: b.key,
                    entries: b.entries,
                });
            } else {
                i += 1;
            }
        }
        out
    }

    /// Flush everything regardless of size or age (shutdown drain).
    pub fn flush_all(&mut self) -> Vec<ReadyBatch<T>> {
        let buckets: Vec<Bucket<T>> = self.buckets.drain(..).collect();
        buckets
            .into_iter()
            .map(|b| ReadyBatch {
                id: self.take_id(),
                key: b.key,
                entries: b.entries,
            })
            .collect()
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
}
