//! Epoch/RCU live mutation over Morton-partitioned kd-tree shards.
//!
//! Every index the service knew before this module was immutable after
//! `register_index`: any data change meant an offline rebuild and a fresh
//! registration. [`MutableIndex`] closes that gap with an epoch scheme:
//!
//! * **Writers** ([`MutableIndex::mutate`]) submit [`Mutation::Insert`] /
//!   [`Mutation::Delete`] deltas. Each delta lands in the buffer of its
//!   *home shard* (the shard whose bounding box is nearest the inserted
//!   point, or the shard owning the deleted id) of a freshly published
//!   immutable [`EpochState`] — the state pointer swaps atomically under
//!   a short lock, so a mutation batch is visible to readers the moment
//!   `mutate` returns.
//! * **Readers** ([`TreeIndex::run`]) pin the current epoch by
//!   cloning the state's `Arc`. Queries in flight keep traversing the
//!   shard set they pinned; no reader ever observes a torn shard set.
//! * A **background merge thread** folds pending deltas into the shards —
//!   the same [`Shard`]s a [`crate::ShardedIndex`] holds: only *touched*
//!   shards (those with a non-empty delta buffer) rebuild, reading their
//!   points back out of the tree ([`Shard::points`]; no copy is kept
//!   beside it), and a touched shard that grew past twice the ideal Morton
//!   partition size re-splits through [`Shard::partition`]. Untouched
//!   shards carry across by pointer, warm profile cache included. The new
//!   shard vector swaps in atomically and the epoch advances.
//!
//! **Delta-window answer rule.** Answers are exact at every instant, not
//! just at epoch boundaries. While deltas are pending, the tree sweep is
//! combined with a brute-force pass over the (small) delta set:
//!
//! * *Insert* — every live pending insert is offered as a candidate next
//!   to the tree results (NN keeps its nearest-distinct-position rule:
//!   zero-distance inserts are not NN answers; kNN and PC admit them).
//! * *Delete* of a tree point — tree results are filtered by the deleted
//!   id set. kNN runs the tree at `k + |pending tree deletes|` so the
//!   top-k always survives the filter; NN falls back to a widening kNN
//!   probe only when its answer was deleted; PC subtracts the deleted
//!   points inside the radius (their coordinates ride the delta entry).
//! * *Delete* of a pending insert — masks the insert; once merged the
//!   pair cancels to the identity multiset.
//!
//! Ids are stable: an insert is assigned a fresh id that never changes
//! or gets reused, so a result id always names the same point — the
//! invariant the differential oracle and the churn stress tests lean on.

use crate::index::{to_point, FusedLane, FusedOutcome, TreeIndex};
use crate::policy::ExecPolicy;
use crate::query::OpKey;
use crate::shard::{sweep, Acc, Shard, StatAgg};
use gts_trees::{PointN, SplitPolicy};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One requested change to a [`MutableIndex`], dimension-erased the same
/// way [`crate::Query`] is so the service and the wire protocol can carry
/// it without knowing `D`.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Add a point; the index assigns it a fresh stable id.
    Insert {
        /// Position, `dim()` coordinates.
        pos: Vec<f32>,
    },
    /// Remove the point with this id (an initial point's dataset index or
    /// an id a previous insert was assigned).
    Delete {
        /// The stable id to remove.
        id: u32,
    },
}

/// Acknowledgement of one applied mutation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationAck {
    /// Mutations applied (inserts + deletes of live ids).
    pub accepted: u64,
    /// Deletes naming ids that were not live (already deleted or never
    /// assigned) — skipped deterministically, never partially applied.
    pub rejected: u64,
    /// Ids assigned to the batch's inserts, in submission order.
    pub assigned: Vec<u32>,
    /// Merged epoch at apply time (deltas are pending *on top* of it).
    pub epoch: u64,
    /// Delta entries pending after this batch (the delta depth).
    pub pending: u64,
}

/// Why a mutation batch was refused outright (nothing was applied).
#[derive(Debug, Clone, PartialEq)]
pub enum MutateError {
    /// The index does not support mutation (every static index).
    Immutable,
    /// The index was quiesced (service close/shutdown); mutations after
    /// the close are rejected deterministically, never half-applied.
    Closed,
    /// An insert position's length does not match the index dimension.
    DimMismatch {
        /// The index dimension.
        expected: usize,
        /// The submitted position length.
        got: usize,
    },
    /// An insert position contained a non-finite coordinate.
    BadPosition,
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::Immutable => write!(f, "index does not accept mutations"),
            MutateError::Closed => write!(f, "index is quiesced"),
            MutateError::DimMismatch { expected, got } => {
                write!(f, "insert is {got}-d, index is {expected}-d")
            }
            MutateError::BadPosition => write!(f, "non-finite insert position"),
        }
    }
}

impl std::error::Error for MutateError {}

/// Point-in-time counters of a mutable index's epoch machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Current merged epoch (advances once per background merge).
    pub epoch: u64,
    /// Delta entries pending (not yet merged).
    pub pending: u64,
    /// Merges performed so far.
    pub merges: u64,
    /// Mutations accepted so far.
    pub mutations: u64,
    /// Live points (tree points − pending deletes + pending inserts).
    pub live: u64,
    /// Current merged shard count.
    pub shards: u64,
}

/// Epoch lifecycle notifications a runtime (the service) can subscribe to
/// via [`TreeIndex::attach_epoch_observer`] — how mutation and merge
/// activity reaches the metrics registry and the trace ring without the
/// index depending on either.
#[derive(Debug, Clone)]
pub enum EpochEvent {
    /// A mutation batch was applied and published.
    Mutation {
        /// Mutations applied.
        accepted: u64,
        /// Deletes skipped (id not live).
        rejected: u64,
        /// Delta depth after the batch.
        pending: u64,
    },
    /// A background (or forced) merge landed and the epoch advanced.
    Merge {
        /// The epoch the merge advanced *to*.
        epoch: u64,
        /// Shards rebuilt (including re-split chunks).
        rebuilt: u32,
        /// Delta entries folded into the new shards.
        flushed: u64,
        /// Delta entries that arrived during the merge and stay pending.
        pending_after: u64,
        /// Wall time of the merge.
        dur: Duration,
    },
}

/// Observer callback for [`EpochEvent`]s; see
/// [`TreeIndex::attach_epoch_observer`].
pub type EpochObserverFn = Arc<dyn Fn(&EpochEvent) + Send + Sync>;

/// `(sequence, id, point)` of one pending insert.
#[derive(Clone)]
struct DeltaInsert<const D: usize> {
    seq: u64,
    id: u32,
    pt: PointN<D>,
}

/// One pending delete. `in_tree` records whether the id lived in the
/// merged shards (its coordinates then matter for PC subtraction) or in a
/// pending insert (the pair cancels at merge time).
#[derive(Clone)]
struct DeltaDelete<const D: usize> {
    seq: u64,
    id: u32,
    pt: PointN<D>,
    in_tree: bool,
}

/// Per-shard delta buffer.
#[derive(Clone)]
struct ShardDelta<const D: usize> {
    inserts: Vec<DeltaInsert<D>>,
    deletes: Vec<DeltaDelete<D>>,
}

impl<const D: usize> Default for ShardDelta<D> {
    fn default() -> Self {
        ShardDelta {
            inserts: Vec::new(),
            deletes: Vec::new(),
        }
    }
}

impl<const D: usize> ShardDelta<D> {
    fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// One immutable epoch snapshot: the merged shard set plus the pending
/// delta buffers layered on top. Readers pin it by cloning the `Arc`.
struct EpochState<const D: usize> {
    /// Merged epoch; advances only when a merge swaps new shards in.
    epoch: u64,
    /// Mutation sequence high-water mark covered by `deltas`.
    seq: u64,
    /// Shard ids are the stable global ids.
    shards: Vec<Arc<Shard<D>>>,
    /// Parallel to `shards` (one slot even when the tree is empty).
    deltas: Vec<ShardDelta<D>>,
    /// Live multiset size (tree − pending deletes + pending inserts).
    n_live: usize,
}

impl<const D: usize> EpochState<D> {
    fn pending(&self) -> u64 {
        self.deltas.iter().map(|d| d.len() as u64).sum()
    }

    fn tree_points(&self) -> usize {
        self.shards.iter().map(|s| s.ids.len()).sum()
    }
}

/// Where a live id currently resides — the writer-side routing table.
#[derive(Clone, Copy)]
enum Owner {
    /// Merged into shard `.0`.
    Tree(usize),
    /// Pending in delta slot `.0`.
    Pending(usize),
}

struct WriterState {
    next_id: u32,
    /// Live ids only: inserts add, deletes remove, merges rebuild.
    owner: HashMap<u32, Owner>,
    closed: bool,
    seq: u64,
}

struct MergeCtl {
    wake: bool,
    shutdown: bool,
}

struct Core<const D: usize> {
    name: String,
    target_shards: usize,
    leaf_size: usize,
    split: SplitPolicy,
    merge_debounce: Duration,
    /// The swappable snapshot pointer. Held only to clone or replace.
    state: Mutex<Arc<EpochState<D>>>,
    /// Serializes writers (mutations and the merge swap). Lock order:
    /// `writer` before `state`; readers take `state` alone.
    writer: Mutex<WriterState>,
    /// Serializes merges (the background thread vs `merge_now`).
    merge_lock: Mutex<()>,
    ctl: Mutex<MergeCtl>,
    cv: Condvar,
    /// Batch counter driving the shard caches' TTL clock.
    batches: AtomicU64,
    merges: AtomicU64,
    mutations: AtomicU64,
    observer: Mutex<Option<EpochObserverFn>>,
}

/// Builder for a [`MutableIndex`]; the defaults mirror
/// [`crate::ShardedIndexBuilder`].
pub struct MutableIndexBuilder {
    name: String,
    shards: usize,
    leaf_size: usize,
    split: SplitPolicy,
    auto_merge: bool,
    merge_debounce: Duration,
}

impl MutableIndexBuilder {
    /// Start a builder for an index named `name` targeting `shards`
    /// Morton shards (the re-split policy keeps shard sizes near
    /// `live / shards`; the actual count tracks the data).
    pub fn new(name: impl Into<String>, shards: usize) -> Self {
        MutableIndexBuilder {
            name: name.into(),
            shards: shards.max(1),
            leaf_size: 8,
            split: SplitPolicy::MedianCycle,
            auto_merge: true,
            merge_debounce: Duration::ZERO,
        }
    }

    /// Per-shard kd-tree leaf bucket size (default 8).
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size;
        self
    }

    /// Per-shard split policy (default [`SplitPolicy::MedianCycle`]).
    pub fn split_policy(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// Spawn the background merge thread (default). With `false`, deltas
    /// stay pending until [`MutableIndex::merge_now`] or
    /// [`MutableIndex::quiesce`] — the deterministic mode the
    /// differential oracle uses to pin the delta-window behavior.
    pub fn auto_merge(mut self, auto: bool) -> Self {
        self.auto_merge = auto;
        self
    }

    /// Delay between a mutation landing and the background merge picking
    /// it up (default zero). A large debounce keeps deltas pending — the
    /// shutdown-ordering tests use it to prove `close` flushes them.
    pub fn merge_debounce(mut self, debounce: Duration) -> Self {
        self.merge_debounce = debounce;
        self
    }

    /// Build the index over `points` (which may be empty — the first
    /// inserts then seed the tree). Initial points keep their dataset
    /// index as their stable id.
    pub fn build<const D: usize>(self, points: &[PointN<D>]) -> MutableIndex<D> {
        MutableIndex::build_with(
            self.name,
            points,
            self.shards,
            self.leaf_size,
            self.split,
            self.auto_merge,
            self.merge_debounce,
        )
    }
}

/// A live-mutable [`TreeIndex`]: Morton-partitioned kd-tree shards with
/// epoch/RCU insert/delete. See the module docs for the scheme.
pub struct MutableIndex<const D: usize> {
    core: Arc<Core<D>>,
    merge_thread: Mutex<Option<JoinHandle<()>>>,
}

impl<const D: usize> MutableIndex<D> {
    /// Build with defaults: background merging on, zero debounce.
    pub fn build(
        name: impl Into<String>,
        points: &[PointN<D>],
        shards: usize,
        leaf_size: usize,
        split: SplitPolicy,
    ) -> Self {
        MutableIndexBuilder::new(name, shards)
            .leaf_size(leaf_size)
            .split_policy(split)
            .build(points)
    }

    fn build_with(
        name: String,
        points: &[PointN<D>],
        target_shards: usize,
        leaf_size: usize,
        split: SplitPolicy,
        auto_merge: bool,
        merge_debounce: Duration,
    ) -> Self {
        let items: Vec<_> = (0..).zip(points.iter().copied()).collect();
        let shards: Vec<Arc<Shard<D>>> = Shard::partition(&items, target_shards, leaf_size, split)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut owner = HashMap::with_capacity(points.len());
        for (s, shard) in shards.iter().enumerate() {
            owner.extend(shard.ids.iter().map(|&id| (id, Owner::Tree(s))));
        }
        let n_live = points.len();
        let deltas = vec![ShardDelta::default(); shards.len().max(1)];
        let core = Arc::new(Core {
            name,
            target_shards,
            leaf_size,
            split,
            merge_debounce,
            state: Mutex::new(Arc::new(EpochState {
                epoch: 0,
                seq: 0,
                shards,
                deltas,
                n_live,
            })),
            writer: Mutex::new(WriterState {
                next_id: points.len() as u32,
                owner,
                closed: false,
                seq: 0,
            }),
            merge_lock: Mutex::new(()),
            ctl: Mutex::new(MergeCtl {
                wake: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
            batches: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            observer: Mutex::new(None),
        });
        let merge_thread = auto_merge.then(|| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("gts-epoch-merge".into())
                .spawn(move || merge_loop(core))
                .expect("spawn merge thread")
        });
        MutableIndex {
            core,
            merge_thread: Mutex::new(merge_thread),
        }
    }

    fn pin(&self) -> Arc<EpochState<D>> {
        self.core
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Current merged epoch.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch
    }

    /// Delta entries currently pending.
    pub fn pending(&self) -> u64 {
        self.pin().pending()
    }

    /// Merges performed so far.
    pub fn merges(&self) -> u64 {
        self.core.merges.load(Ordering::Relaxed)
    }

    /// Current merged shard count.
    pub fn n_shards(&self) -> usize {
        self.pin().shards.len()
    }

    /// The merged shards' stable ids, one list per shard — the partition
    /// the property tests check (disjoint, covering every merged point).
    pub fn shard_ids(&self) -> Vec<Vec<u32>> {
        self.pin().shards.iter().map(|s| s.ids.clone()).collect()
    }

    /// The live multiset — merged points minus pending deletes plus
    /// pending inserts — as `(stable id, point)` pairs sorted by id. This
    /// is exactly the set a from-scratch flat build must be given for the
    /// differential comparison.
    pub fn live(&self) -> Vec<(u32, PointN<D>)> {
        let state = self.pin();
        let digest = DeltaDigest::new(&state);
        let mut out: Vec<(u32, PointN<D>)> = Vec::with_capacity(state.n_live);
        let merged = state.shards.iter().flat_map(|shard| shard.points());
        out.extend(merged.filter(|(id, _)| !digest.deleted.contains(id)));
        out.extend(digest.live_inserts.iter().copied());
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Force a synchronous merge on the calling thread. Returns `true`
    /// when deltas were pending and the epoch advanced — the
    /// deterministic lever the oracle tests use instead of waiting on
    /// the background thread.
    pub fn merge_now(&self) -> bool {
        do_merge(&self.core)
    }

    /// Apply one mutation batch. Inserts are validated up front (the
    /// whole batch is refused on a bad position — never half-applied);
    /// deletes of non-live ids are skipped and counted in
    /// [`MutationAck::rejected`]. The batch is visible to every
    /// subsequent query the moment this returns.
    pub fn mutate(&self, muts: &[Mutation]) -> Result<MutationAck, MutateError> {
        for m in muts {
            if let Mutation::Insert { pos } = m {
                if pos.len() != D {
                    return Err(MutateError::DimMismatch {
                        expected: D,
                        got: pos.len(),
                    });
                }
                if !pos.iter().all(|v| v.is_finite()) {
                    return Err(MutateError::BadPosition);
                }
            }
        }
        let core = &self.core;
        let mut w = core.writer.lock().unwrap_or_else(|e| e.into_inner());
        if w.closed {
            return Err(MutateError::Closed);
        }
        let cur = core.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut deltas = cur.deltas.clone();
        let mut n_live = cur.n_live;
        let (mut accepted, mut rejected) = (0u64, 0u64);
        let mut assigned = Vec::new();
        for m in muts {
            match m {
                Mutation::Insert { pos } => {
                    let pt: PointN<D> = PointN(std::array::from_fn(|i| pos[i]));
                    let id = w.next_id;
                    w.next_id += 1;
                    let slot = home_of(&cur.shards, &pt);
                    w.seq += 1;
                    deltas[slot]
                        .inserts
                        .push(DeltaInsert { seq: w.seq, id, pt });
                    w.owner.insert(id, Owner::Pending(slot));
                    n_live += 1;
                    accepted += 1;
                    assigned.push(id);
                }
                Mutation::Delete { id } => match w.owner.get(id).copied() {
                    None => rejected += 1,
                    Some(Owner::Pending(slot)) => {
                        let pt = deltas[slot]
                            .inserts
                            .iter()
                            .rev()
                            .find(|i| i.id == *id)
                            .expect("pending owner maps into its slot")
                            .pt;
                        w.seq += 1;
                        deltas[slot].deletes.push(DeltaDelete {
                            seq: w.seq,
                            id: *id,
                            pt,
                            in_tree: false,
                        });
                        w.owner.remove(id);
                        n_live -= 1;
                        accepted += 1;
                    }
                    Some(Owner::Tree(s)) => {
                        let (_, pt) = (cur.shards[s].points())
                            .find(|&(x, _)| x == *id)
                            .expect("tree owner maps into its shard");
                        w.seq += 1;
                        deltas[s].deletes.push(DeltaDelete {
                            seq: w.seq,
                            id: *id,
                            pt,
                            in_tree: true,
                        });
                        w.owner.remove(id);
                        n_live -= 1;
                        accepted += 1;
                    }
                },
            }
        }
        let next = Arc::new(EpochState {
            epoch: cur.epoch,
            seq: w.seq,
            shards: cur.shards.clone(),
            deltas,
            n_live,
        });
        let pending = next.pending();
        *core.state.lock().unwrap_or_else(|e| e.into_inner()) = next;
        drop(w);
        core.mutations.fetch_add(accepted, Ordering::Relaxed);
        if pending > 0 {
            let mut ctl = core.ctl.lock().unwrap_or_else(|e| e.into_inner());
            ctl.wake = true;
            core.cv.notify_all();
        }
        notify(
            core,
            &EpochEvent::Mutation {
                accepted,
                rejected,
                pending,
            },
        );
        Ok(MutationAck {
            accepted,
            rejected,
            assigned,
            epoch: cur.epoch,
            pending,
        })
    }

    /// Stop accepting mutations, flush every pending delta into a final
    /// merge, and join the background merge thread. Idempotent; queries
    /// keep working (against the fully merged state) afterwards. This is
    /// what [`crate::Service::close`] calls so no delta is ever silently
    /// dropped at shutdown.
    pub fn quiesce(&self) {
        {
            let mut w = self.core.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.closed = true;
        }
        {
            let mut ctl = self.core.ctl.lock().unwrap_or_else(|e| e.into_inner());
            ctl.shutdown = true;
            self.core.cv.notify_all();
        }
        if let Some(h) = self
            .merge_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        // No-thread mode (auto_merge(false)), and belt-and-braces for the
        // threaded one: drain whatever is still pending.
        while do_merge(&self.core) {}
    }

    /// Point-in-time epoch counters.
    pub fn stats(&self) -> EpochStats {
        let state = self.pin();
        EpochStats {
            epoch: state.epoch,
            pending: state.pending(),
            merges: self.core.merges.load(Ordering::Relaxed),
            mutations: self.core.mutations.load(Ordering::Relaxed),
            live: state.n_live as u64,
            shards: state.shards.len() as u64,
        }
    }
}

impl<const D: usize> Drop for MutableIndex<D> {
    fn drop(&mut self) {
        self.quiesce();
    }
}

impl<const D: usize> TreeIndex for MutableIndex<D> {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn dim(&self) -> usize {
        D
    }

    fn n_points(&self) -> usize {
        self.pin().n_live
    }

    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome {
        let batch = self.core.batches.fetch_add(1, Ordering::Relaxed);
        run_state(&self.pin(), lanes, policy, batch)
    }

    fn mutate(&self, muts: &[Mutation]) -> Result<MutationAck, MutateError> {
        MutableIndex::mutate(self, muts)
    }

    fn quiesce(&self) {
        MutableIndex::quiesce(self);
    }

    fn epoch_stats(&self) -> Option<EpochStats> {
        Some(self.stats())
    }

    fn attach_epoch_observer(&self, observer: EpochObserverFn) {
        *self.core.observer.lock().unwrap_or_else(|e| e.into_inner()) = Some(observer);
    }
}

fn notify<const D: usize>(core: &Core<D>, event: &EpochEvent) {
    let obs = core
        .observer
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    if let Some(obs) = obs {
        obs(event);
    }
}

/// Home slot of a point: the shard whose box is nearest (ties to the
/// lowest index), slot 0 when the tree is empty.
fn home_of<const D: usize>(shards: &[Arc<Shard<D>>], p: &PointN<D>) -> usize {
    shards
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.bbox
                .dist2_to(p)
                .total_cmp(&b.1.bbox.dist2_to(p))
                .then(a.0.cmp(&b.0))
        })
        .map_or(0, |(i, _)| i)
}

fn merge_loop<const D: usize>(core: Arc<Core<D>>) {
    loop {
        {
            let mut ctl = core.ctl.lock().unwrap_or_else(|e| e.into_inner());
            while !ctl.wake && !ctl.shutdown {
                ctl = core.cv.wait(ctl).unwrap_or_else(|e| e.into_inner());
            }
            if ctl.shutdown {
                drop(ctl);
                while do_merge(&core) {}
                return;
            }
            ctl.wake = false;
        }
        if core.merge_debounce > Duration::ZERO {
            let deadline = Instant::now() + core.merge_debounce;
            let mut ctl = core.ctl.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if ctl.shutdown {
                    drop(ctl);
                    while do_merge(&core) {}
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = core
                    .cv
                    .wait_timeout(ctl, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                ctl = g;
            }
        }
        do_merge(&core);
    }
}

/// Fold every delta at or below the snapshot's sequence high-water mark
/// into fresh shards, re-splitting any touched shard that outgrew the
/// Morton partition, and swap the new state in. Returns whether anything
/// was merged. Serialized by `merge_lock`; the rebuild runs outside the
/// writer/state locks so readers and writers stay live throughout.
fn do_merge<const D: usize>(core: &Core<D>) -> bool {
    let _guard = core.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
    let snap = core.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let cut = snap.seq;
    let flushed: u64 = snap.pending();
    if flushed == 0 {
        return false;
    }
    let t0 = Instant::now();

    // Ids deleted at or below the cut: globally unique, so one set covers
    // both tree points and pending inserts.
    let deleted: HashSet<u32> = snap
        .deltas
        .iter()
        .flat_map(|d| d.deletes.iter())
        .filter(|d| d.seq <= cut)
        .map(|d| d.id)
        .collect();

    // Per slot: carry untouched shards, collect touched ones' merged
    // point sets.
    enum Slot<const D: usize> {
        Carry(Arc<Shard<D>>),
        Rebuild(Vec<(u32, PointN<D>)>),
    }
    let mut slots: Vec<Slot<D>> = Vec::with_capacity(snap.deltas.len());
    let mut tree_after = 0usize;
    for (s, delta) in snap.deltas.iter().enumerate() {
        let touched = delta.inserts.iter().any(|i| i.seq <= cut)
            // A pending-insert delete still dirties the slot: the insert
            // it cancels is merged (filtered) here.
            || delta.deletes.iter().any(|d| d.seq <= cut);
        let base = snap.shards.get(s);
        if !touched {
            if let Some(shard) = base {
                tree_after += shard.ids.len();
                slots.push(Slot::Carry(Arc::clone(shard)));
            }
            continue;
        }
        let mut merged: Vec<(u32, PointN<D>)> = Vec::new();
        if let Some(shard) = base {
            merged.extend(shard.points().filter(|(id, _)| !deleted.contains(id)));
        }
        for ins in &delta.inserts {
            if ins.seq <= cut && !deleted.contains(&ins.id) {
                merged.push((ins.id, ins.pt));
            }
        }
        tree_after += merged.len();
        slots.push(Slot::Rebuild(merged));
    }

    // Re-split policy: a rebuilt slot holding more than twice the ideal
    // Morton partition size splits into equal Morton ranges of at most
    // the ideal size each; empty slots disappear.
    let ideal = tree_after.div_ceil(core.target_shards).max(1);
    let mut new_shards: Vec<Arc<Shard<D>>> = Vec::new();
    let mut rebuilt = 0u32;
    for slot in slots {
        match slot {
            Slot::Carry(shard) => new_shards.push(shard),
            Slot::Rebuild(merged) => {
                let k = match merged.len() {
                    n if n > 2 * ideal => n.div_ceil(ideal),
                    _ => 1,
                };
                let pieces = Shard::partition(&merged, k, core.leaf_size, core.split);
                rebuilt += pieces.len() as u32;
                new_shards.extend(pieces.into_iter().map(Arc::new));
            }
        }
    }

    // Swap: re-home the deltas that arrived during the rebuild onto the
    // new shard list and rebuild the writer's routing table.
    let mut w = core.writer.lock().unwrap_or_else(|e| e.into_inner());
    let mut state = core.state.lock().unwrap_or_else(|e| e.into_inner());
    let cur = state.clone();
    let mut tree_of: HashMap<u32, usize> = HashMap::new();
    for (s, shard) in new_shards.iter().enumerate() {
        for &id in &shard.ids {
            tree_of.insert(id, s);
        }
    }
    let n_slots = new_shards.len().max(1);
    let mut new_deltas = vec![ShardDelta::<D>::default(); n_slots];
    let mut pending_slot: HashMap<u32, usize> = HashMap::new();
    for delta in &cur.deltas {
        for ins in &delta.inserts {
            if ins.seq > cut {
                let s = home_of(&new_shards, &ins.pt);
                pending_slot.insert(ins.id, s);
                new_deltas[s].inserts.push(ins.clone());
            }
        }
    }
    for delta in &cur.deltas {
        for del in &delta.deletes {
            if del.seq > cut {
                let mut del = del.clone();
                if let Some(&s) = tree_of.get(&del.id) {
                    // The target got merged under it mid-window: the
                    // delete is now a tree delete against the new shard.
                    del.in_tree = true;
                    new_deltas[s].deletes.push(del);
                } else if let Some(&s) = pending_slot.get(&del.id) {
                    del.in_tree = false;
                    new_deltas[s].deletes.push(del);
                } else {
                    debug_assert!(false, "pending delete lost its target");
                }
            }
        }
    }
    w.owner.clear();
    for (&id, &s) in &tree_of {
        w.owner.insert(id, Owner::Tree(s));
    }
    for (&id, &s) in &pending_slot {
        w.owner.insert(id, Owner::Pending(s));
    }
    for delta in &new_deltas {
        for del in &delta.deletes {
            w.owner.remove(&del.id);
        }
    }
    let n_live = w.owner.len();
    let epoch = snap.epoch + 1;
    let pending_after: u64 = new_deltas.iter().map(|d| d.len() as u64).sum();
    *state = Arc::new(EpochState {
        epoch,
        seq: cur.seq,
        shards: new_shards,
        deltas: new_deltas,
        n_live,
    });
    drop(state);
    drop(w);
    core.merges.fetch_add(1, Ordering::Relaxed);
    notify(
        core,
        &EpochEvent::Merge {
            epoch,
            rebuilt,
            flushed,
            pending_after,
            dur: t0.elapsed(),
        },
    );
    true
}

/// Per-batch digest of the pending deltas: what to mask and what to
/// brute-force ([`Acc::correct`] applies it, op by op).
pub(crate) struct DeltaDigest<const D: usize> {
    /// Every pending delete's id (tree and pending-insert alike).
    pub(crate) deleted: HashSet<u32>,
    /// Deleted *tree* points (id, coordinates) — PC subtracts these.
    pub(crate) del_tree: Vec<(u32, PointN<D>)>,
    /// Pending inserts still live (not cancelled by a pending delete).
    pub(crate) live_inserts: Vec<(u32, PointN<D>)>,
}

impl<const D: usize> DeltaDigest<D> {
    fn new(state: &EpochState<D>) -> Self {
        let mut deleted = HashSet::new();
        let mut del_tree = Vec::new();
        for delta in &state.deltas {
            for del in &delta.deletes {
                deleted.insert(del.id);
                if del.in_tree {
                    del_tree.push((del.id, del.pt));
                }
            }
        }
        let mut live_inserts = Vec::new();
        for delta in &state.deltas {
            for ins in &delta.inserts {
                if !deleted.contains(&ins.id) {
                    live_inserts.push((ins.id, ins.pt));
                }
            }
        }
        DeltaDigest {
            deleted,
            del_tree,
            live_inserts,
        }
    }

    fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.live_inserts.is_empty()
    }
}

/// Execute one batch against a pinned epoch snapshot: sweep the merged
/// shards (every requested `k` widened by the pending tree-delete count,
/// so each top-k survives the delete filter), then apply the delta-window
/// correction op by op ([`Acc::correct`]), then re-probe the trees for
/// the NN answers the window deleted. `batch` is the index's batch
/// counter, the TTL clock of the shards' profile caches.
fn run_state<const D: usize>(
    state: &EpochState<D>,
    lanes: &[FusedLane],
    policy: &ExecPolicy,
    batch: u64,
) -> FusedOutcome {
    let digest = DeltaDigest::new(state);
    let n_del_tree = digest.del_tree.len();
    let mut agg = StatAgg::default();
    // Decided once, on the lanes as handed in: the widened sweep and the
    // NN re-probes below are the same batch.
    let metered = policy.meters(lanes.iter().map(|l| &l.pos[..]));
    let sweep_trees = |lanes: &[FusedLane], agg: &mut StatAgg| {
        sweep(&state.shards, lanes, policy, metered, true, batch, agg)
    };

    if digest.is_empty() {
        let accs = sweep_trees(lanes, &mut agg);
        return agg.finish(lanes, accs);
    }
    let widened: Vec<FusedLane> = (lanes.iter())
        .map(|l| FusedLane {
            knn_ks: l.knn_ks.iter().map(|&k| k + n_del_tree).collect(),
            ..l.clone()
        })
        .collect();
    let mut accs = sweep_trees(&widened, &mut agg);
    // An NN answer is a lane's first accumulator; `open` lists the lanes
    // whose tree answer the window deleted.
    let mut open: Vec<usize> = Vec::new();
    for (qi, (lane, acc)) in lanes.iter().zip(&mut accs).enumerate() {
        let q = to_point::<D>(&lane.pos);
        for a in &mut acc.0 {
            if a.correct(&q, &digest) {
                open.push(qi);
            }
        }
    }

    // NN retry: probe with a widening kNN — the merged top-k' is a prefix
    // of the trees' distance order, so the first surviving
    // (positive-distance, non-deleted) entry is exact; no survivor in a
    // prefix as long as the trees means no tree answer at all.
    let tree_total = state.tree_points();
    let mut k_probe = n_del_tree + 2;
    while !open.is_empty() {
        let probes: Vec<FusedLane> = (open.iter())
            .map(|&qi| {
                let mut probe = FusedLane::empty(lanes[qi].pos.clone());
                probe.ask(OpKey::Knn(k_probe));
                probe
            })
            .collect();
        let found = sweep_trees(&probes, &mut agg);
        let exhaustive = k_probe >= tree_total;
        open = (open.into_iter().zip(found))
            .filter_map(|(qi, probe)| {
                let Some(Acc::Knn { best }) = probe.0.first() else {
                    unreachable!("a kNN probe accumulates a k-best set")
                };
                let survivor = (best.distances().iter().zip(best.ids()))
                    .find(|&(&d2, id)| d2 > 0.0 && !digest.deleted.contains(id));
                match (survivor, accs[qi].0.first_mut()) {
                    (Some((&d2, &found)), Some(Acc::Nn { dist2, id })) => {
                        if d2 < *dist2 {
                            (*dist2, *id) = (d2, found);
                        }
                        None
                    }
                    (None, _) if !exhaustive => Some(qi),
                    _ => None, // truly no tree answer
                }
            })
            .collect();
        k_probe *= 2;
    }
    agg.finish(lanes, accs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Backend;
    use crate::query::QueryResult;
    use gts_apps::oracle;
    use gts_points::gen::uniform;

    fn cpu() -> ExecPolicy {
        ExecPolicy::forced(Backend::Cpu)
    }

    fn positions(pts: &[PointN<3>]) -> Vec<Vec<f32>> {
        pts.iter().map(|p| p.0.to_vec()).collect()
    }

    fn live_points(idx: &MutableIndex<3>) -> Vec<PointN<3>> {
        idx.live().into_iter().map(|(_, p)| p).collect()
    }

    fn check_against_oracle(idx: &MutableIndex<3>, queries: &[PointN<3>]) {
        let live = live_points(idx);
        let qpos = positions(queries);
        let nn = idx.run_batch(OpKey::Nn, &qpos, &cpu());
        let knn = idx.run_batch(OpKey::Knn(4), &qpos, &cpu());
        let pc = idx.run_batch(OpKey::Pc(0.3f32.to_bits()), &qpos, &cpu());
        for (i, q) in queries.iter().enumerate() {
            let QueryResult::Nn { dist2, .. } = nn.results[i] else {
                panic!()
            };
            let want = oracle::nn_dist2_nonself(&live, q);
            if want.is_finite() {
                assert!((dist2 - want).abs() <= 1e-5 * want.max(1e-6), "nn {i}");
            } else {
                assert!(!dist2.is_finite(), "nn {i} expected empty");
            }
            let QueryResult::Knn { dist2, .. } = &knn.results[i] else {
                panic!()
            };
            let want = oracle::knn_dists(&live, q, 4);
            assert_eq!(dist2.len(), want.len(), "knn {i} len");
            for (got, want) in dist2.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-5 * want.max(1e-6), "knn {i}");
            }
            let QueryResult::Pc { count } = pc.results[i] else {
                panic!()
            };
            assert_eq!(count, oracle::pc_count(&live, q, 0.3), "pc {i}");
        }
    }

    #[test]
    fn mutations_answered_exactly_in_delta_window_and_after_merge() {
        let pts = uniform::<3>(300, 42);
        let idx = MutableIndexBuilder::new("m", 4)
            .auto_merge(false)
            .build(&pts);
        let queries: Vec<PointN<3>> = uniform::<3>(48, 43)
            .into_iter()
            .chain(pts.iter().copied().take(16))
            .collect();
        check_against_oracle(&idx, &queries);

        // Insert a cluster + delete a spread of initial ids.
        let extra = uniform::<3>(40, 44);
        let mut muts: Vec<Mutation> = extra
            .iter()
            .map(|p| Mutation::Insert { pos: p.0.to_vec() })
            .collect();
        muts.extend((0..30).map(|i| Mutation::Delete { id: i * 7 }));
        let ack = idx.mutate(&muts).unwrap();
        assert_eq!(ack.accepted, 70);
        assert_eq!(ack.rejected, 0);
        assert_eq!(ack.assigned.len(), 40);
        assert!(ack.pending > 0);
        assert_eq!(idx.epoch(), 0);

        // Delta window: still exact.
        check_against_oracle(&idx, &queries);

        // Merge lands: epoch advances, still exact, deltas drained.
        assert!(idx.merge_now());
        assert_eq!(idx.epoch(), 1);
        assert_eq!(idx.pending(), 0);
        check_against_oracle(&idx, &queries);
        assert_eq!(idx.n_points(), 300 + 40 - 30);
    }

    #[test]
    fn deleted_nn_answer_falls_back_to_runner_up() {
        // Query exactly on a dataset point whose nearest neighbor gets
        // deleted: the widening probe must find the runner-up.
        let pts = uniform::<3>(100, 7);
        let idx = MutableIndexBuilder::new("m", 2)
            .auto_merge(false)
            .build(&pts);
        let q = pts[0];
        let qpos = vec![q.0.to_vec()];
        let QueryResult::Nn { id: nn_id, .. } = idx.run_batch(OpKey::Nn, &qpos, &cpu()).results[0]
        else {
            panic!()
        };
        idx.mutate(&[Mutation::Delete { id: nn_id }]).unwrap();
        let live = live_points(&idx);
        let out = idx.run_batch(OpKey::Nn, &qpos, &cpu());
        let QueryResult::Nn { dist2, id } = out.results[0] else {
            panic!()
        };
        let want = oracle::nn_dist2_nonself(&live, &q);
        assert!((dist2 - want).abs() <= 1e-5 * want.max(1e-6));
        assert_ne!(id, nn_id);
        // The probe is a second sweep: its rounds follow the first's.
        let n_shards = idx.n_shards() as u32;
        assert!(out.shard_visits.iter().any(|v| v.round >= n_shards));
    }

    #[test]
    fn insert_then_delete_is_identity_and_unknown_delete_rejected() {
        let pts = uniform::<3>(64, 3);
        let idx = MutableIndexBuilder::new("m", 2)
            .auto_merge(false)
            .build(&pts);
        let before = idx.live();
        let ack = idx
            .mutate(&[Mutation::Insert {
                pos: vec![0.5, 0.5, 0.5],
            }])
            .unwrap();
        let id = ack.assigned[0];
        let ack = idx
            .mutate(&[Mutation::Delete { id }, Mutation::Delete { id }])
            .unwrap();
        assert_eq!(ack.accepted, 1);
        assert_eq!(ack.rejected, 1, "double delete rejected");
        assert_eq!(idx.live(), before);
        idx.merge_now();
        assert_eq!(idx.live(), before);
    }

    #[test]
    fn empty_index_grows_from_inserts() {
        let idx: MutableIndex<3> = MutableIndexBuilder::new("m", 2)
            .auto_merge(false)
            .build(&[]);
        assert_eq!(idx.n_points(), 0);
        let out = idx.run_batch(OpKey::Nn, &[vec![0.0, 0.0, 0.0]], &cpu());
        let QueryResult::Nn { dist2, id } = out.results[0] else {
            panic!()
        };
        assert!(!dist2.is_finite());
        assert_eq!(id, u32::MAX);

        let pts = uniform::<3>(50, 9);
        let muts: Vec<Mutation> = pts
            .iter()
            .map(|p| Mutation::Insert { pos: p.0.to_vec() })
            .collect();
        idx.mutate(&muts).unwrap();
        check_against_oracle(&idx, &pts[..8]);
        idx.merge_now();
        assert!(idx.n_shards() >= 1);
        check_against_oracle(&idx, &pts[..8]);
    }

    #[test]
    fn skewed_growth_resplits_touched_shard() {
        let pts = uniform::<3>(200, 11);
        let idx = MutableIndexBuilder::new("m", 4)
            .auto_merge(false)
            .build(&pts);
        let before = idx.n_shards();
        // Pour 10x the shard's ideal size into one corner.
        let muts: Vec<Mutation> = (0..500)
            .map(|i| Mutation::Insert {
                pos: vec![0.01 + (i as f32) * 1e-5, 0.01, 0.01],
            })
            .collect();
        idx.mutate(&muts).unwrap();
        idx.merge_now();
        assert!(
            idx.n_shards() > before,
            "skewed shard did not re-split: {} -> {}",
            before,
            idx.n_shards()
        );
        // Partition invariant: every live point in exactly one shard, and
        // no shard above the ideal size ⌈700 / 4⌉ — the re-split cuts the
        // grown shard into equal Morton ranges of at most that.
        let ideal = 700usize.div_ceil(4);
        let mut seen = HashSet::new();
        let mut total = 0usize;
        for ids in idx.shard_ids() {
            assert!(ids.len() <= ideal, "{} points over {ideal}", ids.len());
            total += ids.len();
            for id in ids {
                assert!(seen.insert(id), "id {id} in two shards");
            }
        }
        assert_eq!(total, 700);
        let live: HashSet<u32> = idx.live().iter().map(|&(id, _)| id).collect();
        assert_eq!(seen, live, "shards cover the live set");
        check_against_oracle(&idx, &pts[..8]);
    }

    #[test]
    fn background_merge_thread_lands_and_quiesce_drains() {
        let pts = uniform::<3>(128, 13);
        let idx = MutableIndexBuilder::new("m", 2).build(&pts);
        idx.mutate(&[Mutation::Insert {
            pos: vec![0.2, 0.2, 0.2],
        }])
        .unwrap();
        // The background thread merges shortly; don't race it — just
        // require quiesce to leave nothing pending and the epoch moved.
        idx.quiesce();
        assert_eq!(idx.pending(), 0);
        assert!(idx.epoch() >= 1);
        assert_eq!(idx.n_points(), 129);
        assert!(matches!(
            idx.mutate(&[Mutation::Delete { id: 0 }]),
            Err(MutateError::Closed)
        ));
        // Queries still served after quiesce.
        let out = idx.run_batch(OpKey::Nn, &[vec![0.2, 0.2, 0.2]], &cpu());
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn mutate_validates_positions_atomically() {
        let pts = uniform::<3>(32, 5);
        let idx = MutableIndexBuilder::new("m", 1)
            .auto_merge(false)
            .build(&pts);
        let err = idx.mutate(&[
            Mutation::Insert {
                pos: vec![0.1, 0.1, 0.1],
            },
            Mutation::Insert {
                pos: vec![0.1, 0.1],
            },
        ]);
        assert!(matches!(
            err,
            Err(MutateError::DimMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert_eq!(idx.n_points(), 32, "nothing half-applied");
        let err = idx.mutate(&[Mutation::Insert {
            pos: vec![f32::NAN, 0.0, 0.0],
        }]);
        assert!(matches!(err, Err(MutateError::BadPosition)));
    }
}
