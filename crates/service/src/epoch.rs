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
//!   shards carry across by pointer. The new shard vector swaps in
//!   atomically and the epoch advances.
//!
//! **Delta-window answer rule.** Answers are exact at every instant, not
//! just at epoch boundaries, and every batch — pending deltas or not — is
//! one ordinary [`sweep`]. Each published [`EpochState`] expresses its
//! pending deltas as two things the sweep already walks:
//!
//! * *Delete* of a tree point — a bit in its shard's [`Tombstones`], set
//!   at the point's tree position. Every sub-batch on that shard runs its
//!   rule as [`gts_runtime::Live`] of it, which drops a dead point's
//!   offer; each bound is built from offered points only, so pruning stays
//!   exact, and kNN with `k` above the live count returns the live points.
//! * *Insert* — the live pending inserts are one more [`Shard`], built
//!   once per published state, by the first batch that reads it (a
//!   writer's one-mutation call builds no tree), and swept after the
//!   merged ones. Its box
//!   prunes it like any other shard, and NN's nearest-distinct-position
//!   rule holds in it as in every shard: a zero-distance insert is not an
//!   NN answer; kNN and PC admit it.
//! * *Delete* of a pending insert — drops the insert from the insert
//!   shard; once merged the pair cancels to the identity multiset.
//!
//! Ids are stable: an insert is assigned a fresh id that never changes
//! or gets reused, so a result id always names the same point — the
//! invariant the differential oracle and the churn stress tests lean on.

use crate::index::{FusedLane, FusedOutcome, TreeIndex};
use crate::policy::ExecPolicy;
use crate::shard::{sweep, Shard};
use gts_runtime::Tombstones;
use gts_trees::{PointN, SplitPolicy};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// One pending delete. `at` is the deleted point's position in its merged
/// shard's tree — its tombstone — or `None` when the id names a pending
/// insert (the pair cancels at merge time).
#[derive(Clone, Copy)]
struct DeltaDelete {
    seq: u64,
    id: u32,
    at: Option<u32>,
}

/// Per-shard delta buffer.
#[derive(Clone)]
struct ShardDelta<const D: usize> {
    inserts: Vec<DeltaInsert<D>>,
    deletes: Vec<DeltaDelete>,
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
/// delta buffers layered on top, and those deltas as the sweep reads
/// them. Readers pin it by cloning the `Arc`.
struct EpochState<const D: usize> {
    /// Merged epoch; advances only when a merge swaps new shards in.
    epoch: u64,
    /// Mutation sequence high-water mark covered by `deltas`.
    seq: u64,
    /// The merged shards. Shard ids are the stable global ids.
    shards: Vec<Arc<Shard<D>>>,
    /// Per merged shard, the tree positions its pending deletes tombstone.
    dead: Vec<Tombstones>,
    /// Parallel to the merged shards (one slot even when there are none).
    deltas: Vec<ShardDelta<D>>,
    /// Live multiset size (tree − pending deletes + pending inserts).
    n_live: usize,
    /// What every batch sweeps: `shards`, then — while inserts are pending
    /// — one shard of the live ones. Built by the first reader of this
    /// state ([`EpochState::swept`]), so a writer publishing one mutation
    /// at a time builds no tree under the writer lock.
    swept: OnceLock<Vec<Arc<Shard<D>>>>,
}

impl<const D: usize> EpochState<D> {
    /// The state with `deltas` pending on top of the merged `shards`, each
    /// pending tree delete tombstoned.
    fn publish(
        epoch: u64,
        seq: u64,
        shards: Vec<Arc<Shard<D>>>,
        deltas: Vec<ShardDelta<D>>,
        n_live: usize,
    ) -> Arc<Self> {
        let dead = (deltas.iter().take(shards.len()))
            .map(|d| d.deletes.iter().filter_map(|del| del.at).collect())
            .collect();
        Arc::new(EpochState {
            epoch,
            seq,
            shards,
            dead,
            deltas,
            n_live,
            swept: OnceLock::new(),
        })
    }

    /// The merged shards and the shard of the live pending inserts, built
    /// on first use.
    fn swept(&self, core: &Core<D>) -> &[Arc<Shard<D>>] {
        self.swept.get_or_init(|| {
            let deleted: HashSet<u32> = (self.deltas.iter().flat_map(|d| &d.deletes))
                .filter(|del| del.at.is_none())
                .map(|del| del.id)
                .collect();
            let inserts: Vec<(u32, PointN<D>)> = (self.deltas.iter().flat_map(|d| &d.inserts))
                .filter(|ins| !deleted.contains(&ins.id))
                .map(|ins| (ins.id, ins.pt))
                .collect();
            let pending = Shard::partition(&inserts, 1, core.leaf_size, core.split);
            (self.shards.iter().cloned())
                .chain(pending.into_iter().map(Arc::new))
                .collect()
        })
    }

    fn pending(&self) -> u64 {
        self.deltas.iter().map(|d| d.len() as u64).sum()
    }
}

/// Where a live id currently resides — the writer-side routing table:
/// merged into shard `slot` at tree position `at`, or (`at` is `None`)
/// pending in delta slot `slot`.
#[derive(Clone, Copy)]
struct Owner {
    slot: u32,
    at: Option<u32>,
}

/// Route every point of `shards` to its tree position.
fn route_tree<const D: usize>(owner: &mut HashMap<u32, Owner>, shards: &[Arc<Shard<D>>]) {
    for (slot, shard) in (0..).zip(shards) {
        owner.extend(
            (shard.points().zip(0..)).map(|((id, _), at)| (id, Owner { slot, at: Some(at) })),
        );
    }
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
        route_tree(&mut owner, &shards);
        let deltas = vec![ShardDelta::default(); shards.len().max(1)];
        let core = Arc::new(Core {
            name,
            target_shards,
            leaf_size,
            split,
            merge_debounce,
            writer: Mutex::new(WriterState {
                next_id: points.len() as u32,
                owner,
                closed: false,
                seq: 0,
            }),
            state: Mutex::new(EpochState::publish(0, 0, shards, deltas, points.len())),
            merge_lock: Mutex::new(()),
            ctl: Mutex::new(MergeCtl {
                wake: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
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

    /// The live multiset — merged points minus their tombstones plus the
    /// pending inserts' shard — as `(stable id, point)` pairs sorted by
    /// id. This is exactly the set a fresh flat build must be given
    /// for the differential comparison.
    pub fn live(&self) -> Vec<(u32, PointN<D>)> {
        let state = self.pin();
        let mut out: Vec<(u32, PointN<D>)> = Vec::with_capacity(state.n_live);
        for (s, shard) in state.swept(&self.core).iter().enumerate() {
            let dead = state.dead.get(s).unwrap_or(Tombstones::NONE);
            out.extend(
                (shard.points().zip(0..)).filter_map(|(p, at)| (!dead.contains(at)).then_some(p)),
            );
        }
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
                    deltas[slot as usize]
                        .inserts
                        .push(DeltaInsert { seq: w.seq, id, pt });
                    w.owner.insert(id, Owner { slot, at: None });
                    n_live += 1;
                    accepted += 1;
                    assigned.push(id);
                }
                Mutation::Delete { id } => match w.owner.remove(id) {
                    None => rejected += 1,
                    Some(Owner { slot, at }) => {
                        w.seq += 1;
                        let seq = w.seq;
                        let del = DeltaDelete { seq, id: *id, at };
                        deltas[slot as usize].deletes.push(del);
                        n_live -= 1;
                        accepted += 1;
                    }
                },
            }
        }
        let shards = cur.shards.clone();
        let next = EpochState::publish(cur.epoch, w.seq, shards, deltas, n_live);
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
        let state = self.pin();
        let shards = state.swept(&self.core);
        sweep(shards, &state.dead, lanes, policy, true)
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
fn home_of<const D: usize>(shards: &[Arc<Shard<D>>], p: &PointN<D>) -> u32 {
    (0..)
        .zip(shards)
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
    // new shard list — a delete whose target got merged under it becomes a
    // tombstone in the target's new shard — and rebuild the writer's
    // routing table in place. Holding the writer lock keeps the state
    // still; readers only wait for the swap itself.
    let mut w = core.writer.lock().unwrap_or_else(|e| e.into_inner());
    let cur = core.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
    w.owner.clear();
    route_tree(&mut w.owner, &new_shards);
    let mut new_deltas = vec![ShardDelta::<D>::default(); new_shards.len().max(1)];
    for ins in (cur.deltas.iter().flat_map(|d| &d.inserts)).filter(|ins| ins.seq > cut) {
        let slot = home_of(&new_shards, &ins.pt);
        w.owner.insert(ins.id, Owner { slot, at: None });
        new_deltas[slot as usize].inserts.push(ins.clone());
    }
    for del in (cur.deltas.iter().flat_map(|d| &d.deletes)).filter(|del| del.seq > cut) {
        let Some(Owner { slot, at }) = w.owner.remove(&del.id) else {
            debug_assert!(false, "pending delete lost its target");
            continue;
        };
        new_deltas[slot as usize]
            .deletes
            .push(DeltaDelete { at, ..*del });
    }
    let n_live = w.owner.len();
    let epoch = snap.epoch + 1;
    let pending_after: u64 = new_deltas.iter().map(|d| d.len() as u64).sum();
    let next = EpochState::publish(epoch, cur.seq, new_shards, new_deltas, n_live);
    *core.state.lock().unwrap_or_else(|e| e.into_inner()) = next;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Backend;
    use crate::query::{OpKey, QueryResult};
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
        for backend in Backend::ALL {
            check_against_oracle_on(idx, queries, &ExecPolicy::forced(backend));
        }
    }

    /// NN, kNN and PC against the flat oracle over the live set, each one
    /// sweep of the merged shards and at most one of pending inserts.
    fn check_against_oracle_on(idx: &MutableIndex<3>, queries: &[PointN<3>], policy: &ExecPolicy) {
        let live = live_points(idx);
        let qpos = positions(queries);
        let nn = idx.run_batch(OpKey::Nn, &qpos, policy);
        let knn = idx.run_batch(OpKey::Knn(4), &qpos, policy);
        let pc = idx.run_batch(OpKey::Pc(0.3f32.to_bits()), &qpos, policy);
        let walked = idx.n_shards() as u32 + 1;
        for out in [&nn, &knn, &pc] {
            assert!(out.shard_visits.iter().all(|v| v.round < walked));
        }
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
        // deleted: the one sweep must find the runner-up.
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
        // One sweep: its waves number below the shards it walks, the
        // merged ones and at most one of pending inserts.
        let n_shards = idx.n_shards() as u32;
        assert!(out.shard_visits.iter().all(|v| v.round < n_shards + 1));
    }

    /// Where the window's tombstones and its shard of pending inserts meet
    /// the sweep's edges, on every backend.
    #[test]
    fn window_corners_answer_exactly() {
        let build = |pts: &[PointN<3>], shards| {
            MutableIndexBuilder::new("m", shards)
                .auto_merge(false)
                .build(pts)
        };
        let insert = |pos: &[f32]| Mutation::Insert { pos: pos.to_vec() };

        // A shard whose every point is tombstoned: its box still admits
        // the lanes around it, and it offers them nothing.
        let pts = uniform::<3>(120, 51);
        let idx = build(&pts, 3);
        let doomed = idx.shard_ids()[1].clone();
        let muts: Vec<Mutation> = doomed.iter().map(|&id| Mutation::Delete { id }).collect();
        idx.mutate(&muts).unwrap();
        assert_eq!(idx.n_points(), 120 - doomed.len());
        let inside: Vec<PointN<3>> = doomed.iter().take(12).map(|&id| pts[id as usize]).collect();
        check_against_oracle(&idx, &inside);

        // kNN with `k` above the live count: every live point, no dead one.
        let idx = build(&uniform::<3>(10, 52), 2);
        let muts = [0, 3, 7].map(|id| Mutation::Delete { id });
        idx.mutate(&muts).unwrap();
        idx.mutate(&[insert(&[0.1, 0.1, 0.1])]).unwrap();
        let live: Vec<u32> = idx.live().iter().map(|&(id, _)| id).collect();
        assert_eq!(live.len(), 8);
        let origin = PointN([0.0f32; 3]);
        let want = oracle::knn_dists(&live_points(&idx), &origin, 20);
        for backend in Backend::ALL {
            let out = idx.run_batch(
                OpKey::Knn(20),
                &[vec![0.0; 3]],
                &ExecPolicy::forced(backend),
            );
            let QueryResult::Knn { dist2, ids } = &out.results[0] else {
                panic!()
            };
            let mut ids = ids.clone();
            ids.sort_unstable();
            assert_eq!((dist2, &ids), (&want, &live), "{}", backend.name());
        }

        // PC with a deleted tree point and a pending insert both exactly at
        // the radius: `d2 <= r2` counts the insert, and not the dead point.
        let mut pts = uniform::<3>(60, 53);
        pts[0] = PointN([0.5, 0.0, 0.0]);
        let idx = build(&pts, 2);
        idx.mutate(&[Mutation::Delete { id: 0 }, insert(&[0.0, 0.5, 0.0])])
            .unwrap();
        let want = oracle::pc_count(&live_points(&idx), &origin, 0.5);
        assert_eq!(
            want,
            oracle::pc_count(&pts, &origin, 0.5),
            "one out, one in"
        );
        for backend in Backend::ALL {
            let pc = OpKey::Pc(0.5f32.to_bits());
            let out = idx.run_batch(pc, &[vec![0.0; 3]], &ExecPolicy::forced(backend));
            assert_eq!(
                out.results[0],
                QueryResult::Pc { count: want },
                "{}",
                backend.name()
            );
        }

        // NN sitting on a pending insert (twice over): the shard of inserts
        // keeps the distinct-position rule, while kNN admits both copies.
        let idx = build(&uniform::<3>(80, 54), 2);
        let x = [0.3f32, -0.2, 0.1];
        let near = [0.31f32, -0.2, 0.1];
        let ack = idx
            .mutate(&[insert(&x), insert(&x), insert(&near)])
            .unwrap();
        let want = oracle::nn_dist2_nonself(&live_points(&idx), &PointN(x));
        for backend in Backend::ALL {
            let policy = ExecPolicy::forced(backend);
            let out = idx.run_batch(OpKey::Nn, &[x.to_vec()], &policy);
            let label = backend.name();
            assert_eq!(
                out.results[0],
                QueryResult::Nn {
                    dist2: want,
                    id: ack.assigned[2]
                },
                "{label}"
            );
            let out = idx.run_batch(OpKey::Knn(2), &[x.to_vec()], &policy);
            let QueryResult::Knn { dist2, ids } = &out.results[0] else {
                panic!()
            };
            assert_eq!(dist2, &[0.0, 0.0], "{label}");
            assert!(
                ids.contains(&ack.assigned[0]) && ids.contains(&ack.assigned[1]),
                "{label}"
            );
        }

        // Built empty: no merged shard, so every answer comes from the
        // shard of pending inserts.
        let idx = build(&[], 2);
        let pts = uniform::<3>(40, 55);
        idx.mutate(&pts.iter().map(|p| insert(&p.0)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(idx.n_shards(), 0);
        check_against_oracle(&idx, &pts[..8]);
        let out = idx.run_batch(OpKey::Knn(3), &positions(&pts[..8]), &cpu());
        assert!(!out.shard_visits.is_empty());
        assert!(out.shard_visits.iter().all(|v| v.shard == 0));
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
