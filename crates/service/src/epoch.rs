//! Epoch/RCU live mutation over Morton-partitioned kd-tree shards.
//!
//! Every index the service knew before this module was immutable after
//! `register_index`: any data change meant an offline rebuild and a fresh
//! registration. [`MutableIndex`] closes that gap with an epoch scheme:
//!
//! * **Writers** ([`MutableIndex::mutate`]) submit [`Mutation::Insert`] /
//!   [`Mutation::Delete`] deltas onto a freshly published immutable
//!   [`EpochState`]: the pending window is per-shard tombstones plus two
//!   logs, the pending inserts and the deleted ids, that only grow until
//!   the next merge. The state pointer swaps atomically under a short
//!   lock, so a batch is visible to readers the moment `mutate` returns.
//! * **Readers** ([`TreeIndex::run`]) pin the current epoch by
//!   cloning the state's `Arc`. Queries in flight keep traversing the
//!   shard set they pinned; no reader ever observes a torn shard set.
//! * A **background merge thread** folds the logs into the shards — the
//!   same [`Shard`]s a [`crate::ShardedIndex`] holds. Each live pending
//!   insert goes to its *home shard*, the one whose box is nearest it.
//!   Only shards with a tombstone or a live insert homed to them rebuild,
//!   reading their points back out of the tree ([`Shard::points`]), and
//!   one grown past twice the ideal Morton partition size re-splits
//!   ([`Shard::partition`]); the rest carry across by pointer. At the swap
//!   the merge replays what arrived during its rebuild — each log past its
//!   length in the merge's snapshot — onto the new shards, and the epoch
//!   advances. The thread merges only once a mutation batch brings the
//!   pending deltas to 1/[`MERGE_SHARE`] of the live points (at least one
//!   delta): a merge rebuilds every touched shard and reroutes every live
//!   id, while the delta window answers exactly at any depth at a
//!   per-query cost bounded by the share. Deltas below the share stay
//!   pending until a later batch crosses it, [`MutableIndex::merge_now`],
//!   or [`MutableIndex::quiesce`]. A merge that panics dies before its
//!   swap, so the published state stays whole, and the thread retries at
//!   its next wake.
//!
//! **Delta-window answer rule.** Answers are exact at every instant, and
//! every batch — pending deltas or not — is one ordinary [`sweep`] of
//! what the state holds:
//!
//! * *Delete* of a tree point — a bit in its shard's [`Tombstones`], set
//!   at the point's tree position. Every sub-batch on that shard runs its
//!   rule as [`gts_runtime::Live`] of it, which drops a dead point's
//!   offer; each bound is built from offered points only, so pruning stays
//!   exact, and kNN with `k` above the live count returns the live points.
//! * *Insert* — the live pending inserts are one more [`Shard`], built by
//!   the first batch that reads a published state (a writer builds no
//!   tree) and swept after the merged ones. Its box prunes it like any
//!   other, and NN's nearest-distinct-position rule holds in it: a
//!   zero-distance insert is not an NN answer; kNN and PC admit it.
//! * *Delete* of a pending insert — drops the insert from that shard; the
//!   pair cancels to the identity multiset and touches no merged shard.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
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

/// A merge that landed and advanced the epoch, background or forced — what
/// a runtime (the service) subscribed through
/// [`TreeIndex::attach_epoch_observer`] hears, so merge activity reaches
/// the metrics registry and the trace ring without the index depending on
/// either. A mutation batch needs no event: its caller holds the
/// [`MutationAck`].
#[derive(Debug, Clone)]
pub struct EpochEvent {
    /// The epoch the merge advanced *to*.
    pub epoch: u64,
    /// Shards rebuilt (including re-split chunks).
    pub rebuilt: u32,
    /// Delta entries folded into the new shards.
    pub flushed: u64,
    /// Delta entries that arrived during the merge and stay pending.
    pub pending_after: u64,
    /// Wall time of the merge.
    pub dur: Duration,
}

/// Observer callback for [`EpochEvent`]s; see
/// [`TreeIndex::attach_epoch_observer`].
pub type EpochObserverFn = Arc<dyn Fn(&EpochEvent) + Send + Sync>;

/// One immutable epoch snapshot: the merged shard set and the pending
/// window on top of it, in the two forms the sweep and the merge read —
/// per-shard tombstones, and two logs that only grow until the next merge.
/// Readers pin it by cloning the `Arc`.
struct EpochState<const D: usize> {
    /// Merged epoch; advances only when a merge swaps new shards in.
    epoch: u64,
    /// The merged shards. Shard ids are the stable global ids.
    shards: Vec<Arc<Shard<D>>>,
    /// Per merged shard, the tree positions its pending deletes tombstone.
    dead: Vec<Tombstones>,
    /// Pending inserts in arrival order, the since-deleted ones included.
    inserts: Vec<(u32, PointN<D>)>,
    /// Ids of pending deletes in arrival order, of tree points and pending
    /// inserts alike (ids are never reused).
    deleted: Vec<u32>,
    /// Live multiset size (tree − pending deletes + pending inserts).
    n_live: usize,
    /// What every batch sweeps: `shards`, then — while inserts are pending
    /// — one shard of the live ones. Built by the first reader of this
    /// state ([`EpochState::swept`]), so a writer publishing one mutation
    /// at a time builds no tree under the writer lock.
    swept: OnceLock<Vec<Arc<Shard<D>>>>,
}

impl<const D: usize> EpochState<D> {
    /// The merged shards and the shard of the live pending inserts, built
    /// on first use.
    fn swept(&self, core: &Core<D>) -> &[Arc<Shard<D>>] {
        self.swept.get_or_init(|| {
            let pending = Shard::partition(&self.live_inserts(), 1, core.leaf_size, core.split);
            (self.shards.iter().cloned())
                .chain(pending.into_iter().map(Arc::new))
                .collect()
        })
    }

    /// The pending inserts not deleted since, in arrival order. Ids are
    /// handed out in log order and a merge folds a whole prefix of the log,
    /// so every pending insert's id is at or above the first one's, and
    /// every merged id below it.
    fn live_inserts(&self) -> Vec<(u32, PointN<D>)> {
        let Some(&(first, _)) = self.inserts.first() else {
            return Vec::new();
        };
        let deleted: HashSet<u32> = (self.deleted.iter().copied())
            .filter(|&id| id >= first)
            .collect();
        (self.inserts.iter())
            .filter(|(id, _)| !deleted.contains(id))
            .copied()
            .collect()
    }

    fn pending(&self) -> u64 {
        (self.inserts.len() + self.deleted.len()) as u64
    }
}

/// The writer-side routing table of the live ids: `Some((shard, at))` for
/// a point merged into `shard` at tree position `at`, `None` for a pending
/// insert.
type Routes = HashMap<u32, Option<(u32, u32)>>;

/// The background merge runs once the pending deltas (insert and delete
/// entries) reach 1/`MERGE_SHARE` of the live points.
pub const MERGE_SHARE: u64 = 16;

/// Whether `pending` deltas over `live` points are due a background
/// merge: at least one delta, and at least 1/[`MERGE_SHARE`] of `live`.
fn merge_due(pending: u64, live: usize) -> bool {
    pending > 0 && pending * MERGE_SHARE >= live as u64
}

/// Lock `m`, whether or not a panic poisoned it: every section under
/// these locks leaves its data whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Route every point of `shards` to its tree position.
fn route_tree<const D: usize>(routes: &mut Routes, shards: &[Arc<Shard<D>>]) {
    for (s, shard) in (0..).zip(shards) {
        routes.extend((shard.points().zip(0..)).map(|((id, _), at)| (id, Some((s, at)))));
    }
}

struct WriterState {
    next_id: u32,
    /// Live ids only: inserts add, deletes remove, merges rebuild.
    routes: Routes,
    closed: bool,
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
    /// The swappable snapshot pointer. Held only to clone or replace.
    state: Mutex<Arc<EpochState<D>>>,
    /// Serializes writers (mutations and the merge swap). Lock order:
    /// `writer` before `state`; readers take `state` alone.
    writer: Mutex<WriterState>,
    /// Serializes merges (the background thread vs `merge_now`), and holds
    /// the routing table the last merge swapped out of `writer`: the next
    /// merge refills it in place, so no table is allocated beside the two.
    merge_lock: Mutex<Routes>,
    ctl: Mutex<MergeCtl>,
    cv: Condvar,
    merges: AtomicU64,
    mutations: AtomicU64,
    observer: Mutex<Option<EpochObserverFn>>,
    /// Set by a test: the next merge runs it once, after its rebuild and
    /// before it takes the writer lock.
    #[cfg(test)]
    merge_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Builder for a [`MutableIndex`]; the defaults mirror
/// [`crate::ShardedIndexBuilder`].
pub struct MutableIndexBuilder {
    name: String,
    shards: usize,
    leaf_size: usize,
    split: SplitPolicy,
    auto_merge: bool,
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

    /// Spawn the background merge thread (default), which merges once the
    /// pending deltas reach 1/[`MERGE_SHARE`] of the live points. With
    /// `false`, deltas stay pending until [`MutableIndex::merge_now`] or
    /// [`MutableIndex::quiesce`] — the deterministic mode the
    /// differential oracle uses to pin the delta-window behavior.
    pub fn auto_merge(mut self, auto: bool) -> Self {
        self.auto_merge = auto;
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
    /// Build with defaults: background merging on.
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
    ) -> Self {
        let items: Vec<_> = (0..).zip(points.iter().copied()).collect();
        let shards: Vec<Arc<Shard<D>>> = Shard::partition(&items, target_shards, leaf_size, split)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut routes = HashMap::with_capacity(points.len());
        route_tree(&mut routes, &shards);
        let state = EpochState {
            epoch: 0,
            dead: vec![Tombstones::default(); shards.len()],
            shards,
            inserts: Vec::new(),
            deleted: Vec::new(),
            n_live: points.len(),
            swept: OnceLock::new(),
        };
        let core = Arc::new(Core {
            name,
            target_shards,
            leaf_size,
            split,
            writer: Mutex::new(WriterState {
                next_id: points.len() as u32,
                routes,
                closed: false,
            }),
            state: Mutex::new(Arc::new(state)),
            merge_lock: Mutex::new(HashMap::new()),
            ctl: Mutex::new(MergeCtl {
                wake: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
            merges: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            observer: Mutex::new(None),
            #[cfg(test)]
            merge_hook: Mutex::new(None),
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
        lock(&self.core.state).clone()
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
        let mut w = lock(&core.writer);
        if w.closed {
            return Err(MutateError::Closed);
        }
        let cur = lock(&core.state).clone();
        let mut dead = cur.dead.clone();
        let mut inserts = cur.inserts.clone();
        let mut deleted = cur.deleted.clone();
        let mut assigned = Vec::new();
        for m in muts {
            match m {
                Mutation::Insert { pos } => {
                    let id = w.next_id;
                    w.next_id += 1;
                    inserts.push((id, PointN(std::array::from_fn(|i| pos[i]))));
                    w.routes.insert(id, None);
                    assigned.push(id);
                }
                Mutation::Delete { id } => {
                    if let Some(route) = w.routes.remove(id) {
                        if let Some((s, at)) = route {
                            dead[s as usize].insert(at);
                        }
                        deleted.push(*id);
                    }
                }
            }
        }
        let removed = deleted.len() - cur.deleted.len();
        let n_live = cur.n_live + assigned.len() - removed;
        let accepted = (assigned.len() + removed) as u64;
        let rejected = muts.len() as u64 - accepted;
        let next = Arc::new(EpochState {
            epoch: cur.epoch,
            shards: cur.shards.clone(),
            dead,
            inserts,
            deleted,
            n_live,
            swept: OnceLock::new(),
        });
        let pending = next.pending();
        *lock(&core.state) = next;
        drop(w);
        core.mutations.fetch_add(accepted, Ordering::Relaxed);
        if merge_due(pending, n_live) {
            let mut ctl = lock(&core.ctl);
            ctl.wake = true;
            core.cv.notify_all();
        }
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
        lock(&self.core.writer).closed = true;
        {
            let mut ctl = lock(&self.core.ctl);
            ctl.shutdown = true;
            self.core.cv.notify_all();
        }
        // A merge thread that panicked joins with its panic ignored: a
        // merge that dies before its swap leaves the published state whole.
        if let Some(h) = lock(&self.merge_thread).take() {
            let _ = h.join();
        }
        // No-thread mode (auto_merge(false)), a dead thread, and
        // belt-and-braces for a live one: drain whatever is still pending.
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
        *lock(&self.core.observer) = Some(observer);
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
            let mut ctl = lock(&core.ctl);
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
        // A batch that crossed the share while a merge ran woke the thread
        // for deltas that merge may have folded already. A merge that
        // panics dies before its swap and leaves the published state
        // whole; the thread lives on, and the next wake retries.
        let state = lock(&core.state).clone();
        if merge_due(state.pending(), state.n_live) {
            let _ = catch_unwind(AssertUnwindSafe(|| do_merge(&core)));
        }
    }
}

/// Fold the snapshot's pending window into fresh shards, re-splitting any
/// touched shard that outgrew the Morton partition, and swap the new state
/// in. Returns whether anything was merged. Serialized by `merge_lock`; the
/// rebuild runs outside the writer/state locks so readers and writers stay
/// live throughout.
fn do_merge<const D: usize>(core: &Core<D>) -> bool {
    let mut routes = lock(&core.merge_lock);
    let snap = lock(&core.state).clone();
    let flushed: u64 = snap.pending();
    if flushed == 0 {
        return false;
    }
    let t0 = Instant::now();

    // Per slot: the live pending inserts homed to it. The slots are the
    // merged shards, or one when there are none.
    let mut homed = vec![Vec::new(); snap.shards.len().max(1)];
    for (id, pt) in snap.live_inserts() {
        homed[home_of(&snap.shards, &pt) as usize].push((id, pt));
    }

    // Carry a shard with no tombstone and no insert homed to it; rebuild
    // the others from their live points and inserts. A rebuilt slot holding
    // more than twice the ideal Morton partition size of the live points
    // (all of which the new shards hold) splits into equal Morton ranges of
    // at most the ideal size each; empty slots disappear.
    let ideal = snap.n_live.div_ceil(core.target_shards).max(1);
    let mut new_shards: Vec<Arc<Shard<D>>> = Vec::new();
    let mut rebuilt = 0u32;
    for (s, inserts) in homed.into_iter().enumerate() {
        let base = snap.shards.get(s);
        let dead = snap.dead.get(s).unwrap_or(Tombstones::NONE);
        if inserts.is_empty() && dead.is_empty() {
            new_shards.extend(base.cloned());
            continue;
        }
        let mut merged: Vec<(u32, PointN<D>)> = (base.into_iter())
            .flat_map(|shard| shard.points().zip(0..))
            .filter_map(|(p, at)| (!dead.contains(at)).then_some(p))
            .collect();
        merged.extend(inserts);
        let k = match merged.len() {
            n if n > 2 * ideal => n.div_ceil(ideal),
            _ => 1,
        };
        let pieces = Shard::partition(&merged, k, core.leaf_size, core.split);
        rebuilt += pieces.len() as u32;
        new_shards.extend(pieces.into_iter().map(Arc::new));
    }

    // The new shards' routing table, filled before the writer lock so a
    // writer waits on the swap for the deltas since the snapshot, not for
    // every live id. Its headroom of one share takes those deltas' inserts
    // without a rehash under the lock.
    routes.clear();
    routes.reserve(snap.n_live + snap.n_live.div_ceil(MERGE_SHARE as usize));
    route_tree(&mut routes, &new_shards);
    debug_assert_eq!(routes.len(), snap.n_live);

    #[cfg(test)]
    if let Some(hook) = lock(&core.merge_hook).take() {
        hook();
    }

    // Swap the table in and replay what arrived during the rebuild — each
    // log past its length in the snapshot — onto the new shards: a delete
    // whose target got merged under it becomes a tombstone in the target's
    // new shard. Holding the writer lock keeps the state still; readers
    // only wait for the swap itself.
    let mut w = lock(&core.writer);
    let cur = lock(&core.state).clone();
    std::mem::swap(&mut w.routes, &mut routes);
    let inserts = cur.inserts[snap.inserts.len()..].to_vec();
    let deleted = cur.deleted[snap.deleted.len()..].to_vec();
    w.routes.extend(inserts.iter().map(|&(id, _)| (id, None)));
    let mut dead = vec![Tombstones::default(); new_shards.len()];
    for id in &deleted {
        match w.routes.remove(id) {
            Some(Some((s, at))) => dead[s as usize].insert(at),
            Some(None) => {}
            None => debug_assert!(false, "pending delete lost its target"),
        }
    }
    let n_live = w.routes.len();
    let epoch = snap.epoch + 1;
    let next = Arc::new(EpochState {
        epoch,
        shards: new_shards,
        dead,
        inserts,
        deleted,
        n_live,
        swept: OnceLock::new(),
    });
    let pending_after = next.pending();
    *lock(&core.state) = next;
    drop(w);
    core.merges.fetch_add(1, Ordering::Relaxed);
    let observer = lock(&core.observer).clone();
    if let Some(observer) = observer {
        observer(&EpochEvent {
            epoch,
            rebuilt,
            flushed,
            pending_after,
            dur: t0.elapsed(),
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Backend;
    use crate::query::{OpKey, QueryResult};
    use gts_apps::oracle;
    use gts_points::gen::uniform;
    use std::collections::{BTreeSet, VecDeque};

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
            check_answers(
                &live,
                q,
                [&nn.results[i], &knn.results[i], &pc.results[i]],
                i,
            );
        }
    }

    /// One position's NN, kNN (`k` = 4) and PC (radius 0.3) answers against
    /// the flat oracle over `live`.
    fn check_answers(live: &[PointN<3>], q: &PointN<3>, answers: [&QueryResult; 3], i: usize) {
        let [QueryResult::Nn { dist2, .. }, QueryResult::Knn { dist2: knn, .. }, QueryResult::Pc { count }] =
            answers
        else {
            panic!("{answers:?}")
        };
        let want = oracle::nn_dist2_nonself(live, q);
        if want.is_finite() {
            assert!((dist2 - want).abs() <= 1e-5 * want.max(1e-6), "nn {i}");
        } else {
            assert!(!dist2.is_finite(), "nn {i} expected empty");
        }
        let want = oracle::knn_dists(live, q, 4);
        assert_eq!(knn.len(), want.len(), "knn {i} len");
        for (got, want) in knn.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-5 * want.max(1e-6), "knn {i}");
        }
        assert_eq!(*count, oracle::pc_count(live, q, 0.3), "pc {i}");
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
        // One delta on 128 points is below the share and wakes no merge;
        // quiesce must still leave nothing pending and the epoch moved.
        assert_eq!(idx.merges(), 0);
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
    fn merge_trigger_is_a_sixteenth_of_the_live_points() {
        // Nothing pending is never due, at any size.
        assert!(!merge_due(0, 0) && !merge_due(0, 1000));
        // An empty index's first insert: one delta over one live point.
        assert!(merge_due(1, 1));
        // Under 16 live points, every delta is due.
        assert!((0..16).all(|live| merge_due(1, live)));
        assert!(!merge_due(1, 17));
        // Exactly one share, and one short of it.
        assert!(merge_due(16, 256) && !merge_due(15, 256));
        assert!(merge_due(2048, 32_768) && !merge_due(2047, 32_768));
    }

    /// Wait up to 10 s for `idx` to hold fewer than `share` deltas.
    fn drains_below(idx: &MutableIndex<3>, share: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while idx.pending() >= share {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn merge_trigger_first_insert_into_an_empty_index_merges() {
        let idx: MutableIndex<3> = MutableIndexBuilder::new("m", 2).build(&[]);
        idx.mutate(&[Mutation::Insert {
            pos: vec![0.5, 0.5, 0.5],
        }])
        .unwrap();
        assert!(drains_below(&idx, 1), "the first insert stayed pending");
        assert_eq!((idx.merges(), idx.n_shards()), (1, 1));
    }

    #[test]
    fn merge_trigger_holds_deltas_below_the_share_and_merges_on_crossing() {
        // 17 inserts on 256 points: 17 · 16 < 273 live, one short.
        let pts = uniform::<3>(256, 17);
        let idx = MutableIndexBuilder::new("m", 4).build(&pts);
        let insert = |p: &PointN<3>| Mutation::Insert { pos: p.0.to_vec() };
        let extra = uniform::<3>(18, 18);
        for p in &extra[..17] {
            idx.mutate(&[insert(p)]).unwrap();
        }
        // Give a wrongly woken thread time to land a merge.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!((idx.merges(), idx.pending()), (0, 17));
        // The 18th reaches the share: 18 · 16 >= 274 live.
        let ack = idx.mutate(&[insert(&extra[17])]).unwrap();
        assert_eq!(ack.pending, 18);
        assert!(drains_below(&idx, 18), "the crossing batch woke no merge");
        assert!(idx.merges() >= 1 && idx.epoch() >= 1);
        assert_eq!(idx.n_points(), 274);
    }

    #[test]
    fn merge_trigger_leaves_merge_now_merging_below_the_share() {
        let pts = uniform::<3>(256, 19);
        let idx = MutableIndexBuilder::new("m", 2).build(&pts);
        idx.mutate(&[Mutation::Delete { id: 3 }]).unwrap();
        assert_eq!((idx.merges(), idx.pending()), (0, 1));
        assert!(idx.merge_now());
        assert_eq!((idx.merges(), idx.pending(), idx.epoch()), (1, 0, 1));
        assert_eq!(idx.n_points(), 255);
    }

    /// Steady churn — as many live deletes as inserts, merged every eight
    /// batches — leaves the index no more to hold after the fiftieth merge
    /// than after the fifth: both logs empty, both routing tables exactly
    /// the live ids, and neither table's capacity still growing.
    #[test]
    fn churn_keeps_both_routing_tables_bounded() {
        let pts = uniform::<3>(1024, 23);
        let idx = MutableIndexBuilder::new("m", 4)
            .auto_merge(false)
            .build(&pts);
        let fresh = uniform::<3>(400 * 32, 24);
        let mut live: VecDeque<u32> = (0..1024).collect();
        // A table's capacity with its deletion marks cleared (a clone keeps
        // the bucket count): what its allocation holds, which `capacity()`
        // under-reads by the marks a delete leaves.
        let allocated = |routes: &Routes| {
            let mut routes = routes.clone();
            routes.clear();
            routes.capacity()
        };
        let capacities = |idx: &MutableIndex<3>| {
            let writer = allocated(&lock(&idx.core.writer).routes);
            (writer, allocated(&lock(&idx.core.merge_lock)))
        };
        let mut after_fifth = (0, 0);
        for (batch, inserts) in (1..).zip(fresh.chunks(32)) {
            let muts: Vec<Mutation> = (inserts.iter())
                .map(|p| Mutation::Insert { pos: p.0.to_vec() })
                .chain(live.drain(..32).map(|id| Mutation::Delete { id }))
                .collect();
            let ack = idx.mutate(&muts).unwrap();
            assert_eq!((ack.accepted, ack.rejected), (64, 0));
            live.extend(ack.assigned);
            if batch % 8 != 0 {
                continue;
            }
            assert!(idx.merge_now());
            let state = idx.pin();
            assert!(state.inserts.is_empty() && state.deleted.is_empty());
            assert_eq!(state.n_live, 1024);
            assert_eq!(lock(&idx.core.writer).routes.len(), state.n_live);
            assert_eq!(lock(&idx.core.merge_lock).len(), state.n_live);
            if batch == 5 * 8 {
                after_fifth = capacities(&idx);
            }
        }
        let (writer, merge) = capacities(&idx);
        assert!(writer <= after_fifth.0, "{writer} > {}", after_fifth.0);
        assert!(merge <= after_fifth.1, "{merge} > {}", after_fifth.1);
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

    impl<const D: usize> MutableIndex<D> {
        /// Run `hook` once, inside the next merge, between its rebuild and
        /// the writer lock.
        fn during_next_merge(&self, hook: impl FnOnce() + Send + 'static) {
            *lock(&self.core.merge_hook) = Some(Box::new(hook));
        }
    }

    /// The index's merge events, in order.
    fn merge_log(idx: &MutableIndex<3>) -> Arc<Mutex<Vec<EpochEvent>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        idx.attach_epoch_observer(Arc::new(move |e: &EpochEvent| {
            sink.lock().unwrap().push(e.clone());
        }));
        log
    }

    fn live_ids(idx: &MutableIndex<3>) -> BTreeSet<u32> {
        idx.live().iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn merge_replays_the_deltas_that_land_during_its_rebuild() {
        let pts = uniform::<3>(400, 61);
        let idx = Arc::new(
            MutableIndexBuilder::new("m", 4)
                .auto_merge(false)
                .build(&pts),
        );
        let merges = merge_log(&idx);
        let shards = idx.shard_ids();
        assert_eq!(shards.len(), 4);
        let insert = |pos: &[f32]| Mutation::Insert { pos: pos.to_vec() };
        // At the snapshot: shard 0 has a tombstone and an insert homed to it
        // (at one of its own points: its box is at distance 0 and ties go
        // to the lowest shard), so it rebuilds; shard 2 is carried across.
        let at_shard_0 = pts[shards[0][1] as usize];
        let doomed = Mutation::Delete { id: shards[0][0] };
        let ack = idx.mutate(&[doomed, insert(&at_shard_0.0)]).unwrap();
        let pending_insert = ack.assigned[0];
        let (carried, rebuilt) = (shards[2][0], shards[0][2]);
        let during = Arc::clone(&idx);
        idx.during_next_merge(move || {
            let a = during
                .mutate(&[insert(&[0.25, -0.5, 0.75])])
                .unwrap()
                .assigned[0];
            // Ids are handed out in order: the insert below is `a + 1`.
            let ack = during
                .mutate(&[
                    Mutation::Delete { id: carried },
                    Mutation::Delete { id: rebuilt },
                    Mutation::Delete { id: pending_insert },
                    insert(&[0.6, 0.1, -0.3]),
                    Mutation::Delete { id: a + 1 },
                ])
                .unwrap();
            assert_eq!(
                (ack.accepted, ack.rejected, ack.assigned),
                (5, 0, vec![a + 1])
            );
        });
        assert!(idx.merge_now());
        // Two inserts and four deletes arrived during the rebuild.
        assert_eq!((idx.epoch(), idx.pending()), (1, 6));
        let EpochEvent {
            rebuilt: shards_rebuilt,
            flushed,
            pending_after,
            ..
        } = merges.lock().unwrap()[0];
        assert_eq!((shards_rebuilt, flushed, pending_after), (1, 2, 6));
        assert_eq!(idx.shard_ids()[2], shards[2], "shard 2 carried across");
        let gone = [shards[0][0], carried, rebuilt];
        let want: BTreeSet<u32> = (0..400u32)
            .filter(|id| !gone.contains(id))
            .chain([pending_insert + 1])
            .collect();
        assert_eq!(live_ids(&idx), want);
        let queries: Vec<PointN<3>> = (gone.iter().map(|&id| pts[id as usize]))
            .chain([
                at_shard_0,
                PointN([0.25, -0.5, 0.75]),
                PointN([0.6, 0.1, -0.3]),
            ])
            .chain(uniform::<3>(16, 62))
            .collect();
        check_against_oracle(&idx, &queries);

        assert!(idx.merge_now());
        assert_eq!((idx.epoch(), idx.pending()), (2, 0));
        let EpochEvent { pending_after, .. } = merges.lock().unwrap()[1];
        assert_eq!(pending_after, 0);
        assert_eq!(live_ids(&idx), want);
        check_against_oracle(&idx, &queries);
    }

    #[test]
    fn merge_of_a_cancelled_pair_rebuilds_nothing() {
        let pts = uniform::<3>(200, 63);
        let idx = MutableIndexBuilder::new("m", 4)
            .auto_merge(false)
            .build(&pts);
        let merges = merge_log(&idx);
        let before = idx.shard_ids();
        let ack = idx
            .mutate(&[Mutation::Insert {
                pos: vec![0.5, 0.5, 0.5],
            }])
            .unwrap();
        idx.mutate(&[Mutation::Delete {
            id: ack.assigned[0],
        }])
        .unwrap();
        assert_eq!(idx.pending(), 2);
        assert!(idx.merge_now());
        assert_eq!((idx.epoch(), idx.pending()), (1, 0));
        let EpochEvent {
            rebuilt, flushed, ..
        } = merges.lock().unwrap()[0];
        assert_eq!((rebuilt, flushed), (0, 2));
        assert_eq!(idx.shard_ids(), before);
        assert_eq!(live_ids(&idx), (0..200).collect());
    }

    #[test]
    fn merge_thread_survives_a_panic_and_merges_the_next_share() {
        use crate::{Query, QueryKind, Service, ServiceConfig, ServiceError};
        use std::sync::atomic::AtomicBool;
        let pts = uniform::<3>(256, 65);
        let idx = Arc::new(MutableIndexBuilder::new("m", 4).build(&pts));
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        idx.during_next_merge(move || {
            flag.store(true, Ordering::SeqCst);
            panic!("injected merge-thread panic");
        });
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let id = service.register_index(idx.clone());
        let mut model: BTreeSet<u32> = (0..256).collect();
        let mut queries = 0u64;
        let mut serve_exactly = |model: &BTreeSet<u32>| {
            let live = live_points(&idx);
            assert_eq!(&live_ids(&idx), model);
            for (i, q) in uniform::<3>(8, 66).iter().enumerate() {
                let ask = |kind| {
                    let pos = q.0.to_vec();
                    service
                        .query(Query {
                            index: id,
                            pos,
                            kind,
                        })
                        .unwrap()
                };
                let answers = [
                    ask(QueryKind::Nn),
                    ask(QueryKind::Knn { k: 4 }),
                    ask(QueryKind::Pc { radius: 0.3 }),
                ];
                check_answers(&live, q, [&answers[0], &answers[1], &answers[2]], i);
            }
            queries += 24;
        };
        // Each round is 20 inserts and 20 deletes: past the 1/16 share of
        // the live points, so every round asks for a background merge. The
        // first one panics before its swap; every later one lands.
        let extra = uniform::<3>(80, 67);
        for (round, chunk) in extra.chunks(20).enumerate() {
            let doomed: Vec<u32> = model.iter().copied().step_by(5).take(20).collect();
            let muts: Vec<Mutation> = (chunk.iter())
                .map(|p| Mutation::Insert { pos: p.0.to_vec() })
                .chain(doomed.iter().map(|&id| Mutation::Delete { id }))
                .collect();
            let ack = service.mutate(id, &muts).expect("acknowledged");
            assert_eq!((ack.accepted, ack.rejected), (40, 0));
            // The panicked merge swapped nothing in and lost nothing.
            let carried = if round == 1 { 40 } else { 0 };
            assert_eq!(ack.pending, 40 + carried, "round {round}");
            model.extend(ack.assigned);
            doomed.iter().for_each(|id| assert!(model.remove(id)));
            let deadline = Instant::now() + Duration::from_secs(10);
            if round == 0 {
                while !fired.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "the merge hook never ran");
                    std::thread::sleep(Duration::from_millis(5));
                }
            } else {
                // The thread lived through the panic and merges the share.
                while idx.merges() < round as u64 || merge_due(idx.pending(), model.len()) {
                    assert!(Instant::now() < deadline, "round {round} was never merged");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            serve_exactly(&model);
        }
        assert_eq!(idx.merges(), 3);
        assert!(!merge_thread_gone(&idx), "the merge thread is alive");
        service.close();
        assert_eq!((idx.pending(), idx.merges()), (0, 3));
        assert_eq!(live_ids(&idx), model);
        check_against_oracle(&idx, &uniform::<3>(8, 66));
        idx.quiesce();
        assert_eq!(idx.pending(), 0);
        let refused = service.mutate(id, &[Mutation::Delete { id: 1 }]);
        assert!(matches!(refused, Err(ServiceError::ShuttingDown)));
        let m = service.shutdown();
        assert_eq!((m.submitted, m.failed, m.rejected), (queries, 0, 0));
        assert_eq!(m.submitted, m.completed + m.failed + m.rejected);
    }

    fn merge_thread_gone(idx: &MutableIndex<3>) -> bool {
        let thread = lock(&idx.merge_thread);
        thread.as_ref().is_some_and(|h| h.is_finished())
    }
}
