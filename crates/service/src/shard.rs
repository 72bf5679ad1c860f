//! Sharded tree indices: fan a batch out to N kd-tree shards, merge back.
//!
//! One tree per device is the paper's implicit assumption (§3, §4); the
//! service's north star of serving datasets larger than one tree breaks
//! it. [`ShardedIndex`] partitions the dataset across N [`KdIndex`] shards
//! along the Morton curve at build time — the same Z-order locality
//! argument as the §4.4 point sort, applied to the *data* instead of the
//! queries — so each shard owns a spatially compact region with a tight
//! bounding box. Per-shard trees also bound each traversal's footprint,
//! the same motivation as stack-free/short-stack GPU traversals
//! (arXiv:2210.12859, arXiv:2402.00665).
//!
//! [`Shard`] is the one shard type, held as `Arc<Shard>` by this index and
//! by the epoch layer's snapshots ([`crate::epoch`]) alike: a kd-tree, the
//! table mapping its build points to the ids callers know, and its box.
//! [`Shard::partition`] is the one Morton partition (both builders and the
//! epoch layer's re-split call it), and the tree is the shard's only point
//! store — [`Shard::points`] reads `(id, point)` pairs back out of it, as
//! Wald's left-balanced tree keeps no parallel array.
//!
//! A batch is a slice of lanes — a position plus every op asked there
//! ([`FusedLane`]) — and every sub-batch walks the fused rule over them
//! ([`KdIndex::run_lanes`]). A lane (a "query" below) keeps one accumulator, the
//! fused state its walks leave ([`FusedOpsPoint`]), and is dispatched to a
//! shard iff the state still [`reaches`] it. One [`sweep`] runs every batch, over
//! either owner's shards — the epoch layer's pending deletes riding beside
//! its shards as tombstone sets the sub-batches' rules skip, its pending
//! inserts as one more shard — on one schedule, **cursor waves**: every query
//! visits its shards in ascending order of AABB lower-bound distance, so
//! its first shard is usually its home and establishes a tight bound, and
//! a later shard is skipped when its box lower bound already proves it
//! cannot change the state (NN: no strictly closer point; kNN: the
//! k-best set is full and the bound is no better than its worst member;
//! PC: the box lies entirely outside every radius). Each wave dispatches
//! every query's next admissible shard, one merged sub-batch per shard, on
//! a worker pool of [`ExecPolicy::shard_parallelism`] threads that
//! persists across the batch's waves (spawning per wave would rival the
//! traversal work at sub-millisecond wave granularity); with one thread
//! the waves run inline on the caller. A query's shard is always decided
//! against the answers of that query's earlier shards, so the executed
//! (query, shard) set — and with it the whole record, answers to
//! [`ShardVisit`]s — is the same for every thread count. A sub-batch's
//! states fold into the lanes' accumulators in each query's visit order
//! ([`merge`], its ids renamed to the ids callers know), and the answers
//! are read off the accumulators once, when the batch closes.
//!
//! Every sub-batch returns a [`BatchOutcome`] of its own and the batch's
//! is their merge ([`BatchOutcome::absorb`]), with skips counted as its
//! `shards_pruned`. Pruning is *exact*: `Aabb::dist2_to` is a true lower
//! bound in f32 (per-axis monotone rounding) and a state a shard does not
//! reach refuses every candidate in it, so pruned and unpruned runs return
//! identical results — a property the differential tests check query by
//! query.
//!
//! Only metered batches profile, and every sub-batch of one with two or
//! more lanes runs the §4.4 profiler on itself, as a metered flat batch
//! does: a sub-batch's record is a function of its lanes and its shard's
//! points alone, whichever index owns the shard and whatever ran before.
//!
//! The merge rule of each op, and why a fold of per-shard states equals
//! one walk over every point, is `gts_apps::fused`'s.

use crate::index::{
    lane_answers, lane_state, mark_fused, to_point, BatchOutcome, FusedLane, FusedOutcome, KdIndex,
    ShardVisit, TreeIndex,
};
use crate::policy::{Backend, ExecPolicy};
use gts_apps::fused::{merge, reaches, FusedOpsPoint};
use gts_points::sort::morton_key;
use gts_runtime::Tombstones;
use gts_trees::{Aabb, PointN, SplitPolicy};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A [`TreeIndex`] made of N Morton-partitioned [`KdIndex`] shards.
pub struct ShardedIndex<const D: usize> {
    name: String,
    shards: Vec<Arc<Shard<D>>>,
    n_points: usize,
    prune: bool,
}

/// One shard, whichever index holds it: a kd-tree over the shard's points
/// and what [`sweep`] needs beside it.
pub(crate) struct Shard<const D: usize> {
    index: KdIndex<D>,
    /// `ids[i]` = the id callers know the shard's i-th build point by.
    pub(crate) ids: Vec<u32>,
    pub(crate) bbox: Aabb<D>,
    /// Armed by a test: the next sub-batch on this shard panics.
    #[cfg(test)]
    failpoint: AtomicBool,
}

impl<const D: usize> Shard<D> {
    /// Cut `items` (`(id, point)` pairs), in Morton order when `k > 1`, into
    /// `k` equal index ranges and build one shard per range.
    /// A range comes out empty only when `items` has fewer than `k`
    /// entries; `KdTree::build` panics on zero points, so empty ranges are
    /// skipped outright.
    pub(crate) fn partition(
        items: &[(u32, PointN<D>)],
        k: usize,
        leaf_size: usize,
        split: SplitPolicy,
    ) -> Vec<Shard<D>> {
        let n = items.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // `morton_order`'s box, key and stable sort, over the items. One
        // range needs no order, and sorting it would add a sort to every
        // merge's rebuild of a shard that does not re-split.
        if k > 1 {
            let bbox = items.iter().fold(Aabb::empty(), |b, &(_, p)| b.grow(p));
            order.sort_by_cached_key(|&i| morton_key(&items[i as usize].1, &bbox));
        }
        (0..k)
            .map(|s| (s, s * n / k, (s + 1) * n / k))
            .filter(|&(_, lo, hi)| lo < hi)
            .map(|(s, lo, hi)| {
                let (ids, pts): (Vec<u32>, Vec<PointN<D>>) =
                    order[lo..hi].iter().map(|&i| items[i as usize]).unzip();
                Shard {
                    index: KdIndex::build(format!("shard-{s}"), &pts, leaf_size, split),
                    bbox: Aabb::of_points(&pts),
                    ids,
                    #[cfg(test)]
                    failpoint: AtomicBool::new(false),
                }
            })
            .collect()
    }

    /// The shard's `(id, point)` pairs, in tree order, read from the tree
    /// itself: `tree.points[j]` is build point `tree.perm[j]`, whose id is
    /// `ids[perm[j]]`.
    pub(crate) fn points(&self) -> impl Iterator<Item = (u32, PointN<D>)> + '_ {
        let tree = self.index.tree();
        (tree.perm.iter().zip(&tree.points)).map(|(&b, &p)| (self.ids[b as usize], p))
    }
}

/// Builder for a [`ShardedIndex`]; the defaults mirror
/// [`KdIndex::build`]'s parameters with pruning enabled.
pub struct ShardedIndexBuilder {
    name: String,
    shards: usize,
    leaf_size: usize,
    policy: SplitPolicy,
    prune: bool,
}

impl ShardedIndexBuilder {
    /// Start a builder for an index named `name` with `shards` shards.
    pub fn new(name: impl Into<String>, shards: usize) -> Self {
        ShardedIndexBuilder {
            name: name.into(),
            shards,
            leaf_size: 8,
            policy: SplitPolicy::MedianCycle,
            prune: true,
        }
    }

    /// Per-shard kd-tree leaf bucket size (default 8).
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size;
        self
    }

    /// Per-shard split policy (default [`SplitPolicy::MedianCycle`]).
    pub fn split_policy(mut self, policy: SplitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable or disable shard AABB pruning (default enabled). Disabling
    /// fans every query out to every shard — only useful for measuring
    /// what pruning saves, since results are identical either way.
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Build the index over `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty or the shard count is 0 (delegated
    /// invariants — each shard is a [`KdIndex`]).
    pub fn build<const D: usize>(self, points: &[PointN<D>]) -> ShardedIndex<D> {
        assert!(!points.is_empty(), "sharded index over zero points");
        assert!(self.shards > 0, "sharded index needs at least one shard");
        let items: Vec<_> = (0..).zip(points.iter().copied()).collect();
        let shards = Shard::partition(&items, self.shards, self.leaf_size, self.policy);
        ShardedIndex {
            name: self.name,
            shards: shards.into_iter().map(Arc::new).collect(),
            n_points: points.len(),
            prune: self.prune,
        }
    }
}

impl<const D: usize> ShardedIndex<D> {
    /// Build a pruning-enabled index named `name` over `points` with
    /// (at most) `shards` Morton-partitioned shards
    /// ([`ShardedIndexBuilder`] with its other defaults).
    pub fn build(
        name: impl Into<String>,
        points: &[PointN<D>],
        shards: usize,
        leaf_size: usize,
        policy: SplitPolicy,
    ) -> Self {
        ShardedIndexBuilder::new(name, shards)
            .leaf_size(leaf_size)
            .split_policy(policy)
            .build(points)
    }

    /// Number of non-empty shards actually built (≤ the requested count).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Points owned by shard `s`.
    pub fn shard_len(&self, s: usize) -> usize {
        self.shards[s].ids.len()
    }
}

#[cfg(test)]
impl<const D: usize> ShardedIndex<D> {
    /// Make the next sub-batch that reaches shard `s` panic (once).
    pub(crate) fn arm_failpoint(&self, s: usize) {
        self.shards[s].failpoint.store(true, Ordering::SeqCst);
    }
}

/// One wave of concurrent sub-batches: `(shard, lanes)` per slot.
type Wave = Vec<(usize, Vec<usize>)>;

/// Executes one wave and hands back its slots alongside their runs.
type DispatchFn<'a, const D: usize> = dyn FnMut(u32, Wave) -> (Wave, Vec<SubRun<D>>) + 'a;

/// Shared state of a batch's wave pool.
struct PoolShared<const D: usize> {
    state: Mutex<WaveState<D>>,
    /// Workers park here between waves.
    work: Condvar,
    /// The dispatcher parks here until the wave's last slot fills.
    idle: Condvar,
}

impl<const D: usize> PoolShared<D> {
    /// The lock is never held across a sub-batch, and a sub-batch's panic
    /// is caught before the lock is retaken, so it cannot be poisoned by
    /// anything the pool runs.
    fn lock(&self) -> MutexGuard<'_, WaveState<D>> {
        self.state
            .lock()
            .expect("wave pool lock is never held across a sub-batch")
    }
}

#[derive(Default)]
struct WaveState<const D: usize> {
    round: u32,
    wave: Wave,
    /// First unclaimed wave slot.
    next: usize,
    /// Filled wave slots; the wave is drained when `done == runs.len()`.
    done: usize,
    /// A slot holds its run, or the payload of the panic that ended it.
    runs: Vec<Option<std::thread::Result<SubRun<D>>>>,
    shutdown: bool,
}

/// Releases the pool's workers when the batch is done with them — also
/// when it unwinds, or the scope joining them would wait forever.
struct PoolShutdown<'a, const D: usize>(&'a PoolShared<D>);

impl<const D: usize> Drop for PoolShutdown<'_, D> {
    fn drop(&mut self) {
        // Setting a flag is valid whatever state a panic left behind.
        self.0
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.0.work.notify_all();
    }
}

/// One executed sub-batch: its span (shard, wave number, wall clock), its
/// lanes' states (point ids as the shard's tree positions) and its
/// accounting.
struct SubRun<const D: usize> {
    visit: ShardVisit,
    states: Vec<FusedOpsPoint<D>>,
    outcome: BatchOutcome,
}

/// Deterministic accumulation of a sweep's per-sub-batch records into the
/// batch's one [`BatchOutcome`]. The record merges by its own rule
/// ([`BatchOutcome::absorb`]); kept here is what it has no field for.
/// The sweep feeds runs in a fixed order so the f64 sums are reproducible.
#[derive(Default)]
struct StatAgg {
    /// The batch's record so far; its three means are lane-weighted sums
    /// until [`Self::finish`] divides them by the weights below.
    out: BatchOutcome,
    /// Lanes over every absorbed sub-batch: the weight of the means.
    executed: usize,
    /// Lanes over the sub-batches that profiled: the weight of
    /// `mean_similarity`.
    profiled: usize,
    backend_queries: [usize; Backend::ALL.len()], // indexed by Backend::index()
    /// Pruned `(lane, shard)` pairs per `(shard, round)`.
    pruned_pairs: BTreeMap<(u32, u32), u32>,
}

impl StatAgg {
    fn add<const D: usize>(&mut self, run: &SubRun<D>) {
        let sub = &run.outcome;
        let qs = run.visit.queries as usize;
        self.out.shard_visits.push(run.visit.clone());
        self.out.absorb(sub, qs);
        self.executed += qs;
        if sub.mean_similarity.is_some() {
            self.profiled += qs;
        }
        self.backend_queries[sub.backend.index()] += qs;
    }

    /// Close the batch: `lanes` as the caller was handed them, `accs`
    /// their accumulators after the sweep, point ids already the ones
    /// callers know.
    fn finish<const D: usize>(
        self,
        lanes: &[FusedLane],
        accs: &[FusedOpsPoint<D>],
    ) -> FusedOutcome {
        let mut outcome = self.out;
        for visit in &mut outcome.shard_visits {
            let pruned = self.pruned_pairs.get(&(visit.shard, visit.round));
            visit.pruned = pruned.copied().unwrap_or(0);
        }
        // Report the backend that served the most queries (first wins on
        // ties — deterministic because the scan order is fixed).
        outcome.backend = self
            .backend_queries
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| Backend::ALL[i])
            .unwrap_or_default();
        // The one division of each lane-weighted sum; a batch that ran no
        // sub-batch reports what a run without warps does.
        let mean = |sum: f64| match self.executed {
            0 => 1.0,
            lanes => sum / lanes as f64,
        };
        outcome.work_expansion = mean(outcome.work_expansion);
        outcome.mask_occupancy = mean(outcome.mask_occupancy);
        outcome.mean_similarity = (outcome.mean_similarity).map(|sum| sum / self.profiled as f64);
        mark_fused(&mut outcome, lanes);
        FusedOutcome {
            lanes: (lanes.iter().zip(accs))
                .map(|(lane, acc)| lane_answers(lane, acc, |i| i))
                .collect(),
            outcome,
        }
    }
}

/// Answer one batch of lanes from `shards`: fan the lanes out, fold the
/// per-shard answers back and close the batch's record — the only shard
/// sweep there is, one per batch, under [`ShardedIndex`] and the epoch
/// layer's pinned snapshot alike, on the one schedule there is (module
/// docs), its pool sized by [`ExecPolicy::shard_parallelism`]. `dead[s]`
/// holds the tree positions of shard `s`'s points the lanes must not see
/// (a shard past the end of `dead` has none); `prune` turns the AABB rule
/// off for measuring what it saves.
pub(crate) fn sweep<const D: usize>(
    shards: &[Arc<Shard<D>>],
    dead: &[Tombstones],
    lanes: &[FusedLane],
    policy: &ExecPolicy,
    prune: bool,
) -> FusedOutcome {
    // A wave holds at most one slot per lane, so workers beyond the lane
    // count could only idle (a batch smaller than the pool).
    let threads = policy.shard_threads(shards.len()).min(lanes.len());
    Sweep::new(shards, dead, lanes, policy, prune).run(threads)
}

/// The per-batch inputs every sub-batch and every wave shares.
struct Sweep<'a, const D: usize> {
    shards: &'a [Arc<Shard<D>>],
    dead: &'a [Tombstones],
    lanes: &'a [FusedLane],
    /// The whole batch's one [`ExecPolicy::meters`] answer, handed to
    /// every sub-batch: a batch runs under the model whole or not at all.
    metered: bool,
    qpts: Vec<PointN<D>>,
    /// Per lane, `(lower bound, shard)` in visit order.
    visit: Vec<Vec<(f32, u32)>>,
    policy: &'a ExecPolicy,
    prune: bool,
    /// Batch-run start: sub-batch spans are timed against it (wall times,
    /// outside the determinism contract like every other wall
    /// measurement).
    started: Instant,
}

impl<'a, const D: usize> Sweep<'a, D> {
    fn new(
        shards: &'a [Arc<Shard<D>>],
        dead: &'a [Tombstones],
        lanes: &'a [FusedLane],
        policy: &'a ExecPolicy,
        prune: bool,
    ) -> Self {
        let started = Instant::now();
        let qpts: Vec<PointN<D>> = lanes.iter().map(|l| to_point(&l.pos)).collect();
        // Each lane visits shards in ascending lower-bound order, ties
        // broken by shard id — deterministic, and the home shard (lb = 0)
        // comes first so bounds tighten before distant shards are tested.
        let visit = qpts
            .iter()
            .map(|p| {
                let mut order: Vec<(f32, u32)> = shards
                    .iter()
                    .enumerate()
                    .map(|(s, shard)| (shard.bbox.dist2_to(p), s as u32))
                    .collect();
                order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                order
            })
            .collect();
        let metered = policy.meters(lanes.iter().map(|l| &l.pos[..]));
        Sweep {
            shards,
            dead,
            lanes,
            metered,
            qpts,
            visit,
            policy,
            prune,
            started,
        }
    }

    /// Run the sub-batch of lanes `qs` against shard `shard_i`.
    fn run_sub(&self, shard_i: usize, round: u32, qs: &[usize]) -> SubRun<D> {
        let shard = &self.shards[shard_i];
        #[cfg(test)]
        if shard.failpoint.swap(false, Ordering::SeqCst) {
            panic!("failpoint: shard {shard_i}");
        }
        let sub: Vec<&FusedLane> = qs.iter().map(|&q| &self.lanes[q]).collect();
        let offset_us = self.started.elapsed().as_micros() as u64;
        let dead = self.dead.get(shard_i).unwrap_or(Tombstones::NONE);
        let (states, outcome) = (shard.index).run_lanes(&sub, self.metered, self.policy, dead);
        let visit = ShardVisit {
            shard: shard_i as u32,
            round,
            queries: sub.len() as u32,
            node_visits: outcome.node_visits,
            pruned: 0,
            model_ms: outcome.model_ms,
            offset_us,
            dur_us: (self.started.elapsed().as_micros() as u64).saturating_sub(offset_us),
        };
        SubRun {
            visit,
            states,
            outcome,
        }
    }

    /// Spawn a persistent pool of `threads - 1` workers (the calling
    /// thread is the remaining worker), hand `body` a dispatch callback
    /// that executes one wave on the pool, and tear the pool down when
    /// `body` returns. Spawning once per *batch* instead of once per
    /// *wave* matters: a sweep runs up to `n_shards` waves per batch, and at sub-millisecond wave granularity the per-wave
    /// spawn/join cost rivals the traversal work itself.
    ///
    /// The dispatch callback takes wave ownership and returns it alongside
    /// the runs — slot `i` of the returned wave and runs both belong to
    /// input slot `i`, so everything downstream is deterministic no matter
    /// which worker ran what. A sub-batch that panics does not take its
    /// worker (or the wave's bookkeeping) down with it: the panic resumes
    /// on the dispatching thread once the wave has drained.
    fn with_wave_pool<R>(
        &self,
        threads: usize,
        body: impl FnOnce(&mut DispatchFn<'_, D>) -> R,
    ) -> R {
        let shared = PoolShared {
            state: Mutex::new(WaveState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        };
        std::thread::scope(|scope| {
            let _shutdown = PoolShutdown(&shared);
            for _ in 1..threads {
                scope.spawn(|| self.pool_work(&shared, true));
            }
            body(&mut |round, wave| self.pool_dispatch(&shared, round, wave))
        })
    }

    /// Submit one wave to the pool and drain it, claiming sub-batches on
    /// the calling thread alongside the workers.
    fn pool_dispatch(
        &self,
        shared: &PoolShared<D>,
        round: u32,
        wave: Wave,
    ) -> (Wave, Vec<SubRun<D>>) {
        match &wave[..] {
            [] => return (wave, Vec::new()),
            // A one-shard wave gains nothing from the pool; run it inline
            // without even waking the workers.
            [(s, qs)] => {
                let run = self.run_sub(*s, round, qs);
                return (wave, vec![run]);
            }
            _ => {}
        }
        {
            let mut state = shared.lock();
            state.round = round;
            state.next = 0;
            state.done = 0;
            state.runs = (0..wave.len()).map(|_| None).collect();
            state.wave = wave;
        }
        shared.work.notify_all();
        self.pool_work(shared, false);
        let mut state = shared.lock();
        while state.done < state.runs.len() {
            state = (shared.idle.wait(state)).expect("wave pool lock is never poisoned");
        }
        let wave = std::mem::take(&mut state.wave);
        let runs = std::mem::take(&mut state.runs);
        drop(state);
        let runs = (runs.into_iter())
            .map(|r| {
                r.expect("wave slot filled")
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (wave, runs)
    }

    /// Worker loop: claim the next unclaimed sub-batch of the current
    /// wave, execute it, park the result — or the panic that ended it —
    /// back in its slot (and the lane list back in the wave, for the
    /// caller's merge). Persistent workers (`wait == true`) block for the
    /// next wave until shutdown; the dispatching thread runs the same
    /// loop with `wait == false` to help drain the wave it just
    /// submitted.
    fn pool_work(&self, shared: &PoolShared<D>, wait: bool) {
        let mut state = shared.lock();
        loop {
            if state.next < state.wave.len() {
                let i = state.next;
                state.next += 1;
                let round = state.round;
                let (s, qs) = (state.wave[i].0, std::mem::take(&mut state.wave[i].1));
                drop(state);
                let run = catch_unwind(AssertUnwindSafe(|| self.run_sub(s, round, &qs)));
                state = shared.lock();
                state.wave[i].1 = qs;
                state.runs[i] = Some(run);
                state.done += 1;
                if state.done == state.runs.len() {
                    shared.idle.notify_all();
                }
            } else if !wait || state.shutdown {
                return;
            } else {
                state = (shared.work.wait(state)).expect("wave pool lock is never poisoned");
            }
        }
    }

    /// Dispatch a `(lane, shard)` pair the lane's accumulator `admitted`
    /// (or any pair, with pruning off)? A refusal is counted as a pruned
    /// pair of shard `s` in `round`, for [`StatAgg::finish`] to fold into
    /// the matching [`ShardVisit`].
    fn keep(&self, admitted: bool, agg: &mut StatAgg, s: u32, round: u32) -> bool {
        let keep = !self.prune || admitted;
        if !keep {
            agg.out.shards_pruned += 1;
            *agg.pruned_pairs.entry((s, round)).or_default() += 1;
        }
        keep
    }

    /// The schedule, on a pool of `threads`: each wave dispatches every
    /// lane's *next* shard in visit order that the running accumulator
    /// cannot rule out, groups the wave into one sub-batch per shard, and
    /// executes those concurrently.
    ///
    /// Per lane, every shard is checked exactly once, against the results
    /// of the lane's earlier dispatched shards and nothing else — so the
    /// executed (lane, shard) set, the prune count and the merged results
    /// do not depend on `threads`. Per-shard sub-runs start with fresh
    /// lane state and fold back through [`merge`], so every answer is
    /// bit-identical to a flat run of that op.
    /// Lanes at different visit depths land in the same wave's sub-batch
    /// for a shard, so waves are fewer and fuller than one round per visit
    /// depth would be — better warp packing and fewer profiler
    /// consultations for the same traversal work.
    fn run(&self, threads: usize) -> FusedOutcome {
        let n_shards = self.shards.len();
        let mut agg = StatAgg::default();
        let points = self.shards.iter().map(|s| s.ids.len()).sum();
        let mut accs: Vec<FusedOpsPoint<D>> = (self.lanes.iter().zip(&self.qpts))
            .map(|(lane, &pos)| lane_state(lane, pos, points))
            .collect();
        // cursor[q] = how far down q's visit order we have decided.
        let mut cursor = vec![0usize; self.lanes.len()];
        self.with_wave_pool(threads, |dispatch| {
            for wave_no in 0..n_shards as u32 {
                let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
                for (q, order) in self.visit.iter().enumerate() {
                    while cursor[q] < n_shards {
                        let (lb, s) = order[cursor[q]];
                        cursor[q] += 1;
                        if self.keep(reaches(&accs[q], lb), &mut agg, s, wave_no) {
                            groups[s as usize].push(q);
                            break;
                        }
                    }
                }
                let wave: Wave = (groups.into_iter().enumerate())
                    .filter(|(_, qs)| !qs.is_empty())
                    .collect();
                if wave.is_empty() {
                    // Nothing admissible anywhere — every cursor is spent.
                    break;
                }
                let (wave, runs) = dispatch(wave_no, wave);
                for ((s, qs), run) in wave.iter().zip(&runs) {
                    let shard = &self.shards[*s];
                    let perm = &shard.index.tree().perm;
                    let id = |i: u32| shard.ids[perm[i as usize] as usize];
                    for (&q, state) in qs.iter().zip(&run.states) {
                        merge(&mut accs[q], state, id);
                    }
                    agg.add(run);
                }
            }
        });
        agg.finish(self.lanes, &accs)
    }
}

impl<const D: usize> TreeIndex for ShardedIndex<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        D
    }

    fn n_points(&self) -> usize {
        self.n_points
    }

    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome {
        sweep(&self.shards, &[], lanes, policy, self.prune)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{OpKey, QueryResult};
    use gts_points::gen::{geocity_like, uniform};

    fn cpu() -> ExecPolicy {
        ExecPolicy::forced(Backend::Cpu)
    }

    #[test]
    fn partition_covers_every_point_once() {
        let pts = uniform::<3>(1000, 3);
        let idx = ShardedIndex::build("s", &pts, 7, 8, SplitPolicy::MedianCycle);
        assert_eq!(idx.n_shards(), 7);
        assert_eq!(idx.n_points(), 1000);
        let mut seen = vec![false; 1000];
        for s in 0..idx.n_shards() {
            for &i in &idx.shards[s].ids {
                assert!(!seen[i as usize], "point {i} in two shards");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&v| v), "some point in no shard");
    }

    #[test]
    fn fewer_points_than_shards_skips_empty_shards() {
        let pts = uniform::<3>(5, 11);
        let idx = ShardedIndex::build("s", &pts, 16, 8, SplitPolicy::MedianCycle);
        assert_eq!(idx.n_shards(), 5, "one singleton shard per point");
        assert!((0..idx.n_shards()).all(|s| idx.shard_len(s) == 1));
        let out = idx.run_batch(OpKey::Knn(8), &[vec![0.0, 0.0, 0.0]], &cpu());
        let QueryResult::Knn { dist2, .. } = &out.results[0] else {
            panic!()
        };
        assert_eq!(dist2.len(), 5, "k > n still yields every point");
    }

    #[test]
    fn duplicated_dataset_builds_and_answers() {
        // All points coincident: Morton keys collapse, but index-range
        // partitioning still spreads them; no shard is empty.
        let pts = vec![PointN([0.5f32, 0.5, 0.5]); 64];
        let idx = ShardedIndex::build("dup", &pts, 4, 8, SplitPolicy::MidpointWidest);
        assert_eq!(idx.n_shards(), 4);
        let out = idx.run_batch(OpKey::Pc(0.1f32.to_bits()), &[vec![0.5, 0.5, 0.5]], &cpu());
        assert_eq!(out.results[0], QueryResult::Pc { count: 64 });
    }

    #[test]
    fn clustered_queries_prune_distant_shards() {
        let pts = geocity_like(2000, 5);
        let idx = ShardedIndex::build("cities", &pts, 8, 8, SplitPolicy::MedianCycle);
        // Queries hugging dataset points: home-shard bounds are tight, so
        // most other shards should be skipped.
        let queries: Vec<Vec<f32>> = pts.iter().take(128).map(|p| p.0.to_vec()).collect();
        let out = idx.run_batch(OpKey::Nn, &queries, &cpu());
        assert!(out.shards_pruned > 0, "expected pruning on clustered input");
        let unpruned = ShardedIndexBuilder::new("cities", 8)
            .prune(false)
            .build(&pts)
            .run_batch(OpKey::Nn, &queries, &cpu());
        assert_eq!(unpruned.shards_pruned, 0);
        assert_eq!(out.results, unpruned.results, "pruning changed results");
        assert!(out.node_visits <= unpruned.node_visits);
    }

    #[test]
    fn parallel_waves_match_sequential_rounds_exactly() {
        let pts = geocity_like(3000, 21);
        let idx = ShardedIndex::build("par", &pts, 8, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().take(256).map(|p| p.0.to_vec()).collect();
        let threads = |shard_parallelism| ExecPolicy {
            shard_parallelism,
            ..cpu()
        };
        for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.1f32.to_bits())] {
            // One thread (the waves run inline), fewer threads than
            // shards, one per shard: one schedule, so every decision is
            // made with the same accumulator state and the executed
            // traversal work matches exactly (CPU backend: node visits are
            // pure traversal counts, independent of grouping).
            let waves = |out: &BatchOutcome| -> Vec<(u32, u32)> {
                (out.shard_visits.iter())
                    .map(|v| (v.round, v.shard))
                    .collect()
            };
            let s = idx.run_batch(op, &queries, &threads(1));
            for t in [4, 8] {
                let p = idx.run_batch(op, &queries, &threads(t));
                assert_eq!(s.results, p.results, "op {op:?}: {t} threads diverged");
                assert_eq!(p.node_visits, s.node_visits, "op {op:?}: extra work");
                assert_eq!(p.shards_pruned, s.shards_pruned, "op {op:?}");
                assert_eq!(waves(&p), waves(&s), "op {op:?}: wave numbering");
            }
        }
    }

    #[test]
    fn one_lane_sweep_reads_the_same_on_a_pool_it_cannot_use() {
        // A wave of a one-lane batch holds one slot and runs inline, so
        // `sweep` capping the pool at the lane count takes away only
        // workers that never claimed anything.
        let pts = uniform::<3>(1024, 17);
        let idx = ShardedIndex::build("one", &pts, 8, 8, SplitPolicy::MedianCycle);
        let mut lane = FusedLane::empty(vec![0.1, -0.2, 0.3]);
        for op in [OpKey::Nn, OpKey::Knn(40), OpKey::Pc(0.3f32.to_bits())] {
            lane.ask(op);
        }
        let lanes = [lane];
        let mut policy = ExecPolicy {
            shard_parallelism: 8,
            ..ExecPolicy::forced(Backend::Lockstep)
        };
        // The modeled series are part of the record: a seed that meters.
        while !policy.meters([&lanes[0].pos[..]]) {
            policy.profile_seed += 1;
        }
        let shards = &idx.shards;
        let record = |mut out: FusedOutcome| {
            for v in &mut out.outcome.shard_visits {
                (v.offset_us, v.dur_us) = (0, 0); // wall clock
            }
            format!("{out:?}")
        };
        let capped = record(sweep(shards, &[], &lanes, &policy, true));
        let uncapped = record(Sweep::new(shards, &[], &lanes, &policy, true).run(8));
        assert!(capped.contains("metered: true"), "{capped}");
        assert_eq!(capped, uncapped);
        assert!(capped.contains("round: 1"), "the lane left its home shard");
    }

    #[test]
    fn panicking_sub_batch_unwinds_the_dispatcher_and_spares_the_pool() {
        let pts = uniform::<3>(1024, 41);
        let idx = std::sync::Arc::new(ShardedIndex::build(
            "boom",
            &pts,
            8,
            8,
            SplitPolicy::MedianCycle,
        ));
        // Every point is a query, so every shard is some lane's home.
        let queries: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        // Inline, fewer workers than shards, one per shard.
        for threads in [1usize, 4, 8] {
            let policy = ExecPolicy {
                shard_parallelism: threads,
                ..cpu()
            };
            let want = idx.run_batch(OpKey::Knn(4), &queries, &policy).results;
            idx.arm_failpoint(5);
            // Run on a thread of its own, so that a dispatcher left
            // waiting for the dead sub-batch fails the test instead of
            // hanging it.
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = {
                let (idx, queries, policy) = (idx.clone(), queries.clone(), policy.clone());
                std::thread::spawn(move || {
                    let run = || idx.run_batch(OpKey::Knn(4), &queries, &policy);
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(run)).map(|out| out.results));
                })
            };
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{threads} threads: run hung on a panicked sub-batch"));
            assert!(got.is_err(), "{threads} threads: the panic must surface");
            runner.join().unwrap();
            // The failpoint fired once; the index serves the next batch.
            let again = idx.run_batch(OpKey::Knn(4), &queries, &policy).results;
            assert_eq!(again, want, "{threads} threads");
        }
    }

    #[test]
    fn sub_batch_records_merge_by_the_one_rule() {
        // Two sub-batches of unequal size, a distinct prime in every
        // counter: a dropped or swapped clause of the merge moves a sum.
        let a = BatchOutcome {
            backend: Backend::Autoropes,
            mean_similarity: Some(0.75),
            node_visits: 2,
            model_ms: 0.5,
            warps: 3,
            work_expansion: 1.5,
            shards_pruned: 5,
            mask_occupancy: 0.25,
            stack_bytes_peak: 47,
            stack_transactions: 17,
            fusion_saved_visits: 19,
            ..BatchOutcome::default()
        };
        let b = BatchOutcome {
            backend: Backend::Lockstep,
            mean_similarity: None,
            node_visits: 23,
            model_ms: 0.25,
            warps: 29,
            work_expansion: 3.0,
            shards_pruned: 31,
            mask_occupancy: 0.5,
            stack_bytes_peak: 13,
            stack_transactions: 53,
            fusion_saved_visits: 59,
            ..BatchOutcome::default()
        };
        let run = |shard: u32, outcome: &BatchOutcome, lanes: usize| SubRun::<3> {
            visit: ShardVisit {
                shard,
                round: 0,
                queries: lanes as u32,
                node_visits: outcome.node_visits,
                pruned: 0,
                model_ms: outcome.model_ms,
                offset_us: 0,
                dur_us: 0,
            },
            states: Vec::new(),
            outcome: outcome.clone(),
        };
        let mut agg = StatAgg::default();
        agg.add(&run(0, &a, 3));
        agg.add(&run(1, &b, 5));
        let mut lane = FusedLane::empty(vec![0.0; 3]);
        lane.ask(OpKey::Nn);
        let out = agg.finish::<3>(&[lane], &[]).outcome;
        assert_eq!(out.node_visits, 25);
        assert_eq!(out.warps, 32);
        assert_eq!(out.shards_pruned, 36);
        assert_eq!(out.stack_transactions, 70);
        assert_eq!(out.fusion_saved_visits, 78);
        assert_eq!(out.stack_bytes_peak, 47, "a peak merges by max");
        assert_eq!(out.model_ms, 0.75);
        // Means weigh each sub-batch by its lanes: (1.5·3 + 3·5) / 8.
        assert_eq!(out.work_expansion, 19.5 / 8.0);
        assert_eq!(out.mask_occupancy, 3.25 / 8.0);
        // Only the sub-batch that profiled weighs in on similarity.
        assert_eq!(out.mean_similarity, Some(0.75));
        assert_eq!(out.backend, Backend::Lockstep, "served the most lanes");
        assert_eq!((out.fused_ops, out.fused_lanes), (0, 0), "one op asked");
        let visits: Vec<(u32, u32, u64)> = (out.shard_visits.iter())
            .map(|v| (v.shard, v.queries, v.node_visits))
            .collect();
        assert_eq!(visits, [(0, 3, 2), (1, 5, 23)]);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let pts = uniform::<3>(512, 9);
        let flat = KdIndex::build("flat", &pts, 8, SplitPolicy::MedianCycle);
        let sharded = ShardedIndexBuilder::new("sharded", 4)
            .prune(false)
            .build(&pts);
        let queries: Vec<Vec<f32>> = pts.iter().take(64).map(|p| p.0.to_vec()).collect();
        let f = flat.run_batch(OpKey::Knn(4), &queries, &cpu());
        let s = sharded.run_batch(OpKey::Knn(4), &queries, &cpu());
        // Unpruned fan-out searches 4 smaller trees per query; visits are
        // nonzero and the modeled/backend fields aggregate sensibly.
        assert!(s.node_visits > 0);
        assert_eq!(s.backend, Backend::Cpu);
        assert_eq!(s.model_ms, 0.0);
        assert!(s.work_expansion >= 1.0);
        assert_eq!(f.results.len(), s.results.len());
        // Unpruned 4-shard fan-out: every query visits every shard, so the
        // visit spans cover 4 shards × 64 queries and their node visits
        // re-total the batch's.
        assert!(!s.shard_visits.is_empty());
        let span_queries: u64 = s.shard_visits.iter().map(|v| v.queries as u64).sum();
        assert_eq!(span_queries, 4 * 64);
        let span_visits: u64 = s.shard_visits.iter().map(|v| v.node_visits).sum();
        assert_eq!(span_visits, s.node_visits);
        assert!(
            (s.mask_occupancy - 1.0).abs() < 1e-12,
            "CPU runs dilute nothing"
        );
        assert!(f.shard_visits.is_empty(), "flat index emits no shard spans");
    }
}
