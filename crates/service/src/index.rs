//! Registered indices: dimension-erased handles over concrete kd-trees.
//!
//! A batch Morton-sorts its query points (§4.4), runs on one executor and
//! undoes the sort. A batch the C2070 model meters keeps the paper's
//! pipeline — the sortedness profiler picks lockstep when neighbors
//! traverse alike, autoropes otherwise; every other batch is priced by the
//! host clock alone and runs the host walk, unprofiled. Every batch walks
//! one rule, the fused one: a lane carries each op it asks live and the
//! rest inert, so a lone op is a fusion with one live constituent.

use crate::epoch::{EpochObserverFn, EpochStats, MutateError, Mutation, MutationAck};
use crate::policy::{Backend, ExecPolicy};
use crate::query::{OpKey, QueryResult};
use gts_apps::fused::{fused_ops_point, FusedOpsPoint, FusedOpsRule};
use gts_apps::kd::KdBox;
use gts_points::profile::profile_sortedness;
use gts_points::sort::morton_order;
use gts_runtime::gpu::{autoropes, lockstep, stackless, GpuConfig, Meter, Unmetered, WarpSim};
use gts_runtime::{cpu, AllLive, Dead, GpuReport, Live, PointRule, Renamed, Tombstones};
use gts_trees::linearize::skip_links;
use gts_trees::{KdTree, LbKdTree, NodeId, PointN, SplitPolicy};
use serde::Serialize;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Execution record of one dispatched batch, from the executor to the
/// exposition: a sharded batch merges its sub-batches' records into its
/// own ([`BatchOutcome::absorb`]) and the metrics registry every batch's
/// into its totals ([`BatchOutcome::absorb_counts`]). The default, every
/// count zero, is what both merges start from.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Per-query results, in the order the batch was handed in (empty
    /// inside a [`FusedOutcome`], whose answers are per lane).
    pub results: Vec<QueryResult>,
    /// Executor that ran the batch.
    pub backend: Backend,
    /// Profiler's mean Jaccard similarity, when profiling ran.
    pub mean_similarity: Option<f64>,
    /// Total tree-node visits across the batch (traversal work).
    pub node_visits: u64,
    /// Whether the batch ran under the C2070 model: its owner's
    /// [`ExecPolicy::meters`] selected it and its executor has a meter
    /// (the CPU walk has none). `model_ms`, `stack_bytes_peak` and
    /// `stack_transactions` — the *modeled series* — are present on
    /// metered batches and zero on the rest; every other count on this
    /// record is the executor's own and exact on every batch.
    pub metered: bool,
    /// Modeled GPU milliseconds (metered batches only).
    pub model_ms: f64,
    /// Warps launched (0 for the CPU backend).
    pub warps: usize,
    /// Lockstep work expansion, from the run's own masks: each warp's pops
    /// over the pops its busiest lane was live for, averaged over warps
    /// (1.0 for every other backend). For a one-call-set kernel (PC) a
    /// lane's live pops are its independent walk and this is Table 2's
    /// statistic; for a guided kernel the voted order lengthens the lanes'
    /// own walks too, so it reads below the comparison against a separate
    /// non-lockstep run that `gts-harness table2` makes.
    pub work_expansion: f64,
    /// `(query, shard)` pairs a sharded index skipped via its AABB bound
    /// (always 0 for flat indices).
    pub shards_pruned: u64,
    /// Mean live-lane fraction per warp node visit (§5's mask occupancy;
    /// 1.0 for CPU runs, which have no warps to dilute).
    pub mask_occupancy: f64,
    /// Per-shard sub-batch statistics (empty for flat indices).
    pub shard_visits: Vec<ShardVisit>,
    /// Peak rope-stack / call-frame bytes any warp used (metered batches
    /// only, and 0 for the stackless backends — their headline number).
    /// Merges across sub-batches by `max`.
    pub stack_bytes_peak: u64,
    /// Memory transactions on rope-stack regions (metered batches only,
    /// and 0 for the stackless backends).
    pub stack_transactions: u64,
    /// Distinct op keys the batch's lanes carried, when two or more
    /// (0 for a single-op batch).
    pub fused_ops: u32,
    /// Lanes a multi-op batch dispatched (0 for a single-op batch).
    pub fused_lanes: u64,
    /// Node visits the fusion saved: what each lane's constituent ops
    /// (NN, kNN at the lane's largest `k`, each PC radius) would have
    /// visited walking alone in the order the fused walk took — counted
    /// inside that walk ([`PointRule::solo_descents`]) — minus the fused
    /// walk's live-lane visits. Exactly 0 when every lane asks one op; an
    /// estimate otherwise, since it leaves out what lane dedup saves. 0 for
    /// single-op batches, and 0 on [`Backend::StacklessKd`], whose Wald
    /// walk is over a different tree and counts no constituent walks.
    pub fusion_saved_visits: u64,
}

impl BatchOutcome {
    /// Merge `sub`'s integer counters into this record's — the one
    /// statement of which of them sum and which take a maximum.
    /// `fused_ops` and `fused_lanes` describe one batch's shape and are
    /// set by whoever owns the whole batch, not merged.
    pub fn absorb_counts(&mut self, sub: &BatchOutcome) {
        self.node_visits += sub.node_visits;
        self.warps += sub.warps;
        self.shards_pruned += sub.shards_pruned;
        self.stack_transactions += sub.stack_transactions;
        self.fusion_saved_visits += sub.fusion_saved_visits;
        // A footprint is a peak, not traffic.
        self.stack_bytes_peak = self.stack_bytes_peak.max(sub.stack_bytes_peak);
    }

    /// Merge sub-batch `sub`, which ran `lanes` lanes, into this batch's
    /// record: counters by [`Self::absorb_counts`], modeled time by sum
    /// (metered if any sub-batch was — they share their owner's one
    /// decision), the three means as lane-weighted *sums* — whoever closes
    /// the record divides each once by the lanes that weighed in (for
    /// `mean_similarity`, those of the sub-batches that profiled).
    pub fn absorb(&mut self, sub: &BatchOutcome, lanes: usize) {
        self.absorb_counts(sub);
        self.metered |= sub.metered;
        self.model_ms += sub.model_ms;
        self.work_expansion += sub.work_expansion * lanes as f64;
        self.mask_occupancy += sub.mask_occupancy * lanes as f64;
        if let Some(sim) = sub.mean_similarity {
            *self.mean_similarity.get_or_insert(0.0) += sim * lanes as f64;
        }
    }
}

/// One shard's sub-batch inside a sharded batch execution — the unit the
/// trace recorder renders as a nested span under the batch, and the slow
/// log lists in visit order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardVisit {
    /// Shard index within the sharded index (for a mutable index with
    /// inserts pending, the shard of those inserts follows the merged
    /// ones).
    pub shard: u32,
    /// Wave number within the batch: the wave of the batch's one sweep
    /// that dispatched the sub-batch (wave 0 holds every query's first
    /// admissible shard, usually its home), below the number of shards
    /// swept. The same for every [`ExecPolicy::shard_parallelism`].
    pub round: u32,
    /// Queries in the sub-batch.
    pub queries: u32,
    /// Tree-node visits inside the shard.
    pub node_visits: u64,
    /// `(query, shard)` pairs the AABB bound pruned *for this shard* in
    /// this wave (0 for waves where nothing was skipped; prunes for
    /// shards that ended up with no sub-batch at all are counted only in
    /// [`BatchOutcome::shards_pruned`]).
    pub pruned: u32,
    /// Modeled GPU milliseconds for the sub-batch (metered batches only).
    pub model_ms: f64,
    /// Wall microseconds from the batch-run start to this sub-batch.
    pub offset_us: u64,
    /// Wall duration of the sub-batch, microseconds.
    pub dur_us: u64,
}

/// One lane of a batch: a query position plus every operation requested
/// at that position. A lane walks the tree once under the union prune
/// bound; each op's answer is bit-identical to a run of that op alone. A
/// single-op batch is the degenerate case — every lane asks the same one
/// op — and it is the only other shape there is.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLane {
    /// Query position (length = the index's dimension).
    pub pos: Vec<f32>,
    /// Serve nearest-neighbor at this position?
    pub nn: bool,
    /// kNN `k`s to serve, ascending and distinct (all answered from one
    /// heap sized to the largest via the k-best prefix property).
    pub knn_ks: Vec<usize>,
    /// PC radii to serve, as normalized `f32::to_bits` patterns (the
    /// [`crate::query::OpKey::Pc`] encoding), ascending by value.
    pub pc_radii: Vec<u32>,
}

impl FusedLane {
    /// A lane serving no ops at all (useful as a builder seed).
    pub fn empty(pos: Vec<f32>) -> Self {
        FusedLane {
            pos,
            nn: false,
            knn_ks: Vec::new(),
            pc_radii: Vec::new(),
        }
    }

    /// Also serve `op` at this position. Keeps `knn_ks` and `pc_radii`
    /// ascending and distinct (radii are normalized non-negative float
    /// bit patterns, so bit order is value order).
    pub fn ask(&mut self, op: OpKey) {
        match op {
            OpKey::Nn => self.nn = true,
            OpKey::Knn(k) => {
                if let Err(i) = self.knn_ks.binary_search(&k) {
                    self.knn_ks.insert(i, k);
                }
            }
            OpKey::Pc(r) => {
                if let Err(i) = self.pc_radii.binary_search(&r) {
                    self.pc_radii.insert(i, r);
                }
            }
        }
    }

    /// Number of per-lane operations this lane answers.
    pub fn ops(&self) -> usize {
        usize::from(self.nn) + self.knn_ks.len() + self.pc_radii.len()
    }

    /// The lane's ops in answer-slot order: NN, each `k`, each radius.
    pub fn op_keys(&self) -> impl Iterator<Item = OpKey> + '_ {
        (self.nn.then_some(OpKey::Nn).into_iter())
            .chain(self.knn_ks.iter().map(|&k| OpKey::Knn(k)))
            .chain(self.pc_radii.iter().map(|&r| OpKey::Pc(r)))
    }
}

/// Per-lane answers of a batch, aligned with the lane's request:
/// `knn[i]` answers `knn_ks[i]`, `pc[i]` answers `pc_radii[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLaneResult {
    /// NN answer, when the lane asked for it.
    pub nn: Option<QueryResult>,
    /// One kNN answer per requested `k`.
    pub knn: Vec<QueryResult>,
    /// One PC answer per requested radius.
    pub pc: Vec<QueryResult>,
}

impl FusedLaneResult {
    /// The answers in slot order, aligned with [`FusedLane::op_keys`].
    pub fn answers(&self) -> impl Iterator<Item = &QueryResult> {
        self.nn.iter().chain(&self.knn).chain(&self.pc)
    }

    /// The answer to `op`, one of the ops `lane` (the request these are
    /// the answers of) asked.
    pub fn answer(&self, lane: &FusedLane, op: OpKey) -> Option<&QueryResult> {
        lane.op_keys()
            .zip(self.answers())
            .find_map(|(asked, r)| (asked == op).then_some(r))
    }
}

/// Execution record of one lane batch: per-lane results plus the usual
/// [`BatchOutcome`] accounting (whose `results` vec is empty — the
/// per-op answers live in `lanes`).
#[derive(Debug, Clone)]
pub struct FusedOutcome {
    /// Per-lane answers, in the order the lanes were handed in.
    pub lanes: Vec<FusedLaneResult>,
    /// Batch accounting; `results` is empty, and `fused_ops` /
    /// `fused_lanes` / `fusion_saved_visits` are populated when the lanes
    /// carried two or more distinct ops (0 for a single-op batch).
    pub outcome: BatchOutcome,
}

impl FusedOutcome {
    /// Whether these are answers to `lanes`: one result per lane, with an
    /// answer for every op its lane asked.
    pub(crate) fn fits(&self, lanes: &[FusedLane]) -> bool {
        self.lanes.len() == lanes.len()
            && (lanes.iter().zip(&self.lanes)).all(|(l, r)| r.answers().count() >= l.ops())
    }
}

/// A queryable index the service can dispatch batches to.
///
/// `Send + Sync` is part of the contract: implementations are shared
/// across the worker pool behind `Arc<dyn TreeIndex>`.
pub trait TreeIndex: Send + Sync {
    /// Human-readable name (used in metrics and reports).
    fn name(&self) -> &str;
    /// Point dimension; submitted query positions must match.
    fn dim(&self) -> usize;
    /// Number of dataset points in the index.
    fn n_points(&self) -> usize;
    /// Execute one batch of lanes — the only batch shape. Every lane's
    /// `pos` has length [`TreeIndex::dim`]; answers come back per lane in
    /// the same order, each bit-identical to running that op on its own.
    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome;
    /// [`TreeIndex::run`] for one op at many positions: one single-op
    /// lane per position, the answers flattened into
    /// [`BatchOutcome::results`] in the same order.
    fn run_batch(&self, op: OpKey, positions: &[Vec<f32>], policy: &ExecPolicy) -> BatchOutcome {
        let lanes: Vec<FusedLane> = positions
            .iter()
            .map(|pos| {
                let mut lane = FusedLane::empty(pos.clone());
                lane.ask(op);
                lane
            })
            .collect();
        let FusedOutcome {
            lanes: answers,
            mut outcome,
        } = self.run(&lanes, policy);
        outcome.results = (answers.iter())
            .map(|r| r.answers().next().cloned())
            .collect::<Option<_>>()
            .expect("a single-op lane has one answer");
        outcome
    }
    /// [`TreeIndex::run`] under the name multi-op callers know it by.
    fn run_fused(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> Option<FusedOutcome> {
        Some(self.run(lanes, policy))
    }
    /// Apply a mutation batch. Static indices (the default) refuse with
    /// [`MutateError::Immutable`]; [`crate::MutableIndex`] overrides.
    fn mutate(&self, _muts: &[Mutation]) -> Result<MutationAck, MutateError> {
        Err(MutateError::Immutable)
    }
    /// Stop accepting mutations and flush/join any background merge
    /// machinery. No-op for static indices. Called by
    /// [`crate::Service::close`] so shutdown never drops a delta.
    fn quiesce(&self) {}
    /// Epoch counters, when the index is mutable.
    fn epoch_stats(&self) -> Option<EpochStats> {
        None
    }
    /// Subscribe the runtime to the index's merges. No-op for static
    /// indices.
    fn attach_epoch_observer(&self, _observer: EpochObserverFn) {}
}

/// A kd-tree index over `D`-dimensional points.
pub struct KdIndex<const D: usize> {
    name: String,
    tree: KdTree<D>,
    /// Left-balanced implicit mirror of the same points, for the
    /// stack-free Wald walk ([`Backend::StacklessKd`]). Built over the
    /// pointer tree's *reordered* `points` so the Wald kernels' reported
    /// ids land in the same tree positions as the rope-stack kernels' —
    /// the tree's `perm` maps both. Built on first use ([`KdIndex::lb_tree`]).
    lb: OnceLock<LbKdTree<D>>,
    /// The tree's escape links, for the skip walk
    /// ([`Backend::StacklessBvh`]). Built on first use.
    skip: OnceLock<Vec<NodeId>>,
}

impl<const D: usize> KdIndex<D> {
    /// Build an index named `name` over `points`.
    ///
    /// `MidpointWidest` matches the paper's NN tree; `MedianCycle` its
    /// kNN/PC tree. Either serves all three query kinds.
    pub fn build(
        name: impl Into<String>,
        points: &[PointN<D>],
        leaf_size: usize,
        policy: SplitPolicy,
    ) -> Self {
        KdIndex {
            name: name.into(),
            tree: KdTree::build(points, leaf_size, policy),
            lb: OnceLock::new(),
            skip: OnceLock::new(),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &KdTree<D> {
        &self.tree
    }

    /// The left-balanced mirror the Wald walk reads, built on first call.
    pub fn lb_tree(&self) -> &LbKdTree<D> {
        self.lb.get_or_init(|| LbKdTree::build(&self.tree.points))
    }

    /// Walk `lanes` as one batch (sort → choose the executor → dispatch →
    /// un-sort; see [`execute`]), each lane continuing its state in
    /// `states` — fresh [`lane_state`]s on a flat batch, what the lane's
    /// earlier shards left on a shard sweep — and hand the states back in
    /// submission order, the one shape every caller reads ([`lane_answers`],
    /// or the sweep's next wave). Each offered tree position is renamed at
    /// offer to `ids[position]`, the id callers know ([`Renamed`]).
    ///
    /// One rule runs every batch: the fused rule, each lane's ops live and
    /// the rest inert. What fusion saved comes from the tally that walk
    /// kept (reset here, so it counts this walk alone), and is 0 when every
    /// lane asks one op. `metered` ([`ExecPolicy::meters`] of the whole
    /// batch's positions) is decided by whoever owns the whole batch: a
    /// batch runs under the model whole or not at all.
    ///
    /// `dead` holds the tree positions of points the lanes must not see
    /// (the epoch layer's pending deletes; a static index passes
    /// [`Tombstones::NONE`]): the rule runs as [`Live`] of it, tested before
    /// the rename; the empty set, chosen once here, as [`AllLive`].
    pub(crate) fn run_lanes(
        &self,
        lanes: &[&FusedLane],
        states: Vec<FusedOpsPoint<D>>,
        ids: &[u32],
        metered: bool,
        policy: &ExecPolicy,
        dead: &Tombstones,
    ) -> (Vec<FusedOpsPoint<D>>, BatchOutcome) {
        if dead.is_empty() {
            self.run_live(lanes, states, ids, metered, policy, AllLive)
        } else {
            self.run_live(lanes, states, ids, metered, policy, dead)
        }
    }

    /// [`KdIndex::run_lanes`] over the dead set `dead`.
    fn run_live<T: Dead>(
        &self,
        lanes: &[&FusedLane],
        mut states: Vec<FusedOpsPoint<D>>,
        ids: &[u32],
        metered: bool,
        policy: &ExecPolicy,
        dead: T,
    ) -> (Vec<FusedOpsPoint<D>>, BatchOutcome) {
        states.iter_mut().for_each(|state| state.solo_descents = 0);
        #[cfg(test)]
        let started = states.clone();
        let fused = FusedOpsRule::default();
        let rule = Renamed { rule: fused, ids };
        let kernel = KdBox::with_rule(&self.tree, Live { rule, dead });
        let (states, mut outcome, live_visits) = execute(self, &kernel, states, metered, policy);
        // Each constituent's own walk: the root, then two children per
        // descent the fused walk tallied for it.
        let per_op_visits: u64 = (lanes.iter().zip(&states))
            .map(|(lane, state)| {
                let asked = usize::from(lane.nn)
                    + usize::from(!lane.knn_ks.is_empty())
                    + lane.pc_radii.len();
                asked as u64 + 2 * u64::from(state.solo_descents)
            })
            .sum();
        // The Wald walk runs over the left-balanced mirror, not through
        // `KdBox`: it tallies nothing, and visits of two different trees
        // are not each other's saving.
        if outcome.backend != Backend::StacklessKd {
            outcome.fusion_saved_visits = per_op_visits.saturating_sub(live_visits);
        }
        // Every (sub-)batch any unit test of the crate runs is held to the
        // CPU replay the tally replaced, from the states it started with.
        #[cfg(test)]
        tests::check_counted_against_replay(self, lanes, &started, dead, &outcome, per_op_visits);
        (states, outcome)
    }
}

/// A lane's fresh fused state at `pos` over `points` points: each op it
/// asks live, the rest inert. Every walk of the lane continues it — a flat
/// batch's one walk, or a shard sweep's sub-walks in turn.
pub(crate) fn lane_state<const D: usize>(
    lane: &FusedLane,
    pos: PointN<D>,
    points: usize,
) -> FusedOpsPoint<D> {
    let radii: Vec<f32> = lane.pc_radii.iter().map(|&b| f32::from_bits(b)).collect();
    // One heap sized to the lane's largest k serves every smaller k as a
    // prefix (`KBest`'s prefix property). The maximum, not the last: the
    // fields are public and nothing makes a caller keep them ascending. A
    // heap holds no more than the points there are, whatever k asks.
    let k = (lane.knn_ks.iter().max()).map(|&k| k.min(points.max(1)));
    fused_ops_point(pos, lane.nn, k, &radii)
}

/// `lane`'s answers, read once per batch off the state its walks left:
/// NN if asked, each `k` as a prefix of the one heap, each radius's count,
/// under the ids callers know (renamed at offer).
pub(crate) fn lane_answers<const D: usize>(
    lane: &FusedLane,
    state: &FusedOpsPoint<D>,
) -> FusedLaneResult {
    let nn = lane.nn.then_some(QueryResult::Nn {
        dist2: state.a.best_d2,
        id: state.a.best_idx,
    });
    let best = &state.b.a.best;
    let knn = (lane.knn_ks.iter())
        .map(|&k| {
            let take = k.min(best.len());
            QueryResult::Knn {
                dist2: best.distances()[..take].to_vec(),
                ids: best.ids()[..take].to_vec(),
            }
        })
        .collect();
    let pc = (state.b.b.slots.iter())
        .map(|s| QueryResult::Pc { count: s.count })
        .collect();
    FusedLaneResult { nn, knn, pc }
}

/// Convert an erased position (validated upstream) to a `PointN`.
pub(crate) fn to_point<const D: usize>(pos: &[f32]) -> PointN<D> {
    debug_assert_eq!(pos.len(), D);
    PointN(std::array::from_fn(|i| pos[i]))
}

/// Distinct op keys across a batch's lanes (NN counts once, each distinct
/// `k` once, each distinct radius once).
pub(crate) fn distinct_ops<'a>(lanes: impl IntoIterator<Item = &'a FusedLane>) -> u32 {
    let ops: HashSet<OpKey> = lanes.into_iter().flat_map(|l| l.op_keys()).collect();
    ops.len() as u32
}

/// Report the whole batch's `lanes` as fused on its `outcome` when they
/// carry two or more distinct op keys; a single-op batch reports none.
pub(crate) fn mark_fused(outcome: &mut BatchOutcome, lanes: &[FusedLane]) {
    let ops = distinct_ops(lanes);
    if ops >= 2 {
        outcome.fused_ops = ops;
        outcome.fused_lanes = lanes.len() as u64;
    }
}

impl<const D: usize> TreeIndex for KdIndex<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        D
    }

    fn n_points(&self) -> usize {
        self.tree.points.len()
    }

    fn run(&self, lanes: &[FusedLane], policy: &ExecPolicy) -> FusedOutcome {
        let refs: Vec<&FusedLane> = lanes.iter().collect();
        let metered = policy.meters(lanes.iter().map(|l| &l.pos[..]));
        let n = self.tree.points.len();
        let states = (lanes.iter()).map(|l| lane_state(l, to_point(&l.pos), n));
        let (perm, none) = (&self.tree.perm, Tombstones::NONE);
        let (states, mut outcome) =
            self.run_lanes(&refs, states.collect(), perm, metered, policy, none);
        mark_fused(&mut outcome, lanes);
        let lanes = (lanes.iter().zip(&states))
            .map(|(lane, state)| lane_answers(lane, state))
            .collect();
        FusedOutcome { lanes, outcome }
    }
}

/// Shared execution path: sort → choose (a metered batch profiles) →
/// run → un-sort.
///
/// `kernel` rides the rope-stack executors, the CPU baseline, the profiler
/// and the skip-link walk; its rule rides the Wald walk over `index`'s
/// left-balanced mirror.
///
/// `states` are the lanes' states in *submission order*, moved into the
/// sorted order the executor walks and back. They come back in submission
/// order, beside a [`BatchOutcome`] that carries
/// the accounting with an empty `results` vec. The third slot is the
/// run's *live-lane* node visits: `outcome.node_visits` for every
/// backend but lockstep, which charges a lane for each pop of its warp
/// (Table 1's convention) and is live for only some of them.
///
/// `metered` picks the executor and its instantiation: unforced, a batch
/// runs the §4.4 choice under [`WarpSim`], whose report fills the modeled
/// series, or the host walk when unmetered. A forced simulated-GPU backend
/// on an unmetered batch runs under [`Unmetered`]: the same loop at host
/// speed, the launch's account never read.
/// Visits, warps, work expansion and mask occupancy are the executor's own
/// counts ([`GpuReport`]'s per-point and per-warp vectors) either way.
fn execute<const D: usize, R: PointRule<D>>(
    index: &KdIndex<D>,
    kernel: &KdBox<'_, D, R>,
    states: Vec<R::State>,
    metered: bool,
    policy: &ExecPolicy,
) -> (Vec<R::State>, BatchOutcome, u64) {
    let n = states.len();
    // §4.4 step 1: spatial sort, so nearby queries share warps.
    let pts: Vec<PointN<D>> = states.iter().map(|s| *R::pos(s)).collect();
    let perm = (policy.sort && n >= 2).then(|| morton_order(&pts));
    // Submission-order index of the point in `work` slot `i`.
    let orig = |i: usize| perm.as_ref().map_or(i, |p| p[i] as usize);
    // Each state moves out of its submission-order slot and back.
    let mut slots: Vec<Option<R::State>> = states.into_iter().map(Some).collect();
    let mut work: Vec<R::State> = (0..n)
        .map(|i| slots[orig(i)].take().expect("taken once"))
        .collect();

    // On the host clock the host walk is the cheapest executor. The model
    // keeps §4.4 step 2: sample neighboring traversals; lockstep only when
    // they overlap enough to amortize the per-warp rope stack.
    let mut mean_similarity = None;
    let backend = match policy.force {
        Some(b) => b,
        None if !metered => Backend::Cpu,
        None if n < 2 => Backend::Autoropes,
        None => {
            let trace = |i: usize| cpu::trace_one(kernel, &mut work[i].clone());
            let report = profile_sortedness(
                n,
                policy.profile_pairs,
                policy.threshold,
                policy.profile_seed,
                trace,
            );
            mean_similarity = Some(report.mean_similarity);
            if report.use_lockstep {
                Backend::Lockstep
            } else {
                Backend::Autoropes
            }
        }
    };

    // §4.4 step 3: run the whole batch on the chosen executor.
    let cfg = GpuConfig::new(policy.sim_threads());
    let mut outcome = BatchOutcome {
        backend,
        mean_similarity,
        // What a run without warps reports; a GPU run overwrites both.
        work_expansion: 1.0,
        mask_occupancy: 1.0,
        ..BatchOutcome::default()
    };
    let mut live_visits = None;
    let stats = match backend {
        Backend::Cpu => cpu::run_parallel(kernel, &mut work, cfg.host_threads).stats,
        gpu => {
            let launch = if metered {
                launch::<WarpSim<'_>, D, R>
            } else {
                launch::<Unmetered, D, R>
            };
            let rep = launch(gpu, index, kernel, &mut work, &cfg);
            // Each warp's pops over the pops its busiest lane was live for:
            // the run's own masks say how far lockstep stretched the warp.
            if backend == Backend::Lockstep && !rep.per_warp_nodes.is_empty() {
                outcome.work_expansion = gts_runtime::report::work_expansion(
                    &rep.per_warp_nodes,
                    &rep.per_point_live_nodes,
                )
                .0;
            }
            outcome.warps = rep.per_warp_nodes.len();
            outcome.mask_occupancy = rep.mask_occupancy();
            live_visits = Some(rep.live_visits());
            if metered {
                let counters = &rep.launch.counters;
                outcome.metered = true;
                outcome.model_ms = rep.ms();
                outcome.stack_bytes_peak = counters.stack_bytes_peak;
                outcome.stack_transactions = (counters.per_region_transactions.iter())
                    .filter(|(region, _)| region.contains("stack"))
                    .map(|(_, v)| *v)
                    .sum();
            }
            rep.stats
        }
    };
    outcome.node_visits = stats.per_point_nodes.iter().map(|&v| v as u64).sum();

    // Undo the sort: callers see submission order.
    for (i, point) in work.into_iter().enumerate() {
        slots[orig(i)] = Some(point);
    }
    let states = (slots.into_iter())
        .map(|s| s.expect("permutation covers all"))
        .collect();
    let live_visits = live_visits.unwrap_or(outcome.node_visits);
    (states, outcome, live_visits)
}

/// One launch of `work` on simulated-GPU executor `backend` under meter
/// `Mt` (see [`execute`]).
fn launch<Mt: Meter, const D: usize, R: PointRule<D>>(
    backend: Backend,
    index: &KdIndex<D>,
    kernel: &KdBox<'_, D, R>,
    work: &mut [R::State],
    cfg: &GpuConfig,
) -> GpuReport {
    match backend {
        Backend::Lockstep => lockstep::run_on::<Mt, _>(kernel, work, cfg),
        Backend::Autoropes => autoropes::run_on::<Mt, _>(kernel, work, cfg),
        Backend::StacklessKd => {
            stackless::run_wald_on::<Mt, D, R>(index.lb_tree(), kernel.rule(), work, cfg)
        }
        Backend::StacklessBvh => {
            let skip = (index.skip).get_or_init(|| skip_links(&index.tree.right));
            stackless::run_skip_on::<Mt, _>(kernel, work, skip, cfg)
        }
        Backend::Cpu => unreachable!("the CPU walk is not a launch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MutableIndexBuilder, ShardedIndex};
    use gts_apps::fused::fused_ops_kernel;
    use gts_apps::knn::{KnnKernel, KnnPoint, KnnRule};
    use gts_apps::nn::NnRule;
    use gts_apps::oracle;
    use gts_apps::pc::{PcKernel, PcPoint, PcRule};
    use gts_points::gen::uniform;
    use gts_runtime::report::work_expansion;
    use gts_runtime::{TraversalKernel, VisitOutcome};
    use gts_trees::NodeId;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    fn index3(n: usize, seed: u64) -> KdIndex<3> {
        let pts = uniform::<3>(n, seed);
        KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle)
    }

    /// `policy` at the first `profile_seed`, from its own upward, that
    /// meters the batch at `positions` — for a test that reads the model
    /// off that batch.
    fn metering(mut policy: ExecPolicy, positions: &[Vec<f32>]) -> ExecPolicy {
        while !policy.meters(positions.iter().map(|p| &p[..])) {
            policy.profile_seed += 1;
        }
        policy
    }

    /// `policy` at the first `profile_seed`, from its own upward, that
    /// does not meter the batch at `positions`.
    fn unmetering(mut policy: ExecPolicy, positions: &[Vec<f32>]) -> ExecPolicy {
        while policy.meters(positions.iter().map(|p| &p[..])) {
            policy.profile_seed += 1;
        }
        policy
    }

    /// Figure 1 executed literally from `node` down, counting visits, with
    /// the call set optionally forced on every level.
    fn walk<K: TraversalKernel<Args = ()>>(
        kernel: &K,
        p: &mut K::Point,
        node: NodeId,
        forced: Option<usize>,
    ) -> u64 {
        let mut kids = Vec::new();
        let mut visited = 1;
        if let VisitOutcome::Descended { .. } = kernel.visit(p, node, (), forced, &mut kids) {
            for child in kids {
                visited += walk(kernel, p, child.node, forced);
            }
        }
        visited
    }

    /// The reference the counted statistic replaced: one CPU walk per
    /// (lane, constituent op) — box-pruned NN, kNN at the lane's largest
    /// `k`, each PC radius — each from its part of the state the fused
    /// walk started from (`from`, a lane's earlier shards' bounds on a
    /// shard sweep), over the points `dead` leaves alive, summed over the
    /// batch.
    fn solo_replay_visits<const D: usize>(
        tree: &KdTree<D>,
        lanes: &[&FusedLane],
        from: &[FusedOpsPoint<D>],
        dead: impl Dead,
        forced: Option<usize>,
    ) -> u64 {
        let mut visits = 0;
        for (lane, state) in lanes.iter().zip(from) {
            if lane.nn {
                let rule = NnRule;
                let kernel = KdBox::with_rule(tree, Live { rule, dead });
                visits += walk(&kernel, &mut state.a.clone(), 0, forced);
            }
            if !lane.knn_ks.is_empty() {
                let rule = KnnRule;
                let kernel = KdBox::with_rule(tree, Live { rule, dead });
                visits += walk(&kernel, &mut state.b.a.clone(), 0, forced);
            }
            for &bits in &lane.pc_radii {
                let rule = PcRule::new(f32::from_bits(bits));
                let kernel = KdBox::with_rule(tree, Live { rule, dead });
                visits += walk(&kernel, &mut PcPoint::new(state.a.pos), 0, forced);
            }
        }
        visits
    }

    /// Fresh states of `lanes` over `flat`'s points, as its `run` makes.
    fn fresh_states(flat: &KdIndex<3>, lanes: &[&FusedLane]) -> Vec<FusedOpsPoint<3>> {
        let n = flat.n_points();
        (lanes.iter())
            .map(|l| lane_state(l, to_point(&l.pos), n))
            .collect()
    }

    thread_local! {
        /// Fused (sub-)batches this thread held to the replay.
        static REPLAYED: Cell<u64> = const { Cell::new(0) };
    }

    /// Called by `run_lanes` on every fused (sub-)batch: the per-op visits
    /// the walk counted are the replay's from the states the walk started
    /// from, under the same tombstones, wherever the executor's child order
    /// can be replayed.
    pub(super) fn check_counted_against_replay<const D: usize>(
        index: &KdIndex<D>,
        lanes: &[&FusedLane],
        from: &[FusedOpsPoint<D>],
        dead: impl Dead,
        outcome: &BatchOutcome,
        per_op_visits: u64,
    ) {
        let forced = match outcome.backend {
            // Each lane walks in its own guided order.
            Backend::Autoropes | Backend::Cpu => None,
            // The skip walk ignores the guided order: left child first.
            Backend::StacklessBvh => Some(0),
            // A warp's voted order is nobody's own and has no replay; the
            // lockstep identities have their own test below.
            Backend::Lockstep => return,
            Backend::StacklessKd => {
                assert_eq!(
                    outcome.fusion_saved_visits, 0,
                    "Wald walk: nothing to compare"
                );
                return;
            }
        };
        let replayed = solo_replay_visits(&index.tree, lanes, from, dead, forced);
        assert_eq!(
            per_op_visits,
            replayed,
            "{}: counted per-op visits vs CPU replay, {} lanes",
            outcome.backend.name(),
            lanes.len()
        );
        REPLAYED.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn nn_batch_matches_oracle_in_submission_order() {
        let pts = uniform::<3>(128, 7);
        let idx = KdIndex::build("t", &pts, 8, SplitPolicy::MidpointWidest);
        let queries: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        let out = idx.run_batch(OpKey::Nn, &queries, &ExecPolicy::default());
        assert_eq!(out.results.len(), queries.len());
        for (i, r) in out.results.iter().enumerate() {
            let QueryResult::Nn { dist2, id } = r else {
                panic!("wrong variant")
            };
            let want = oracle::nn_dist2_nonself(&pts, &pts[i]);
            assert!((dist2 - want).abs() <= 1e-5 * want.max(1e-6), "query {i}");
            // The id names a real dataset point at that distance.
            let d = pts[*id as usize].dist2(&pts[i]);
            assert!((d - dist2).abs() <= 1e-6 * dist2.max(1e-9));
        }
    }

    #[test]
    fn knn_with_k_exceeding_n_returns_all_points() {
        let idx = index3(5, 11);
        let q = vec![vec![0.5, 0.5, 0.5]];
        let out = idx.run_batch(OpKey::Knn(32), &q, &ExecPolicy::default());
        let QueryResult::Knn { dist2, ids } = &out.results[0] else {
            panic!()
        };
        assert_eq!(dist2.len(), 5, "k > n yields every point");
        assert_eq!(ids.len(), 5);
        assert!(dist2.windows(2).all(|w| w[0] <= w[1]), "ascending");
    }

    #[test]
    fn pc_batch_matches_oracle() {
        let pts = uniform::<3>(200, 13);
        let idx = KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle);
        let radius = 0.2f32;
        let queries: Vec<Vec<f32>> = pts.iter().take(64).map(|p| p.0.to_vec()).collect();
        let out = idx.run_batch(
            OpKey::Pc(radius.to_bits()),
            &queries,
            &ExecPolicy::default(),
        );
        for (i, r) in out.results.iter().enumerate() {
            let QueryResult::Pc { count } = r else {
                panic!()
            };
            assert_eq!(*count, oracle::pc_count(&pts, &pts[i], radius), "query {i}");
        }
    }

    #[test]
    fn forced_backends_agree_on_results() {
        let pts = uniform::<3>(96, 17);
        let idx = KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        let lock = idx.run_batch(
            OpKey::Knn(4),
            &queries,
            &metering(ExecPolicy::forced(Backend::Lockstep), &queries),
        );
        let auto = idx.run_batch(
            OpKey::Knn(4),
            &queries,
            &ExecPolicy::forced(Backend::Autoropes),
        );
        let cpu = idx.run_batch(OpKey::Knn(4), &queries, &ExecPolicy::forced(Backend::Cpu));
        assert_eq!(lock.results, auto.results);
        assert_eq!(lock.results, cpu.results);
        assert_eq!(lock.backend, Backend::Lockstep);
        assert!(lock.model_ms > 0.0);
        assert_eq!(cpu.model_ms, 0.0);
        // GPU occupancy is a live-lane fraction; CPU runs report 1.0 and a
        // flat index never emits shard visits.
        assert!(lock.mask_occupancy > 0.0 && lock.mask_occupancy <= 1.0);
        assert_eq!(cpu.mask_occupancy, 1.0);
        assert!(lock.shard_visits.is_empty());
    }

    #[test]
    fn stackless_backends_agree_bitwise_with_rope_stack() {
        let pts = uniform::<3>(160, 29);
        let idx = KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        for op in [OpKey::Nn, OpKey::Knn(4), OpKey::Pc(0.25f32.to_bits())] {
            let forced = |b| metering(ExecPolicy::forced(b), &queries);
            let auto = idx.run_batch(op, &queries, &forced(Backend::Autoropes));
            let kd = idx.run_batch(op, &queries, &forced(Backend::StacklessKd));
            let bvh = idx.run_batch(op, &queries, &forced(Backend::StacklessBvh));
            assert_eq!(auto.results, kd.results, "{op:?} wald");
            assert_eq!(auto.results, bvh.results, "{op:?} skip");
            assert_eq!(kd.backend, Backend::StacklessKd);
            assert_eq!(bvh.backend, Backend::StacklessBvh);
            // The stackless executors' headline numbers: no rope-stack
            // bytes moved, no stack footprint reserved.
            assert_eq!(kd.stack_bytes_peak, 0, "{op:?}");
            assert_eq!(kd.stack_transactions, 0, "{op:?}");
            assert_eq!(bvh.stack_bytes_peak, 0, "{op:?}");
            assert_eq!(bvh.stack_transactions, 0, "{op:?}");
            assert!(auto.stack_bytes_peak > 0, "{op:?}");
            assert!(auto.stack_transactions > 0, "{op:?}");
            assert!(kd.model_ms > 0.0 && bvh.model_ms > 0.0);
        }
    }

    #[test]
    fn unsorted_and_duplicated_knn_ks_get_full_answers() {
        // `FusedLane`'s fields are public, so a caller filling `knn_ks`
        // with a bare push owes no order: every `k` still gets `k`
        // neighbours, the same ones a batch of that op alone returns.
        let pts = uniform::<3>(64, 37);
        let flat = KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle);
        let sharded = crate::ShardedIndex::build("s", &pts, 2, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().take(16).map(|p| p.0.to_vec()).collect();
        let policy = ExecPolicy::default();
        for ks in [vec![8, 4], vec![4, 8, 4], vec![8, 8, 2]] {
            let lanes: Vec<FusedLane> = queries
                .iter()
                .map(|pos| FusedLane {
                    pos: pos.clone(),
                    nn: true,
                    knn_ks: ks.clone(),
                    pc_radii: Vec::new(),
                })
                .collect();
            for idx in [&flat as &dyn TreeIndex, &sharded] {
                let out = idx.run(&lanes, &policy);
                let nn = idx.run_batch(OpKey::Nn, &queries, &policy).results;
                for (slot, &k) in ks.iter().enumerate() {
                    let want = idx.run_batch(OpKey::Knn(k), &queries, &policy).results;
                    for (q, lane) in out.lanes.iter().enumerate() {
                        let label = format!("{} ks {ks:?} slot {slot} query {q}", idx.name());
                        assert_eq!(lane.knn[slot], want[q], "{label}");
                        assert_eq!(lane.nn.as_ref(), Some(&nn[q]), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_query_batch_skips_profiling() {
        let idx = index3(64, 19);
        let queries = [vec![0.1, 0.2, 0.3]];
        let policy = metering(ExecPolicy::default(), &queries);
        let out = idx.run_batch(OpKey::Nn, &queries, &policy);
        assert_eq!(out.results.len(), 1);
        assert!(out.mean_similarity.is_none());
        assert_eq!(out.backend, Backend::Autoropes);
    }

    #[test]
    fn sorted_clustered_batch_profiles_into_lockstep() {
        // Clustered queries, Morton-sorted: neighbors traverse alike, the
        // profiler should clear the threshold and pick lockstep.
        let pts = uniform::<3>(512, 23);
        let idx = KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().map(|p| p.0.to_vec()).collect();
        let policy = metering(ExecPolicy::default(), &queries);
        let out = idx.run_batch(OpKey::Pc(0.15f32.to_bits()), &queries, &policy);
        assert_eq!(
            out.backend,
            Backend::Lockstep,
            "similarity {:?}",
            out.mean_similarity
        );
        assert!(out.mean_similarity.unwrap() >= 0.35);
        assert!(out.work_expansion >= 1.0);
    }

    /// Lanes near dataset anchors, a third of them at an earlier lane's
    /// position, each asking NN or not, none to two `k`s and none to three
    /// radii (so constituents are inert at random) but at least one op —
    /// or, with `one_op`, exactly one.
    fn random_lanes(data: &[PointN<3>], n: usize, one_op: bool, seed: u64) -> Vec<FusedLane> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ops = [
            OpKey::Nn,
            OpKey::Knn(8),
            OpKey::Knn(3),
            OpKey::Pc(0.05f32.to_bits()),
            OpKey::Pc(0.12f32.to_bits()),
            OpKey::Pc(0.3f32.to_bits()),
        ];
        let mut lanes: Vec<FusedLane> = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = if !lanes.is_empty() && rng.gen_range(0..3) == 0 {
                lanes[rng.gen_range(0..lanes.len())].pos.clone()
            } else {
                let anchor = data[rng.gen_range(0..data.len())];
                (anchor.0.iter())
                    .map(|&c| c + rng.gen_range(-0.05f32..0.05))
                    .collect()
            };
            let mut lane = FusedLane::empty(pos);
            lane.ask(ops[rng.gen_range(0..ops.len())]);
            for &op in &ops {
                if !one_op && rng.gen_bool(0.4) {
                    lane.ask(op);
                }
            }
            lanes.push(lane);
        }
        lanes
    }

    /// A flat index, an 8-shard one and a mutable one with inserts and
    /// deletes pending, over (initially) the same points.
    fn every_index_kind(pts: &[PointN<3>]) -> Vec<Box<dyn TreeIndex>> {
        let mutable = MutableIndexBuilder::new("m", 4)
            .auto_merge(false)
            .build(pts);
        let mut muts: Vec<Mutation> = (pts.iter().step_by(9))
            .map(|p| Mutation::Insert {
                pos: p.0.iter().map(|&c| c + 0.01).collect(),
            })
            .collect();
        muts.extend(
            (0..pts.len() as u32)
                .step_by(13)
                .map(|id| Mutation::Delete { id }),
        );
        mutable.mutate(&muts).expect("valid mutations");
        assert!(mutable.pending() > 0, "deltas must still be in flight");
        vec![
            Box::new(KdIndex::build("f", pts, 8, SplitPolicy::MedianCycle)),
            Box::new(ShardedIndex::build(
                "s",
                pts,
                8,
                8,
                SplitPolicy::MedianCycle,
            )),
            Box::new(mutable),
        ]
    }

    /// One dispatching thread, so `REPLAYED` sees every sub-batch. With
    /// nothing forced, a metered batch has the profiler sample its traces
    /// (on clones — no tally may leak from them) and, under a threshold no
    /// similarity reaches, lands on autoropes.
    fn on_one_thread(force: Option<Backend>) -> ExecPolicy {
        ExecPolicy {
            force,
            threshold: 2.0,
            shard_parallelism: 1,
            ..ExecPolicy::default()
        }
    }

    #[test]
    fn counted_per_op_visits_equal_the_cpu_replay_on_every_index_kind() {
        let pts = uniform::<3>(700, 20);
        let replayable = [Backend::Autoropes, Backend::Cpu, Backend::StacklessBvh];
        for index in every_index_kind(&pts) {
            for (round, force) in (replayable.map(Some).into_iter().chain([None])).enumerate() {
                let lanes = random_lanes(&pts, 90, false, 40 + round as u64);
                let positions: Vec<Vec<f32>> = lanes.iter().map(|l| l.pos.clone()).collect();
                let policy = metering(on_one_thread(force), &positions);
                let before = REPLAYED.with(Cell::get);
                let out = index.run(&lanes, &policy).outcome;
                let label = format!("{} forced {force:?}", index.name());
                assert_eq!(out.fused_lanes, 90, "{label}");
                // `run_lanes` held each fused sub-batch to the replay
                // (`check_counted_against_replay`, under the shard's
                // tombstones) and none slipped by.
                let replayed = REPLAYED.with(Cell::get) - before;
                let sub_batches = out.shard_visits.len().max(1) as u64;
                assert_eq!(replayed, sub_batches, "{label}");
                assert!(out.fusion_saved_visits > 0, "{label}");
            }
            // The Wald walk goes through no `KdBox` and is over another tree.
            let lanes = random_lanes(&pts, 90, false, 50);
            let out = index.run(&lanes, &on_one_thread(Some(Backend::StacklessKd)));
            assert_eq!(out.outcome.fused_lanes, 90);
            assert_eq!(out.outcome.fusion_saved_visits, 0, "{}", index.name());
        }

        // Seen from outside, on the flat index, where the batch is the one
        // sub-batch and a lane is charged only its own visits.
        let flat = KdIndex::build("f", &pts, 8, SplitPolicy::MedianCycle);
        let lanes = random_lanes(&pts, 90, false, 60);
        let refs: Vec<&FusedLane> = lanes.iter().collect();
        let fresh = fresh_states(&flat, &refs);
        for (backend, forced) in [(Backend::Cpu, None), (Backend::StacklessBvh, Some(0))] {
            let out = flat.run(&lanes, &ExecPolicy::forced(backend)).outcome;
            let replayed = solo_replay_visits(flat.tree(), &refs, &fresh, Tombstones::NONE, forced);
            assert_eq!(out.fusion_saved_visits, replayed - out.node_visits);
        }
    }

    #[test]
    fn a_one_op_batch_walks_the_box_pruned_rule_and_is_held_to_the_replay() {
        let pts = uniform::<3>(700, 25);
        let flat = KdIndex::build("f", &pts, 8, SplitPolicy::MidpointWidest);
        let queries: Vec<Vec<f32>> = uniform::<3>(90, 26).iter().map(|p| p.0.to_vec()).collect();
        let lanes: Vec<FusedLane> = (queries.iter())
            .map(|pos| {
                let mut lane = FusedLane::empty(pos.clone());
                lane.ask(OpKey::Nn);
                lane
            })
            .collect();
        let refs: Vec<&FusedLane> = lanes.iter().collect();
        let fresh = fresh_states(&flat, &refs);
        let replayed = solo_replay_visits(flat.tree(), &refs, &fresh, Tombstones::NONE, None);
        for backend in [Backend::Autoropes, Backend::Cpu] {
            let before = REPLAYED.with(Cell::get);
            let out = flat.run_batch(OpKey::Nn, &queries, &ExecPolicy::forced(backend));
            let label = backend.name();
            // Each lane's own guided walk of the box-pruned NN rule.
            assert_eq!(out.node_visits, replayed, "{label}");
            assert_eq!(REPLAYED.with(Cell::get) - before, 1, "{label}: hook ran");
            assert_eq!(
                (out.fused_lanes, out.fusion_saved_visits),
                (0, 0),
                "{label}"
            );
        }
    }

    #[test]
    fn counted_series_are_the_same_on_a_metered_and_an_unmetered_batch() {
        let pts = uniform::<3>(700, 24);
        let backends = [
            Backend::Autoropes,
            Backend::Lockstep,
            Backend::StacklessKd,
            Backend::StacklessBvh,
        ];
        for index in every_index_kind(&pts) {
            for (round, force) in backends.map(Some).into_iter().enumerate() {
                // Mixed lanes run the fused rule; one op at every lane, its own.
                let mut lanes = random_lanes(&pts, 90, false, 80 + round as u64);
                if round % 2 == 1 {
                    for lane in &mut lanes {
                        *lane = FusedLane::empty(lane.pos.clone());
                        lane.ask(OpKey::Pc(0.12f32.to_bits()));
                    }
                }
                let positions: Vec<Vec<f32>> = lanes.iter().map(|l| l.pos.clone()).collect();
                // Two seeds that differ in whether they select this batch.
                let on = metering(on_one_thread(force), &positions);
                let off = unmetering(on_one_thread(force), &positions);
                let (a, b) = (index.run(&lanes, &on), index.run(&lanes, &off));
                let label = format!("{} forced {force:?}", index.name());
                assert_eq!(a.lanes, b.lanes, "{label}: answers");
                let (a, b) = (a.outcome, b.outcome);
                assert!(a.metered && !b.metered, "{label}");
                assert_eq!(a.backend, b.backend, "{label}");
                assert_eq!(a.node_visits, b.node_visits, "{label}");
                assert_eq!(a.warps, b.warps, "{label}");
                assert_eq!(a.shards_pruned, b.shards_pruned, "{label}");
                assert_eq!(a.fusion_saved_visits, b.fusion_saved_visits, "{label}");
                assert_eq!(a.work_expansion.to_bits(), b.work_expansion.to_bits());
                assert_eq!(a.mask_occupancy.to_bits(), b.mask_occupancy.to_bits());
                assert!(
                    a.mask_occupancy < 1.0,
                    "{label}: lanes diverge on this batch"
                );
                // The modeled series: there, and not.
                assert!(a.model_ms > 0.0, "{label}");
                assert_eq!(
                    (b.model_ms, b.stack_transactions, b.stack_bytes_peak),
                    (0.0, 0, 0),
                    "{label}"
                );
                assert!(b.shard_visits.iter().all(|v| v.model_ms == 0.0), "{label}");
            }
        }
    }

    #[test]
    fn an_unmetered_batch_walks_the_host_and_skips_the_profile() {
        let pts = uniform::<3>(700, 27);
        for index in every_index_kind(&pts) {
            let lone = vec![FusedLane {
                nn: true,
                ..FusedLane::empty(vec![0.4, 0.5, 0.6])
            }];
            let sets = [
                ("mixed", random_lanes(&pts, 90, false, 90)),
                ("one-op", random_lanes(&pts, 90, true, 91)),
                ("one lane", lone),
            ];
            for (shape, lanes) in sets {
                let label = format!("{} {shape}", index.name());
                let positions: Vec<Vec<f32>> = lanes.iter().map(|l| l.pos.clone()).collect();
                let on = index.run(&lanes, &metering(ExecPolicy::default(), &positions));
                let off = index.run(&lanes, &unmetering(ExecPolicy::default(), &positions));
                let cpu = index.run(&lanes, &ExecPolicy::forced(Backend::Cpu));
                assert_eq!(off.lanes, on.lanes, "{label}: answers");
                assert_eq!(off.lanes, cpu.lanes, "{label}: answers");
                let (off, on) = (off.outcome, on.outcome);
                // Unmetered: the host walk, no sample taken.
                assert_eq!(off.backend, Backend::Cpu, "{label}");
                assert_eq!(off.mean_similarity, None, "{label}");
                assert!(!off.metered && off.model_ms == 0.0, "{label}");
                // Metered: the paper's choice, under the model.
                assert!(on.metered && on.model_ms > 0.0, "{label}");
                if lanes.len() < 2 {
                    assert_eq!(on.backend, Backend::Autoropes, "{label}");
                    assert_eq!(on.mean_similarity, None, "{label}");
                } else {
                    assert!(
                        matches!(on.backend, Backend::Lockstep | Backend::Autoropes),
                        "{label}: {:?}",
                        on.backend
                    );
                    assert!(on.mean_similarity.is_some(), "{label}");
                }
            }
        }
    }

    #[test]
    fn the_wald_mirror_is_built_by_the_first_batch_that_walks_it() {
        let pts = uniform::<3>(300, 28);
        let flat = KdIndex::build("f", &pts, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = uniform::<3>(64, 29).iter().map(|p| p.0.to_vec()).collect();
        let policy = ExecPolicy::default();
        for policy in [
            metering(policy.clone(), &queries),
            unmetering(policy, &queries),
        ] {
            flat.run_batch(OpKey::Knn(4), &queries, &policy);
        }
        assert!(flat.lb.get().is_none(), "a default batch builds no mirror");
        assert!(flat.skip.get().is_none(), "nor the skip walk's links");
        let auto = flat.run_batch(
            OpKey::Knn(4),
            &queries,
            &ExecPolicy::forced(Backend::Autoropes),
        );
        let wald = flat.run_batch(
            OpKey::Knn(4),
            &queries,
            &ExecPolicy::forced(Backend::StacklessKd),
        );
        assert!(flat.lb.get().is_some(), "the forced Wald walk built it");
        assert_eq!(wald.backend, Backend::StacklessKd);
        assert_eq!(wald.results, auto.results);
        let skip = flat.run_batch(
            OpKey::Knn(4),
            &queries,
            &ExecPolicy::forced(Backend::StacklessBvh),
        );
        assert!(flat.skip.get().is_some(), "the forced skip walk built them");
        assert_eq!(skip.results, auto.results);
    }

    #[test]
    fn counted_saving_is_zero_when_every_lane_asks_one_op() {
        let pts = uniform::<3>(700, 21);
        for index in every_index_kind(&pts) {
            for backend in Backend::ALL {
                let lanes = random_lanes(&pts, 90, true, 70 + backend.index() as u64);
                assert!(distinct_ops(&lanes) >= 2, "the ops differ across lanes");
                let out = index.run(&lanes, &ExecPolicy::forced(backend)).outcome;
                let label = format!("{} on {}", index.name(), backend.name());
                assert!(out.fused_lanes == 90 && out.fused_ops >= 2, "{label}");
                assert_eq!(out.fusion_saved_visits, 0, "{label}");
            }
        }
    }

    #[test]
    fn counted_lockstep_saving_is_per_op_minus_live_lane_visits() {
        // The shared-position script: every lane asks NN, kNN and PC.
        let pts = uniform::<3>(2048, 22);
        let flat = KdIndex::build("f", &pts, 8, SplitPolicy::MedianCycle);
        let radius = 0.07f32;
        let lanes: Vec<FusedLane> = (pts.iter().take(100))
            .map(|p| {
                let mut lane = FusedLane::empty(p.0.to_vec());
                for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(radius.to_bits())] {
                    lane.ask(op);
                }
                lane
            })
            .collect();
        let unsorted = ExecPolicy {
            sort: false,
            ..ExecPolicy::forced(Backend::Lockstep)
        };
        let out = flat.run(&lanes, &unsorted).outcome;

        // The same launch, made here: the tallies and the live-lane visits.
        let mut work: Vec<FusedOpsPoint<3>> = (pts.iter().take(100))
            .map(|&p| fused_ops_point(p, true, Some(8), &[radius]))
            .collect();
        let rep = lockstep::run(
            &fused_ops_kernel(flat.tree()),
            &mut work,
            &GpuConfig::new(1),
        );
        let per_op: u64 = (work.iter())
            .map(|p| 3 + 2 * u64::from(p.solo_descents))
            .sum();
        let live = rep.launch.counters.node_visits;
        assert_eq!(out.fusion_saved_visits, per_op - live);
        assert!(out.fusion_saved_visits > 0);
        // What the lanes are *charged* — every pop of their warp — is more
        // than the per-op walks together: subtracting that floors at 0.
        assert!(out.node_visits > per_op, "{} vs {per_op}", out.node_visits);
        // A lane is live only where some constituent of it would be, so
        // never for more nodes than their walks together.
        for (p, &own) in work.iter().zip(&rep.per_point_live_nodes) {
            assert!(u64::from(own) <= 3 + 2 * u64::from(p.solo_descents));
        }
    }

    #[test]
    fn counted_work_expansion_comes_from_the_runs_own_masks() {
        let pts = uniform::<3>(2048, 23);
        let flat = KdIndex::build("f", &pts, 8, SplitPolicy::MedianCycle);
        let queries: Vec<Vec<f32>> = pts.iter().take(100).map(|p| p.0.to_vec()).collect();
        let unsorted = ExecPolicy {
            sort: false,
            ..ExecPolicy::forced(Backend::Lockstep)
        };
        let cfg = GpuConfig::new(1);

        // One call set: a lane's live pops are its independent walk, so the
        // gauge is Table 2's statistic against CPU solo lengths, bit for bit.
        let radius = 0.1f32;
        let out = flat.run_batch(OpKey::Pc(radius.to_bits()), &queries, &unsorted);
        let kernel = PcKernel::new(flat.tree(), radius);
        let fresh =
            || -> Vec<PcPoint<3>> { pts.iter().take(100).map(|&p| PcPoint::new(p)).collect() };
        let rep = lockstep::run(&kernel, &mut fresh(), &cfg);
        let solo: Vec<u32> = (fresh().iter_mut())
            .map(|p| cpu::traverse_one(&kernel, p))
            .collect();
        assert_eq!(rep.per_point_live_nodes, solo);
        let table2 = work_expansion(&rep.per_warp_nodes, &solo).0;
        assert_eq!(out.work_expansion.to_bits(), table2.to_bits());
        assert!(table2 > 1.0, "lanes of a warp diverge on this batch");

        // Guided: the vote reorders the lanes' own walks, so the gauge is
        // the run's own ratio — no warp's busiest lane outlasts its pops.
        let out = flat.run_batch(OpKey::Knn(8), &queries, &unsorted);
        let kernel = KnnKernel::new(flat.tree());
        let mut work: Vec<KnnPoint<3>> = (pts.iter().take(100))
            .map(|&p| KnnPoint::new(p, 8))
            .collect();
        let rep = lockstep::run(&kernel, &mut work, &cfg);
        for (w, lanes) in rep.per_point_live_nodes.chunks(32).enumerate() {
            let busiest = u64::from(*lanes.iter().max().expect("a warp has lanes"));
            assert!(busiest <= rep.per_warp_nodes[w], "warp {w}");
        }
        let own = work_expansion(&rep.per_warp_nodes, &rep.per_point_live_nodes).0;
        assert_eq!(out.work_expansion.to_bits(), own.to_bits());
        assert!(own >= 1.0);
    }
}
