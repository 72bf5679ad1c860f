//! The differential harness, and the integration tests' shared inputs.
//!
//! The paper's §3.3 argument is that a transformed walk returns exactly
//! what the recursive walk returns. The harness holds the served path to
//! that: a seeded [`Script`] of query batches, mutation batches, merges
//! and a close is played by [`run`] against one index at one [`Config`]
//! point — index kind, shards, shard threads, backend and meter, and the
//! path the script enters by (`TreeIndex::run`, per-op `run_batch`, an
//! in-process `Service`, or loopback `gts-net`). The harness keeps its own
//! model of the live points, keyed by the ids each `MutationAck::assigned`
//! returns, and holds every answer to one rule ([`check`]) against
//! `gts_apps::oracle` over that model:
//! - distances are bit-equal to brute force, and PC counts exact;
//! - a kNN answer has brute force's length, and its ids are unique;
//! - every returned id names a live point at its reported distance.
//!
//! A failing check names the seed, the config point, the index and the
//! step: the test's script built from that seed and played at that point
//! replays it.

use gts_apps::oracle;
use gts_net::{Client, ErrorCode, NetServer, WireError};
use gts_service::{
    Backend, ExecPolicy, FusedLane, FusedOutcome, KdIndex, MetricsSnapshot, MutableIndex,
    MutableIndexBuilder, Mutation, OpKey, Query, QueryKind, QueryResult, Service, ServiceConfig,
    ServiceError, ShardedIndex, Ticket, TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The ops a mixed lane draws from: NN, two `k`s and two radii.
pub const MENU: [OpKey; 5] = [
    OpKey::Nn,
    OpKey::Knn(3),
    OpKey::Knn(8),
    OpKey::Pc(0.08f32.to_bits()),
    OpKey::Pc(0.2f32.to_bits()),
];
/// Leaf size of every index the harness builds.
const LEAF: usize = 8;
/// Threads a query batch is submitted from on the `Service` path.
const SUBMITTERS: usize = 4;
/// Queries per `BatchSubmit` frame on the loopback path.
const FRAME: usize = 200;
/// Bounds every wait that a lost query would turn into a hang.
pub const HANG: Duration = Duration::from_secs(60);

/// The index a script runs against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Flat,
    Sharded,
    Mutable,
}

/// Where a script's batches enter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Path {
    /// `TreeIndex::run` on each query batch, its lanes fused.
    Direct,
    /// `TreeIndex::run_batch` once per op of each query batch.
    PerOp,
    /// One `Service::submit` per lane and op, from several threads.
    Service,
    /// `BatchSubmit` frames over a loopback `gts-net` connection.
    Loopback,
}

/// One point of the config space.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub kind: Kind,
    /// Shards of a sharded or mutable index; a flat one ignores it.
    pub shards: usize,
    /// `ExecPolicy::shard_parallelism` (0: every core).
    pub threads: usize,
    /// The backend every batch is forced onto, or the policy's own choice.
    pub force: Option<Backend>,
    /// On the direct paths, a policy seed under which each batch is
    /// metered (`Some(true)`) or not, and its record held to it; `None`,
    /// and on the served paths, where the batcher forms the batches, the
    /// default seed.
    pub meter: Option<bool>,
    pub path: Path,
}

impl Config {
    /// `kind` entered by `path`: four shards, one shard thread, the
    /// default policy.
    pub const fn new(kind: Kind, path: Path) -> Config {
        Config {
            kind,
            shards: 4,
            threads: 1,
            force: None,
            meter: None,
            path,
        }
    }

    /// This point at `shards` shards and `threads` shard threads, every
    /// batch forced onto `force` (or the policy's own choice).
    pub fn at(mut self, shards: usize, threads: usize, force: Option<Backend>) -> Config {
        (self.shards, self.threads, self.force) = (shards, threads, force);
        self
    }

    fn served(&self) -> bool {
        matches!(self.path, Path::Service | Path::Loopback)
    }

    /// The default policy, forced and at the shard threads this point says.
    fn policy(&self) -> ExecPolicy {
        let (force, shard_parallelism) = (self.force, self.threads);
        ExecPolicy {
            force,
            shard_parallelism,
            ..ExecPolicy::default()
        }
    }
}

/// Which ops each generated lane asks.
#[derive(Clone, Copy)]
pub enum Ask<'a> {
    /// Every one of them.
    All(&'a [OpKey]),
    /// A random non-empty subset.
    Any(&'a [OpKey]),
}

/// One step of a script.
#[derive(Clone, Debug)]
pub enum Step {
    /// One batch of lanes.
    Query(Vec<FusedLane>),
    /// One mutation batch: delete the live point nearest each of
    /// `deletes` (ties to the lower id, one point per position), then
    /// insert a point at each of `inserts`.
    Mutate {
        inserts: Vec<Vec<f32>>,
        deletes: Vec<Vec<f32>>,
    },
    /// `MutableIndex::merge_now`; nothing on a static index.
    Merge,
    /// `Service::close` on the served paths, `TreeIndex::quiesce` on the
    /// direct ones. Later queries are refused on the served paths and
    /// answered on the direct ones; later mutations are refused.
    Close,
}

/// One query step's brute-force answers over one model.
type Memo<const D: usize> = (usize, Vec<Option<PointN<D>>>, Arc<Vec<QueryResult>>);

/// A seeded script over a dataset. The builder methods draw from one
/// generator seeded by `seed`, so a script is a function of its seed and
/// the calls that built it.
pub struct Script<const D: usize> {
    pub seed: u64,
    pub points: Vec<PointN<D>>,
    pub split: SplitPolicy,
    pub steps: Vec<Step>,
    rng: ChaCha8Rng,
    /// Where generated positions cluster: the dataset and every insert.
    anchors: Vec<PointN<D>>,
    /// The last query batch's positions, for deletes to aim at.
    asked: Vec<Vec<f32>>,
    memo: Mutex<Vec<Memo<D>>>,
}

impl<const D: usize> Script<D> {
    pub fn new(seed: u64, points: Vec<PointN<D>>) -> Self {
        Script {
            seed,
            anchors: points.clone(),
            points,
            split: SplitPolicy::MedianCycle,
            steps: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            asked: Vec::new(),
            memo: Mutex::default(),
        }
    }

    fn anchor(&mut self) -> PointN<D> {
        self.anchors[self.rng.gen_range(0..self.anchors.len())]
    }

    /// A point within `spread` of an anchor on every axis.
    fn near(&mut self, spread: f32) -> Vec<f32> {
        let anchor = self.anchor();
        (anchor.0.iter())
            .map(|&c| c + self.rng.gen_range(-spread..spread))
            .collect()
    }

    /// A query position: half the time each coordinate is another
    /// anchor's (anywhere in the data's box, as the data spreads), else
    /// within 0.02 of one anchor, where pruning is tight.
    pub fn position(&mut self) -> Vec<f32> {
        match self.rng.gen_bool(0.5) {
            true => (0..D).map(|a| self.anchor()[a]).collect(),
            false => self.near(0.02),
        }
    }

    /// `n` lanes at generated positions, each asking as `ask` says.
    pub fn lanes(&mut self, n: usize, ask: Ask) -> Vec<FusedLane> {
        let (ops, all) = match ask {
            Ask::All(ops) => (ops, true),
            Ask::Any(ops) => (ops, false),
        };
        let mut lane = |_| {
            let mut lane = FusedLane::empty(self.position());
            for &op in ops {
                if all || self.rng.gen_bool(0.5) {
                    lane.ask(op);
                }
            }
            if lane.ops() == 0 {
                lane.ask(ops[self.rng.gen_range(0..ops.len())]);
            }
            lane
        };
        (0..n).map(&mut lane).collect()
    }

    /// Append a query batch of `n` generated lanes.
    pub fn queries(mut self, n: usize, ask: Ask) -> Self {
        let lanes = self.lanes(n, ask);
        self.asked = lanes.iter().map(|l| l.pos.clone()).collect();
        self.then(Step::Query(lanes))
    }

    /// Append a mutation batch: `inserts` points within 0.05 of anchors,
    /// and `deletes` aimed at the last query batch's positions (what those
    /// queries answered with), at anchors, and first at the latest insert
    /// — which, with no merge between, is still pending.
    pub fn mutate(mut self, inserts: usize, deletes: usize) -> Self {
        let (n, fresh) = (self.anchors.len(), self.anchors.len() > self.points.len());
        let mut delete = |i: usize| match i % 2 {
            0 if i == 0 && fresh => self.anchors[n - 1].0.to_vec(),
            1 if !self.asked.is_empty() => {
                self.asked[self.rng.gen_range(0..self.asked.len())].clone()
            }
            _ => self.anchor().0.to_vec(),
        };
        let deletes = (0..deletes.min(n)).map(&mut delete).collect();
        let inserts: Vec<Vec<f32>> = (0..inserts).map(|_| self.near(0.05)).collect();
        self.anchors.extend(inserts.iter().map(|p| point(p)));
        self.then(Step::Mutate { inserts, deletes })
    }

    /// Append a mutation batch inserting exactly `points`.
    pub fn insert(mut self, points: &[PointN<D>]) -> Self {
        self.anchors.extend_from_slice(points);
        let inserts = points.iter().map(|p| p.0.to_vec()).collect();
        let deletes = Vec::new();
        self.then(Step::Mutate { inserts, deletes })
    }

    /// Append `step` as it is.
    pub fn then(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Brute force for every query of step `step` over `model` — computed
    /// once per step and model, so the configs of one list share it.
    fn want(
        &self,
        step: usize,
        model: &[Option<PointN<D>>],
        qs: &[Query],
    ) -> Arc<Vec<QueryResult>> {
        let mut memo = self.memo.lock().unwrap();
        if let Some((_, _, want)) = memo.iter().find(|(s, m, _)| *s == step && m == model) {
            return Arc::clone(want);
        }
        let live: Vec<PointN<D>> = model.iter().flatten().copied().collect();
        // Most of a debug build's check time: split over a few cores.
        let parts: Vec<_> = qs.chunks(qs.len().div_ceil(cores()).max(1)).collect();
        let brute = |qs: &&[Query]| -> Vec<QueryResult> {
            let brute = |q: &Query| brute_force(&live, &point(&q.pos), op(q));
            qs.iter().map(brute).collect()
        };
        let want = Arc::new(each(&parts, brute).concat());
        memo.push((step, model.to_vec(), Arc::clone(&want)));
        want
    }
}

/// The threads [`each`] runs on: a few, at most one per core.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// `f` of every item, in order, computed on a few threads at once — how a
/// config list plays its independent points (they share their script's
/// brute force, computed once).
pub fn each<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mine = std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)));
        let mine = mine.take_while(|&i| i < items.len());
        mine.map(|i| (i, f(&items[i]))).collect::<Vec<_>>()
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cores()).map(|_| scope.spawn(work)).collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

fn point<const D: usize>(pos: &[f32]) -> PointN<D> {
    PointN(std::array::from_fn(|a| pos[a]))
}

fn op(q: &Query) -> OpKey {
    q.kind.op_key().expect("a generated op is valid")
}

/// What `gts_apps::oracle` answers for `op` at `q` over `live`. Ids are
/// left out: on an exact distance tie either point is right, and
/// [`check`] holds ids to the model instead.
fn brute_force<const D: usize>(live: &[PointN<D>], q: &PointN<D>, op: OpKey) -> QueryResult {
    match op {
        OpKey::Nn => QueryResult::Nn {
            dist2: oracle::nn_dist2_nonself(live, q),
            id: u32::MAX,
        },
        OpKey::Knn(k) => {
            // `knn_dists` sorts every distance, which is most of a debug
            // build's check time: it gets the points no farther than the
            // k-th nearest, which hold the same k smallest distances.
            let d2: Vec<f32> = live.iter().map(|p| p.dist2(q)).collect();
            let mut best = vec![f32::INFINITY; k.min(d2.len())];
            for &d in &d2 {
                if best.last().is_some_and(|&kth| d < kth) {
                    best.insert(best.partition_point(|&b| b <= d), d);
                    best.pop();
                }
            }
            let kth = best.last().copied().unwrap_or(f32::INFINITY);
            let near = live.iter().zip(&d2).filter(|&(_, &d)| d <= kth);
            let near: Vec<PointN<D>> = near.map(|(p, _)| *p).collect();
            let dist2 = oracle::knn_dists(&near, q, k);
            QueryResult::Knn { dist2, ids: vec![] }
        }
        OpKey::Pc(r) => QueryResult::Pc {
            count: oracle::pc_count(live, q, f32::from_bits(r)),
        },
    }
}

/// The one comparison: `got`, asked at `q`, against brute force `want`
/// with `model` the live points by id.
fn check<const D: usize>(
    model: &[Option<PointN<D>>],
    q: &PointN<D>,
    got: &QueryResult,
    want: &QueryResult,
) -> Result<(), String> {
    use std::slice::from_ref;
    let (dist2, ids, want) = match (got, want) {
        (QueryResult::Nn { dist2, id }, QueryResult::Nn { dist2: w, .. }) => {
            (from_ref(dist2), from_ref(id), from_ref(w))
        }
        (QueryResult::Knn { dist2, ids }, QueryResult::Knn { dist2: w, .. }) => {
            (&dist2[..], &ids[..], &w[..])
        }
        (QueryResult::Pc { count }, QueryResult::Pc { count: w }) if count == w => return Ok(()),
        _ => return Err(format!("{got:?}, brute force {want:?}")),
    };
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(dist2) != bits(want) || ids.len() != dist2.len() {
        return Err(format!("{got:?}, brute force {want:?}"));
    }
    let mut seen = HashSet::new();
    for (&d, &id) in dist2.iter().zip(ids) {
        let at = model
            .get(id as usize)
            .and_then(|p| Some(p.as_ref()?.dist2(q)));
        // An NN with no distinct position to name answers inf.
        if !seen.insert(id) || d.is_finite() && at.map(f32::to_bits) != Some(d.to_bits()) {
            return Err(format!(
                "id {id} at {d}: repeated, or its point is at {at:?}"
            ));
        }
    }
    Ok(())
}

/// What a played script leaves: every answer in step and query order
/// (the refused ones left out), and the served paths' final metrics.
#[derive(Default)]
pub struct Report {
    pub answers: Vec<QueryResult>,
    /// The direct path's batch outcomes, in step order.
    pub outcomes: Vec<FusedOutcome>,
    /// The node visits of every batch on the direct paths.
    pub node_visits: u64,
    pub metrics: Option<MetricsSnapshot>,
}

/// Play `script` at `cfg`, checking every step.
pub fn run<const D: usize>(script: &Script<D>, cfg: &Config) -> Report {
    Rig::new(script, cfg).play(script)
}

/// Play `script` at `cfg` and each of `rest` on an index of its own kind,
/// all at once and every index on one service (and server): each answer
/// is still held to its own script's model, so one answered from another
/// index, or batched with another index's lanes, fails. The scripts leave
/// the close to the end, which reports and balances the whole service.
pub fn together<const D: usize, const E: usize>(
    script: &Script<D>,
    cfg: &Config,
    rest: &[(&Script<E>, Kind)],
) -> Report {
    let closes = |s: &[Step]| s.iter().any(|s| matches!(s, Step::Close));
    assert!(!closes(&script.steps) && !rest.iter().any(|(s, _)| closes(&s.steps)));
    let mut rig = Rig::new(script, cfg);
    let mut others: Vec<Rig<E>> = rest.iter().map(|&(s, k)| rig.beside(s, k)).collect();
    std::thread::scope(|scope| {
        for (other, &(script, _)) in others.iter_mut().zip(rest) {
            scope.spawn(move || other.steps(script));
        }
        rig.steps(script);
    });
    for other in others {
        rig.tally = [0, 1].map(|i| rig.tally[i] + other.tally[i]);
        other.end();
    }
    rig.end()
}

/// Hostile mutation batches on the served `path`, each refused whole with
/// its typed error ([`Rig::refuses`]): a NaN insert, a wrong-dimension
/// insert, one bad insert among good inserts and a delete, and, on a
/// static index, any mutation at all. Each index kind then plays `script`
/// exactly, its own mutations included.
pub fn bad_mutations_are_refused(script: &Script<3>, path: Path) {
    let insert = |pos: &[f32]| Mutation::Insert { pos: pos.to_vec() };
    let (nan, flat) = (insert(&[f32::NAN, 0.5, 0.5]), insert(&[0.5, 0.5]));
    let good = [
        insert(&[0.25; 3]),
        Mutation::Delete { id: 0 },
        insert(&[0.75; 3]),
    ];
    let non_finite = ServiceError::BadQuery("non-finite insert position");
    let dim = ServiceError::DimMismatch {
        expected: 3,
        got: 2,
    };
    let among_good = |bad: &Mutation| [&good[..2], std::slice::from_ref(bad), &good[2..]].concat();
    let hostile = [
        (vec![nan.clone()], &non_finite),
        (vec![flat.clone()], &dim),
        (among_good(&nan), &non_finite),
        (among_good(&flat), &dim),
    ];
    let immutable = ServiceError::BadQuery("index does not accept mutations");
    let any = [
        (good[..1].to_vec(), &immutable),
        (good[1..2].to_vec(), &immutable),
    ];
    for kind in [Kind::Mutable, Kind::Flat, Kind::Sharded] {
        let mut rig = Rig::new(script, &Config::new(kind, path));
        let statics = any.iter().filter(|_| kind != Kind::Mutable);
        for (muts, want) in hostile.iter().chain(statics) {
            rig.refuses(muts, want);
        }
        rig.play(script);
    }
}

fn counts(m: &MetricsSnapshot) -> [u64; 4] {
    [m.submitted, m.completed, m.failed, m.rejected]
}

/// One config point, built and ready to play a script: its index, and on
/// the served paths its service, server and client.
pub struct Rig<const D: usize> {
    cfg: Config,
    seed: u64,
    index: Arc<dyn TreeIndex>,
    /// The index's id on the service.
    id: usize,
    mutable: Option<Arc<MutableIndex<D>>>,
    service: Option<Arc<Service>>,
    /// Before the server: a rig dropped mid-script (a failed check)
    /// closes its connection first, which the server's drop waits for.
    client: Option<Client>,
    server: Option<NetServer>,
    /// The service's counts when this rig began; `None` beside another
    /// rig, which ends the service.
    base: Option<[u64; 4]>,
    /// The live points by id.
    model: Vec<Option<PointN<D>>>,
    closed: bool,
    /// What the script has left so far.
    report: Report,
    /// Queries the served paths accepted and refused.
    tally: [u64; 2],
}

impl<const D: usize> Rig<D> {
    pub fn new(script: &Script<D>, cfg: &Config) -> Self {
        let service = cfg.served().then(|| {
            let config = ServiceConfig {
                batch_queries: 128,
                workers: 2,
                policy: cfg.policy(),
                ..ServiceConfig::default()
            };
            Arc::new(Service::start(config))
        });
        let server = (service.as_ref())
            .filter(|_| cfg.path == Path::Loopback)
            .map(|s| NetServer::bind("127.0.0.1:0", Arc::clone(s)).expect("bind"));
        let base = service.as_ref().map(|s| counts(&s.metrics()));
        let addr = server.as_ref().map(NetServer::local_addr);
        Rig {
            server,
            base,
            ..Rig::on(script, cfg, service, addr)
        }
    }

    /// A rig for `script` on an index of `kind`, served beside this rig's
    /// index by its service and server.
    pub fn beside<const E: usize>(&self, script: &Script<E>, kind: Kind) -> Rig<E> {
        let addr = self.server.as_ref().map(NetServer::local_addr);
        let cfg = Config { kind, ..self.cfg };
        Rig::on(script, &cfg, self.service.clone(), addr)
    }

    /// Build the index, register it on `service`, connect to `addr`.
    fn on(
        script: &Script<D>,
        cfg: &Config,
        service: Option<Arc<Service>>,
        addr: Option<SocketAddr>,
    ) -> Self {
        let (pts, split) = (&script.points, script.split);
        let mut mutable = None;
        let index: Arc<dyn TreeIndex> = match cfg.kind {
            Kind::Flat => Arc::new(KdIndex::build("flat", pts, LEAF, split)),
            Kind::Sharded => {
                let index = ShardedIndex::build("sharded", pts, cfg.shards, LEAF, split);
                assert_eq!(index.n_shards(), cfg.shards, "{cfg:?}");
                Arc::new(index)
            }
            // Served, merges race the reads; direct, the script's merges
            // are the only ones, so every window is pinned.
            Kind::Mutable => {
                let builder = MutableIndexBuilder::new("mutable", cfg.shards).split_policy(split);
                let index = Arc::new(builder.auto_merge(cfg.served()).build(pts));
                // Built over no points, it has no shards until a merge.
                assert_eq!(index.n_shards() == 0, pts.is_empty(), "{cfg:?}");
                mutable = Some(Arc::clone(&index));
                index
            }
        };
        let id = (service.as_ref()).map_or(0, |s| s.register_index(Arc::clone(&index)));
        Rig {
            cfg: *cfg,
            seed: script.seed,
            index,
            id,
            mutable,
            service,
            server: None,
            client: addr.map(|a| Client::connect(a).expect("connect")),
            base: None,
            model: pts.iter().copied().map(Some).collect(),
            closed: false,
            report: Report::default(),
            tally: [0, 0],
        }
    }

    /// The loopback server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("a loopback rig").local_addr()
    }

    /// The served paths' service.
    pub fn service(&self) -> &Arc<Service> {
        self.service.as_ref().expect("a served rig")
    }

    /// Play every step of `script`, then [`Rig::end`]: a served rig that
    /// started its service balances what the service took from here on.
    pub fn play(mut self, script: &Script<D>) -> Report {
        let now = self.service.as_ref().map(|s| counts(&s.metrics()));
        self.base = self.base.and(now);
        self.steps(script);
        self.end()
    }

    /// Play every step of `script`, checking each.
    pub fn steps(&mut self, script: &Script<D>) {
        for (i, step) in script.steps.iter().enumerate() {
            let ctx = format!("{}, step {i}", self.ctx());
            match step {
                Step::Query(lanes) => self.query(script, i, lanes, &ctx),
                Step::Mutate { inserts, deletes } => self.mutate(inserts, deletes, &ctx),
                Step::Merge => {
                    if let Some(m) = &self.mutable {
                        m.merge_now();
                        self.at_rest(&ctx);
                    }
                }
                Step::Close => {
                    match &self.service {
                        Some(service) => service.close(),
                        None => self.index.quiesce(),
                    }
                    self.closed = true;
                    if self.mutable.is_some() {
                        self.at_rest(&ctx);
                    }
                }
            }
        }
    }

    /// End the rig: a served one that started its service closes it, and
    /// the service must balance.
    pub fn end(mut self) -> Report {
        if let Some(client) = self.client.take() {
            client.shutdown().expect("a clean client shutdown");
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let service = self.service.take().filter(|_| self.base.is_some());
        self.report.metrics = service.map(|service| {
            service.close();
            service.metrics()
        });
        self.index.quiesce();
        if let (Some(m), Some(base)) = (&self.report.metrics, self.base) {
            let moved: Vec<u64> = (counts(m).iter().zip(base)).map(|(n, b)| n - b).collect();
            let [taken, refused] = self.tally;
            let want = [taken, taken, 0, refused];
            let ctx = self.ctx();
            assert_eq!(moved, want, "{ctx}: submitted, completed, failed, rejected");
        }
        self.report
    }

    /// What a failure names to replay it: the seed, the config point and
    /// the index's id on its service (0 unless served beside another).
    fn ctx(&self) -> String {
        format!("seed {:#x}, {:?}, index {}", self.seed, self.cfg, self.id)
    }

    /// Run one query batch on the config's path and check every answer.
    fn query(&mut self, script: &Script<D>, step: usize, lanes: &[FusedLane], ctx: &str) {
        let mut queries = queries(lanes);
        queries.iter_mut().for_each(|q| q.index = self.id);
        let got: Vec<Option<QueryResult>> = match self.cfg.path {
            Path::Direct => self.direct(lanes, ctx),
            Path::PerOp => self.per_op(&queries),
            Path::Service | Path::Loopback => self.served(&queries, ctx),
        };
        if self.cfg.served() {
            let refused = got.iter().filter(|g| g.is_none()).count();
            assert_eq!(refused, self.closed as usize * got.len(), "{ctx}: refusals");
            self.tally[self.closed as usize] += got.len() as u64;
        }
        let want = script.want(step, &self.model, &queries);
        for (j, ((q, got), want)) in queries.iter().zip(got).zip(want.iter()).enumerate() {
            let Some(got) = got else { continue };
            if let Err(why) = check(&self.model, &point(&q.pos), &got, want) {
                panic!("{ctx}, query {j}, {q:?}: {why}");
            }
            self.report.answers.push(got);
        }
        assert_eq!(self.index.n_points(), self.live().len(), "{ctx}: n_points");
    }

    /// The policy for a direct batch at `positions`: forced and seeded as
    /// the config says.
    fn policy(&self, positions: &[Vec<f32>]) -> ExecPolicy {
        match self.cfg.meter {
            Some(metered) => seeded(self.cfg.policy(), positions, metered),
            None => self.cfg.policy(),
        }
    }

    fn direct(&mut self, lanes: &[FusedLane], ctx: &str) -> Vec<Option<QueryResult>> {
        let positions: Vec<Vec<f32>> = lanes.iter().map(|l| l.pos.clone()).collect();
        let out = self.index.run(lanes, &self.policy(&positions));
        let o = &out.outcome;
        // Only a metered, unforced batch of two or more lanes profiles.
        if let Some(metered) = self.cfg.meter {
            let profiles = metered && self.cfg.force.is_none() && lanes.len() > 1;
            let record = (o.metered, o.mean_similarity.is_some());
            assert_eq!(record, (metered, profiles), "{ctx}: metered, profiled");
        }
        // What a stackless walk saves is the rope stack: on the model, it
        // moves none of the traffic autoropes pays.
        let stack = [o.stack_bytes_peak, o.stack_transactions];
        match self.cfg.force {
            _ if !o.metered => {}
            Some(Backend::StacklessKd | Backend::StacklessBvh) => {
                assert_eq!(stack, [0, 0], "{ctx}")
            }
            Some(Backend::Autoropes) => assert!(!stack.contains(&0), "{ctx}"),
            _ => {}
        }
        assert_eq!(out.lanes.len(), lanes.len(), "{ctx}: lanes");
        let mut got = Vec::new();
        for (l, r) in lanes.iter().zip(&out.lanes) {
            assert_eq!(r.answers().count(), l.ops(), "{ctx}: a lane's answers");
            got.extend(r.answers().cloned().map(Some));
        }
        self.report.node_visits += o.node_visits;
        self.report.outcomes.push(out);
        got
    }

    /// Each op of the batch as its own single-op batch, the answers put
    /// back in query order.
    fn per_op(&mut self, queries: &[Query]) -> Vec<Option<QueryResult>> {
        let mut got = vec![None; queries.len()];
        while let Some(j) = got.iter().position(Option::is_none) {
            let same = |&i: &usize| op(&queries[i]) == op(&queries[j]);
            let at: Vec<usize> = (j..queries.len()).filter(same).collect();
            let positions: Vec<Vec<f32>> = at.iter().map(|&i| queries[i].pos.clone()).collect();
            let policy = self.policy(&positions);
            let out = self.index.run_batch(op(&queries[j]), &positions, &policy);
            self.report.node_visits += out.node_visits;
            for (i, r) in at.into_iter().zip(out.results) {
                got[i] = Some(r);
            }
        }
        got
    }

    /// The queries through the service; `None` where one was refused
    /// because the service is shutting down.
    fn served(&mut self, queries: &[Query], ctx: &str) -> Vec<Option<QueryResult>> {
        if let Some(client) = &mut self.client {
            let frames: Vec<u64> = (queries.chunks(FRAME))
                .map(|frame| client.send_batch(frame).expect("send a frame"))
                .collect();
            let answered = |base| client.recv_batch(base).expect("a frame's answers");
            let answers: Vec<_> = frames.into_iter().flat_map(answered).collect();
            let answer = |r: Result<QueryResult, gts_net::WireError>| match r {
                Ok(r) => Some(r),
                Err(e) if e.code == ErrorCode::ShuttingDown => None,
                Err(e) => panic!("{ctx}: {e:?}"),
            };
            return answers.into_iter().map(answer).collect();
        }
        let service = self.service();
        let answer = |t: Result<Ticket, ServiceError>| match t {
            Ok(t) => Some(t.wait_timeout(HANG).expect("resolved")),
            Err(ServiceError::ShuttingDown) => None,
            Err(e) => panic!("refused: {e:?}"),
        };
        let stripe = queries.len().div_ceil(SUBMITTERS).max(1);
        std::thread::scope(|scope| {
            let mut stripes = Vec::new();
            for mine in queries.chunks(stripe) {
                stripes.push(scope.spawn(move || {
                    let tickets: Vec<_> = mine.iter().map(|q| service.submit(q.clone())).collect();
                    tickets.into_iter().map(answer).collect::<Vec<_>>()
                }));
            }
            let joined = stripes.into_iter().flat_map(|h| h.join().expect(ctx));
            joined.map(|r| Some(r?.expect("answered"))).collect()
        })
    }

    fn live(&self) -> Vec<(u32, PointN<D>)> {
        let live = (0..).zip(&self.model);
        live.filter_map(|(id, p)| Some((id, (*p)?))).collect()
    }

    /// Apply one mutation batch on the config's path and to the model.
    fn mutate(&mut self, inserts: &[Vec<f32>], deletes: &[Vec<f32>], ctx: &str) {
        let mut live = self.live();
        let mut muts: Vec<Mutation> = Vec::new();
        for q in deletes.iter().map(|pos| point::<D>(pos)) {
            let d = (0..live.len()).map(|i| (live[i].1.dist2(&q), i));
            if let Some((_, at)) = d.min_by(|a, b| a.0.total_cmp(&b.0)) {
                muts.push(Mutation::Delete {
                    id: live.remove(at).0,
                });
            }
        }
        muts.extend(inserts.iter().map(|p| Mutation::Insert { pos: p.clone() }));
        let acked = match (&self.service, &mut self.client) {
            (_, Some(client)) => client.mutate(self.id, &muts).expect("transport").ok(),
            (Some(service), None) => service.mutate(self.id, &muts).ok(),
            (None, None) => self.index.mutate(&muts).ok(),
        };
        // A closed or static index refuses it; an open mutable one takes it.
        let takes = !self.closed && self.mutable.is_some();
        assert_eq!(acked.is_some(), takes, "{ctx}: taken");
        let Some(ack) = acked else { return };
        let next = self.model.len() as u32;
        let fresh: Vec<u32> = (next..).take(inserts.len()).collect();
        let counts = (ack.accepted as usize, ack.rejected);
        assert_eq!(counts, (muts.len(), 0), "{ctx}: accepted, rejected");
        assert_eq!(ack.assigned, fresh, "{ctx}: fresh ids count up");
        // On the direct paths nothing merges until the script says so.
        let pending = ack.pending > 0 || self.cfg.served() || muts.is_empty();
        assert!(pending, "{ctx}: nothing pending");
        for m in &muts {
            if let Mutation::Delete { id } = m {
                self.model[*id as usize] = None;
            }
        }
        self.model.extend(inserts.iter().map(|p| Some(point(p))));
    }

    /// Send `muts` on the served path, which must refuse the batch whole
    /// with `want` (over the socket, as the wire lowers it) and apply none
    /// of it: the live points and the epoch counters stay as they were,
    /// with no delta pending.
    pub fn refuses(&mut self, muts: &[Mutation], want: &ServiceError) {
        let ctx = format!("{}, {muts:?}", self.ctx());
        let state = |rig: &Self| {
            let live = rig.mutable.as_ref().map(|m| m.live());
            (rig.index.n_points(), rig.index.epoch_stats(), live)
        };
        let before = state(self);
        match (&self.service, &mut self.client) {
            (_, Some(client)) => {
                let got = client.mutate(self.id, muts).expect("transport").err();
                assert_eq!(got, Some(WireError::from_service(want)), "{ctx}");
            }
            (Some(service), None) => {
                let got = service.mutate(self.id, muts).err();
                assert_eq!(got.as_ref(), Some(want), "{ctx}");
            }
            (None, None) => panic!("{ctx}: not a served rig"),
        }
        assert_eq!(state(self), before, "{ctx}: applied");
        let pending = self.index.epoch_stats().map_or(0, |s| s.pending);
        assert_eq!(pending, 0, "{ctx}: a delta pending");
    }

    /// A mutable index with nothing pending holds the model's points, and
    /// its shards partition their ids, none of them empty.
    fn at_rest(&self, ctx: &str) {
        let m = self.mutable.as_ref().expect("a mutable rig");
        let live = self.live();
        assert!(m.pending() == 0 && m.live() == live, "{ctx}: not at rest");
        let shards = m.shard_ids();
        let empty = shards.iter().any(Vec::is_empty);
        assert!(!empty, "{ctx}: an empty shard");
        let mut ids: Vec<u32> = shards.concat();
        ids.sort_unstable();
        let partition = ids.iter().eq(live.iter().map(|(id, _)| id));
        assert!(partition, "{ctx}: the shards do not partition the live ids");
    }
}

/// The service queries of `lanes` against index 0: one per lane and op,
/// in lane and slot order.
pub fn queries(lanes: &[FusedLane]) -> Vec<Query> {
    let kind = |op| match op {
        OpKey::Nn => QueryKind::Nn,
        OpKey::Knn(k) => QueryKind::Knn { k },
        OpKey::Pc(r) => QueryKind::Pc {
            radius: f32::from_bits(r),
        },
    };
    let mut queries = Vec::new();
    for l in lanes {
        let pos = &l.pos;
        queries.extend((l.op_keys()).map(|op| Query {
            index: 0,
            pos: pos.clone(),
            kind: kind(op),
        }));
    }
    queries
}

/// Play `script` at `cfg`: each direct batch's record with its wall-clock
/// fields zeroed — everything the determinism contract covers, answers
/// to shard spans.
pub fn records<const D: usize>(script: &Script<D>, cfg: &Config) -> Vec<String> {
    let record = |mut out: FusedOutcome| {
        for v in &mut out.outcome.shard_visits {
            (v.offset_us, v.dur_us) = (0, 0);
        }
        format!("{out:?}")
    };
    run(script, cfg).outcomes.into_iter().map(record).collect()
}

/// `policy` at the first `profile_seed`, from its own upward, for which the
/// batch at `positions` is metered ([`ExecPolicy::meters`]) — how a test
/// that reads the model off one particular batch gets it onto that batch.
pub fn metering(policy: ExecPolicy, positions: &[Vec<f32>]) -> ExecPolicy {
    seeded(policy, positions, true)
}

/// [`metering`], or with `!metered` its opposite.
fn seeded(mut policy: ExecPolicy, positions: &[Vec<f32>], metered: bool) -> ExecPolicy {
    while policy.meters(positions.iter().map(|p| &p[..])) != metered {
        policy.profile_seed += 1;
    }
    policy
}
