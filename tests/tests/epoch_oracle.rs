//! Differential oracle for live index mutation: a [`MutableIndex`] under
//! any script of insert/delete batches must answer exactly like a
//! from-scratch flat [`KdIndex`] built over the same live point multiset
//! — at every instant, not just at epoch boundaries. Every pending-delta
//! window (mutations applied, merge not yet landed) and every
//! post-merge state is pinned, across shard counts × ops × backends.
//!
//! Plus: a writer/reader churn stress with a mid-stream `Service::close`
//! (nothing lost, nothing duplicated, deltas flushed not dropped),
//! property tests for the delta/merge layer, and the shutdown-ordering
//! guarantee that `close` drains the merge thread.

use gts_integration::metering;
use gts_points::gen::uniform;
use gts_service::{
    Backend, ExecPolicy, FusedLane, KdIndex, MutableIndex, MutableIndexBuilder, Mutation, OpKey,
    Query, QueryKind, QueryResult, Service, ServiceConfig, ServiceError, ShardedIndex, TreeIndex,
};
use gts_trees::{PointN, SplitPolicy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const BACKENDS: [Backend; 3] = [Backend::Autoropes, Backend::Lockstep, Backend::StacklessKd];
const N_POINTS: usize = 1200;
const N_QUERIES: usize = 320;
const PC_RADIUS: f32 = 0.15;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1e-6) || (a.is_infinite() && b.is_infinite())
}

/// Seeded query mix: half uniform, half hugging dataset points (the ones
/// whose neighborhoods the mutation script is churning).
fn query_positions(pts: &[PointN<3>], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..N_QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                (0..3).map(|_| rng.gen_range(-1.0..1.0f32)).collect()
            } else {
                let anchor = pts[rng.gen_range(0..pts.len())];
                anchor
                    .0
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.02f32..0.02))
                    .collect()
            }
        })
        .collect()
}

/// The mutable index's answers vs a from-scratch flat build over the
/// same live multiset, for every op × backend × wave-pool size
/// (`shard_parallelism` 1, 2 and one thread per shard). Distances must
/// agree within f32 epsilon (ids may differ only on exact ties); kNN ids
/// must be unique (a torn or double-counted shard would duplicate); PC
/// counts must be exactly equal.
fn check_vs_flat_rebuild(idx: &MutableIndex<3>, queries: &[Vec<f32>], ctx: &str) {
    let live: Vec<PointN<3>> = idx.live().into_iter().map(|(_, p)| p).collect();
    assert!(!live.is_empty(), "{ctx}: script emptied the index");
    let flat = KdIndex::build("flat-oracle", &live, 8, SplitPolicy::MedianCycle);
    let cpu = ExecPolicy::forced(Backend::Cpu);
    let mut pools = vec![1, 2, idx.n_shards().max(1)];
    pools.dedup();
    for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(PC_RADIUS.to_bits())] {
        let want = flat.run_batch(op, queries, &cpu);
        for (backend, &threads) in BACKENDS
            .iter()
            .flat_map(|b| pools.iter().map(move |t| (*b, t)))
        {
            let policy = ExecPolicy {
                shard_parallelism: threads,
                ..ExecPolicy::forced(backend)
            };
            let got = idx.run_batch(op, queries, &policy);
            assert_eq!(got.results.len(), want.results.len());
            for (q, (w, g)) in want.results.iter().zip(&got.results).enumerate() {
                let ctx = format!(
                    "{ctx}, {op:?}, {}, {threads} threads, query {q}",
                    backend.name()
                );
                match (w, g) {
                    (QueryResult::Nn { dist2: wd, .. }, QueryResult::Nn { dist2: gd, .. }) => {
                        assert!(close(*wd, *gd), "{ctx}: nn {wd} vs {gd}");
                    }
                    (QueryResult::Knn { dist2: wd, .. }, QueryResult::Knn { dist2: gd, ids }) => {
                        assert_eq!(wd.len(), gd.len(), "{ctx}: knn count");
                        for (j, (a, b)) in wd.iter().zip(gd).enumerate() {
                            assert!(close(*a, *b), "{ctx}: knn[{j}] {a} vs {b}");
                        }
                        let unique: HashSet<u32> = ids.iter().copied().collect();
                        assert_eq!(unique.len(), ids.len(), "{ctx}: duplicate knn ids");
                    }
                    (QueryResult::Pc { count: wc }, QueryResult::Pc { count: gc }) => {
                        assert_eq!(wc, gc, "{ctx}: pc count");
                    }
                    _ => panic!("{ctx}: mismatched result variants"),
                }
            }
        }
    }
}

/// One scripted mutation batch: inserts hugging dataset anchors plus
/// deletes of tracked live ids — including, every other step, a
/// delete of an id inserted earlier in the same pending window.
fn scripted_batch(
    pts: &[PointN<3>],
    rng: &mut ChaCha8Rng,
    live_ids: &mut Vec<u32>,
    window_ids: &[u32],
    step: usize,
) -> Vec<Mutation> {
    let mut muts = Vec::new();
    for _ in 0..30 {
        let anchor = pts[rng.gen_range(0..pts.len())];
        muts.push(Mutation::Insert {
            pos: anchor
                .0
                .iter()
                .map(|&c| c + rng.gen_range(-0.05f32..0.05))
                .collect(),
        });
    }
    for _ in 0..20 {
        let at = rng.gen_range(0..live_ids.len());
        muts.push(Mutation::Delete {
            id: live_ids.swap_remove(at),
        });
    }
    if step % 2 == 1 {
        if let Some(&id) = window_ids.first() {
            if let Some(at) = live_ids.iter().position(|&x| x == id) {
                live_ids.swap_remove(at);
                muts.push(Mutation::Delete { id });
            }
        }
    }
    muts
}

#[test]
fn mutable_index_matches_flat_rebuild_at_every_epoch() {
    let pts = uniform::<3>(N_POINTS, 0x11fe);
    let queries = query_positions(&pts, 0xfee1);
    // The last configuration is built over no points at all and grows
    // from inserts: zero shards first, every answer from the deltas.
    for (shards, grown) in (SHARD_COUNTS.iter().map(|&s| (s, false))).chain([(4, true)]) {
        // auto_merge(false): each window and each epoch advance happens
        // exactly when the script says, so every state is pinned.
        let idx = MutableIndexBuilder::new("live", shards)
            .auto_merge(false)
            .build(if grown { &[] } else { &pts });
        let mut rng = ChaCha8Rng::seed_from_u64(0xab5eed ^ shards as u64);
        let mut live_ids: Vec<u32> = (0..N_POINTS as u32).collect();
        if grown {
            assert_eq!(idx.n_shards(), 0);
            let seed: Vec<Mutation> = (pts.iter())
                .map(|p| Mutation::Insert { pos: p.0.to_vec() })
                .collect();
            let ack = idx.mutate(&seed).unwrap();
            assert_eq!(ack.assigned, live_ids, "fresh ids count up from zero");
            check_vs_flat_rebuild(&idx, &queries, "grown, all points pending");
            assert!(idx.merge_now());
            assert!(idx.n_shards() > 0);
        }
        check_vs_flat_rebuild(&idx, &queries, &format!("{shards} shards, epoch 0"));
        let mut window_ids: Vec<u32> = Vec::new();
        for step in 0..3 {
            let mut muts = scripted_batch(&pts, &mut rng, &mut live_ids, &window_ids, step);
            if step == 1 {
                // Delete what the first queries currently answer NN with,
                // so the window's sweep must skip them for the runners-up.
                let nn = idx.run_batch(OpKey::Nn, &queries[..16], &ExecPolicy::default());
                for r in &nn.results {
                    let QueryResult::Nn { id, .. } = r else {
                        panic!("nn answered with {r:?}")
                    };
                    if let Some(at) = live_ids.iter().position(|x| x == id) {
                        live_ids.swap_remove(at);
                        muts.push(Mutation::Delete { id: *id });
                    }
                }
            }
            let ack = idx.mutate(&muts).unwrap();
            assert_eq!(ack.rejected, 0, "script only deletes live ids");
            live_ids.extend(&ack.assigned);
            window_ids = ack.assigned;
            assert!(ack.pending > 0, "window must actually be pending");
            // Pending-delta window: answers exact before any merge.
            check_vs_flat_rebuild(
                &idx,
                &queries,
                &format!("{shards} shards, step {step} window"),
            );
            // Every other step merges immediately; the others stack a
            // second batch into the same window first (multi-batch
            // windows hit the insert-then-delete cancellation paths).
            if step % 2 == 0 {
                assert!(idx.merge_now());
                assert_eq!(idx.pending(), 0);
                check_vs_flat_rebuild(
                    &idx,
                    &queries,
                    &format!("{shards} shards, step {step} merged"),
                );
            }
        }
        idx.quiesce();
        assert_eq!(idx.pending(), 0);
        check_vs_flat_rebuild(&idx, &queries, &format!("{shards} shards, quiesced"));
        // Partition invariant after all merges and any re-splits: every
        // live id in exactly one merged shard.
        let mut seen = HashSet::new();
        let mut total = 0usize;
        for ids in idx.shard_ids() {
            total += ids.len();
            for id in ids {
                assert!(seen.insert(id), "id {id} in two shards");
            }
        }
        assert_eq!(total, live_ids.len(), "{shards} shards: coverage");
        assert_eq!(idx.n_points(), live_ids.len());
    }
}

/// A mutable index at rest (nothing pending) holds the same Morton shards
/// a `ShardedIndex` over the same points holds, consults their profile
/// caches under the same rule on the same batch clock, and so serves the
/// very record the sharded index serves — batch for batch, a metered
/// repeat that hits the cache included.
#[test]
fn a_mutable_index_at_rest_serves_a_sharded_indexs_record() {
    let pts = uniform::<3>(4096, 0x5eed);
    let sharded = ShardedIndex::build("static", &pts, 4, 8, SplitPolicy::MedianCycle);
    let mutable = MutableIndexBuilder::new("live", 4)
        .auto_merge(false)
        .build(&pts);
    let queries = query_positions(&pts, 0xca11);
    let ops = [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(PC_RADIUS.to_bits())];
    // Lane `i` asks each `ops[j]` that `asks(i, j)` picks.
    let lanes = |asks: &dyn Fn(usize, usize) -> bool| -> Vec<FusedLane> {
        (queries.iter().enumerate())
            .map(|(i, pos)| {
                let mut lane = FusedLane::empty(pos.clone());
                for (j, &op) in ops.iter().enumerate() {
                    if asks(i, j) {
                        lane.ask(op);
                    }
                }
                lane
            })
            .collect()
    };
    let batches = [
        ("nn", lanes(&|_, j| j == 0)),
        ("knn", lanes(&|_, j| j == 1)),
        ("pc", lanes(&|_, j| j == 2)),
        // Two of the three ops per lane, a different two lane to lane.
        ("mixed", lanes(&|i, j| (i + j) % 3 != 0)),
    ];
    let record = |index: &dyn TreeIndex, lanes: &[FusedLane], policy: &ExecPolicy| {
        let mut out = index.run(lanes, policy);
        for v in &mut out.outcome.shard_visits {
            (v.offset_us, v.dur_us) = (0, 0); // wall clock
        }
        (format!("{out:?}"), out.outcome.profile_cache_hits)
    };
    for threads in [1, 2] {
        // Only a metered batch profiles: a seed that meters these lanes'
        // positions, which every batch shares.
        let policy = metering(
            ExecPolicy {
                shard_parallelism: threads,
                ..ExecPolicy::default()
            },
            &queries,
        );
        for (name, lanes) in &batches {
            for pass in ["first", "repeat"] {
                let (want, _) = record(&sharded, lanes, &policy);
                let (got, hits) = record(&mutable, lanes, &policy);
                assert_eq!(got, want, "{threads} threads, {name}, {pass} run");
                if pass == "repeat" {
                    assert!(hits > 0, "{threads} threads, {name}: the repeat missed");
                }
            }
        }
    }
    assert_eq!(mutable.pending(), 0);
}

const WRITERS: usize = 8;
const READERS: usize = 8;

#[test]
fn churn_stress_mid_close_loses_nothing_and_epochs_stay_coherent() {
    let pts = uniform::<3>(1024, 0x57e55);
    let idx = Arc::new(MutableIndexBuilder::new("live", 4).build(&pts));
    let service = Arc::new(Service::start(ServiceConfig {
        max_wait: Duration::from_millis(1),
        workers: 2,
        ..ServiceConfig::default()
    }));
    let index_id = service.register_index(Arc::clone(&idx) as Arc<dyn TreeIndex>);

    let (ins_total, del_total, q_submitted, q_answered, q_rejected) = std::thread::scope(|s| {
        // Writers: each churns insert/delete batches, deleting only ids
        // it inserted itself, until the close lands.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let service = Arc::clone(&service);
                let pts = &pts;
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(0xa110 ^ w as u64);
                    let mut owned: Vec<u32> = Vec::new();
                    let (mut inserts, mut deletes) = (0u64, 0u64);
                    for _ in 0..4000 {
                        let mut muts = Vec::with_capacity(6);
                        for _ in 0..4 {
                            let anchor = pts[rng.gen_range(0..pts.len())];
                            muts.push(Mutation::Insert {
                                pos: anchor
                                    .0
                                    .iter()
                                    .map(|&c| c + rng.gen_range(-0.05f32..0.05))
                                    .collect(),
                            });
                        }
                        for _ in 0..2 {
                            if owned.len() > 4 {
                                let at = rng.gen_range(0..owned.len());
                                muts.push(Mutation::Delete {
                                    id: owned.swap_remove(at),
                                });
                            }
                        }
                        let n_ins = muts
                            .iter()
                            .filter(|m| matches!(m, Mutation::Insert { .. }))
                            .count() as u64;
                        let n_del = muts.len() as u64 - n_ins;
                        match service.mutate(index_id, &muts) {
                            Ok(ack) => {
                                // A batch is all-or-nothing: every insert
                                // and every live delete applied.
                                assert_eq!(ack.accepted, muts.len() as u64);
                                assert_eq!(ack.rejected, 0);
                                assert_eq!(ack.assigned.len(), n_ins as usize);
                                owned.extend(&ack.assigned);
                                inserts += n_ins;
                                deletes += n_del;
                            }
                            Err(ServiceError::ShuttingDown) => break,
                            Err(e) => panic!("writer {w}: {e:?}"),
                        }
                    }
                    (inserts, deletes)
                })
            })
            .collect();

        // Readers: submit query batches, check every answer for epoch
        // coherence (unique kNN ids, sorted distances), tally accounting.
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let service = Arc::clone(&service);
                let pts = &pts;
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(0x4ead ^ r as u64);
                    let (mut submitted, mut answered, mut rejected) = (0u64, 0u64, 0u64);
                    'outer: for _ in 0..2000 {
                        let mut tickets = Vec::with_capacity(16);
                        for _ in 0..16 {
                            let anchor = pts[rng.gen_range(0..pts.len())];
                            let pos: Vec<f32> = anchor
                                .0
                                .iter()
                                .map(|&c| c + rng.gen_range(-0.1f32..0.1))
                                .collect();
                            submitted += 1;
                            match service.submit(Query {
                                index: index_id,
                                pos,
                                kind: QueryKind::Knn { k: 8 },
                            }) {
                                Ok(t) => tickets.push(t),
                                Err(ServiceError::ShuttingDown) => {
                                    rejected += 1;
                                    // Accepted tickets still resolve.
                                    for t in &tickets {
                                        let res = t.wait().expect("accepted before close");
                                        check_coherent(&res, r);
                                        answered += 1;
                                    }
                                    break 'outer;
                                }
                                Err(e) => panic!("reader {r}: {e:?}"),
                            }
                        }
                        for t in &tickets {
                            let res = t.wait().expect("accepted queries resolve");
                            check_coherent(&res, r);
                            answered += 1;
                        }
                    }
                    (submitted, answered, rejected)
                })
            })
            .collect();

        // Let the churn overlap real merges, then close mid-stream.
        std::thread::sleep(Duration::from_millis(300));
        service.close();

        let (mut ins, mut del) = (0u64, 0u64);
        for w in writers {
            let (i, d) = w.join().unwrap();
            ins += i;
            del += d;
        }
        let (mut sub, mut ans, mut rej) = (0u64, 0u64, 0u64);
        for r in readers {
            let (s_, a, j) = r.join().unwrap();
            sub += s_;
            ans += a;
            rej += j;
        }
        (ins, del, sub, ans, rej)
    });

    // No lost or duplicated answers: every submission either resolved
    // exactly once or was rejected at the door.
    assert_eq!(q_answered + q_rejected, q_submitted);
    assert!(q_answered > 0, "close landed before any query resolved");
    assert!(ins_total > 0, "close landed before any mutation");

    // Close drained the merge machinery: nothing pending, every delta
    // merged, and the live multiset is exactly seed + inserts − deletes.
    assert_eq!(idx.pending(), 0, "close left deltas pending");
    let stats = idx.stats().expect_coherent(1024, ins_total, del_total);
    assert!(stats.merges > 0, "churn never produced a merge");

    // Post-close mutations are rejected deterministically.
    assert!(matches!(
        service.mutate(
            index_id,
            &[Mutation::Insert {
                pos: vec![0.0, 0.0, 0.0]
            }]
        ),
        Err(ServiceError::ShuttingDown)
    ));
    let snapshot = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("all threads joined"))
        .shutdown();
    assert_eq!(snapshot.completed, q_answered);
}

/// Epoch-coherence proxies on one answer: a torn shard set would surface
/// as duplicated ids (one point counted from two shard generations) or
/// unsorted merged distances.
fn check_coherent(res: &QueryResult, reader: usize) {
    let QueryResult::Knn { dist2, ids } = res else {
        panic!("reader {reader}: wrong result kind");
    };
    assert_eq!(dist2.len(), ids.len());
    let unique: HashSet<u32> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "reader {reader}: duplicate ids");
    for w in dist2.windows(2) {
        assert!(w[0] <= w[1], "reader {reader}: unsorted distances");
    }
}

trait StatsExt {
    fn expect_coherent(self, seed: u64, inserts: u64, deletes: u64) -> gts_service::EpochStats;
}

impl StatsExt for gts_service::EpochStats {
    fn expect_coherent(self, seed: u64, inserts: u64, deletes: u64) -> gts_service::EpochStats {
        assert_eq!(self.pending, 0);
        assert_eq!(self.live, seed + inserts - deletes, "live multiset drifted");
        assert_eq!(self.mutations, inserts + deletes);
        self
    }
}

// ---------------------------------------------------------------------
// Shutdown ordering: `Service::close` must flush pending deltas through
// a final merge (never silently dropping them) and reject later
// mutations deterministically.
// ---------------------------------------------------------------------

#[test]
fn close_flushes_pending_deltas_before_returning() {
    let pts = uniform::<3>(256, 0xd0d0);
    // A huge debounce keeps the background thread from merging on its
    // own: any merge observed below was forced by the close path.
    let idx = Arc::new(
        MutableIndexBuilder::new("live", 2)
            .merge_debounce(Duration::from_secs(3600))
            .build(&pts),
    );
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let id = service.register_index(Arc::clone(&idx) as Arc<dyn TreeIndex>);
    let ack = service
        .mutate(
            id,
            &[
                Mutation::Insert {
                    pos: vec![0.1, 0.2, 0.3],
                },
                Mutation::Delete { id: 7 },
            ],
        )
        .unwrap();
    assert_eq!(ack.pending, 2, "debounce must hold the deltas pending");
    assert_eq!(idx.merges(), 0);

    service.close();
    // The deltas were merged, not dropped: epoch advanced, live set
    // reflects both mutations, queries answer against the merged state.
    assert_eq!(idx.pending(), 0, "close dropped pending deltas");
    assert!(idx.merges() >= 1);
    assert!(idx.epoch() >= 1);
    assert_eq!(idx.n_points(), 256);
    let live_ids: HashSet<u32> = idx.live().iter().map(|&(id, _)| id).collect();
    assert!(!live_ids.contains(&7), "pending delete was dropped");
    assert!(live_ids.contains(&256), "pending insert was dropped");
    assert!(matches!(
        service.mutate(id, &[Mutation::Delete { id: 0 }]),
        Err(ServiceError::ShuttingDown)
    ));
    // Queries still flow after close()'s quiesce (close stops intake,
    // not the already-registered read path), and the flushed insert is
    // the zero-distance kNN answer at its own position.
    let out = idx.run_batch(
        OpKey::Knn(1),
        &[vec![0.1, 0.2, 0.3]],
        &ExecPolicy::forced(Backend::Cpu),
    );
    let QueryResult::Knn { dist2, ids } = &out.results[0] else {
        panic!("knn answered with a different op");
    };
    assert_eq!(dist2, &[0.0]);
    assert_eq!(ids, &[256], "the flushed insert answers exactly");
    drop(service);
}

// ---------------------------------------------------------------------
// Property tests for the delta/merge layer.
// ---------------------------------------------------------------------

/// Reference model: the live multiset as `(id, point)` pairs, maintained
/// naively.
fn naive_apply(
    pts: &[PointN<3>],
    script: &[(bool, usize)],
) -> (Vec<(u32, PointN<3>)>, Vec<Mutation>) {
    let mut next_id = pts.len() as u32;
    let mut live: Vec<(u32, PointN<3>)> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u32, p))
        .collect();
    let mut muts = Vec::new();
    for &(insert, x) in script {
        if insert || live.len() <= 1 {
            let p = PointN([
                (x % 97) as f32 / 97.0,
                (x % 89) as f32 / 89.0,
                (x % 83) as f32 / 83.0,
            ]);
            muts.push(Mutation::Insert { pos: p.0.to_vec() });
            live.push((next_id, p));
            next_id += 1;
        } else {
            let at = x % live.len();
            let (id, _) = live.remove(at);
            muts.push(Mutation::Delete { id });
        }
    }
    (live, muts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inserting any batch and then deleting exactly the assigned ids
    /// round-trips to the identity multiset — before and after the merge.
    #[test]
    fn insert_then_delete_roundtrips_to_identity(
        n_pts in 8usize..64,
        n_ins in 1usize..24,
        seed in 0u64..1_000_000,
        merge_between in 0u8..2,
    ) {
        let merge_between = merge_between == 1;
        let pts = uniform::<3>(n_pts, seed);
        let idx = MutableIndexBuilder::new("prop", 2)
            .auto_merge(false)
            .build(&pts);
        let before = idx.live();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let muts: Vec<Mutation> = (0..n_ins)
            .map(|_| Mutation::Insert {
                pos: (0..3).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
            })
            .collect();
        let ack = idx.mutate(&muts).unwrap();
        prop_assert_eq!(ack.assigned.len(), n_ins);
        if merge_between {
            idx.merge_now();
        }
        let dels: Vec<Mutation> = ack
            .assigned
            .iter()
            .map(|&id| Mutation::Delete { id })
            .collect();
        let ack = idx.mutate(&dels).unwrap();
        prop_assert_eq!(ack.accepted, n_ins as u64);
        prop_assert_eq!(ack.rejected, 0);
        prop_assert_eq!(idx.live(), before.clone());
        idx.merge_now();
        prop_assert_eq!(idx.live(), before);
    }

    /// Merging any delta sequence produces exactly the naive rebuild's
    /// multiset, and the merged tree answers like a flat build over it.
    #[test]
    fn merge_of_any_delta_sequence_equals_naive_rebuild(
        n_pts in 4usize..48,
        script_len in 1usize..40,
        seed in 0u64..1_000_000,
        split in 0usize..4,
    ) {
        let mut srng = ChaCha8Rng::seed_from_u64(seed ^ 0x5c819);
        let script: Vec<(bool, usize)> = (0..script_len)
            .map(|_| (srng.gen_range(0..2) == 0, srng.gen_range(0..1000usize)))
            .collect();
        let pts = uniform::<3>(n_pts, seed);
        let idx = MutableIndexBuilder::new("prop", 2)
            .auto_merge(false)
            .build(&pts);
        let (mut want_live, muts) = naive_apply(&pts, &script);
        // Split the script into up to `split`+1 batches with merges in
        // between — the multiset must be path-independent.
        let chunk = (muts.len() / (split + 1)).max(1);
        for batch in muts.chunks(chunk) {
            let ack = idx.mutate(batch).unwrap();
            prop_assert_eq!(ack.rejected, 0);
            idx.merge_now();
            prop_assert_eq!(idx.pending(), 0);
        }
        want_live.sort_by_key(|&(id, _)| id);
        prop_assert_eq!(idx.live(), want_live.clone());
        // And the merged tree is semantically the flat rebuild.
        if !want_live.is_empty() {
            let flat_pts: Vec<PointN<3>> = want_live.iter().map(|&(_, p)| p).collect();
            let flat = KdIndex::build("flat", &flat_pts, 8, SplitPolicy::MedianCycle);
            let cpu = ExecPolicy::forced(Backend::Cpu);
            let qs: Vec<Vec<f32>> = pts.iter().take(8).map(|p| p.0.to_vec()).collect();
            let want = flat.run_batch(OpKey::Knn(4), &qs, &cpu);
            let got = idx.run_batch(OpKey::Knn(4), &qs, &cpu);
            for (w, g) in want.results.iter().zip(&got.results) {
                let (QueryResult::Knn { dist2: wd, .. }, QueryResult::Knn { dist2: gd, .. }) =
                    (w, g)
                else {
                    panic!("knn answered with a different op");
                };
                prop_assert_eq!(wd.len(), gd.len());
                for (a, b) in wd.iter().zip(gd) {
                    prop_assert!(close(*a, *b), "{} vs {}", a, b);
                }
            }
        }
    }

    /// Morton re-splits during merge preserve the partition invariant:
    /// merged shards are disjoint, cover every live id, and are never
    /// empty — no matter how skewed the insert mix.
    #[test]
    fn resplit_preserves_partition_invariant(
        n_pts in 16usize..128,
        n_skew in 32usize..300,
        corner in 0u8..8,
        seed in 0u64..1_000_000,
    ) {
        let pts = uniform::<3>(n_pts, seed);
        let idx = MutableIndexBuilder::new("prop", 4)
            .auto_merge(false)
            .build(&pts);
        // Pour a skewed cluster into one octant corner.
        let base: Vec<f32> = (0..3)
            .map(|d| if corner >> d & 1 == 1 { 0.9 } else { -0.9 })
            .collect();
        let muts: Vec<Mutation> = (0..n_skew)
            .map(|i| Mutation::Insert {
                pos: base.iter().map(|&c| c + (i as f32) * 1e-5).collect(),
            })
            .collect();
        idx.mutate(&muts).unwrap();
        idx.merge_now();
        let mut seen = HashSet::new();
        let mut total = 0usize;
        for ids in idx.shard_ids() {
            prop_assert!(!ids.is_empty(), "empty merged shard");
            total += ids.len();
            for id in ids {
                prop_assert!(seen.insert(id), "id {} in two shards", id);
            }
        }
        prop_assert_eq!(total, n_pts + n_skew);
        let live_ids: HashSet<u32> = idx.live().iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(seen, live_ids);
    }
}
