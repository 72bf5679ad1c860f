//! Live index mutation: a [`MutableIndex`](gts_service::MutableIndex)
//! answers exactly like brute force over the live points in every
//! pending-delta window and every epoch, across shard counts × backends ×
//! wave-pool sizes. Plus: at rest it serves a sharded index's record, a
//! writer/reader churn stress with a mid-stream `Service::close` loses
//! nothing, `close` flushes pending deltas, and property tests for the
//! delta/merge layer.

use gts_integration::{each, queries, records, run, Ask, Config, Kind, Path, Script, Step, MENU};
use gts_points::gen::uniform;
use gts_service::{
    Backend, ExecPolicy, MutableIndexBuilder, Mutation, OpKey, QueryResult, Service, ServiceConfig,
    ServiceError, TreeIndex,
};
use gts_trees::PointN;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

const N_POINTS: usize = 1200;
const OPS: [OpKey; 3] = [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.15f32.to_bits())];

/// Queries around three mutation batches: a window merged at once, then
/// two batches stacked into one window (a delete of the previous batch's
/// pending insert hits the insert-then-delete cancellation), each delete
/// batch also aimed at what the last queries answered with.
fn churn(script: Script<3>) -> Script<3> {
    let q = |s: Script<3>| s.queries(320, Ask::All(&OPS));
    let s = q(script);
    let s = q(s.mutate(30, 20)).then(Step::Merge);
    let s = q(q(s).mutate(30, 20));
    let s = q(s.mutate(30, 20)).then(Step::Merge);
    q(q(s).then(Step::Close))
}

#[test]
fn a_mutable_index_answers_like_brute_force_in_every_window_and_epoch() {
    let pts = uniform::<3>(N_POINTS, 0x11fe);
    let script = churn(Script::new(0xab5eed, pts.clone()));
    // Built over no points at all and grown from inserts: zero shards
    // first, every answer from the deltas.
    let grown = Script::new(0xab5eed, Vec::new()).insert(&pts);
    let grown = churn(grown.queries(320, Ask::All(&OPS)).then(Step::Merge));
    let base = Config::new(Kind::Mutable, Path::Direct);
    let mut points = vec![];
    for (script, shards) in [(&script, 1), (&script, 2), (&script, 8), (&grown, 4)] {
        for force in [Backend::Autoropes, Backend::Lockstep, Backend::StacklessKd] {
            for threads in [1, 2, shards].into_iter().take(2 + (shards > 2) as usize) {
                points.push((script, base.at(shards, threads, Some(force))));
            }
        }
    }
    each(&points, |(script, cfg)| run(script, cfg));
}

/// A mutable index at rest (nothing pending) holds the same Morton shards
/// a `ShardedIndex` over the same points holds, and so serves the very
/// record the sharded index serves — batch for batch. A metered batch's
/// record is a function of its lanes and its index's points alone, so a
/// repeat run of it serves the first run's record on either index.
#[test]
fn a_mutable_index_at_rest_serves_a_sharded_indexs_record() {
    let mut script = Script::new(0xca11, uniform::<3>(4096, 0x5eed));
    let asks = (OPS.iter().map(std::slice::from_ref).map(Ask::All)).chain([Ask::Any(&OPS)]);
    for ask in asks.collect::<Vec<_>>() {
        let lanes = script.lanes(320, ask);
        script = script
            .then(Step::Query(lanes.clone()))
            .then(Step::Query(lanes));
    }
    for threads in [1, 2] {
        // Every batch metered: only a metered batch profiles.
        let at = |kind| Config {
            meter: Some(true),
            ..Config::new(kind, Path::Direct).at(4, threads, None)
        };
        let want = records(&script, &at(Kind::Sharded));
        assert!(
            records(&script, &at(Kind::Mutable)) == want,
            "{threads} threads"
        );
        let repeats = want.chunks(2).all(|run| run[0] == run[1]);
        assert!(repeats, "{threads} threads: a repeat moved the record");
    }
}

/// Eight writers churn insert/delete batches (deleting only ids they
/// inserted) and eight readers stream kNN queries, until a mid-stream
/// `Service::close`: every submission resolves once or is refused at the
/// door, every answer is epoch-coherent, and the close drains the merge
/// machinery — nothing pending, the live count exactly seed + inserts −
/// deletes, and later mutations refused.
#[test]
fn churn_stress_mid_close_loses_nothing_and_epochs_stay_coherent() {
    let pts = uniform::<3>(1024, 0x57e55);
    let idx = Arc::new(MutableIndexBuilder::new("live", 4).build(&pts));
    let service = Service::start(ServiceConfig {
        max_wait: Duration::from_millis(1),
        workers: 2,
        ..ServiceConfig::default()
    });
    let id = service.register_index(Arc::clone(&idx) as Arc<dyn TreeIndex>);
    let ([inserted, deleted], [asked, answered]) = std::thread::scope(|s| {
        let (service, gen) = (&service, |seed| Script::new(seed, pts.clone()));
        let writers: Vec<_> = (0..8u64)
            .map(|w| gen(0xa110 ^ w))
            .map(|gen| s.spawn(move || writer(service, id, gen)))
            .collect();
        let readers: Vec<_> = (0..8u64)
            .map(|r| gen(0x4ead ^ r))
            .map(|gen| s.spawn(move || reader(service, gen)))
            .collect();
        // Let the churn overlap real merges, then close mid-stream.
        std::thread::sleep(Duration::from_millis(300));
        service.close();
        let add = |a: [u64; 2], h: ScopedJoinHandle<[u64; 2]>| {
            let t = h.join().unwrap();
            [a[0] + t[0], a[1] + t[1]]
        };
        let sum = |t: Vec<_>| t.into_iter().fold([0, 0], add);
        (sum(writers), sum(readers))
    });
    let m = service.metrics();
    let balance = (m.submitted, m.completed, m.failed, m.rejected);
    let want = (answered, answered, 0, asked - answered);
    assert_eq!(balance, want, "lost or duplicated");
    assert!(m.completed > 0 && inserted > 0, "the close landed first");
    let stats = idx.stats();
    let drift = (stats.pending, stats.live, stats.mutations);
    let want = (0, 1024 + inserted - deleted, inserted + deleted);
    assert_eq!(drift, want, "pending, live and applied after the close");
    assert!(stats.merges > 0, "churn never produced a merge");
    let late = service.mutate(id, &[Mutation::Insert { pos: vec![0.0; 3] }]);
    closed(late.expect_err("a mutation after the close"));
}

fn closed(e: ServiceError) {
    assert!(matches!(e, ServiceError::ShuttingDown), "{e:?}");
}

/// Insert/delete batches, deleting only ids this writer inserted, until
/// the close: the inserts and deletes applied.
fn writer(service: &Service, id: usize, mut gen: Script<3>) -> [u64; 2] {
    let (mut owned, mut tally) = (Vec::new(), [0u64; 2]);
    for round in 0..4000 {
        let insert = |_| Mutation::Insert {
            pos: gen.position(),
        };
        let mut muts: Vec<_> = (0..4).map(insert).collect();
        for at in [round, round / 2] {
            if owned.len() > 4 {
                let id = owned.swap_remove(at % owned.len());
                muts.push(Mutation::Delete { id });
            }
        }
        // A batch is all-or-nothing: every insert and every live delete
        // applied.
        let Ok(ack) = service.mutate(id, &muts).map_err(closed) else {
            break;
        };
        let counts = (ack.accepted as usize, ack.rejected, ack.assigned.len());
        assert_eq!(counts, (muts.len(), 0, 4));
        owned.extend(&ack.assigned);
        tally = [tally[0] + 4, tally[1] + muts.len() as u64 - 4];
    }
    tally
}

/// kNN queries, sixteen at a time, until the close: the queries asked and
/// answered. Accepted tickets resolve, the close or not, and every answer
/// is epoch-coherent: a torn shard set would surface as duplicated ids
/// (one point counted from two shard generations) or unsorted distances.
fn reader(service: &Service, mut gen: Script<3>) -> [u64; 2] {
    let mut tally = [0u64; 2];
    while tally[0] == tally[1] && tally[0] < 32_000 {
        let lanes = gen.lanes(16, Ask::All(&[OpKey::Knn(8)]));
        let tickets: Vec<_> = queries(&lanes)
            .into_iter()
            .map(|q| service.submit(q))
            .collect();
        tally[0] += tickets.len() as u64;
        for t in tickets {
            let Ok(t) = t.map_err(closed) else { continue };
            let res = t.wait().expect("accepted queries resolve");
            let QueryResult::Knn { dist2, ids } = &res else {
                panic!("{res:?} answers a kNN query");
            };
            let unique: HashSet<u32> = ids.iter().copied().collect();
            let sorted = dist2.windows(2).all(|w| w[0] <= w[1]);
            assert!(
                sorted && unique.len() == ids.len() && ids.len() == dist2.len(),
                "{res:?}"
            );
            tally[1] += 1;
        }
    }
    tally
}

/// `Service::close` flushes pending deltas through a final merge (never
/// silently dropping them), rejects later mutations, and reads still flow:
/// the flushed insert is the zero-distance kNN answer at its position.
#[test]
fn close_flushes_pending_deltas_before_returning() {
    // Two deltas on 256 points sit below the merge share, so the
    // background thread never wakes on its own: any merge observed below
    // was forced by the close path.
    let idx = MutableIndexBuilder::new("live", 2).build(&uniform::<3>(256, 0xd0d0));
    let idx = Arc::new(idx);
    let service = Service::start(ServiceConfig::default());
    let id = service.register_index(Arc::clone(&idx) as Arc<dyn TreeIndex>);
    let at = vec![0.1, 0.2, 0.3];
    let muts = [
        Mutation::Insert { pos: at.clone() },
        Mutation::Delete { id: 7 },
    ];
    let ack = service.mutate(id, &muts).unwrap();
    assert_eq!(
        (ack.pending, idx.merges()),
        (2, 0),
        "the share must hold the deltas pending"
    );
    service.close();
    assert_eq!(idx.pending(), 0, "close dropped pending deltas");
    assert!(idx.merges() >= 1 && idx.epoch() >= 1);
    let live: HashSet<u32> = idx.live().iter().map(|&(id, _)| id).collect();
    assert!(!live.contains(&7) && live.contains(&256) && live.len() == 256);
    let late = service.mutate(id, &[Mutation::Delete { id: 0 }]);
    assert!(matches!(late, Err(ServiceError::ShuttingDown)));
    let out = idx.run_batch(OpKey::Knn(1), &[at], &ExecPolicy::forced(Backend::Cpu));
    let (dist2, ids) = (vec![0.0], vec![256]);
    assert_eq!(out.results, [QueryResult::Knn { dist2, ids }]);
}

/// A mutable index, entered directly, with every batch forced onto the
/// host walk.
fn direct(shards: usize) -> Config {
    Config::new(Kind::Mutable, Path::Direct).at(shards, 1, Some(Backend::Cpu))
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
        let mut gen = Script::new(seed, uniform::<3>(n_pts, seed));
        let idx = MutableIndexBuilder::new("prop", 2)
            .auto_merge(false)
            .build(&gen.points);
        let before = idx.live();
        let muts: Vec<Mutation> = (0..n_ins)
            .map(|_| Mutation::Insert { pos: gen.position() })
            .collect();
        let ack = idx.mutate(&muts).unwrap();
        prop_assert_eq!(ack.assigned.len(), n_ins);
        if merge_between == 1 {
            idx.merge_now();
        }
        let dels: Vec<Mutation> = (ack.assigned.iter())
            .map(|&id| Mutation::Delete { id })
            .collect();
        let ack = idx.mutate(&dels).unwrap();
        prop_assert_eq!((ack.accepted, ack.rejected), (n_ins as u64, 0));
        prop_assert_eq!(idx.live(), before.clone());
        idx.merge_now();
        prop_assert_eq!(idx.live(), before);
    }

    /// Merging any sequence of delta batches leaves exactly the model's
    /// multiset — the harness holds the index to it at every merge — and
    /// the merged trees answer like brute force over it.
    #[test]
    fn merge_of_any_delta_sequence_equals_naive_rebuild(
        n_pts in 4usize..48,
        batches in 1usize..5,
        inserts in 0usize..12,
        deletes in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut script = Script::new(seed, uniform::<3>(n_pts, seed));
        for _ in 0..batches {
            script = script.mutate(inserts, deletes).then(Step::Merge).queries(8, Ask::Any(&MENU));
        }
        run(&script, &direct(2));
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
        // Pour a skewed cluster into one octant corner.
        let at = |i: usize| PointN(std::array::from_fn(|d| {
            (if corner >> d & 1 == 1 { 0.9 } else { -0.9 }) + i as f32 * 1e-5
        }));
        let cluster: Vec<PointN<3>> = (0..n_skew).map(at).collect();
        let script = Script::new(seed, uniform::<3>(n_pts, seed)).insert(&cluster).then(Step::Merge);
        run(&script, &direct(4));
    }
}

/// `Service::mutate` refuses a NaN or wrong-dimension insert, alone or
/// among good mutations, and any mutation of a static index, with its
/// typed error and nothing applied; each index then answers its script.
#[test]
fn a_bad_mutation_is_refused_whole_and_the_index_answers_on() {
    let script = churn(Script::new(0xbad0, uniform::<3>(512, 0xbad0)));
    gts_integration::bad_mutations_are_refused(&script, Path::Service);
}
