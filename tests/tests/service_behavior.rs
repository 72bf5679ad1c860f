//! Behavioral tests for `gts-service`: batcher edge cases, shutdown
//! semantics, validation, backpressure, and the thread-safety contract.

use gts_apps::oracle;
use gts_integration::metering;
use gts_points::gen::uniform;
use gts_service::{
    Backend, ExecPolicy, KdIndex, Metrics, MetricsSnapshot, Query, QueryKind, QueryResult, Service,
    ServiceConfig, ServiceError, ShardedIndex, Ticket, TreeIndex,
};
use gts_trees::SplitPolicy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

fn small_service(cfg: ServiceConfig) -> (Service, Vec<gts_trees::PointN<3>>) {
    let pts = uniform::<3>(256, 77);
    let service = Service::start(cfg);
    let id = service.register_index(
        Arc::new(KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle)) as Arc<dyn TreeIndex>,
    );
    assert_eq!(id, 0);
    (service, pts)
}

fn nn_query(pos: [f32; 3]) -> Query {
    Query {
        index: 0,
        pos: pos.to_vec(),
        kind: QueryKind::Nn,
    }
}

#[test]
fn batch_smaller_than_one_warp_still_answers() {
    // Three queries, nowhere near the 32-lane warp or the size target:
    // only the deadline (or shutdown drain) can flush them.
    let (service, pts) = small_service(ServiceConfig {
        batch_queries: 256,
        max_wait: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| service.submit(nn_query(pts[i].0)).unwrap())
        .collect();
    // Resolved by the deadline flush — no shutdown needed.
    for (i, t) in tickets.iter().enumerate() {
        let QueryResult::Nn { dist2, .. } = t.wait().unwrap() else {
            panic!()
        };
        let want = oracle::nn_dist2_nonself(&pts, &pts[i]);
        assert!((dist2 - want).abs() <= 1e-5 * want.max(1e-6));
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 3);
    assert!(snapshot.max_batch_size <= 3);
}

#[test]
fn idle_deadlines_flush_nothing_and_shutdown_is_clean() {
    let (service, _) = small_service(ServiceConfig {
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    // Let several empty deadline cycles pass.
    std::thread::sleep(Duration::from_millis(20));
    let snapshot = service.shutdown();
    assert_eq!(snapshot.batches, 0);
    assert_eq!(snapshot.submitted, 0);
}

#[test]
fn k_exceeding_index_size_truncates_like_the_oracle() {
    let (service, pts) = small_service(ServiceConfig {
        max_wait: Duration::from_millis(2),
        ..ServiceConfig::default()
    });
    let q = Query {
        index: 0,
        pos: pts[0].0.to_vec(),
        kind: QueryKind::Knn { k: 10 * pts.len() },
    };
    let QueryResult::Knn { dist2, ids } = service.query(q).unwrap() else {
        panic!()
    };
    assert_eq!(dist2.len(), pts.len(), "every point is a neighbor");
    assert_eq!(ids.len(), pts.len());
    let want = oracle::knn_dists(&pts, &pts[0], 10 * pts.len());
    for (got, want) in dist2.iter().zip(&want) {
        assert!((got - want).abs() <= 1e-5 * want.max(1e-6));
    }
    service.shutdown();
}

#[test]
fn shutdown_with_in_flight_queries_delivers_all_results() {
    // Size target never reached, deadline far away: everything is still
    // in the batcher's buckets when shutdown starts. The drain must
    // deliver every result — and shutdown must not deadlock.
    let (service, pts) = small_service(ServiceConfig {
        batch_queries: 4096,
        max_wait: Duration::from_secs(3600),
        workers: 2,
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..200)
        .map(|i| service.submit(nn_query(pts[i % pts.len()].0)).unwrap())
        .collect();
    assert!(
        tickets.iter().all(|t| t.try_get().is_none()),
        "nothing should have flushed yet"
    );
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 200, "drain resolved every query");
    for t in &tickets {
        assert!(matches!(t.try_get(), Some(Ok(_))));
    }
}

#[test]
fn concurrent_submitters_under_tight_backpressure() {
    // A one-slot dispatch queue forces flushing submitters to block on
    // send; the pipeline must keep moving and deliver everything.
    let (service, pts) = small_service(ServiceConfig {
        dispatch_capacity: 1,
        batch_queries: 32,
        max_wait: Duration::from_millis(1),
        workers: 2,
        ..ServiceConfig::default()
    });
    std::thread::scope(|scope| {
        for c in 0..4 {
            let service = &service;
            let pts = &pts;
            scope.spawn(move || {
                for i in 0..50 {
                    let p = pts[(c * 37 + i * 11) % pts.len()];
                    let QueryResult::Nn { dist2, .. } = service.query(nn_query(p.0)).unwrap()
                    else {
                        panic!()
                    };
                    assert!(dist2.is_finite());
                }
            });
        }
    });
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 200);
}

#[test]
fn submissions_after_shutdown_are_rejected_not_hung() {
    let (service, pts) = small_service(ServiceConfig::default());
    let t = service.submit(nn_query(pts[0].0)).unwrap();
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 1);
    assert!(t.try_get().is_some());
    // The service is consumed by shutdown; a new handle can't exist. The
    // rejection path is covered through validation errors below.
}

#[test]
fn validation_rejects_bad_queries_with_specific_errors() {
    let (service, pts) = small_service(ServiceConfig::default());
    let err = service
        .submit(Query {
            index: 9,
            pos: vec![0.0; 3],
            kind: QueryKind::Nn,
        })
        .unwrap_err();
    assert_eq!(err, ServiceError::UnknownIndex(9));

    let err = service
        .submit(Query {
            index: 0,
            pos: vec![0.0; 2],
            kind: QueryKind::Nn,
        })
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::DimMismatch {
            expected: 3,
            got: 2
        }
    );

    let err = service
        .submit(Query {
            index: 0,
            pos: vec![0.0; 3],
            kind: QueryKind::Knn { k: 0 },
        })
        .unwrap_err();
    assert!(matches!(err, ServiceError::BadQuery(_)));

    let err = service
        .submit(Query {
            index: 0,
            pos: vec![f32::NAN, 0.0, 0.0],
            kind: QueryKind::Nn,
        })
        .unwrap_err();
    assert!(matches!(err, ServiceError::BadQuery(_)));

    let err = service
        .submit(Query {
            index: 0,
            pos: vec![0.0; 3],
            kind: QueryKind::Pc {
                radius: f32::INFINITY,
            },
        })
        .unwrap_err();
    assert!(matches!(err, ServiceError::BadQuery(_)));

    // Valid work still flows after rejections.
    let ok = service.query(nn_query(pts[1].0)).unwrap();
    assert!(matches!(ok, QueryResult::Nn { .. }));
    let snapshot = service.shutdown();
    assert_eq!(snapshot.rejected, 5);
    assert_eq!(snapshot.completed, 1);
}

#[test]
fn forced_cpu_backend_serves_queries_too() {
    let pts = uniform::<3>(128, 99);
    let service = Service::start(ServiceConfig {
        policy: ExecPolicy::forced(Backend::Cpu),
        max_wait: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    service.register_index(
        Arc::new(KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle)) as Arc<dyn TreeIndex>,
    );
    let QueryResult::Pc { count } = service
        .query(Query {
            index: 0,
            pos: pts[3].0.to_vec(),
            kind: QueryKind::Pc { radius: 0.3 },
        })
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(count, oracle::pc_count(&pts, &pts[3], 0.3));
    let snapshot = service.shutdown();
    assert_eq!(
        snapshot.backend_batches[Backend::Cpu.index()].batches,
        snapshot.batches
    );
    assert_eq!(
        snapshot.model_ms, 0.0,
        "CPU backend has no modeled GPU time"
    );
}

/// DESIGN.md §8 **Determinism**: with one submitter and size-only flushes
/// the batch composition is a function of the seed, so every modeled total
/// is too — and so is the subset of batches the model covers — even with
/// workers racing. The same stream shows what batching buys: one launch
/// per query costs several times the modeled time.
#[test]
fn modeled_totals_are_a_function_of_the_seed_and_batching_beats_single_launches() {
    let pts = uniform::<3>(512, 77);
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let stream: Vec<Query> = (0..384)
        .map(|_| {
            let anchor = pts[rng.gen_range(0..pts.len())];
            Query {
                index: 0,
                pos: (anchor.0.iter())
                    .map(|&c| c + rng.gen_range(-0.03f32..0.03))
                    .collect(),
                kind: match rng.gen_range(0..10u32) {
                    0..=4 => QueryKind::Nn,
                    5..=7 => QueryKind::Knn { k: 8 },
                    _ => QueryKind::Pc { radius: 0.07 },
                },
            }
        })
        .collect();
    // A fresh index per run: a sharded index carries its profile caches.
    let build = |shards: usize| -> Arc<dyn TreeIndex> {
        if shards == 1 {
            Arc::new(KdIndex::build("t", &pts, 8, SplitPolicy::MedianCycle))
        } else {
            Arc::new(ShardedIndex::build(
                "t",
                &pts,
                shards,
                8,
                SplitPolicy::MedianCycle,
            ))
        }
    };
    let serve = |workers: usize, shards: usize, profile_seed: u64| -> MetricsSnapshot {
        let service = Service::start(ServiceConfig {
            batch_queries: 64,
            max_wait: Duration::from_secs(3600),
            workers,
            policy: ExecPolicy {
                profile_seed,
                ..ExecPolicy::default()
            },
            ..ServiceConfig::default()
        });
        service.register_index(build(shards));
        let tickets: Vec<Ticket> = (stream.iter())
            .map(|q| service.submit(q.clone()).unwrap())
            .collect();
        let snapshot = service.shutdown();
        assert!(tickets.iter().all(|t| matches!(t.try_get(), Some(Ok(_)))));
        snapshot
    };
    // One worker on the sharded index: two would race on its profile
    // caches, and the backend choice — so the modeled totals — would
    // depend on who won.
    for (workers, shards) in [(2, 1), (1, 4)] {
        // The first seed, from the default upward, whose metered subset
        // holds one of this stream's batches.
        let mut seed = ExecPolicy::default().profile_seed;
        let a = loop {
            let a = serve(workers, shards, seed);
            if a.metered_batches > 0 {
                break a;
            }
            seed += 1;
        };
        let b = serve(workers, shards, seed);
        let ctx = format!("{workers} worker(s), {shards} shard(s), seed {seed:#x}");
        assert!(a.metered_batches < a.batches, "{ctx}: a subset, not all");
        assert_eq!(a.metered_batches, b.metered_batches, "{ctx}: metered");
        assert_eq!(a.metered_queries, b.metered_queries, "{ctx}: metered");
        assert!(a.model_ms > 0.0, "{ctx}: nothing ran on a modeled backend");
        assert_eq!(
            a.model_ms.to_bits(),
            b.model_ms.to_bits(),
            "{ctx}: model_ms"
        );
        assert_eq!(a.node_visits, b.node_visits, "{ctx}: node_visits");
        assert_eq!(a.shards_pruned, b.shards_pruned, "{ctx}: shards_pruned");
        assert_eq!(a.backend_batches, b.backend_batches, "{ctx}: backends");

        // Every single launch metered, then scaled to the share of the
        // stream the batched total covers.
        let index = build(shards);
        let single_ms: f64 = (stream.iter())
            .map(|q| {
                let op = q.kind.op_key().expect("valid kinds");
                let one = std::slice::from_ref(&q.pos);
                let policy = metering(ExecPolicy::forced(Backend::Autoropes), one);
                index.run_batch(op, one, &policy).model_ms
            })
            .sum();
        let single_ms = single_ms * a.metered_queries as f64 / stream.len() as f64;
        assert!(
            single_ms > 2.0 * a.model_ms,
            "{ctx}: one launch per query {single_ms:.2} modeled ms vs {:.2} batched",
            a.model_ms
        );
    }
}

/// The CPU walk has no meter: a service forced onto it models nothing, and
/// says so with empty model histograms rather than one 0 ms sample per
/// batch — while each index still counts its batches.
#[test]
fn cpu_batches_leave_the_model_histograms_empty() {
    let (service, pts) = small_service(ServiceConfig {
        batch_queries: 32,
        max_wait: Duration::from_secs(3600),
        policy: ExecPolicy::forced(Backend::Cpu),
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..160)
        .map(|i| service.submit(nn_query(pts[i].0)).unwrap())
        .collect();
    let s = service.shutdown();
    assert!(tickets.iter().all(|t| matches!(t.try_get(), Some(Ok(_)))));
    assert_eq!(s.batches, 5);
    assert_eq!((s.metered_batches, s.metered_queries), (0, 0));
    assert_eq!(s.model_ms_hist.count, 0, "no batch was modeled");
    assert_eq!(s.per_index[0].model_ms_hist.count, 0);
    assert_eq!(s.per_index[0].batches, s.batches);
}

#[test]
fn admission_rejects_with_predicted_wait_instead_of_stalling() {
    // Deadline far away so parked queries can only flush by size (or the
    // shutdown drain); budget of 1ns so any nonzero modeled wait rejects.
    let budget = Duration::from_nanos(1);
    let (service, pts) = small_service(ServiceConfig {
        batch_queries: 64,
        max_wait: Duration::from_secs(3600),
        admission_budget: Some(budget),
        ..ServiceConfig::default()
    });

    // Phase 1 — seed the EWMA model: exactly one size-triggered flush.
    // With no completed batches yet, the model predicts zero wait and
    // everything is admitted.
    let tickets: Vec<Ticket> = (0..64)
        .map(|i| service.submit(nn_query(pts[i % pts.len()].0)).unwrap())
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }

    // Phase 2 — queue one query (parks in the batcher, depth = 1), then
    // every further submission sees a modeled wait above the 1ns budget.
    let parked = service.submit(nn_query(pts[0].0)).unwrap();
    let err = service.submit(nn_query(pts[1].0)).unwrap_err();
    let ServiceError::Overloaded {
        predicted_wait,
        budget: got_budget,
    } = err
    else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert!(
        predicted_wait > Duration::ZERO,
        "rejection carries the model"
    );
    assert_eq!(got_budget, budget);

    // Rejected callers return immediately; admitted work still completes
    // (the shutdown drain flushes the parked query) — never a stall.
    let snapshot = service.shutdown();
    assert!(matches!(parked.try_get(), Some(Ok(_))));
    assert_eq!(snapshot.completed, 65);
    assert_eq!(snapshot.admission_rejected, 1);
    assert_eq!(snapshot.rejected, 1);
}

/// The worker pool's thread-safety contract, enforced at compile time:
/// everything shared across service threads is `Send + Sync`, and the
/// traversal kernels themselves can be shared by the simulation's host
/// threads.
#[test]
fn service_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Service>();
    assert_send_sync::<Ticket>();
    assert_send_sync::<Query>();
    assert_send_sync::<QueryResult>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<KdIndex<3>>();
    assert_send_sync::<Arc<dyn TreeIndex>>();
    assert_send_sync::<gts_apps::nn::NnKernel<'_, 3>>();
    assert_send_sync::<gts_apps::knn::KnnKernel<'_, 3>>();
    assert_send_sync::<gts_apps::pc::PcKernel<'_, 3>>();
}
