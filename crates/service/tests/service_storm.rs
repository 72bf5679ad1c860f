//! Concurrency/robustness tests: a multi-threaded submit storm against a
//! sharded index, with the service closed mid-stream.
//!
//! The invariants under test:
//! * every `submit` either returns a ticket that eventually resolves `Ok`,
//!   or a clean [`ServiceError::ShuttingDown`] — no hangs, no lost tickets;
//! * after `close()`, fresh submits fail fast instead of blocking;
//! * the final metrics balance: `submitted == accepted == completed` and
//!   `rejected` counts exactly the refused submissions.

use gts_points::gen::uniform;
use gts_service::{
    Query, QueryKind, QueryResult, Service, ServiceConfig, ServiceError, ShardedIndex, Ticket,
};
use gts_trees::SplitPolicy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 8;
const PER_THREAD: usize = 200;

fn storm_service() -> (Service, usize) {
    // Small queue + small batches + short max_wait: the queue actually
    // fills, flushes race the close, and the storm finishes quickly.
    let service = Service::start(ServiceConfig {
        batch_queries: 16,
        max_wait: Duration::from_micros(300),
        workers: 2,
        dispatch_capacity: 4,
        ..ServiceConfig::default()
    });
    let pts = uniform::<3>(2048, 0xdead);
    let id = service.register_index(Arc::new(ShardedIndex::build(
        "storm",
        &pts,
        4,
        8,
        SplitPolicy::MedianCycle,
    )));
    (service, id)
}

fn query(index: usize, t: usize, i: usize) -> Query {
    let f = |x: usize| (x as f32 * 0.137).fract() * 2.0 - 1.0;
    Query {
        index,
        pos: vec![f(t * 7919 + i), f(t * 104729 + i), f(i * 31 + t)],
        kind: match i % 3 {
            0 => QueryKind::Nn,
            1 => QueryKind::Knn { k: 4 },
            _ => QueryKind::Pc { radius: 0.2 },
        },
    }
}

#[test]
fn submit_storm_with_midstream_close_loses_no_ticket() {
    let (service, id) = storm_service();
    let rejected = AtomicU64::new(0);
    let tickets: Vec<Ticket> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = &service;
                let rejected = &rejected;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        match service.submit(query(id, t, i)) {
                            Ok(ticket) => mine.push(ticket),
                            Err(ServiceError::ShuttingDown) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    mine
                })
            })
            .collect();
        // Cut the stream while submitters are mid-flight. Sleeping a hair
        // first lets some submissions land so both sides of the race are
        // exercised (accepted-then-drained and refused).
        std::thread::sleep(Duration::from_millis(2));
        service.close();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let accepted = tickets.len() as u64;
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(accepted + rejected, (THREADS * PER_THREAD) as u64);

    // Post-close submits must fail fast — a hang here would time the
    // whole suite out, which is exactly the regression this guards.
    assert_eq!(
        service.submit(query(id, 0, 0)).unwrap_err(),
        ServiceError::ShuttingDown
    );

    let snapshot = service.shutdown();

    // Every accepted ticket resolves Ok after shutdown — none lost, none
    // poisoned by the close.
    for (i, ticket) in tickets.iter().enumerate() {
        let result = ticket.wait().unwrap_or_else(|e| panic!("ticket {i}: {e}"));
        match result {
            QueryResult::Nn { id, .. } => assert_ne!(id, u32::MAX),
            QueryResult::Knn { dist2, ids } => {
                assert_eq!(dist2.len(), 4);
                assert_eq!(ids.len(), 4);
            }
            QueryResult::Pc { .. } => {}
        }
    }

    assert_eq!(snapshot.submitted, accepted);
    assert_eq!(snapshot.completed, accepted);
    // `rejected` also counts the probe submit above.
    assert_eq!(snapshot.rejected, rejected + 1);
}

#[test]
fn drain_after_storm_resolves_every_ticket_in_order() {
    // No mid-stream close: all submissions are accepted, and shutdown's
    // drain guarantee means every ticket is already resolved when it
    // returns (wait() never blocks).
    let (service, id) = storm_service();
    let tickets: Vec<Vec<Ticket>> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|i| {
                            service
                                .submit(query(id, t, i))
                                .expect("no close => accepted")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let snapshot = service.shutdown();
    assert_eq!(snapshot.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(snapshot.completed, snapshot.submitted);
    assert_eq!(snapshot.rejected, 0);
    assert!(snapshot.batches > 0);
    assert!(snapshot.shards_pruned > 0, "sharded storm should prune");

    for thread_tickets in &tickets {
        for ticket in thread_tickets {
            assert!(
                ticket.try_get().is_some(),
                "shutdown returned with an unresolved ticket"
            );
            ticket.wait().expect("accepted query must resolve Ok");
        }
    }
}

#[test]
fn close_is_idempotent_and_query_reports_shutdown() {
    let (service, id) = storm_service();
    service
        .query(query(id, 0, 0))
        .expect("live service answers");
    service.close();
    service.close(); // second close is a no-op, not a panic
    assert_eq!(
        service.query(query(id, 0, 1)).unwrap_err(),
        ServiceError::ShuttingDown
    );
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 1);
    assert_eq!(snapshot.rejected, 1);
}
