//! Minimal `gts-service` walkthrough: register two indices, submit a mixed
//! set of queries from several client threads, then read the metrics.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use gpu_tree_traversals::service::{
    Backend, KdIndex, Query, QueryKind, QueryResult, Service, ServiceConfig, TreeIndex,
};
use gpu_tree_traversals::trees::SplitPolicy;
use gts_points::gen::{geocity_like, uniform};
use std::sync::Arc;

fn main() {
    let service = Service::start(ServiceConfig::default());

    // Two indices of different dimension; queries name them by id.
    let pts3 = uniform::<3>(2000, 7);
    let pts2 = geocity_like(2000, 8);
    let cube =
        service.register_index(
            Arc::new(KdIndex::build("cube", &pts3, 8, SplitPolicy::MedianCycle))
                as Arc<dyn TreeIndex>,
        );
    let cities = service.register_index(Arc::new(KdIndex::build(
        "cities",
        &pts2,
        8,
        SplitPolicy::MidpointWidest,
    )) as Arc<dyn TreeIndex>);

    // Four concurrent clients, each submitting a burst of queries near its
    // own corner of the data — the batcher coalesces across clients.
    std::thread::scope(|scope| {
        for client in 0..4 {
            let service = &service;
            let pts3 = &pts3;
            let pts2 = &pts2;
            scope.spawn(move || {
                for i in 0..64 {
                    let (query, label) = if (client + i) % 2 == 0 {
                        let p = pts3[(client * 97 + i * 13) % pts3.len()];
                        (
                            Query {
                                index: cube,
                                pos: p.0.to_vec(),
                                kind: QueryKind::Knn { k: 4 },
                            },
                            "cube knn",
                        )
                    } else {
                        let p = pts2[(client * 71 + i * 29) % pts2.len()];
                        (
                            Query {
                                index: cities,
                                pos: p.0.to_vec(),
                                kind: QueryKind::Pc { radius: 0.5 },
                            },
                            "cities pc",
                        )
                    };
                    let result = service.query(query).expect("query succeeds");
                    if i == 0 {
                        match result {
                            QueryResult::Knn { dist2, .. } => {
                                println!("client {client}: {label} → {} neighbors", dist2.len())
                            }
                            QueryResult::Pc { count } => {
                                println!("client {client}: {label} → {count} in radius")
                            }
                            QueryResult::Nn { dist2, id } => {
                                println!("client {client}: {label} → id {id} at d2 {dist2}")
                            }
                        }
                    }
                }
            });
        }
    });

    let snapshot = service.shutdown();
    println!(
        "\n{} queries in {} batches ({} host walk / {} lockstep / {} autoropes), p99 {:.2} ms",
        snapshot.completed,
        snapshot.batches,
        snapshot.backend_batches[Backend::Cpu.index()].batches,
        snapshot.backend_batches[Backend::Lockstep.index()].batches,
        snapshot.backend_batches[Backend::Autoropes.index()].batches,
        snapshot.latency_p99_ms
    );
    println!("\nmetrics JSON:\n{}", snapshot.to_json());
}
