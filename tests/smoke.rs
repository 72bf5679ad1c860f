//! Tier-1 smoke test of the serving path: the root `cargo test -q` starts
//! a service, registers one index of each kind, streams mixed NN / kNN /
//! PC queries at them with one mutation batch mid-stream, and checks
//! every answer against the brute-force oracle.

use gpu_tree_traversals::apps::oracle;
use gpu_tree_traversals::points::gen::uniform;
use gpu_tree_traversals::service::{
    KdIndex, MetricsSnapshot, MutableIndex, Mutation, Query, QueryKind, QueryResult, Service,
    ServiceConfig, ShardedIndex, Ticket,
};
use gpu_tree_traversals::trees::{PointN, SplitPolicy};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 4;
const RADIUS: f32 = 0.2;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1e-6) || (a.is_infinite() && b.is_infinite())
}

/// NN + kNN + PC at each of `positions` against `index`; the answers must
/// be the oracle's over `live`. Returns them in submission order.
fn stream(
    service: &Service,
    index: usize,
    positions: &[PointN<3>],
    live: &[PointN<3>],
) -> Vec<QueryResult> {
    let kinds = [
        QueryKind::Nn,
        QueryKind::Knn { k: K },
        QueryKind::Pc { radius: RADIUS },
    ];
    let tickets: Vec<(PointN<3>, Ticket)> = (positions.iter())
        .flat_map(|&q| kinds.map(|kind| (q, kind)))
        .map(|(q, kind)| {
            let query = Query {
                index,
                pos: q.0.to_vec(),
                kind,
            };
            (q, service.submit(query).expect("accepted"))
        })
        .collect();
    let mut answers = Vec::with_capacity(tickets.len());
    for (q, ticket) in &tickets {
        let answer = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("ticket resolved")
            .expect("query answered");
        match &answer {
            QueryResult::Nn { dist2, .. } => {
                let want = oracle::nn_dist2_nonself(live, q);
                assert!(close(*dist2, want), "index {index}: nn {dist2} vs {want}");
            }
            QueryResult::Knn { dist2, .. } => {
                let want = oracle::knn_dists(live, q, K);
                assert_eq!(dist2.len(), want.len(), "index {index}: knn count");
                for (got, want) in dist2.iter().zip(&want) {
                    assert!(close(*got, *want), "index {index}: knn {got} vs {want}");
                }
            }
            QueryResult::Pc { count } => {
                assert_eq!(
                    *count,
                    oracle::pc_count(live, q, RADIUS),
                    "index {index}: pc"
                );
            }
        }
        answers.push(answer);
    }
    answers
}

/// The whole stream: every answer, and the final metrics.
fn serve_mixed_stream() -> (Vec<QueryResult>, MetricsSnapshot) {
    let pts = uniform::<3>(512, 0x5301);
    let split = SplitPolicy::MedianCycle;
    let service = Service::start(ServiceConfig {
        batch_queries: 64,
        workers: 2,
        ..ServiceConfig::default()
    });
    let flat = service.register_index(Arc::new(KdIndex::build("flat", &pts, 8, split)));
    let sharded =
        service.register_index(Arc::new(ShardedIndex::build("sharded", &pts, 8, 8, split)));
    let mutable =
        service.register_index(Arc::new(MutableIndex::build("mutable", &pts, 4, 8, split)));

    let positions = uniform::<3>(96, 0x5302);
    let (before, after) = positions.split_at(48);
    let mut answers = Vec::new();
    for index in [flat, sharded, mutable] {
        answers.extend(stream(&service, index, before, &pts));
    }

    // One mutation batch mid-stream: sixteen points move.
    let moved = uniform::<3>(16, 0x5303);
    let muts: Vec<Mutation> = (0..16)
        .map(|id| Mutation::Delete { id })
        .chain(moved.iter().map(|p| Mutation::Insert { pos: p.0.to_vec() }))
        .collect();
    let ack = service.mutate(mutable, &muts).expect("mutation applied");
    assert_eq!((ack.accepted, ack.rejected), (32, 0));
    let live: Vec<PointN<3>> = pts[16..].iter().chain(&moved).copied().collect();

    for (index, live) in [(flat, &pts), (sharded, &pts), (mutable, &live)] {
        answers.extend(stream(&service, index, after, live));
    }

    let snapshot = service.shutdown();
    assert_eq!(snapshot.submitted, answers.len() as u64);
    assert_eq!(snapshot.completed, answers.len() as u64);
    (answers, snapshot)
}

#[test]
fn service_answers_a_mixed_stream_on_every_index_kind() {
    let (_, fused) = serve_mixed_stream();
    assert!(
        fused.fused_batches > 0 && fused.fused_lanes > 0 && fused.fusion_saved_visits > 0,
        "mixed windows must fuse, and the one walk must save visits"
    );
}
