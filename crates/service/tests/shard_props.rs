//! Property tests for the shard prune layer (vendored proptest stub).
//!
//! * **Pruning is invisible**: an AABB-pruned [`ShardedIndex`] returns
//!   bitwise-identical results to an unpruned one; it may only *reduce*
//!   node visits, never change answers.
//!
//! That the fold itself is lossless — per-shard states merged in shard
//! order equal one walk over every point, and a shard a state does not
//! reach changes nothing — is property-tested where the fold lives, as
//! `gts_apps::fused`'s `merge_` tests.

use gts_points::gen::geocity_like;
use gts_service::{Backend, ExecPolicy, OpKey, ShardedIndexBuilder, TreeIndex};
use gts_trees::SplitPolicy;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Build pruned + unpruned twins over the same clustered dataset and run
/// the same batch through both with the CPU executor.
fn twin_outcomes(
    seed: u64,
    n_points: usize,
    shards: usize,
    op: OpKey,
    queries: &[Vec<f32>],
) -> (gts_service::BatchOutcome, gts_service::BatchOutcome) {
    let pts = geocity_like(n_points, seed);
    let build = |prune: bool| {
        ShardedIndexBuilder::new("twin", shards)
            .leaf_size(8)
            .split_policy(SplitPolicy::MidpointWidest)
            .prune(prune)
            .build(&pts)
    };
    let policy = ExecPolicy::forced(Backend::Cpu);
    let pruned = build(true).run_batch(op, queries, &policy);
    let unpruned = build(false).run_batch(op, queries, &policy);
    (pruned, unpruned)
}

/// Clustered 2-d queries hugging the dataset's generator clusters, so
/// most queries resolve inside one shard and pruning has teeth.
fn clustered_queries(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts = geocity_like(256, seed ^ 0x9e37);
    (0..n)
        .map(|_| {
            let anchor = pts[rng.gen_range(0..pts.len())];
            vec![
                anchor.0[0] + rng.gen_range(-0.01f32..0.01),
                anchor.0[1] + rng.gen_range(-0.01f32..0.01),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn pruning_never_changes_results_only_node_visits(
        seed in 0u64..1 << 40,
        shards in 2usize..9,
        opsel in 0usize..3,
        k in 1usize..6,
    ) {
        let op = match opsel {
            0 => OpKey::Nn,
            1 => OpKey::Knn(k),
            _ => OpKey::Pc(0.05f32.to_bits()),
        };
        let queries = clustered_queries(seed ^ 0xfeed, 96);
        let (pruned, unpruned) = twin_outcomes(seed, 768, shards, op, &queries);

        // Identical answers, query by query — pruning is exact.
        prop_assert_eq!(&pruned.results, &unpruned.results);
        // Pruning can only shrink the work actually executed.
        prop_assert!(
            pruned.node_visits <= unpruned.node_visits,
            "pruned visited {} nodes, unpruned {}", pruned.node_visits, unpruned.node_visits
        );
        // The counter is wired: only the pruned twin reports skips.
        prop_assert_eq!(unpruned.shards_pruned, 0);
    }
}

#[test]
fn pruning_engages_on_clustered_inputs() {
    // Not every sampled (seed, shards) pair must prune, but this pinned
    // clustered configuration must — otherwise the bound is dead code.
    let queries = clustered_queries(7, 128);
    let (pruned, unpruned) = twin_outcomes(42, 1024, 8, OpKey::Nn, &queries);
    assert!(
        pruned.shards_pruned > 0,
        "no (query, shard) pair was pruned"
    );
    assert_eq!(pruned.results, unpruned.results);
    assert!(pruned.node_visits < unpruned.node_visits);
}
