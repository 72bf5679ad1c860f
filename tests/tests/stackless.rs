//! Differential oracle for the stackless executors: a batch forced
//! through the Wald stack-free walk (`stackless-kd`) or the skip-link
//! walk (`stackless-bvh`) must produce exactly the results of autoropes
//! and lockstep, which in turn must agree with a flat CPU [`KdIndex`]
//! over the same dataset. The executor's stack discipline is an
//! execution detail, not a semantics change — and the stackless ones
//! must report exactly zero rope-stack traffic while saying so.
//!
//! Plus property tests pinning the left-balanced implicit layout: the
//! builder emits a permutation of its input, the heap-order partition
//! invariant holds at every node, and `locate` descends to a leaf whose
//! path respects every split plane.

use gts_integration::metering;
use gts_points::gen::uniform;
use gts_service::{Backend, ExecPolicy, KdIndex, OpKey, QueryResult, ShardedIndex, TreeIndex};
use gts_trees::{LbKdTree, PointN, SplitPolicy, NO_NODE};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const N_POINTS: usize = 3000;
const N_QUERIES: usize = 2000;

/// Seeded query mix: half uniform over the cube, half hugging dataset
/// points (so near/far culling and skip jumps both engage).
fn queries(pts: &[PointN<3>], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..N_QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()
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

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-6) || (a.is_infinite() && b.is_infinite())
}

/// Distances agree with the flat CPU oracle within f32 epsilon (ids may
/// legitimately differ on exact ties, distances may not).
fn check_vs_flat(want: &QueryResult, got: &QueryResult, label: &str, q: usize) {
    match (want, got) {
        (QueryResult::Nn { dist2: wd, .. }, QueryResult::Nn { dist2: gd, .. }) => {
            assert!(close(*wd, *gd), "{label}, query {q}: {wd} vs {gd}");
        }
        (QueryResult::Knn { dist2: wd, .. }, QueryResult::Knn { dist2: gd, .. }) => {
            assert_eq!(wd.len(), gd.len(), "{label}, query {q}");
            for (j, (a, b)) in wd.iter().zip(gd).enumerate() {
                assert!(
                    close(*a, *b),
                    "{label}, query {q}, neighbor {j}: {a} vs {b}"
                );
            }
        }
        (QueryResult::Pc { count: wc }, QueryResult::Pc { count: gc }) => {
            assert_eq!(wc, gc, "{label}, query {q}");
        }
        _ => panic!("mismatched result variants"),
    }
}

#[test]
fn stackless_matches_every_other_executor_and_flat_cpu() {
    let pts = uniform::<3>(N_POINTS, 0x57ac);
    let qs = queries(&pts, 0x1e55);
    let flat = KdIndex::build("flat", &pts, 8, SplitPolicy::MedianCycle);
    let cpu = ExecPolicy::forced(Backend::Cpu);
    for op in [OpKey::Nn, OpKey::Knn(8), OpKey::Pc(0.15f32.to_bits())] {
        let want = flat.run_batch(op, &qs, &cpu);
        for shards in SHARD_COUNTS {
            let idx = ShardedIndex::build("sharded", &pts, shards, 8, SplitPolicy::MedianCycle);
            // The stack counters below are the model's: meter the batch.
            let forced = |b| metering(ExecPolicy::forced(b), &qs);
            let auto = idx.run_batch(op, &qs, &forced(Backend::Autoropes));
            let lock = idx.run_batch(op, &qs, &forced(Backend::Lockstep));
            let kd = idx.run_batch(op, &qs, &forced(Backend::StacklessKd));
            let bvh = idx.run_batch(op, &qs, &forced(Backend::StacklessBvh));
            // Bit-identical across executors: the stackless walks cull
            // exactly the subtrees whose points the update rules would
            // reject anyway, and lockstep's extra union visits likewise
            // never survive the kernel's acceptance test.
            assert_eq!(
                auto.results, kd.results,
                "{shards} shards, {op:?}: wald walk diverged from autoropes"
            );
            assert_eq!(
                auto.results, bvh.results,
                "{shards} shards, {op:?}: skip walk diverged from autoropes"
            );
            assert_eq!(
                auto.results, lock.results,
                "{shards} shards, {op:?}: lockstep diverged from autoropes"
            );
            // The headline counters: the stackless executors move zero
            // rope-stack bytes; the rope-stack executor pays for its own.
            for out in [&kd, &bvh] {
                assert_eq!(out.stack_bytes_peak, 0, "{shards} shards, {op:?}");
                assert_eq!(out.stack_transactions, 0, "{shards} shards, {op:?}");
            }
            assert!(auto.stack_bytes_peak > 0, "{shards} shards, {op:?}");
            assert!(auto.stack_transactions > 0, "{shards} shards, {op:?}");
            // And all of them agree with the flat CPU oracle.
            assert_eq!(kd.results.len(), want.results.len());
            let label = format!("{shards} shards, {op:?}");
            for (q, (w, g)) in want.results.iter().zip(&kd.results).enumerate() {
                check_vs_flat(w, g, &label, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The left-balanced builder is a pure relabeling: `perm` is a
    /// permutation of the input and `points[i] == input[perm[i]]`, with
    /// the heap-order partition invariant intact (checked by
    /// `validate`).
    #[test]
    fn lb_layout_round_trips_the_input(
        n in 1usize..300,
        seed in 0u64..1_000_000_000,
    ) {
        let pts = uniform::<3>(n, seed);
        let tree = LbKdTree::build(&pts);
        tree.validate().expect("structural invariants");
        prop_assert_eq!(tree.n_nodes(), n);
        let mut seen = vec![false; n];
        for (i, &src) in tree.perm.iter().enumerate() {
            prop_assert!(!seen[src as usize], "perm not a permutation");
            seen[src as usize] = true;
            prop_assert_eq!(tree.points[i], pts[src as usize]);
        }
    }

    /// Implicit navigation round-trips: every non-root node's parent
    /// link inverts the child link, and `locate` lands on a node whose
    /// root path respects each split plane for the query point.
    #[test]
    fn lb_navigation_and_locate_respect_split_planes(
        n in 1usize..300,
        seed in 0u64..1_000_000_000,
    ) {
        let pts = uniform::<3>(n, seed);
        let tree = LbKdTree::build(&pts);
        for node in 0..n as u32 {
            let (l, r) = (tree.left(node), tree.right(node));
            if l != NO_NODE {
                prop_assert_eq!(tree.parent(l), node);
            }
            if r != NO_NODE {
                prop_assert_eq!(tree.parent(r), node);
            }
            prop_assert_eq!(tree.is_leaf(node), l == NO_NODE && r == NO_NODE);
        }
        for p in &pts {
            let mut node = tree.locate(p);
            prop_assert!(tree.is_leaf(node) || tree.left(node) == NO_NODE);
            // Walk back to the root checking each plane crossing was the
            // one `locate` should have taken (or a forced sibling detour
            // where the preferred child does not exist in the array).
            while node != 0 {
                let parent = tree.parent(node);
                let axis = tree.split_dim[parent as usize] as usize;
                let went_left = tree.left(parent) == node;
                let prefers_left = p[axis] < tree.points[parent as usize][axis];
                let forced = if prefers_left {
                    tree.left(parent) == NO_NODE
                } else {
                    tree.right(parent) == NO_NODE
                };
                prop_assert!(went_left == prefers_left || forced);
                node = parent;
            }
        }
    }
}
