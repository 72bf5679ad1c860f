//! CPU executors: the baseline of Figure 1, sequential and multithreaded.
//!
//! Each point's traversal is Figure 1's recursion run as one loop over
//! one child stack: pop a node, visit it, and reverse the children the
//! visit pushed so the first is popped first — the recursion's preorder,
//! visit for visit. The literal recursion stays as the reference the loop
//! is tested against: here on synthetic kernels, in `gts-apps` on the rule
//! stack the service walks.
//!
//! The parallel executor is the comparison target of the paper's Table 1
//! and Figures 10/11: an embarrassingly parallel point loop, statically
//! chunked over scoped threads (the points' traversals are independent;
//! per-point state is mutated in place, so chunks hand out disjoint
//! `&mut` slices — data-race freedom by construction, no locks needed).

use std::time::Instant;

use gts_trees::NodeId;

use crate::kernel::{Child, ChildBuf, TraversalKernel};
use crate::report::{CpuReport, TraversalStats};

/// Run `kernel` for one point; returns the number of nodes visited. This
/// is the host walk the service answers unmetered batches with.
pub fn traverse_one<K: TraversalKernel>(kernel: &K, point: &mut K::Point) -> u32 {
    let mut visited = 0;
    walk(kernel, point, |_| visited += 1);
    visited
}

/// Like [`traverse_one`], but records the visit sequence. This is what the
/// §4.4 sortedness profiler samples: run a handful of points, compare
/// their visit sets (`gts_points::profile::profile_sortedness`).
pub fn trace_one<K: TraversalKernel>(kernel: &K, point: &mut K::Point) -> Vec<NodeId> {
    let mut visits = Vec::new();
    walk(kernel, point, |node| visits.push(node));
    visits
}

/// The one loop both drivers run, calling `on_visit` with each node as it
/// is popped. The stack is sized for the deepest path — below each node
/// on it wait at most `MAX_KIDS` of its siblings — so nothing is
/// allocated after the first push.
fn walk<K: TraversalKernel>(kernel: &K, point: &mut K::Point, mut on_visit: impl FnMut(NodeId)) {
    let mut stack: ChildBuf<K::Args> =
        ChildBuf::with_capacity(K::MAX_KIDS * (kernel.max_depth() + 1));
    stack.push(Child {
        node: 0,
        args: kernel.root_args(),
    });
    while let Some(at) = stack.pop() {
        on_visit(at.node);
        let base = stack.len();
        if kernel
            .visit(point, at.node, at.args, None, &mut stack)
            .stops()
        {
            stack.truncate(base);
        } else {
            stack[base..].reverse();
        }
    }
}

/// Sequential CPU run over all points (1-thread baseline of Table 1).
pub fn run_sequential<K: TraversalKernel>(kernel: &K, points: &mut [K::Point]) -> CpuReport {
    let start = Instant::now();
    let per_point_nodes: Vec<u32> = points.iter_mut().map(|p| traverse_one(kernel, p)).collect();
    CpuReport {
        stats: TraversalStats { per_point_nodes },
        wall: start.elapsed(),
        threads: 1,
    }
}

/// Multithreaded CPU run: the point loop split into `threads` static
/// chunks on scoped threads. Results are identical to
/// [`run_sequential`] — points are independent.
pub fn run_parallel<K: TraversalKernel>(
    kernel: &K,
    points: &mut [K::Point],
    threads: usize,
) -> CpuReport {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || points.len() < 2 * threads {
        let mut r = run_sequential(kernel, points);
        r.threads = threads;
        return r;
    }
    let n = points.len();
    let chunk = n.div_ceil(threads);
    let start = Instant::now();
    let mut counts: Vec<Vec<u32>> = Vec::with_capacity(threads);
    crossbeam::scope(|s| {
        let handles: Vec<_> = points
            .chunks_mut(chunk)
            .map(|slice| {
                s.spawn(move |_| {
                    slice
                        .iter_mut()
                        .map(|p| traverse_one(kernel, p))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        for h in handles {
            counts.push(h.join().expect("traversal thread panicked"));
        }
    })
    .expect("crossbeam scope failed");
    let wall = start.elapsed();
    CpuReport {
        stats: TraversalStats {
            per_point_nodes: counts.concat(),
        },
        wall,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::VisitOutcome;
    use gts_trees::layout::NodeBytes;
    use gts_trees::NodeId;

    /// A synthetic kernel over an implicit complete binary tree of `depth`
    /// levels: point = counter, truncates below `limit` ids, counts visits.
    struct CountKernel {
        depth: usize,
        limit: u32,
    }

    impl CountKernel {
        fn n(&self) -> usize {
            (1 << (self.depth + 1)) - 1
        }
    }

    impl TraversalKernel for CountKernel {
        type Point = u64;
        type Args = ();
        const MAX_KIDS: usize = 2;
        const CALL_SETS: usize = 1;

        fn n_nodes(&self) -> usize {
            self.n()
        }
        fn is_leaf(&self, node: NodeId) -> bool {
            (node as usize) >= self.n() / 2
        }
        fn leaf_range(&self, node: NodeId) -> Option<(u32, u32)> {
            self.is_leaf(node).then_some((node, 1))
        }
        fn node_bytes(&self) -> NodeBytes {
            NodeBytes::kd(2)
        }
        fn max_depth(&self) -> usize {
            self.depth
        }
        fn root_args(&self) {}

        fn visit(
            &self,
            p: &mut u64,
            node: NodeId,
            _args: (),
            _forced: Option<usize>,
            kids: &mut ChildBuf<()>,
        ) -> VisitOutcome {
            *p += node as u64;
            if node >= self.limit {
                return VisitOutcome::Truncated;
            }
            if self.is_leaf(node) {
                return VisitOutcome::Leaf;
            }
            kids.push(Child {
                node: 2 * node + 1,
                args: (),
            });
            kids.push(Child {
                node: 2 * node + 2,
                args: (),
            });
            VisitOutcome::Descended { call_set: 0 }
        }
    }

    #[test]
    fn sequential_visits_whole_tree_without_truncation() {
        let k = CountKernel {
            depth: 3,
            limit: u32::MAX,
        };
        let mut pts = vec![0u64; 4];
        let r = run_sequential(&k, &mut pts);
        // Complete binary tree of depth 3 has 15 nodes.
        assert!(r.stats.per_point_nodes.iter().all(|&n| n == 15));
        // Sum of ids 0..15 = 105.
        assert!(pts.iter().all(|&p| p == 105));
    }

    #[test]
    fn truncation_prunes_subtrees() {
        let k = CountKernel { depth: 3, limit: 2 };
        let mut pts = vec![0u64];
        let r = run_sequential(&k, &mut pts);
        // Visits: 0 (descends), 1 (descends: 1 < 2), 3,4 truncate; 2
        // truncates. = nodes {0,1,3,4,2} = 5.
        assert_eq!(r.stats.per_point_nodes[0], 5);
        assert_eq!(pts[0], 1 + 3 + 4 + 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let k = CountKernel {
            depth: 6,
            limit: 40,
        };
        let mut seq = vec![0u64; 100];
        let mut par = vec![0u64; 100];
        let rs = run_sequential(&k, &mut seq);
        let rp = run_parallel(&k, &mut par, 4);
        assert_eq!(seq, par);
        assert_eq!(rs.stats.per_point_nodes, rp.stats.per_point_nodes);
        assert_eq!(rp.threads, 4);
    }

    #[test]
    fn parallel_small_input_falls_back() {
        let k = CountKernel {
            depth: 2,
            limit: u32::MAX,
        };
        let mut pts = vec![0u64; 3];
        let r = run_parallel(&k, &mut pts, 8);
        assert_eq!(r.threads, 8);
        assert_eq!(r.stats.per_point_nodes.len(), 3);
    }

    #[test]
    fn trace_one_matches_count_and_order() {
        let k = CountKernel { depth: 3, limit: 2 };
        let mut p = 0u64;
        let visits = trace_one(&k, &mut p);
        // DFS preorder with truncation at ids >= 2: 0, 1, 3, 4, 2.
        assert_eq!(visits, vec![0, 1, 3, 4, 2]);
        let mut q = 0u64;
        assert_eq!(traverse_one(&k, &mut q) as usize, visits.len());
    }

    /// Figure 1 as written: visit, then recurse into each child named, in
    /// order — the reference the loop is held to. Records each visit.
    fn figure1<K: TraversalKernel>(
        kernel: &K,
        p: &mut K::Point,
        at: Child<K::Args>,
        visits: &mut Vec<NodeId>,
    ) {
        visits.push(at.node);
        let mut kids = Vec::new();
        if let VisitOutcome::Descended { .. } = kernel.visit(p, at.node, at.args, None, &mut kids) {
            for child in kids {
                figure1(kernel, p, child, visits);
            }
        }
    }

    /// Both drivers run the one loop: `trace_one` records what
    /// `traverse_one` counts, in the literal recursion's order, and each
    /// leaves the point where the recursion leaves it.
    fn assert_one_driver<K: TraversalKernel>(kernel: &K, point: &K::Point)
    where
        K::Point: PartialEq + std::fmt::Debug,
    {
        let mut want = Vec::new();
        let mut recursed = point.clone();
        let root = Child {
            node: 0,
            args: kernel.root_args(),
        };
        figure1(kernel, &mut recursed, root, &mut want);
        let (mut traced, mut counted) = (point.clone(), point.clone());
        let visits = trace_one(kernel, &mut traced);
        assert_eq!(visits, want, "the visit sequence is the recursion's");
        assert_eq!(traverse_one(kernel, &mut counted) as usize, visits.len());
        assert_eq!(traced, recursed);
        assert_eq!(counted, recursed);
    }

    #[test]
    fn one_loop_drives_both_walks_in_the_recursions_preorder() {
        use crate::test_kernels::{BinKernel, GuidedKernel, GuidedPoint};
        for depth in 0..6 {
            for limit in [0, 1, 2, 5, 11, 40, u32::MAX] {
                assert_one_driver(&CountKernel { depth, limit }, &0);
                assert_one_driver(&BinKernel::new(depth, limit), &0);
            }
            for id in 0..4 {
                assert_one_driver(&GuidedKernel::new(depth), &GuidedPoint { id, acc: 0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let k = CountKernel { depth: 2, limit: 0 };
        let _ = run_parallel(&k, &mut [0u64; 4], 0);
    }
}
