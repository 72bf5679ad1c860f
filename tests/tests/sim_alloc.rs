//! Allocation budget of the executors.
//!
//! The simulator prices every modeled memory request of every warp step,
//! so anything it allocates per request is paid hundreds of thousands of
//! times per batch — and the unmetered launches most batches are served
//! by run the same loops. This binary installs a counting global allocator and
//! pins the budget: a launch may allocate per *warp* (stacks, per-lane
//! counters, the per-warp counter fold), never per node visit — and the
//! CPU walk, which serves the host backend and the profiler's sampled
//! traces, per *traversal* (its one child stack), never per level. The
//! CPU walk is also timed on the rule stack the service walks — `Live`
//! over tombstones, `Renamed`, the fused NN / kNN / PC rule — whose leaf
//! buckets live on the stack: at most one allocation per traversal. One
//! test only — the counter is process-wide, so nothing else may run
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gts_apps::fused::{fused_ops_point, FusedOpsRule};
use gts_apps::kd::KdBox;
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_points::gen::uniform;
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::gpu::{autoropes, lockstep, GpuConfig, Unmetered};
use gts_runtime::{cpu, GpuReport, Live, Renamed, Tombstones};
use gts_trees::{KdTree, SplitPolicy};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every request to `System` unchanged; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) per lane node visit of one launch.
fn allocs_per_visit(run: impl FnOnce() -> GpuReport) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rep = run();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(rep.per_warp_nodes.len(), 8);
    allocs as f64 / rep.live_visits() as f64
}

#[test]
fn executors_allocate_per_warp_not_per_node_visit() {
    let data = uniform::<3>(4096, 0xa110c);
    let queries = uniform::<3>(256, 0xbeef);
    let queries = apply_perm(&queries, &morton_order(&queries));
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    let kernel = KnnKernel::new(&tree);
    // Fresh per-query state for each launch (a clone would drop the
    // k-best sets' reserved capacity and make the queries grow them).
    let points = || -> Vec<KnnPoint<3>> { queries.iter().map(|&p| KnnPoint::new(p, 8)).collect() };
    let cfg = GpuConfig::new(1);

    let mut work = points();
    let ar = allocs_per_visit(|| autoropes::run(&kernel, &mut work, &cfg));
    let mut work = points();
    let ls = allocs_per_visit(|| lockstep::run(&kernel, &mut work, &cfg));
    // The same loops with the accounting compiled out: what is left is
    // the executor's own per-warp state.
    let mut work = points();
    let ar_plain = allocs_per_visit(|| autoropes::run_on::<Unmetered, _>(&kernel, &mut work, &cfg));
    let mut work = points();
    let ls_plain = allocs_per_visit(|| lockstep::run_on::<Unmetered, _>(&kernel, &mut work, &cfg));
    let mut work = points();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let visits: u64 = (work.iter_mut())
        .map(|p| u64::from(cpu::traverse_one(&kernel, p)))
        .sum();
    let cpu = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / visits as f64;

    // The served stack: every third point dead, positions renamed to
    // dataset ids, lanes asking NN, kNN and PC alone and together.
    let dead: Tombstones = (0..data.len() as u32).filter(|at| at % 3 == 0).collect();
    let rule = Renamed {
        rule: FusedOpsRule::default(),
        ids: &tree.perm,
    };
    let served = KdBox::with_rule(&tree, Live { rule, dead: &dead });
    let mut lanes: Vec<_> = (queries.iter().enumerate())
        .map(|(i, &p)| match i % 4 {
            0 => fused_ops_point(p, true, None, &[]),
            1 => fused_ops_point(p, false, Some(8), &[]),
            2 => fused_ops_point(p, false, None, &[0.05]),
            _ => fused_ops_point(p, true, Some(8), &[0.05, 0.1]),
        })
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let served_visits: u64 = (lanes.iter_mut())
        .map(|p| u64::from(cpu::traverse_one(&served, p)))
        .sum();
    let served_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_walk = served_allocs as f64 / lanes.len() as f64;
    println!(
        "allocations per node visit: autoropes {ar:.3} ({ar_plain:.3} unmetered), \
         lockstep {ls:.3} ({ls_plain:.3} unmetered), cpu {cpu:.3}; \
         served cpu stack {per_walk:.3} per traversal over {served_visits} visits"
    );
    assert!(ar < 0.25, "autoropes: {ar:.3} allocations per node visit");
    assert!(ls < 0.25, "lockstep: {ls:.3} allocations per node visit");
    assert!(ar_plain < 0.25, "unmetered autoropes: {ar_plain:.3}");
    assert!(ls_plain < 0.25, "unmetered lockstep: {ls_plain:.3}");
    assert!(cpu < 0.25, "cpu: {cpu:.3} allocations per node visit");
    assert!(
        served_allocs <= lanes.len() as u64,
        "served stack: {served_allocs} allocations over {} traversals",
        lanes.len()
    );
}
