//! Quickstart: run one traversal benchmark (Point Correlation) under every
//! execution strategy the paper evaluates and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_tree_traversals::prelude::*;
use gts_apps::pc::{PcKernel, PcPoint};
use gts_runtime::cpu;
use gts_runtime::gpu::{autoropes, lockstep, recursive};

fn main() {
    // 1. Input: a clustered 7-d dataset (a stand-in for the paper's
    //    Covtype input) and the kd-tree over it.
    let n = 10_000;
    let data = gts_points::gen::covtype_like(n, 7);
    let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
    println!("kd-tree: {} nodes, depth {}", tree.n_nodes(), tree.depth());

    // 2. The kernel: count neighbors within a radius (paper Figure 4),
    //    sized relative to the dataset's extent.
    let bbox = Aabb::of_points(&data);
    let radius = 0.05 * bbox.lo.dist(&bbox.hi);
    let kernel = PcKernel::new(&tree, radius);
    let fresh = || data.iter().map(|&p| PcPoint::new(p)).collect::<Vec<_>>();

    // 3. CPU baseline — the recursive traversal of Figure 1, multithreaded.
    let mut cpu_pts = fresh();
    let cpu_r = cpu::run_parallel(&kernel, &mut cpu_pts, 4);
    println!(
        "CPU ({} threads):        {:>9.2} ms   avg nodes/point {:>8.1}",
        cpu_r.threads,
        cpu_r.ms(),
        cpu_r.stats.avg_nodes()
    );

    // 4. GPU strategies on the simulated Tesla C2070.
    let cfg = GpuConfig::default();

    let mut pts = fresh();
    let rec = recursive::run(&kernel, &mut pts, &cfg, false);
    println!(
        "GPU naive recursion:     {:>9.2} ms   avg nodes/point {:>8.1}   {} calls",
        rec.ms(),
        rec.stats.avg_nodes(),
        rec.launch.counters.calls
    );

    let mut ar_pts = fresh();
    let ar = autoropes::run(&kernel, &mut ar_pts, &cfg);
    println!(
        "GPU autoropes (N):       {:>9.2} ms   avg nodes/point {:>8.1}   coalescing {:.0}%",
        ar.ms(),
        ar.stats.avg_nodes(),
        100.0 * ar.launch.counters.coalescing_efficiency()
    );

    let mut ls_pts = fresh();
    let ls = lockstep::run(&kernel, &mut ls_pts, &cfg);
    println!(
        "GPU lockstep (L):        {:>9.2} ms   avg nodes/point {:>8.1}   coalescing {:.0}%",
        ls.ms(),
        ls.stats.avg_nodes(),
        100.0 * ls.launch.counters.coalescing_efficiency()
    );

    // 5. Every strategy computes exactly the same counts.
    for i in 0..n {
        assert_eq!(cpu_pts[i].count, ar_pts[i].count);
        assert_eq!(cpu_pts[i].count, ls_pts[i].count);
    }
    println!("\nall strategies agree on all {n} correlation counts ✓");
    println!(
        "lockstep visited {:.1}× the nodes but made {:.1}× fewer memory transactions",
        ls.stats.avg_nodes() / ar.stats.avg_nodes(),
        ar.launch.counters.global_transactions as f64
            / ls.launch.counters.global_transactions as f64
    );
}
