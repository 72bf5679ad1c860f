//! The `counters` subcommand: a simulated-profiler view of one cell.
//!
//! Prints the event counters and per-region transaction breakdown for each
//! GPU variant of one benchmark × input — the numbers behind the modeled
//! times, in the role `nvprof` plays for the paper's real measurements.

use gts_apps::pc::{PcKernel, PcPoint};
use gts_points::gen::{self, Dataset};
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::gpu::{autoropes, lockstep, recursive};
use gts_runtime::GpuReport;
use gts_trees::{Aabb, KdTree, SplitPolicy};

use crate::config::HarnessConfig;

fn describe(name: &str, r: &GpuReport) -> String {
    let c = &r.launch.counters;
    let mut out = format!(
        "\n── {name} ──\n\
         modeled time      {:>12.3} ms   ({:.0} cycles, {} warps, {} resident/SM)\n\
         warp steps        {:>12}\n\
         node visits       {:>12}   (avg {:.1}/point)\n\
         global txns       {:>12}   ({} MB bus, coalescing {:.0}%)\n\
         shared accesses   {:>12}\n\
         l2 hits           {:>12}\n\
         divergent replays {:>12}\n\
         calls             {:>12}\n\
         per-region transactions:\n",
        r.ms(),
        r.launch.cycles,
        r.launch.warps,
        r.launch.resident_warps,
        c.warp_steps,
        c.node_visits,
        r.stats.avg_nodes(),
        c.global_transactions,
        c.global_bus_bytes / (1 << 20),
        100.0 * c.coalescing_efficiency(),
        c.shared_accesses,
        c.l2_hits,
        c.divergent_replays,
        c.calls,
    );
    for (region, txns) in &c.per_region_transactions {
        out.push_str(&format!("   {region:<24} {txns:>12}\n"));
    }
    out
}

/// Run Point Correlation on `dataset` (sorted order) under every GPU
/// variant and render the counter breakdowns.
pub fn render(cfg: &HarnessConfig, dataset: Dataset) -> String {
    let data = match dataset {
        Dataset::Geocity => {
            return render_inner(
                cfg,
                dataset.name(),
                &gen::geocity_like(cfg.n_points(), cfg.seed),
            );
        }
        _ => gen::dataset_7d(dataset, cfg.n_points(), cfg.seed),
    };
    render_inner(cfg, dataset.name(), &data)
}

fn render_inner<const D: usize>(
    cfg: &HarnessConfig,
    input: &str,
    data: &[gts_trees::PointN<D>],
) -> String {
    let queries = apply_perm(data, &morton_order(data));
    let tree = KdTree::build(data, cfg.leaf_size, SplitPolicy::MedianCycle);
    let bbox = Aabb::of_points(data);
    let radius = cfg.radius_frac * bbox.lo.dist(&bbox.hi);
    let kernel = PcKernel::new(&tree, radius);
    let fresh = || queries.iter().map(|&p| PcPoint::new(p)).collect::<Vec<_>>();

    let mut out = format!(
        "Point Correlation / {input} (sorted), {} points, radius {radius:.3}, tree {} nodes\n",
        queries.len(),
        tree.n_nodes()
    );
    let mut pts = fresh();
    out.push_str(&describe(
        "autoropes (N)",
        &autoropes::run(&kernel, &mut pts, &cfg.gpu),
    ));
    let mut pts = fresh();
    out.push_str(&describe(
        "lockstep (L)",
        &lockstep::run(&kernel, &mut pts, &cfg.gpu),
    ));
    let mut pts = fresh();
    out.push_str(&describe(
        "naive recursion (N)",
        &recursive::run(&kernel, &mut pts, &cfg.gpu, false),
    ));
    let mut pts = fresh();
    let l2_cfg = cfg.gpu.clone().with_l2();
    out.push_str(&describe(
        "autoropes (N) + L2",
        &autoropes::run(&kernel, &mut pts, &l2_cfg),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_view_renders_all_variants() {
        let mut cfg = HarnessConfig::at_scale(0.002);
        cfg.threads = vec![1];
        let text = render(&cfg, Dataset::Random);
        assert!(text.contains("autoropes (N)"));
        assert!(text.contains("lockstep (L)"));
        assert!(text.contains("naive recursion"));
        assert!(text.contains("tree.nodes0"));
        assert!(text.contains("rope_stack") || text.contains("warp_rope_stack"));
        // The L2 variant must report hits.
        let l2_section = text.split("+ L2").nth(1).expect("L2 section");
        assert!(
            !l2_section.contains("l2 hits                      0"),
            "{l2_section}"
        );
    }
}
