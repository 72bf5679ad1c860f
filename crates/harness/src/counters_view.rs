//! The `counters` subcommand: a simulated-profiler view of one cell.
//!
//! Prints the event counters and per-region transaction breakdown for each
//! GPU variant of one benchmark × input — the numbers behind the modeled
//! times, in the role `nvprof` plays for the paper's real measurements.
//! [`render_service`] gives the service-level counterpart: one readable
//! block over a [`MetricsSnapshot`], printed by `serve` at shutdown.

use gts_apps::pc::{PcKernel, PcPoint};
use gts_points::gen::{self, Dataset};
use gts_points::sort::{apply_perm, morton_order};
use gts_runtime::gpu::{autoropes, lockstep, recursive};
use gts_runtime::GpuReport;
use gts_service::MetricsSnapshot;
use gts_trees::{Aabb, KdTree, SplitPolicy};

use crate::config::HarnessConfig;

/// Render a service metrics snapshot as a profiler-style text block:
/// counters, backend mix, warp-efficiency gauges, and latency tails.
pub fn render_service(s: &MetricsSnapshot) -> String {
    let mut out = String::from("── service metrics ──\n");
    out.push_str(&format!(
        " queries           {:>12} submitted / {} completed / {} rejected\n",
        s.submitted, s.completed, s.rejected
    ));
    out.push_str(&format!(
        " batches           {:>12}   (mean size {:.1}, max {})\n",
        s.batches, s.mean_batch_size, s.max_batch_size
    ));
    let mix: Vec<String> = s
        .backend_batches
        .iter()
        .map(|b| format!("{} {}", b.batches, b.backend))
        .collect();
    out.push_str(&format!(
        " backend mix       {:>12}   {}\n",
        "",
        mix.join(" / ")
    ));
    out.push_str(&format!(
        " node visits       {:>12}   ({} (query, shard) fan-outs pruned)\n",
        s.node_visits, s.shards_pruned
    ));
    out.push_str(&format!(
        " stack footprint   {:>12}   peak bytes/warp ({} stack transactions)\n",
        s.stack_bytes_peak, s.stack_transactions
    ));
    out.push_str(&format!(
        " profile cache     {:>12}   {} hits / {} misses / {} evictions\n",
        "", s.profile_cache_hits, s.profile_cache_misses, s.profile_cache_evictions
    ));
    out.push_str(&format!(
        " fusion            {:>12}   fused batches / {} lanes / {} node visits saved\n",
        s.fused_batches, s.fused_lanes, s.fusion_saved_visits
    ));
    out.push_str(&format!(
        " modeled time      {:>12.3} ms total over {} of {} batches\n",
        s.model_ms, s.metered_batches, s.batches
    ));
    out.push_str(&format!(
        " work expansion    {:>12.3} mean\n",
        s.mean_work_expansion
    ));
    out.push_str(&format!(
        " mask occupancy    {:>12.3} mean live-lane fraction\n",
        s.mean_mask_occupancy
    ));
    out.push_str(&format!(
        " queue wait        p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
        s.queue_wait_p50_ms, s.queue_wait_p99_ms, s.queue_wait_max_ms
    ));
    out.push_str(&format!(
        " latency           p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, max {:.3} ms\n",
        s.latency_p50_ms, s.latency_p99_ms, s.latency_p999_ms, s.latency_max_ms
    ));
    out.push_str(&format!(
        " admission         {:>12}   rejected ({:.3} ms EWMA batch service)\n",
        s.admission_rejected, s.ewma_batch_service_ms
    ));
    if s.net_connections > 0 {
        out.push_str(&format!(
            " net               {:>12}   connections, {} rx / {} tx frames ({} / {} bytes), {} protocol errors\n",
            s.net_connections,
            s.net_frames_rx,
            s.net_frames_tx,
            s.net_bytes_rx,
            s.net_bytes_tx,
            s.net_protocol_errors
        ));
    }
    out.push_str(&format!(
        " slow log          {:>12}   committed / {} evicted / {} pending (threshold {}µs)\n",
        s.slow_log_committed, s.slow_log_evicted, s.slow_log_pending, s.slow_log_threshold_us
    ));
    if s.trace_propagated > 0 {
        out.push_str(&format!(
            " trace propagation {:>12}   queries carried a client context\n",
            s.trace_propagated
        ));
    }
    if s.trace_dropped > 0 {
        let kinds: Vec<String> = s
            .trace_dropped_by_kind
            .iter()
            .map(|k| format!("{} {}", k.dropped, k.kind))
            .collect();
        out.push_str(&format!(
            " trace drops       {:>12}   ring wraparound ({})\n",
            s.trace_dropped,
            kinds.join(" / ")
        ));
    }
    if !s.latency_exemplars.is_empty() {
        out.push_str(&format!(
            " exemplars         {:>12}   latency buckets linked to live query ids\n",
            s.latency_exemplars.len()
        ));
    }
    out
}

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

    #[test]
    fn service_view_renders_tails_and_occupancy() {
        use gts_service::{Backend, BatchOutcome, BatchRecord, Metrics};
        use std::time::Duration;
        let m = Metrics::default();
        m.on_submit(1);
        let outcome = BatchOutcome {
            backend: Backend::Lockstep,
            node_visits: 42,
            metered: true,
            model_ms: 0.5,
            work_expansion: 1.25,
            mask_occupancy: 0.75,
            shards_pruned: 2,
            profile_cache_hits: 3,
            profile_cache_misses: 1,
            ..BatchOutcome::default()
        };
        let (wait, exec) = (Duration::from_millis(1), Duration::from_millis(2));
        m.on_batch(&BatchRecord::from_outcome(&outcome, wait, exec, "demo"));
        m.on_complete("demo", Duration::from_millis(3), 1, 0);
        let text = render_service(&m.snapshot());
        assert!(
            text.contains("1 lockstep / 0 autoropes / 0 stackless-kd / 0 stackless-bvh / 0 cpu"),
            "{text}"
        );
        assert!(
            text.contains("0.500 ms total over 1 of 1 batches"),
            "{text}"
        );
        assert!(text.contains("p99.9"), "{text}");
        assert!(text.contains("mask occupancy"), "{text}");
        assert!(text.contains("2 (query, shard) fan-outs pruned"), "{text}");
        assert!(text.contains("3 hits / 1 misses / 0 evictions"), "{text}");
        assert!(
            text.contains("fused batches / 0 lanes / 0 node visits saved"),
            "{text}"
        );
        assert!(text.contains("slow log"), "{text}");
        assert!(
            text.contains("exemplars"),
            "the completion above left a bucket exemplar: {text}"
        );
    }

    #[test]
    fn service_view_renders_slow_log_and_propagation_counters() {
        use gts_service::{KindDropped, Metrics};
        use std::time::Duration;
        let m = Metrics::default();
        m.on_submit(1);
        m.on_propagated(1);
        m.on_complete("demo", Duration::from_millis(2), 9, 0xABC);
        let mut snap = m.snapshot();
        // The service stitches these in from its trace ring and slow log;
        // emulate that here so the renderer's optional lines all fire.
        snap.slow_log_committed = 3;
        snap.slow_log_evicted = 1;
        snap.slow_log_pending = 2;
        snap.slow_log_threshold_us = 1500;
        snap.trace_dropped = 4;
        snap.trace_dropped_by_kind = vec![KindDropped {
            kind: "submit".to_string(),
            dropped: 4,
        }];
        let text = render_service(&snap);
        assert!(
            text.contains("3   committed / 1 evicted / 2 pending (threshold 1500µs)"),
            "{text}"
        );
        assert!(
            text.contains("1   queries carried a client context"),
            "{text}"
        );
        assert!(text.contains("4 submit"), "{text}");
    }
}
