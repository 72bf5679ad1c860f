//! The generic per-cell measurement driver.

use gts_points::profile::{profile_sortedness, DEFAULT_THRESHOLD};
use gts_runtime::gpu::{autoropes, lockstep, recursive, stackless, GpuConfig};
use gts_runtime::report::work_expansion;
use gts_runtime::{cpu, TraversalKernel};
use gts_trees::NodeId;

use crate::row::{CellResult, Row};

/// Parallel fraction of the CPU point loop used by the Amdahl scaling
/// model (tree build and reduction are serial-ish; the paper's own CPU
/// curves bend consistently with ~0.97).
const CPU_PARALLEL_FRACTION: f64 = 0.97;

/// Modeled `T`-thread wall time from a measured 1-thread time. Used when
/// the host machine has fewer cores than the requested thread count — the
/// paper's CPU platform (4 × 12-core Opteron 6176) is simulated per
/// DESIGN.md §2: speedup follows Amdahl's law with a 0.97 parallel
/// fraction, which matches the sub-linear bend of the paper's Figures
/// 10/11 CPU curves.
pub fn modeled_cpu_ms(t1_ms: f64, threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    t1_ms * ((1.0 - CPU_PARALLEL_FRACTION) + CPU_PARALLEL_FRACTION / t)
}

/// Host cores available for honest multithreaded measurement.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Measure one benchmark × input × sortedness cell.
///
/// `fresh` yields a fresh copy of the query points (executors mutate them
/// in place); the *order* of the points is the sorted/shuffled order under
/// test and must be identical across calls — work expansion compares the
/// lockstep warp counts against the non-lockstep per-point counts of the
/// same warp assignment.
///
/// `lockstep_gpu` lets callers run the lockstep variant with a different
/// stack layout (e.g. the shared-memory stack the paper uses for BH).
///
/// `skip` supplies the tree's Apetrei escape links when the caller has
/// them; the ropes-free stackless executor is measured as an extra series
/// whenever the links are present and the kernel tolerates the canonical
/// left-first order without variant arguments.
#[allow(clippy::too_many_arguments)]
pub fn run_config<K: TraversalKernel>(
    benchmark: &str,
    input: &str,
    sorted: bool,
    kernel: &K,
    fresh: impl Fn() -> Vec<K::Point>,
    gpu: &GpuConfig,
    lockstep_gpu: &GpuConfig,
    threads: &[usize],
    skip: Option<&[NodeId]>,
) -> CellResult {
    // --- CPU sweep: real wall time where the host has the cores,
    // Amdahl-modeled from the measured 1-thread time otherwise (this host
    // may have fewer cores than the paper's 48-core Opteron box). ---
    let cores = host_cores();
    let mut pts = fresh();
    let t1_ms = cpu::run_parallel(kernel, &mut pts, 1).ms();
    let mut cpu_sweep = Vec::with_capacity(threads.len());
    for &t in threads {
        let ms = if t == 1 {
            t1_ms
        } else if t <= cores {
            let mut pts = fresh();
            cpu::run_parallel(kernel, &mut pts, t).ms()
        } else {
            modeled_cpu_ms(t1_ms, t)
        };
        cpu_sweep.push((t, ms));
    }
    let cpu1 = cpu_sweep
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, ms)| *ms)
        .unwrap_or(f64::NAN);
    let cpu32 = cpu_sweep
        .iter()
        .find(|(t, _)| *t == 32)
        .map(|(_, ms)| *ms)
        .unwrap_or(f64::NAN);

    // --- GPU variants (simulated). ---
    let mut pts = fresh();
    let ar = autoropes::run(kernel, &mut pts, gpu);
    let mut pts = fresh();
    let rec_n = recursive::run(kernel, &mut pts, gpu, false);
    let skip_eligible = !K::ARGS_VARIANT && (K::CALL_SETS == 1 || K::CALL_SETS_EQUIVALENT);
    let stackless_ms = skip.filter(|_| skip_eligible).map(|links| {
        let mut pts = fresh();
        stackless::run_skip(kernel, &mut pts, links, gpu).ms()
    });

    let lockstep_eligible = K::CALL_SETS == 1 || K::CALL_SETS_EQUIVALENT;
    // §4.4 run-time profiling: sample neighboring points' traversals and
    // decide lockstep vs. non-lockstep before committing to a variant.
    let profiler = if lockstep_eligible && points_for_profiling(&fresh) {
        let sample = fresh();
        let report = profile_sortedness(sample.len(), 16, DEFAULT_THRESHOLD, 1309, |i| {
            let mut p = sample[i].clone();
            cpu::trace_one(kernel, &mut p)
        });
        Some(report)
    } else {
        None
    };
    let (ls, rec_l) = if lockstep_eligible {
        let mut pts = fresh();
        let ls = lockstep::run(kernel, &mut pts, lockstep_gpu);
        let mut pts = fresh();
        let rec_l = recursive::run(kernel, &mut pts, gpu, true);
        (Some(ls), Some(rec_l))
    } else {
        (None, None)
    };

    let mk_row =
        |lockstep: bool, ms: f64, avg_nodes: f64, rec_ms: f64, wx: Option<(f64, f64)>| Row {
            benchmark: benchmark.to_string(),
            input: input.to_string(),
            sorted,
            lockstep,
            traversal_ms: ms,
            avg_nodes,
            speedup_vs_1: cpu1 / ms,
            speedup_vs_32: cpu32 / ms,
            improv_vs_recurse_pct: (rec_ms / ms - 1.0) * 100.0,
            work_expansion: wx,
        };

    let non_lockstep = mk_row(false, ar.ms(), ar.stats.avg_nodes(), rec_n.ms(), None);
    let lockstep_row = ls.as_ref().map(|ls_report| {
        // Table 2: lockstep warp visits vs. the longest *individual*
        // traversal per warp (taken from the non-lockstep run over the
        // same point order).
        let wx = work_expansion(&ls_report.per_warp_nodes, &ar.stats.per_point_nodes);
        mk_row(
            true,
            ls_report.ms(),
            ls_report.stats.avg_nodes(),
            rec_l.as_ref().expect("lockstep implies rec_l").ms(),
            Some(wx),
        )
    });

    CellResult {
        lockstep: lockstep_row,
        non_lockstep,
        cpu_sweep,
        recursive_l_ms: rec_l.map(|r| r.ms()),
        recursive_n_ms: rec_n.ms(),
        stackless_ms,
        profiler_picks_lockstep: profiler.as_ref().map(|r| r.use_lockstep),
        profiler_similarity: profiler.as_ref().map(|r| r.mean_similarity),
    }
}

/// Profiling needs at least two points.
fn points_for_profiling<P>(fresh: &impl Fn() -> Vec<P>) -> bool {
    fresh().len() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_apps::pc::{PcKernel, PcPoint};
    use gts_points::gen::uniform;
    use gts_trees::{KdTree, SplitPolicy};

    #[test]
    fn run_config_produces_complete_cell() {
        let pts = uniform::<3>(300, 91);
        let tree = KdTree::build(&pts, 8, SplitPolicy::MedianCycle);
        let kernel = PcKernel::new(&tree, 0.3);
        let gpu = GpuConfig::default();
        let cell = run_config(
            "Point Correlation",
            "Random",
            true,
            &kernel,
            || pts.iter().map(|&p| PcPoint::new(p)).collect(),
            &gpu,
            &gpu,
            &[1, 2, 32],
            Some(&gts_trees::linearize::skip_links(&tree.right)),
        );
        let l = cell
            .lockstep
            .as_ref()
            .expect("PC is unguided: lockstep row exists");
        assert!(l.traversal_ms > 0.0);
        assert!(cell.non_lockstep.traversal_ms > 0.0);
        assert_eq!(cell.cpu_sweep.len(), 3);
        // Lockstep avg-nodes is the warp union: at least the individual.
        assert!(l.avg_nodes >= cell.non_lockstep.avg_nodes);
        let (wx_mean, _) = l.work_expansion.expect("lockstep row carries expansion");
        assert!(wx_mean >= 1.0);
        // Speedups are finite (threads 1 and 32 were both measured).
        assert!(l.speedup_vs_1.is_finite());
        assert!(l.speedup_vs_32.is_finite());
        // The sweep is measured where the host has the cores and modeled
        // from the 1-thread time beyond them. Measured times owe each
        // other nothing on a loaded host; the modeled ones are exact.
        let (cores, t1_ms) = (host_cores(), cell.cpu_sweep[0].1);
        for &(t, ms) in &cell.cpu_sweep {
            assert!(ms.is_finite() && ms > 0.0, "{t} threads: {ms} ms");
            if t > cores {
                assert_eq!(ms, modeled_cpu_ms(t1_ms, t), "{t} threads");
            }
        }
    }

    #[test]
    fn amdahl_model_shape() {
        let t1 = 1000.0;
        assert_eq!(modeled_cpu_ms(t1, 1), t1);
        let t8 = modeled_cpu_ms(t1, 8);
        let t32 = modeled_cpu_ms(t1, 32);
        assert!(t8 < t1 / 5.0, "8 threads ≈ 6.5×: {t8}");
        assert!(t32 > t1 / 32.0, "sub-linear at 32 threads");
        assert!(t32 < t8);
    }
}
