//! Wiring of the 18 benchmark/input pairs (§6.1.2), each in sorted and
//! unsorted point order — 36 cells for the full suite.

use gts_apps::bh::{BhKernel, BhPoint};
use gts_apps::knn::{KnnKernel, KnnPoint};
use gts_apps::nn::{NnKernel, NnPoint};
use gts_apps::pc::{PcKernel, PcPoint};
use gts_apps::vp::{VpKernel, VpPoint};
use gts_points::gen::{self, Dataset};
use gts_points::sort::{apply_perm, morton_order, shuffle};
use gts_trees::linearize::skip_links;
use gts_trees::{Aabb, KdTree, PointN, SplitPolicy, VpTree};

use crate::config::HarnessConfig;
use crate::row::CellResult;
use crate::runner::run_config;

/// Benchmark display names, matching the paper's Table 1.
pub const BENCHMARKS: &[&str] = &[
    "Barnes Hut",
    "Point Correlation",
    "k-Nearest Neighbor",
    "Nearest Neighbor",
    "Vantage Point",
];

/// The data-mining inputs (PC/kNN/NN/VP run all four).
pub const DM_INPUTS: &[Dataset] = &[
    Dataset::Covtype,
    Dataset::Mnist,
    Dataset::Random,
    Dataset::Geocity,
];

/// The full suite's results.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// One cell per benchmark × input × sortedness, in suite order.
    pub cells: Vec<CellResult>,
}

impl SuiteResult {
    /// Cells of one benchmark, in input order, `(sorted, unsorted)` pairs.
    pub fn of_benchmark(&self, benchmark: &str) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.non_lockstep.benchmark == benchmark)
            .collect()
    }
}

/// Query order for one configuration: sorted (Morton) or shuffled.
fn order_points<const D: usize>(data: &[PointN<D>], sorted: bool, seed: u64) -> Vec<PointN<D>> {
    if sorted {
        apply_perm(data, &morton_order(data))
    } else {
        let mut v = data.to_vec();
        shuffle(&mut v, seed ^ 0xdead_beef);
        v
    }
}

pub(crate) fn diag<const D: usize>(data: &[PointN<D>]) -> f32 {
    let b = Aabb::of_points(data);
    b.lo.dist(&b.hi)
}

/// Run both sortedness variants of Barnes-Hut on `input`.
pub fn bh_cells(cfg: &HarnessConfig, input: Dataset) -> Vec<CellResult> {
    let bodies = match input {
        Dataset::Plummer => gen::plummer(cfg.n_bodies(), cfg.seed),
        Dataset::Random => gen::random_bodies(cfg.n_bodies(), cfg.seed),
        other => panic!("BH runs Plummer/Random, not {other:?}"),
    };
    let pos: Vec<PointN<3>> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f32> = bodies.iter().map(|b| b.mass).collect();
    let tree = gts_trees::Octree::build(&pos, &mass, cfg.leaf_size);
    let kernel = BhKernel::new(&tree, cfg.theta, cfg.eps);
    // Paper §5.2: BH lockstep keeps its rope stack in shared memory.
    let ls_gpu = cfg.gpu.clone().with_shared_stack();
    [true, false]
        .into_iter()
        .map(|sorted| {
            let queries = order_points(&pos, sorted, cfg.seed);
            run_config(
                "Barnes Hut",
                input.name(),
                sorted,
                &kernel,
                || queries.iter().map(|&p| BhPoint::new(p)).collect(),
                &cfg.gpu,
                &ls_gpu,
                &cfg.threads,
                None,
            )
        })
        .collect()
}

/// Run both sortedness variants of one kd/vp benchmark on `data`.
fn dm_cells<const D: usize>(
    cfg: &HarnessConfig,
    benchmark: &str,
    input: &str,
    data: &[PointN<D>],
) -> Vec<CellResult> {
    let mut out = Vec::with_capacity(2);
    for sorted in [true, false] {
        let queries = order_points(data, sorted, cfg.seed);
        let cell = match benchmark {
            "Point Correlation" => {
                let tree = KdTree::build(data, cfg.leaf_size, SplitPolicy::MedianCycle);
                let radius = cfg.radius_frac * diag(data);
                let kernel = PcKernel::new(&tree, radius);
                run_config(
                    benchmark,
                    input,
                    sorted,
                    &kernel,
                    || queries.iter().map(|&p| PcPoint::new(p)).collect(),
                    &cfg.gpu,
                    &cfg.gpu,
                    &cfg.threads,
                    Some(&skip_links(&tree.right)),
                )
            }
            "k-Nearest Neighbor" => {
                let tree = KdTree::build(data, cfg.leaf_size, SplitPolicy::MedianCycle);
                let kernel = KnnKernel::new(&tree);
                let k = cfg.k;
                run_config(
                    benchmark,
                    input,
                    sorted,
                    &kernel,
                    || queries.iter().map(|&p| KnnPoint::new(p, k)).collect(),
                    &cfg.gpu,
                    &cfg.gpu,
                    &cfg.threads,
                    Some(&skip_links(&tree.right)),
                )
            }
            "Nearest Neighbor" => {
                let tree = KdTree::build(data, cfg.leaf_size, SplitPolicy::MidpointWidest);
                let kernel = NnKernel::new(&tree);
                run_config(
                    benchmark,
                    input,
                    sorted,
                    &kernel,
                    // NnKernel carries traversal-variant arguments, so the
                    // skip-eligibility gate declines these links; the
                    // AABB-pruned variant runs in the service path instead.
                    || queries.iter().map(|&p| NnPoint::new(p)).collect(),
                    &cfg.gpu,
                    &cfg.gpu,
                    &cfg.threads,
                    Some(&skip_links(&tree.right)),
                )
            }
            "Vantage Point" => {
                let tree = VpTree::build(data, cfg.leaf_size);
                let kernel = VpKernel::new(&tree);
                run_config(
                    benchmark,
                    input,
                    sorted,
                    &kernel,
                    || queries.iter().map(|&p| VpPoint::new(p)).collect(),
                    &cfg.gpu,
                    &cfg.gpu,
                    &cfg.threads,
                    None,
                )
            }
            other => panic!("unknown data-mining benchmark {other}"),
        };
        out.push(cell);
    }
    out
}

/// Run one data-mining benchmark over its four inputs.
pub fn dm_benchmark_cells(cfg: &HarnessConfig, benchmark: &str) -> Vec<CellResult> {
    let mut out = Vec::new();
    for &ds in DM_INPUTS {
        match ds {
            Dataset::Geocity => {
                let data = gen::geocity_like(cfg.n_points(), cfg.seed);
                out.extend(dm_cells::<2>(cfg, benchmark, ds.name(), &data));
            }
            _ => {
                let data = gen::dataset_7d(ds, cfg.n_points(), cfg.seed);
                out.extend(dm_cells::<7>(cfg, benchmark, ds.name(), &data));
            }
        }
    }
    out
}

/// Run the full suite (or the subset named in `only`).
pub fn run_suite(cfg: &HarnessConfig, only: Option<&str>) -> SuiteResult {
    let selected =
        |name: &str| only.is_none_or(|o| name.to_lowercase().contains(&o.to_lowercase()));
    let mut cells = Vec::new();
    if selected("Barnes Hut") {
        for input in [Dataset::Plummer, Dataset::Random] {
            cells.extend(bh_cells(cfg, input));
        }
    }
    for benchmark in &BENCHMARKS[1..] {
        if selected(benchmark) {
            cells.extend(dm_benchmark_cells(cfg, benchmark));
        }
    }
    SuiteResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        let mut cfg = HarnessConfig::at_scale(0.002); // 400 points, 2000 bodies
        cfg.threads = vec![1, 32];
        cfg
    }

    #[test]
    fn bh_cells_shape() {
        let cfg = tiny_cfg();
        let cells = bh_cells(&cfg, Dataset::Random);
        assert_eq!(cells.len(), 2);
        assert!(cells[0].non_lockstep.sorted);
        assert!(!cells[1].non_lockstep.sorted);
        // BH is unguided: lockstep rows exist.
        assert!(cells[0].lockstep.is_some());
    }

    #[test]
    fn pc_suite_subset_runs() {
        let cfg = tiny_cfg();
        let suite = run_suite(&cfg, Some("Point Correlation"));
        // 4 inputs × 2 sortedness.
        assert_eq!(suite.cells.len(), 8);
        assert!(suite.of_benchmark("Point Correlation").len() == 8);
        assert!(suite.of_benchmark("Barnes Hut").is_empty());
    }

    #[test]
    fn sorted_lockstep_expansion_below_unsorted() {
        // The core Table 2 trend at miniature scale: sorting bounds
        // lockstep work expansion.
        let cfg = tiny_cfg();
        let cells = {
            let data = gen::dataset_7d(Dataset::Covtype, cfg.n_points(), cfg.seed);
            dm_cells::<7>(&cfg, "Point Correlation", "Covtype", &data)
        };
        let sorted_wx = cells[0]
            .lockstep
            .as_ref()
            .unwrap()
            .work_expansion
            .unwrap()
            .0;
        let unsorted_wx = cells[1]
            .lockstep
            .as_ref()
            .unwrap()
            .work_expansion
            .unwrap()
            .0;
        assert!(
            sorted_wx < unsorted_wx,
            "sorted {sorted_wx} !< unsorted {unsorted_wx}"
        );
    }
}
