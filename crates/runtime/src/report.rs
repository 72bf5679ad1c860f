//! Execution reports shared by all executors.

use std::time::Duration;

use gts_sim::sched::LaunchReport;
use gts_sim::WARP_SIZE;

/// Algorithmic statistics of one run, independent of any cost model.
#[derive(Debug, Clone, Default)]
pub struct TraversalStats {
    /// Tree-node visits per point (the paper's “Avg. # Nodes” divides this
    /// by the point count). For lockstep runs a point is charged for every
    /// node its warp visited, live on the entry's mask or carried along
    /// (the pops it was live for: [`GpuReport::per_point_live_nodes`]).
    pub per_point_nodes: Vec<u32>,
}

impl TraversalStats {
    /// Average nodes visited per point.
    pub fn avg_nodes(&self) -> f64 {
        if self.per_point_nodes.is_empty() {
            0.0
        } else {
            self.per_point_nodes.iter().map(|&n| n as f64).sum::<f64>()
                / self.per_point_nodes.len() as f64
        }
    }

    /// Maximum per-point node count.
    pub fn max_nodes(&self) -> u32 {
        self.per_point_nodes.iter().copied().max().unwrap_or(0)
    }
}

/// Result of a CPU run.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Per-point visit counts.
    pub stats: TraversalStats,
    /// Measured wall-clock time of the traversal loop.
    pub wall: Duration,
    /// Threads used.
    pub threads: usize,
}

impl CpuReport {
    /// Wall time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

/// Result of a simulated GPU run. `launch` is the meter's account — the
/// C2070 model under [`gts_sim::WarpSim`], priced at nothing and not to be
/// read under [`gts_sim::Unmetered`]; every other field is the executor's
/// own count and the same under either.
#[derive(Debug, Clone)]
pub struct GpuReport {
    /// Scheduling + counter report from the simulator (modeled time).
    pub launch: LaunchReport,
    /// Per-point visit counts.
    pub stats: TraversalStats,
    /// Nodes visited by each warp (number of rope-stack pops with at least
    /// one live lane; for the Wald walk, steps on which a lane arrived at a
    /// node). For lockstep runs, dividing by the warp's longest individual
    /// traversal gives Table 2's work expansion. Sums to the meter's
    /// [`gts_sim::SimCounters::warp_node_visits`].
    pub per_warp_nodes: Vec<u64>,
    /// Lockstep runs only (empty otherwise — there a point is charged for
    /// nothing but its own visits): the pops each point's lane was live
    /// for, i.e. its own walk in the order its warp voted, where
    /// `stats.per_point_nodes` charges it for every pop of the warp.
    /// [`work_expansion`] of `per_warp_nodes` over these is the expansion
    /// the run's own masks show.
    pub per_point_live_nodes: Vec<u32>,
    /// Deepest rope stack observed across all lanes/warps.
    pub max_stack_depth: usize,
}

impl GpuReport {
    /// Modeled execution time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.launch.time_ms
    }

    /// Node visits by live lanes — what the meter counts as
    /// [`gts_sim::SimCounters::node_visits`], from the executor's own
    /// per-point counts: the pops each lane was live for under lockstep,
    /// each point's visits otherwise.
    pub fn live_visits(&self) -> u64 {
        let live = if self.per_point_live_nodes.is_empty() {
            &self.stats.per_point_nodes
        } else {
            &self.per_point_live_nodes
        };
        live.iter().map(|&v| u64::from(v)).sum()
    }

    /// Mean fraction of lanes live across all warp node visits (§5's mask
    /// occupancy): lane-visits divided by `WARP_SIZE ×` warp-visits. A
    /// lockstep warp dragging mostly-truncated lanes scores low; a warp
    /// whose lanes traverse alike scores near 1. Returns 1.0 for a run
    /// with no warp visits (nothing was diluted).
    pub fn mask_occupancy(&self) -> f64 {
        let warp_visits: u64 = self.per_warp_nodes.iter().sum();
        if warp_visits == 0 {
            1.0
        } else {
            self.live_visits() as f64 / (WARP_SIZE as f64 * warp_visits as f64)
        }
    }
}

/// Table 2's statistic: per-warp work expansion of a lockstep run relative
/// to the longest individual traversal in each warp, returned as
/// `(mean, std_dev)` over warps.
///
/// `per_warp_nodes` comes from the lockstep run; `per_point_nodes` from the
/// *non-lockstep* traversal of the same points in the same order (“the
/// number of nodes in the longest traversal of each warp, which captures
/// how long a warp would take to finish in the non-lockstep variant”,
/// §6.3). Fed the lockstep run's own
/// [`per_point_live_nodes`](GpuReport::per_point_live_nodes) instead, it
/// needs no second run: the same number for a one-call-set kernel, whose
/// live set *is* its independent walk, and a lower one for a guided
/// kernel, whose lanes' own walks the voted order lengthens too.
pub fn work_expansion(per_warp_nodes: &[u64], per_point_nodes: &[u32]) -> (f64, f64) {
    assert!(!per_warp_nodes.is_empty(), "no warps to analyze");
    let mut ratios = Vec::with_capacity(per_warp_nodes.len());
    for (w, &warp_nodes) in per_warp_nodes.iter().enumerate() {
        let lanes = &per_point_nodes[w * 32..((w + 1) * 32).min(per_point_nodes.len())];
        let longest = lanes.iter().copied().max().unwrap_or(0).max(1) as f64;
        ratios.push(warp_nodes as f64 / longest);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / ratios.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_and_max_nodes() {
        let s = TraversalStats {
            per_point_nodes: vec![2, 4, 6],
        };
        assert_eq!(s.avg_nodes(), 4.0);
        assert_eq!(s.max_nodes(), 6);
        assert_eq!(TraversalStats::default().avg_nodes(), 0.0);
    }

    #[test]
    fn work_expansion_unit_when_identical() {
        // One warp of 32 lanes, all traversals 10 nodes, warp visited 10.
        let (mean, sd) = work_expansion(&[10], &[10u32; 32]);
        assert_eq!(mean, 1.0);
        assert_eq!(sd, 0.0);
    }

    #[test]
    fn work_expansion_ratio() {
        // Warp visited 30 nodes; longest lane traversal was 10 → 3×.
        let mut lanes = vec![1u32; 32];
        lanes[7] = 10;
        let (mean, _) = work_expansion(&[30], &lanes);
        assert_eq!(mean, 3.0);
    }

    #[test]
    fn work_expansion_partial_tail_warp() {
        // 40 points → second warp has only 8 lanes.
        let mut lanes = vec![5u32; 40];
        lanes[35] = 20;
        let (mean, sd) = work_expansion(&[5, 20], &lanes);
        assert_eq!(mean, 1.0);
        assert_eq!(sd, 0.0);
    }

    #[test]
    fn work_expansion_std_dev() {
        let (mean, sd) = work_expansion(&[10, 30], &[10u32; 64]);
        assert_eq!(mean, 2.0);
        assert_eq!(sd, 1.0);
    }
}
