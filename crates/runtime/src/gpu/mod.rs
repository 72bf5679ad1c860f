//! Simulated-GPU executors: naïve recursion, autoropes, lockstep, and the
//! stackless (skip-link / Wald) walks.
//!
//! All of them share the launch scaffolding in this module: points are
//! partitioned into warps of 32 lanes; each warp is simulated independently
//! (real computation + event mirroring into a [`gts_sim::Meter`]) and the
//! per-warp results fold into a [`gts_sim::KernelLaunch`] **in warp order**,
//! so reports are bit-identical regardless of how many host threads the
//! simulation itself used. Each executor's `run` is its loop under
//! [`gts_sim::WarpSim`], the paper's C2070 model; `run_on::<Unmetered, _>`
//! is the same loop with the accounting compiled out.

pub mod autoropes;
pub mod lockstep;
pub mod recursive;
pub mod stackless;

use gts_sim::{
    AddressMap, CostModel, DeviceConfig, KernelLaunch, L2Config, RegionId, SimCounters, WarpMask,
    WARP_SIZE,
};
/// The meters an executor's `run_on` is instantiated with.
pub use gts_sim::{Meter, Unmetered, WarpSim};
use gts_trees::layout::{NodeLayout, TreeRegions};

use crate::kernel::TraversalKernel;
use crate::report::{GpuReport, TraversalStats};
use crate::stack::{StackLayout, StackRegion};

/// Configuration of a simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// The simulated device (defaults to the paper's Tesla C2070).
    pub device: DeviceConfig,
    /// Cycle prices.
    pub cost: CostModel,
    /// Node record layout (hot/cold split vs. monolithic).
    pub node_layout: NodeLayout,
    /// Rope-stack layout.
    pub stack_layout: StackLayout,
    /// Host threads used to *simulate* warps (no effect on results).
    pub host_threads: usize,
    /// Optional L2 cache model (default off — the conservative DRAM-only
    /// configuration the headline results use; see `gts_sim::l2`).
    pub l2: Option<L2Config>,
}

impl Default for GpuConfig {
    /// [`GpuConfig::new`] on every core the host offers. The probe reads
    /// the scheduler affinity and cgroup files — microseconds, so callers
    /// on a per-batch path that already know their thread count should
    /// call `new` directly.
    fn default() -> Self {
        GpuConfig::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl GpuConfig {
    /// The paper's configuration (Tesla C2070, Fermi prices, hot/cold node
    /// split, interleaved global rope stacks, no L2 model), simulated on
    /// `host_threads` host threads.
    pub fn new(host_threads: usize) -> Self {
        GpuConfig {
            device: DeviceConfig::tesla_c2070(),
            cost: CostModel::fermi(),
            node_layout: NodeLayout::HotColdSplit,
            stack_layout: StackLayout::InterleavedGlobal,
            host_threads: host_threads.max(1),
            l2: None,
        }
    }

    /// The configuration the paper uses for lockstep Barnes-Hut: per-warp
    /// rope stack in shared memory.
    pub fn with_shared_stack(mut self) -> Self {
        self.stack_layout = StackLayout::SharedPerWarp;
        self
    }

    /// Builder: choose the rope-stack layout.
    pub fn with_stack_layout(mut self, layout: StackLayout) -> Self {
        self.stack_layout = layout;
        self
    }

    /// Builder: choose the node record layout.
    pub fn with_node_layout(mut self, layout: NodeLayout) -> Self {
        self.node_layout = layout;
        self
    }

    /// Builder: pin the number of host threads used for simulation
    /// (results are identical regardless; this is a throughput knob).
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.host_threads = n.max(1);
        self
    }

    /// Builder: enable the Fermi L2 cache model.
    pub fn with_l2(mut self) -> Self {
        self.l2 = Some(L2Config::fermi());
        self
    }
}

/// The simulated address space of one launch: tree regions, point records,
/// rope-stack (or call-frame) storage.
pub struct Scene {
    /// The address map all regions live in.
    pub map: AddressMap,
    /// Tree node fragments and leaf elements.
    pub tree: TreeRegions,
    /// Per-point records (loaded at thread start, stored at thread end).
    pub points: RegionId,
    /// Rope stack / call frame storage.
    pub stack: StackRegion,
    /// Shared-memory bytes pinned per warp (occupancy input).
    pub shared_bytes_per_warp: usize,
}

impl Scene {
    /// Build the address space for `kernel` over `n_points` traversals.
    /// `entry_extra` is added to each stack entry (4 for lockstep's mask
    /// word, call-frame padding for the recursive baseline).
    pub fn build<K: TraversalKernel>(
        kernel: &K,
        n_points: usize,
        cfg: &GpuConfig,
        stack_name: &str,
        entry_extra: u64,
    ) -> Scene {
        let mut map = AddressMap::new();
        let n_nodes = kernel.n_nodes() as u64;
        // Leaf elements array is as long as the point set the tree was
        // built over; `leaf_range` indexes into it.
        let tree = TreeRegions::alloc(
            &mut map,
            "tree",
            kernel.node_bytes(),
            cfg.node_layout,
            n_nodes,
            kernel.n_leaf_elems(),
        );
        let points = map.alloc(
            "points",
            gts_sim::MemSpace::Global,
            n_points.max(1) as u64,
            kernel.point_bytes(),
        );
        // Rope stack headroom: a DFS over a tree of depth d with k-ary
        // pushes holds at most d·(k−1)+1 entries; pad for the root push.
        let max_depth = (kernel.max_depth() + 2) * K::MAX_KIDS.max(2).saturating_sub(1) + 4;
        let entry_bytes = 4 + if K::ARGS_VARIANT { K::ARG_BYTES } else { 0 } + entry_extra;
        let stack = StackRegion::alloc(
            &mut map,
            stack_name,
            cfg.stack_layout,
            max_depth,
            entry_bytes,
        );
        let shared_bytes_per_warp = stack.shared_bytes_per_warp(&map);
        Scene {
            map,
            tree,
            points,
            stack,
            shared_bytes_per_warp,
        }
    }
}

/// Per-warp simulation result.
pub(crate) struct WarpOut {
    counters: SimCounters,
    per_point_nodes: Vec<u32>,
    warp_nodes: u64,
    max_depth: usize,
}

/// [`drive_points`] with the kernel threaded through to the warp body —
/// the shape every [`TraversalKernel`]-driven executor uses.
pub(crate) fn drive<'s, M, K, F>(
    kernel: &K,
    points: &mut [K::Point],
    cfg: &'s GpuConfig,
    scene: &'s Scene,
    warp_fn: F,
) -> GpuReport
where
    M: Meter,
    K: TraversalKernel,
    F: Fn(&K, usize, &mut [K::Point], &mut M::For<'s>) -> (Vec<u32>, u64, usize) + Sync,
{
    drive_points::<M, _, _>(points, cfg, scene, |warp, lanes, sim| {
        warp_fn(kernel, warp, lanes, sim)
    })
}

/// Run every warp of `points` through `warp_fn` under meter `M`, on
/// `cfg.host_threads` host threads, and fold the results deterministically.
/// Generic over the point type only, so executors that do not speak
/// [`TraversalKernel`] (the Wald walker's own kernel interface) can reuse
/// the scaffolding.
///
/// `warp_fn(warp_index, lanes, sim)` runs the traversal for one warp's
/// points (`lanes.len() <= 32`), reporting its events to `sim`, and returns
/// `(per_point_nodes, warp_nodes, max_stack_depth)`. Under
/// [`gts_sim::Unmetered`] the report's `launch` prices nothing; the three
/// executor-side counts are the same either way.
pub(crate) fn drive_points<'s, M, P, F>(
    points: &mut [P],
    cfg: &'s GpuConfig,
    scene: &'s Scene,
    warp_fn: F,
) -> GpuReport
where
    M: Meter,
    P: Send,
    F: Fn(usize, &mut [P], &mut M::For<'s>) -> (Vec<u32>, u64, usize) + Sync,
{
    let n = points.len();
    let n_warps = n.div_ceil(WARP_SIZE);
    let segment = cfg.device.segment_bytes;

    let run_warp = |warp_idx: usize, lanes: &mut [P]| -> WarpOut {
        let mut sim = M::start(&scene.map, &cfg.cost, segment, cfg.l2.as_ref());
        let mask = WarpMask::first(lanes.len());
        // Thread prologue: grid-stride loop loads each lane's point record
        // (coalesced — adjacent lanes, adjacent records).
        sim.step(4);
        sim.load(scene.points, mask, |l| (warp_idx * WARP_SIZE + l) as u64);
        let (per_point_nodes, warp_nodes, max_depth) = warp_fn(warp_idx, lanes, &mut sim);
        // Epilogue: store results back.
        sim.step(2);
        sim.load(scene.points, mask, |l| (warp_idx * WARP_SIZE + l) as u64);
        WarpOut {
            counters: sim.finish(),
            per_point_nodes,
            warp_nodes,
            max_depth,
        }
    };

    // Partition warps into contiguous chunks, one per host thread; merge
    // chunk outputs in order.
    let host_threads = cfg.host_threads.max(1).min(n_warps.max(1));
    let warps_per_chunk = n_warps.div_ceil(host_threads.max(1)).max(1);
    let mut outs: Vec<Vec<WarpOut>> = Vec::new();
    if n_warps == 0 {
        // Empty launch: nothing to simulate.
    } else if host_threads == 1 {
        let mut chunk_out = Vec::with_capacity(n_warps);
        for (w, lanes) in points.chunks_mut(WARP_SIZE).enumerate() {
            chunk_out.push(run_warp(w, lanes));
        }
        outs.push(chunk_out);
    } else {
        crossbeam::scope(|s| {
            let mut handles = Vec::new();
            let mut rest = &mut *points;
            let mut warp_base = 0usize;
            while !rest.is_empty() {
                let take = (warps_per_chunk * WARP_SIZE).min(rest.len());
                let (chunk, tail) = rest.split_at_mut(take);
                rest = tail;
                let base = warp_base;
                warp_base += take.div_ceil(WARP_SIZE);
                let run_warp = &run_warp;
                handles.push(s.spawn(move |_| {
                    chunk
                        .chunks_mut(WARP_SIZE)
                        .enumerate()
                        .map(|(i, lanes)| run_warp(base + i, lanes))
                        .collect::<Vec<WarpOut>>()
                }));
            }
            for h in handles {
                outs.push(h.join().expect("warp simulation thread panicked"));
            }
        })
        .expect("crossbeam scope failed");
    }

    let mut launch = KernelLaunch::new(cfg.device.clone(), cfg.cost.clone());
    let mut per_point_nodes = Vec::with_capacity(n);
    let mut per_warp_nodes = Vec::with_capacity(n_warps);
    let mut max_stack_depth = 0usize;
    for out in outs.into_iter().flatten() {
        launch.absorb(out.counters);
        per_point_nodes.extend(out.per_point_nodes);
        per_warp_nodes.push(out.warp_nodes);
        max_stack_depth = max_stack_depth.max(out.max_depth);
    }
    debug_assert_eq!(per_point_nodes.len(), n);

    GpuReport {
        launch: launch.finish(scene.shared_bytes_per_warp),
        stats: TraversalStats { per_point_nodes },
        per_warp_nodes,
        per_point_live_nodes: Vec::new(),
        max_stack_depth,
    }
}

/// Model the memory traffic of scanning leaf buckets where each active
/// lane sits at its own leaf (non-lockstep): the warp iterates
/// `max(count)` times; in iteration `k`, lanes with `count > k` load their
/// bucket's `k`-th element.
pub(crate) fn scan_leaves_per_lane<K: TraversalKernel>(
    kernel: &K,
    scene: &Scene,
    sim: &mut impl Meter,
    leaf_of: &[Option<(u32, u32)>; WARP_SIZE],
) {
    let max_count = leaf_of.iter().flatten().map(|&(_, c)| c).max().unwrap_or(0);
    for k in 0..max_count {
        let m = WarpMask::ballot(|l| matches!(leaf_of[l], Some((_, c)) if c > k));
        if m.none_active() {
            break;
        }
        sim.step(kernel.leaf_elem_insts());
        sim.load(scene.tree.leaf_elems, m, |l| {
            let (f, _) = leaf_of[l].expect("masked lane");
            (f + k) as u64
        });
    }
}

/// Model the memory traffic of scanning one leaf bucket warp-wide
/// (lockstep): every iteration broadcasts one element to all active lanes.
pub(crate) fn scan_leaf_broadcast<K: TraversalKernel>(
    kernel: &K,
    scene: &Scene,
    sim: &mut impl Meter,
    mask: WarpMask,
    first: u32,
    count: u32,
) {
    for k in 0..count {
        sim.step(kernel.leaf_elem_insts());
        sim.load_broadcast(scene.tree.leaf_elems, mask, (first + k) as u64);
    }
}
