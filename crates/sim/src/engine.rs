//! The per-warp event recorder and the launch-level accumulator.
//!
//! Executors in `gts-runtime` drive real computation lane-by-lane; every
//! warp step they perform is mirrored into a [`WarpSim`], which prices the
//! step's events via the [`CostModel`] and tallies [`SimCounters`]. When a
//! warp finishes, its counters fold into a [`KernelLaunch`]; when all warps
//! have run, [`KernelLaunch::finish`] applies the SM scheduling model to
//! produce the device-level execution time.
//!
//! The executors reach the recorder through the [`Meter`] trait, whose
//! other implementor, [`Unmetered`], records nothing: the same loop then
//! runs at the host's speed.

use crate::cost::CostModel;
use crate::counters::SimCounters;
use crate::l2::{L2Cache, L2Config};
use crate::memory::{self, AddressMap, MemSpace, RegionId, Run};
use crate::sched::{LaunchReport, Schedule};
use crate::{DeviceConfig, WarpMask, WARP_SIZE};

/// Records the events of a single warp's execution.
///
/// A `WarpSim` borrows the launch's [`AddressMap`] so region lookups stay
/// cheap; it owns its own counters so independent warps can be simulated on
/// host threads concurrently and folded back in warp order (keeping totals
/// deterministic). [`WarpSim::finish`] hands the counters over.
///
/// The recording path allocates nothing: a request's segments are gathered
/// on the stack, and per-region transactions are tallied by [`RegionId`]
/// and only keyed by region *name* once, in `finish`.
pub struct WarpSim<'a> {
    cost: &'a CostModel,
    map: &'a AddressMap,
    segment_bytes: u64,
    l2: Option<(L2Cache, L2Config)>,
    /// Event tallies for this warp so far (bar the per-region breakdown).
    counters: SimCounters,
    /// Transactions per region so far, indexed by [`RegionId`].
    region_transactions: Vec<u64>,
}

impl<'a> WarpSim<'a> {
    /// Start recording a warp against `map` with prices from `cost`.
    pub fn new(map: &'a AddressMap, cost: &'a CostModel, segment_bytes: u64) -> Self {
        WarpSim {
            cost,
            map,
            segment_bytes,
            l2: None,
            counters: SimCounters::new(),
            region_transactions: vec![0; map.regions().len()],
        }
    }

    /// Like [`WarpSim::new`], with this warp's slice of the optional L2
    /// cache model (see [`crate::l2`]).
    pub fn with_l2(
        map: &'a AddressMap,
        cost: &'a CostModel,
        segment_bytes: u64,
        l2: Option<&L2Config>,
    ) -> Self {
        let mut sim = Self::new(map, cost, segment_bytes);
        sim.l2 = l2.map(|cfg| (L2Cache::new(cfg.slice_lines(segment_bytes)), cfg.clone()));
        sim
    }

    /// The warp is done: its event tallies, with the per-region
    /// transaction breakdown keyed by region name.
    pub fn finish(self) -> SimCounters {
        let mut counters = self.counters;
        for (region, &n) in self.map.regions().iter().zip(&self.region_transactions) {
            if n > 0 {
                *counters
                    .per_region_transactions
                    .entry(region.name.clone())
                    .or_insert(0) += n;
            }
        }
        counters
    }

    /// Issue one warp instruction bundle of `compute_insts` ALU ops.
    /// Every traversal-loop iteration calls this once; masked-out lanes
    /// still pay (SIMT issue is warp-wide).
    pub fn step(&mut self, compute_insts: u64) {
        self.counters.warp_steps += 1;
        self.counters.compute_insts += compute_insts;
        self.counters.issue_cycles += self.cost.issue_cycles(compute_insts);
    }

    /// Per-lane load of `region[index(lane)]` for lanes in `mask`
    /// (non-lockstep pattern: each lane at its own tree node), coalesced
    /// into one transaction per distinct segment touched. A request with
    /// no participating lane costs nothing.
    pub fn load(&mut self, region: RegionId, mask: WarpMask, index: impl Fn(usize) -> u64) {
        if mask.none_active() {
            return;
        }
        let r = self.map.region(region);
        match r.space {
            MemSpace::Shared => self.shared_request(region),
            MemSpace::Global => {
                let addrs = mask.iter_active().map(|lane| r.addr(index(lane)));
                let mut buf = [(0, 0); WARP_SIZE];
                let runs = memory::gather(&mut buf, addrs, r.stride, self.segment_bytes);
                self.global_request(region, mask, runs);
            }
        }
    }

    /// Broadcast load of `region[index]` to all lanes in `mask` (lockstep
    /// pattern: “all threads in the warp will be loading from the same
    /// memory location”, paper §4.2 — one transaction per segment the
    /// element spans).
    pub fn load_broadcast(&mut self, region: RegionId, mask: WarpMask, index: u64) {
        if mask.none_active() {
            return;
        }
        let r = self.map.region(region);
        match r.space {
            MemSpace::Shared => self.shared_request(region),
            MemSpace::Global => {
                let run = memory::run_of(r.addr(index), r.stride, self.segment_bytes);
                self.global_request(region, mask, &[run]);
            }
        }
    }

    /// Price one shared-memory request. Banks are modeled conflict-free:
    /// it is one access, wherever its lanes point.
    fn shared_request(&mut self, region: RegionId) {
        self.counters.shared_accesses += 1;
        self.counters.stall_cycles += self.cost.shared_stall(1);
        self.region_transactions[region.0 as usize] += 1;
    }

    /// Price one global-memory request by the lanes in `mask` for one
    /// element of `region` each, touching the segments in `runs`.
    fn global_request(&mut self, region: RegionId, mask: WarpMask, runs: &[Run]) {
        let transactions = memory::count(runs);
        let c = &mut self.counters;
        c.global_useful_bytes += mask.count() as u64 * self.map.region(region).stride;
        match &mut self.l2 {
            Some((cache, l2_cfg)) => {
                // Classify each touched segment, in ascending order, as an
                // L2 hit or a DRAM transaction; hits skip the bus entirely.
                let hits = memory::ids(runs).filter(|&seg| cache.access(seg)).count() as u64;
                let misses = transactions - hits;
                c.l2_hits += hits;
                c.global_transactions += misses;
                c.global_bus_bytes += misses * self.segment_bytes;
                c.stall_cycles += self.cost.global_stall(misses) + l2_cfg.hit_stall(hits);
            }
            None => {
                c.global_transactions += transactions;
                c.global_bus_bytes += transactions * self.segment_bytes;
                c.stall_cycles += self.cost.global_stall(transactions);
            }
        }
        self.region_transactions[region.0 as usize] += transactions;
    }

    /// Record a divergent branch: the warp's lanes split over `sides`
    /// distinct control paths, so `sides - 1` replays are issued.
    pub fn diverge(&mut self, sides: u64) {
        if sides > 1 {
            let replays = sides - 1;
            self.counters.divergent_replays += replays;
            self.counters.issue_cycles += self.cost.divergence_replay * replays as f64;
        }
    }

    /// Record a call/return pair (naïve recursive baseline only).
    pub fn call(&mut self) {
        self.counters.calls += 1;
        self.counters.issue_cycles += self.cost.call_overhead;
    }

    /// Record a node visit performed by `active_lanes` lanes at once.
    /// `node_visits` counts lane-visits (paper Table 1's Avg. # Nodes);
    /// `warp_node_visits` counts warp-visits (Table 2's work-expansion
    /// numerator).
    pub fn visit_node(&mut self, active_lanes: u64) {
        self.counters.node_visits += active_lanes;
        self.counters.warp_node_visits += 1;
    }

    /// Record the peak rope-stack (or call-frame) bytes this warp used —
    /// [`SimCounters::stack_bytes_peak`]. Stackless executors never call
    /// it and report 0.
    pub fn stack_peak(&mut self, bytes: u64) {
        self.counters.stack_bytes_peak = bytes;
    }
}

/// Whom an executor tells what one warp did. The traversal loops in
/// `gts-runtime` are written once against this trait and instantiated
/// twice: under [`WarpSim`] every event is priced by the C2070 model;
/// under [`Unmetered`] every call is empty and the loop runs at the
/// host's speed — the same visits in the same order, nothing accounted.
pub trait Meter: Sized {
    /// This meter over a launch whose address map and prices are borrowed
    /// for `'a` (a [`WarpSim`] holds both; a launch-local scene's lifetime
    /// has no name at the executor's entry point).
    type For<'a>: Meter;

    /// Start one warp's meter ([`WarpSim::with_l2`]).
    fn start<'a>(
        map: &'a AddressMap,
        cost: &'a CostModel,
        segment_bytes: u64,
        l2: Option<&L2Config>,
    ) -> Self::For<'a>;

    /// [`WarpSim::step`].
    fn step(&mut self, compute_insts: u64);
    /// [`WarpSim::load`]. An implementor that prices nothing never calls
    /// `index`.
    fn load(&mut self, region: RegionId, mask: WarpMask, index: impl Fn(usize) -> u64);
    /// [`WarpSim::load_broadcast`].
    fn load_broadcast(&mut self, region: RegionId, mask: WarpMask, index: u64);
    /// [`WarpSim::diverge`].
    fn diverge(&mut self, sides: u64);
    /// [`WarpSim::call`].
    fn call(&mut self);
    /// [`WarpSim::visit_node`].
    fn visit_node(&mut self, active_lanes: u64);
    /// [`WarpSim::stack_peak`].
    fn stack_peak(&mut self, bytes: u64);
    /// [`WarpSim::finish`].
    fn finish(self) -> SimCounters;
}

impl Meter for WarpSim<'_> {
    type For<'a> = WarpSim<'a>;

    fn start<'a>(
        map: &'a AddressMap,
        cost: &'a CostModel,
        segment_bytes: u64,
        l2: Option<&L2Config>,
    ) -> WarpSim<'a> {
        WarpSim::with_l2(map, cost, segment_bytes, l2)
    }
    fn step(&mut self, compute_insts: u64) {
        WarpSim::step(self, compute_insts)
    }
    fn load(&mut self, region: RegionId, mask: WarpMask, index: impl Fn(usize) -> u64) {
        WarpSim::load(self, region, mask, index)
    }
    fn load_broadcast(&mut self, region: RegionId, mask: WarpMask, index: u64) {
        WarpSim::load_broadcast(self, region, mask, index)
    }
    fn diverge(&mut self, sides: u64) {
        WarpSim::diverge(self, sides)
    }
    fn call(&mut self) {
        WarpSim::call(self)
    }
    fn visit_node(&mut self, active_lanes: u64) {
        WarpSim::visit_node(self, active_lanes)
    }
    fn stack_peak(&mut self, bytes: u64) {
        WarpSim::stack_peak(self, bytes)
    }
    fn finish(self) -> SimCounters {
        WarpSim::finish(self)
    }
}

/// The meter that keeps no account: every method is empty, no address
/// closure is evaluated, and [`Meter::finish`] hands back zeroed counters.
/// A launch under it answers exactly what the [`WarpSim`] launch answers
/// and reports the executor's own visit counts; its modeled numbers are
/// not a model of anything and must not be read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmetered;

impl Meter for Unmetered {
    type For<'a> = Unmetered;

    fn start<'a>(_: &'a AddressMap, _: &'a CostModel, _: u64, _: Option<&L2Config>) -> Unmetered {
        Unmetered
    }
    fn step(&mut self, _: u64) {}
    fn load(&mut self, _: RegionId, _: WarpMask, _: impl Fn(usize) -> u64) {}
    fn load_broadcast(&mut self, _: RegionId, _: WarpMask, _: u64) {}
    fn diverge(&mut self, _: u64) {}
    fn call(&mut self) {}
    fn visit_node(&mut self, _: u64) {}
    fn stack_peak(&mut self, _: u64) {}
    fn finish(self) -> SimCounters {
        SimCounters::new()
    }
}

/// Accumulates per-warp results for one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelLaunch {
    /// The simulated device.
    pub device: DeviceConfig,
    /// Cycle prices used by all warps of this launch.
    pub cost: CostModel,
    /// Per-warp (issue, stall) cycle pairs in warp order.
    warp_cycles: Vec<(f64, f64)>,
    /// Launch-wide event totals.
    pub totals: SimCounters,
}

impl KernelLaunch {
    /// New empty launch on `device` with `cost` prices.
    pub fn new(device: DeviceConfig, cost: CostModel) -> Self {
        KernelLaunch {
            device,
            cost,
            warp_cycles: Vec::new(),
            totals: SimCounters::new(),
        }
    }

    /// Fold a finished warp's counters into the launch.
    pub fn absorb(&mut self, warp: SimCounters) {
        self.warp_cycles
            .push((warp.issue_cycles, warp.stall_cycles));
        self.totals.merge(&warp);
    }

    /// Number of warps absorbed so far.
    pub fn warps(&self) -> usize {
        self.warp_cycles.len()
    }

    /// Apply the SM scheduling model and produce the launch report.
    /// `shared_bytes_per_warp` is the shared-memory footprint each warp
    /// pins (0 when stacks live in global memory), which caps occupancy.
    pub fn finish(self, shared_bytes_per_warp: usize) -> LaunchReport {
        Schedule::run(
            &self.device,
            &self.cost,
            &self.warp_cycles,
            shared_bytes_per_warp,
            self.totals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemSpace;

    fn setup() -> (AddressMap, CostModel) {
        let mut map = AddressMap::new();
        map.alloc("nodes", MemSpace::Global, 1000, 16);
        (map, CostModel::unit())
    }

    #[test]
    fn step_accumulates_issue() {
        let (map, cost) = setup();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.step(3);
        w.step(0);
        assert_eq!(w.counters.warp_steps, 2);
        assert_eq!(w.counters.compute_insts, 3);
        // unit model: issue_cycles = (1+3) + (1+0)
        assert_eq!(w.counters.issue_cycles, 5.0);
    }

    #[test]
    fn broadcast_vs_scattered_transactions() {
        let (map, cost) = setup();
        let region = RegionId(0);
        let mut w = WarpSim::new(&map, &cost, 128);
        w.load_broadcast(region, WarpMask::ALL, 5);
        assert_eq!(w.counters.global_transactions, 1);
        assert_eq!(w.counters.global_useful_bytes, 32 * 16);
        let before = w.counters.stall_cycles;
        // Scatter: every lane 8 elements (128 B) apart → 32 segments.
        w.load(region, WarpMask::ALL, |l| (l as u64) * 8);
        assert_eq!(w.counters.global_transactions, 33);
        assert!(w.counters.stall_cycles > before);
        assert_eq!(w.finish().per_region_transactions["nodes"], 33);
    }

    #[test]
    fn inactive_warp_costs_nothing() {
        let (map, cost) = setup();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.load(RegionId(0), WarpMask::NONE, |l| l as u64);
        w.load_broadcast(RegionId(0), WarpMask::NONE, 3);
        assert_eq!(w.finish(), SimCounters::new());
    }

    #[test]
    fn partial_mask_counts_only_active_lanes() {
        let mut map = AddressMap::new();
        let r = map.alloc("p", MemSpace::Global, 64, 4);
        let cost = CostModel::unit();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.load(r, WarpMask::first(5), |l| l as u64);
        let c = w.finish();
        assert_eq!(c.global_useful_bytes, 20);
        assert_eq!(c.global_bus_bytes, 128);
    }

    #[test]
    fn shared_access_is_single_transaction() {
        let mut map = AddressMap::new();
        let r = map.alloc("stk", MemSpace::Shared, 1024, 8);
        let cost = CostModel::unit();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.load(r, WarpMask::ALL, |l| (l as u64) * 17);
        let c = w.finish();
        assert_eq!(c.shared_accesses, 1);
        assert_eq!(c.global_transactions, 0);
        assert_eq!(c.per_region_transactions["stk"], 1);
    }

    #[test]
    fn untouched_regions_stay_out_of_the_breakdown() {
        let mut map = AddressMap::new();
        let nodes = map.alloc("nodes", MemSpace::Global, 100, 16);
        map.alloc("rope_stack", MemSpace::Global, 100, 8);
        let cost = CostModel::unit();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.load_broadcast(nodes, WarpMask::ALL, 0);
        let c = w.finish();
        assert_eq!(c.per_region_transactions.len(), 1);
        assert!(!c.per_region_transactions.contains_key("rope_stack"));
    }

    #[test]
    fn divergence_counts_replays() {
        let (map, cost) = setup();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.diverge(1); // convergent: free
        assert_eq!(w.counters.divergent_replays, 0);
        w.diverge(3);
        assert_eq!(w.counters.divergent_replays, 2);
    }

    #[test]
    fn visit_node_tracks_both_granularities() {
        let (map, cost) = setup();
        let mut w = WarpSim::new(&map, &cost, 128);
        w.visit_node(32);
        w.visit_node(1);
        assert_eq!(w.counters.node_visits, 33);
        assert_eq!(w.counters.warp_node_visits, 2);
    }

    #[test]
    fn l2_hits_skip_the_bus() {
        let (map, cost) = setup();
        let region = RegionId(0);
        let l2 = crate::l2::L2Config::fermi();
        let mut w = WarpSim::with_l2(&map, &cost, 128, Some(&l2));
        // First broadcast: miss (1 transaction); repeat: hit (0 bus bytes).
        w.load_broadcast(region, WarpMask::ALL, 3);
        assert_eq!(w.counters.global_transactions, 1);
        assert_eq!(w.counters.l2_hits, 0);
        w.load_broadcast(region, WarpMask::ALL, 3);
        assert_eq!(w.counters.global_transactions, 1, "second touch must hit");
        assert_eq!(w.counters.l2_hits, 1);
        assert_eq!(w.counters.global_bus_bytes, 128);
    }

    #[test]
    fn unmetered_evaluates_no_address_and_counts_nothing() {
        let (map, cost) = setup();
        let mut w = <Unmetered as Meter>::start(&map, &cost, 128, None);
        w.step(3);
        w.load(RegionId(0), WarpMask::ALL, |_| panic!("address evaluated"));
        // Region 7 does not exist: nothing is looked up either.
        w.load_broadcast(RegionId(7), WarpMask::ALL, u64::MAX);
        w.diverge(3);
        w.call();
        w.visit_node(32);
        w.stack_peak(4096);
        assert_eq!(w.finish(), SimCounters::new());
    }

    #[test]
    fn the_trait_reaches_warp_sim_unchanged() {
        fn script(mut m: impl Meter) -> SimCounters {
            m.step(3);
            m.load(RegionId(0), WarpMask::ALL, |l| (l as u64) * 8);
            m.load_broadcast(RegionId(0), WarpMask::first(5), 5);
            m.diverge(3);
            m.call();
            m.visit_node(5);
            m.stack_peak(64);
            m.finish()
        }
        let (map, cost) = setup();
        let l2 = crate::l2::L2Config::fermi();
        let mut direct = WarpSim::with_l2(&map, &cost, 128, Some(&l2));
        direct.step(3);
        direct.load(RegionId(0), WarpMask::ALL, |l| (l as u64) * 8);
        direct.load_broadcast(RegionId(0), WarpMask::first(5), 5);
        direct.diverge(3);
        direct.call();
        direct.visit_node(5);
        direct.stack_peak(64);
        let through = script(<WarpSim<'_> as Meter>::start(&map, &cost, 128, Some(&l2)));
        assert_eq!(through, direct.finish());
    }

    #[test]
    fn launch_absorbs_in_order() {
        let (map, cost) = setup();
        let mut launch = KernelLaunch::new(DeviceConfig::tiny(), cost.clone());
        for i in 0..3 {
            let mut w = WarpSim::new(&map, &cost, 128);
            w.step(i);
            launch.absorb(w.finish());
        }
        assert_eq!(launch.warps(), 3);
        assert_eq!(launch.totals.warp_steps, 3);
        assert_eq!(launch.totals.compute_insts, 1 + 2);
    }
}
