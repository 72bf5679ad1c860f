//! Rope-stack storage layouts (paper §5.2).
//!
//! *“The most general approach for laying out the stacks is to allocate
//! global GPU memory for each thread's stack where items are arranged such
//! that if two adjacent threads are at the same stack level their accesses
//! are made to contiguous locations in memory … the threads' stacks are
//! interleaved in memory, rather than having each thread's stack
//! contiguous.”*
//!
//! Three layouts are modeled; the ablation bench sweeps them:
//!
//! * [`StackLayout::InterleavedGlobal`] — slot `(depth, lane)` lives at
//!   element `depth·32 + lane` of a per-warp global region: lanes at the
//!   same depth coalesce. The paper's choice for non-lockstep traversal.
//! * [`StackLayout::ContiguousGlobal`] — slot `(depth, lane)` lives at
//!   `lane·max_depth + depth`: lanes at the same depth scatter across 32
//!   segments. The naïve layout the paper argues against.
//! * [`StackLayout::SharedPerWarp`] — the lockstep option: one stack per
//!   warp in shared memory; its footprint reduces occupancy, which the
//!   scheduler prices.

use gts_sim::{AddressMap, MemSpace, Meter, RegionId, WarpMask, WARP_SIZE};

/// Where rope-stack entries live and how they are addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackLayout {
    /// Per-thread stacks, interleaved so equal depths are contiguous.
    InterleavedGlobal,
    /// Per-thread stacks, each contiguous (adjacent depths contiguous,
    /// adjacent lanes far apart).
    ContiguousGlobal,
    /// One per-warp stack in shared memory (lockstep only).
    SharedPerWarp,
}

/// A warp's allocated stack storage plus its addressing scheme.
#[derive(Debug, Clone, Copy)]
pub struct StackRegion {
    region: RegionId,
    layout: StackLayout,
    max_depth: u64,
    entry_bytes: u64,
}

impl StackRegion {
    /// Allocate stack storage for one warp: `max_depth` entries of
    /// `entry_bytes` per lane (per warp for the shared layout).
    pub fn alloc(
        map: &mut AddressMap,
        name: &str,
        layout: StackLayout,
        max_depth: usize,
        entry_bytes: u64,
    ) -> StackRegion {
        let (space, len) = match layout {
            StackLayout::InterleavedGlobal | StackLayout::ContiguousGlobal => {
                (MemSpace::Global, (max_depth * WARP_SIZE) as u64)
            }
            StackLayout::SharedPerWarp => (MemSpace::Shared, max_depth as u64),
        };
        let region = map.alloc(name, space, len, entry_bytes);
        StackRegion {
            region,
            layout,
            max_depth: max_depth as u64,
            entry_bytes,
        }
    }

    /// Bytes of one stack entry (as allocated, including any executor
    /// padding such as lockstep's mask word).
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }

    /// Shared-memory bytes this stack pins per warp (0 for global layouts);
    /// feeds the occupancy model.
    pub fn shared_bytes_per_warp(&self, map: &AddressMap) -> usize {
        match self.layout {
            StackLayout::SharedPerWarp => map.region(self.region).bytes() as usize,
            _ => 0,
        }
    }

    /// Record the traffic of one stack access (push or pop) where each
    /// lane in `mask` touches its own stack at `depth(lane)`.
    pub fn access_per_lane(
        &self,
        sim: &mut impl Meter,
        mask: WarpMask,
        depth: impl Fn(usize) -> u64,
    ) {
        match self.layout {
            StackLayout::InterleavedGlobal => {
                sim.load(self.region, mask, |lane| {
                    let d = depth(lane);
                    debug_assert!(d < self.max_depth, "rope stack overflow");
                    d * WARP_SIZE as u64 + lane as u64
                });
            }
            StackLayout::ContiguousGlobal => {
                sim.load(self.region, mask, |lane| {
                    let d = depth(lane);
                    debug_assert!(d < self.max_depth, "rope stack overflow");
                    lane as u64 * self.max_depth + d
                });
            }
            // A shared-memory request is priced as one access wherever its
            // lanes point, so the per-lane depths form no address.
            StackLayout::SharedPerWarp => sim.load_broadcast(self.region, mask, 0),
        }
    }

    /// Record the traffic of one *warp-level* stack access at `depth`
    /// (lockstep: the single per-warp stack entry).
    pub fn access_warp(&self, sim: &mut impl Meter, mask: WarpMask, depth: u64) {
        if mask.none_active() {
            return;
        }
        let d = depth.min(self.max_depth - 1);
        match self.layout {
            StackLayout::SharedPerWarp => sim.load_broadcast(self.region, mask, d),
            // Lockstep with a global stack: all lanes hit the same entry —
            // a broadcast (slot 0 of the depth row for interleaved).
            StackLayout::InterleavedGlobal => {
                sim.load_broadcast(self.region, mask, d * WARP_SIZE as u64)
            }
            StackLayout::ContiguousGlobal => sim.load_broadcast(self.region, mask, d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_sim::{CostModel, WarpSim};

    fn sim_with(layout: StackLayout, max_depth: usize) -> (AddressMap, StackRegion) {
        let mut map = AddressMap::new();
        let stk = StackRegion::alloc(&mut map, "stack", layout, max_depth, 8);
        (map, stk)
    }

    #[test]
    fn interleaved_same_depth_coalesces() {
        let (map, stk) = sim_with(StackLayout::InterleavedGlobal, 64);
        let cost = CostModel::unit();
        let mut sim = WarpSim::new(&map, &cost, 128);
        // All 32 lanes at depth 3: 32 × 8 B contiguous = 2 segments.
        stk.access_per_lane(&mut sim, WarpMask::ALL, |_| 3);
        assert_eq!(sim.finish().global_transactions, 2);
    }

    #[test]
    fn contiguous_same_depth_scatters() {
        let (map, stk) = sim_with(StackLayout::ContiguousGlobal, 64);
        let cost = CostModel::unit();
        let mut sim = WarpSim::new(&map, &cost, 128);
        // Each lane's stack is 64 × 8 B = 512 B apart: 32 segments.
        stk.access_per_lane(&mut sim, WarpMask::ALL, |_| 3);
        assert_eq!(sim.finish().global_transactions, 32);
    }

    #[test]
    fn shared_stack_pins_shared_memory() {
        let (map, stk) = sim_with(StackLayout::SharedPerWarp, 100);
        assert_eq!(stk.shared_bytes_per_warp(&map), 800);
        let (map_g, stk_g) = sim_with(StackLayout::InterleavedGlobal, 100);
        assert_eq!(stk_g.shared_bytes_per_warp(&map_g), 0);
    }

    #[test]
    fn warp_access_is_one_transaction_everywhere() {
        for layout in [
            StackLayout::InterleavedGlobal,
            StackLayout::ContiguousGlobal,
            StackLayout::SharedPerWarp,
        ] {
            let (map, stk) = sim_with(layout, 64);
            let cost = CostModel::unit();
            let mut sim = WarpSim::new(&map, &cost, 128);
            stk.access_warp(&mut sim, WarpMask::ALL, 5);
            let c = sim.finish();
            assert_eq!(c.global_transactions + c.shared_accesses, 1, "{layout:?}");
        }
    }

    #[test]
    fn inactive_mask_is_free() {
        let (map, stk) = sim_with(StackLayout::SharedPerWarp, 8);
        let cost = CostModel::unit();
        let mut sim = WarpSim::new(&map, &cost, 128);
        stk.access_warp(&mut sim, WarpMask::NONE, 0);
        stk.access_per_lane(&mut sim, WarpMask::NONE, |_| 0);
        let c = sim.finish();
        assert_eq!(c.shared_accesses, 0);
        assert_eq!(c.global_transactions, 0);
    }
}
