//! Global-memory address space and the coalescing model.
//!
//! Paper §2.2: *“Global memory is capable of achieving very high throughput
//! as long as threads of a warp access elements from the same 128-byte
//! segment. If memory accesses are coalesced then each request will be
//! merged into a single global memory transaction; otherwise the hardware
//! will group accesses into as few transactions as possible.”*
//!
//! Executors allocate [`Region`]s for every array the kernel touches (tree
//! node arrays, point arrays, interleaved rope stacks) from an
//! [`AddressMap`], then report each warp-step's per-lane addresses. The
//! coalescer counts the number of distinct segments touched — that count is
//! the number of memory transactions the step costs.

use serde::{Deserialize, Serialize};

use crate::WARP_SIZE;

/// Which memory a transaction targets. Shared memory (paper §2.2's
/// software-controlled cache) has its own, much cheaper cost and is not
/// subject to segment coalescing — banks are modeled as conflict-free for
/// the broadcast/per-lane-contiguous patterns the rope stack produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// Device DRAM behind the coalescer.
    Global,
    /// Per-SM scratchpad.
    Shared,
}

/// Identifies an allocated region; indexes into the [`AddressMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// A named, contiguous allocation in the simulated address space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// Human-readable name ("kd.nodes0", "stack.interleaved", ...), used in
    /// traffic breakdowns.
    pub name: String,
    /// Base address. Regions are segment-aligned so that cross-region
    /// accesses never share a transaction (matches `cudaMalloc` alignment).
    pub base: u64,
    /// Element stride in bytes.
    pub stride: u64,
    /// Number of elements.
    pub len: u64,
    /// Which space the region lives in.
    pub space: MemSpace,
}

impl Region {
    /// Address of element `index`.
    pub fn addr(&self, index: u64) -> u64 {
        debug_assert!(
            index < self.len,
            "region {} index {index} out of bounds (len {})",
            self.name,
            self.len
        );
        self.base + index * self.stride
    }

    /// Total footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.stride * self.len
    }
}

/// Allocates regions and resolves element addresses.
///
/// Two address spaces are kept: one for global memory and one for shared
/// memory (the GPU keeps them separate; so do we, so a shared-memory region
/// can never be confused with a global one in the coalescer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AddressMap {
    regions: Vec<Region>,
    global_top: u64,
    shared_top: u64,
}

/// Alignment for region bases; one coalescing segment.
const REGION_ALIGN: u64 = 128;

impl AddressMap {
    /// Fresh, empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a region of `len` elements of `stride` bytes each.
    pub fn alloc(
        &mut self,
        name: impl Into<String>,
        space: MemSpace,
        len: u64,
        stride: u64,
    ) -> RegionId {
        assert!(stride > 0, "zero-stride region");
        let top = match space {
            MemSpace::Global => &mut self.global_top,
            MemSpace::Shared => &mut self.shared_top,
        };
        let base = (*top).next_multiple_of(REGION_ALIGN);
        *top = base + len.max(1) * stride;
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            name: name.into(),
            base,
            stride,
            len: len.max(1),
            space,
        });
        id
    }

    /// Look up a region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Total bytes allocated in shared memory; the scheduler divides this
    /// by warps to derive occupancy.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_top
    }

    /// Total bytes allocated in global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_top
    }

    /// All regions, for traffic breakdowns.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

/// An inclusive run `first..=last` of segment ids.
pub(crate) type Run = (u64, u64);

/// The segments one `width`-byte access at `addr` touches.
pub(crate) fn run_of(addr: u64, width: u64, segment_bytes: u64) -> Run {
    (addr / segment_bytes, (addr + width - 1) / segment_bytes)
}

/// Gather the distinct segments one warp request touches, as ascending
/// disjoint runs in `buf`.
///
/// Every lane of a request moves the same `width` bytes from its own
/// address in `addrs`, touching one contiguous run of segments; the
/// request's transactions are the union of those runs — the hardware
/// groups accesses “into as few transactions as possible” (paper §2.2).
/// One run per lane at most, so the buffer is a fixed 32 entries however
/// wide the element is (a lockstep stack entry with per-lane argument
/// slots is wider than a segment).
pub(crate) fn gather(
    buf: &mut [Run; WARP_SIZE],
    addrs: impl Iterator<Item = u64>,
    width: u64,
    segment_bytes: u64,
) -> &[Run] {
    // Insertion into a sorted list without repeats: neighboring lanes
    // mostly sit in the same or the next segment, so the scan from the
    // back is short and the list stays shorter than the warp.
    let mut len = 0;
    for addr in addrs {
        let run = run_of(addr, width, segment_bytes);
        let mut at = len;
        while at > 0 && buf[at - 1] > run {
            at -= 1;
        }
        if at > 0 && buf[at - 1] == run {
            continue;
        }
        buf.copy_within(at..len, at + 1);
        buf[at] = run;
        len += 1;
    }
    // Merge overlapping runs in place (an access that straddles a
    // boundary overlaps its neighbor's segment).
    let mut merged = 0;
    for i in 1..len {
        let (first, last) = buf[i];
        if first <= buf[merged].1 {
            buf[merged].1 = buf[merged].1.max(last);
        } else {
            merged += 1;
            buf[merged] = (first, last);
        }
    }
    &buf[..len.min(merged + 1)]
}

/// Number of segments in `runs`: the request's transaction count.
pub(crate) fn count(runs: &[Run]) -> u64 {
    runs.iter().map(|&(first, last)| last - first + 1).sum()
}

/// The segment ids of `runs`, ascending.
pub(crate) fn ids(runs: &[Run]) -> impl Iterator<Item = u64> + '_ {
    runs.iter().flat_map(|&(first, last)| first..=last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WarpMask;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn map_with(name: &str, len: u64, stride: u64) -> (AddressMap, RegionId) {
        let mut m = AddressMap::new();
        let r = m.alloc(name, MemSpace::Global, len, stride);
        (m, r)
    }

    /// Segments touched when the lanes in `mask` each read `region[index(lane)]`.
    fn touched(
        m: &AddressMap,
        r: RegionId,
        mask: WarpMask,
        index: impl Fn(usize) -> u64,
    ) -> Vec<u64> {
        let region = m.region(r);
        let addrs = mask.iter_active().map(|l| region.addr(index(l)));
        let mut buf = [(0, 0); WARP_SIZE];
        let runs = gather(&mut buf, addrs, region.stride, 128);
        let touched: Vec<u64> = ids(runs).collect();
        assert_eq!(touched.len() as u64, count(runs));
        touched
    }

    #[test]
    fn regions_are_segment_aligned_and_disjoint() {
        let mut m = AddressMap::new();
        let a = m.alloc("a", MemSpace::Global, 3, 20);
        let b = m.alloc("b", MemSpace::Global, 5, 16);
        let (ra, rb) = (m.region(a).clone(), m.region(b).clone());
        assert_eq!(ra.base % 128, 0);
        assert_eq!(rb.base % 128, 0);
        assert!(rb.base >= ra.base + ra.bytes());
    }

    #[test]
    fn shared_and_global_spaces_are_independent() {
        let mut m = AddressMap::new();
        let g = m.alloc("g", MemSpace::Global, 4, 32);
        let s = m.alloc("s", MemSpace::Shared, 4, 32);
        // Both may start at address 0 of their own space.
        assert_eq!(m.region(g).base, 0);
        assert_eq!(m.region(s).base, 0);
        assert_eq!(m.shared_bytes(), 128);
    }

    #[test]
    fn same_element_is_one_segment() {
        let (m, r) = map_with("nodes", 100, 16);
        assert_eq!(touched(&m, r, WarpMask::ALL, |_| 7).len(), 1);
    }

    #[test]
    fn contiguous_lanes_coalesce() {
        // 32 lanes × 4-byte elements = 128 bytes = exactly one segment
        // when the region is segment-aligned.
        let (m, r) = map_with("vals", 64, 4);
        assert_eq!(touched(&m, r, WarpMask::ALL, |l| l as u64).len(), 1);
    }

    #[test]
    fn scattered_lanes_serialize() {
        // Each lane hits its own segment: 32 transactions.
        let (m, r) = map_with("tree", 10_000, 16);
        assert_eq!(touched(&m, r, WarpMask::ALL, |l| (l as u64) * 64).len(), 32);
    }

    #[test]
    fn straddling_access_touches_two_segments() {
        // One lane reading 64 bytes starting 96 bytes into a segment.
        assert_eq!(run_of(1024 + 96, 64, 128), (8, 9));
    }

    #[test]
    fn element_wider_than_a_segment_touches_every_segment_it_spans() {
        // A 136-byte lockstep stack entry (rope + mask + 32 f32 slots)
        // always spans two segments of its aligned region ...
        let (m, r) = map_with("warp_rope_stack", 64, 136);
        assert_eq!(touched(&m, r, WarpMask::lane(0), |_| 0), vec![0, 1]);
        assert_eq!(touched(&m, r, WarpMask::lane(0), |_| 15), vec![15, 16]);
        // ... and a wider or later-starting element three or more.
        assert_eq!(run_of(121, 136, 128), (0, 2));
        let (m, r) = map_with("wide", 8, 300);
        assert_eq!(
            touched(&m, r, WarpMask::first(2), |l| l as u64),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn unsorted_lanes_come_out_ascending_and_distinct() {
        let (m, r) = map_with("tree", 10_000, 16);
        // Lanes walk the region backwards, two lanes per segment.
        let ids = touched(&m, r, WarpMask::first(8), |l| (7 - l as u64) * 4);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_lanes_no_segments() {
        let (m, r) = map_with("x", 8, 8);
        assert!(touched(&m, r, WarpMask::NONE, |l| l as u64).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn region_bounds_checked_in_debug() {
        let (m, r) = map_with("small", 4, 8);
        let _ = m.region(r).addr(4);
    }

    proptest! {
        /// The gatherer against the definition: the set of every segment
        /// any active lane's `width` bytes fall in.
        #[test]
        fn prop_gather_equals_naive_segment_set(
            mask in 0u32..=u32::MAX,
            stride in 1u64..=200,
            len in 1u64..5_000,
            seed in 0u64..1_000_000,
        ) {
            let (m, r) = map_with("r", len, stride);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let index: Vec<u64> = (0..WARP_SIZE).map(|_| rng.gen_range(0..len)).collect();
            let region = m.region(r);
            let mut naive = BTreeSet::new();
            for (lane, &i) in index.iter().enumerate() {
                if mask & (1 << lane) != 0 {
                    let addr = region.addr(i);
                    naive.extend(addr / 128..=(addr + stride - 1) / 128);
                }
            }
            let got = touched(&m, r, WarpMask(mask), |l| index[l]);
            prop_assert_eq!(got, naive.into_iter().collect::<Vec<_>>());
        }
    }
}
