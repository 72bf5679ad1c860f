//! # gts-sim — a deterministic SIMT GPU simulator
//!
//! This crate stands in for the nVidia Tesla C2070 used in the paper
//! *“General Transformations for GPU Execution of Tree Traversals”*
//! (Goldfarb, Jo & Kulkarni, SC 2013). No GPU hardware is assumed; instead
//! the crate models the aspects of a SIMT machine that the paper's
//! transformations target:
//!
//! * **Warps and lane masks** ([`mask::WarpMask`]) — 32 lanes execute each
//!   instruction together; inactive lanes are masked out but still occupy
//!   issue slots. Warp-wide votes (`ballot`, `warp_and`) are provided, as
//!   used by the lockstep transformation (paper §4.2).
//! * **Memory coalescing** ([`memory`]) — global-memory accesses from the
//!   lanes of a warp are merged into 128-byte segment transactions exactly
//!   as described in paper §2.2; scattered accesses serialize into many
//!   transactions, broadcast accesses collapse into one.
//! * **Shared memory** — a small, fast, per-SM scratchpad; using more of it
//!   per block reduces occupancy (paper §2.2), which the scheduler models.
//! * **SM scheduling and latency hiding** ([`sched`]) — warps are assigned
//!   round-robin to SMs; memory stalls overlap with other warps' execution
//!   up to the occupancy limit.
//! * **A calibrated cost model** ([`cost::CostModel`]) — converts counted
//!   events (issued warp steps, memory transactions, divergent replays)
//!   into cycles and modeled milliseconds. Absolute times are model
//!   artifacts; *relative orderings* are the reproduction target (see
//!   DESIGN.md §5.2).
//!
//! The simulator is *functional + cost-counting*: executors (in
//! `gts-runtime`) perform real computation lane-by-lane and report the
//! memory traffic of each warp step to a [`engine::WarpSim`], which
//! accumulates [`counters::SimCounters`]. The [`sched::Schedule`] then
//! folds per-warp cycle totals into a device-level execution time.

//! ## Example: coalescing in action
//!
//! ```
//! use gts_sim::{AddressMap, CostModel, MemSpace, WarpMask, WarpSim};
//!
//! let mut map = AddressMap::new();
//! let nodes = map.alloc("tree.nodes0", MemSpace::Global, 10_000, 16);
//! let cost = CostModel::fermi();
//! let mut warp = WarpSim::new(&map, &cost, 128);
//!
//! // Lockstep pattern: all 32 lanes read the same node — 1 transaction.
//! warp.load_broadcast(nodes, WarpMask::ALL, 42);
//! // Divergent pattern: every lane at its own node, 128 B apart — 32.
//! warp.load(nodes, WarpMask::ALL, |lane| (lane as u64) * 8);
//!
//! let counters = warp.finish();
//! assert_eq!(counters.global_transactions, 1 + 32);
//! assert_eq!(counters.per_region_transactions["tree.nodes0"], 33);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod l2;
pub mod mask;
pub mod memory;
pub mod sched;

pub use config::DeviceConfig;
pub use cost::CostModel;
pub use counters::SimCounters;
pub use engine::{KernelLaunch, Meter, Unmetered, WarpSim};
pub use l2::{L2Cache, L2Config};
pub use mask::WarpMask;
pub use memory::{AddressMap, MemSpace, Region, RegionId};
pub use sched::Schedule;

/// Number of lanes in a warp. Fixed at 32 to match CUDA-era hardware and the
/// paper's evaluation platform; the mask type is a `u32` bit-vector.
pub const WARP_SIZE: usize = 32;
