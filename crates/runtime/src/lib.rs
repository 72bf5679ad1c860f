//! # gts-runtime — traversal executors
//!
//! This crate is the paper's §3–§5 made executable. A benchmark describes
//! its per-node work once, as a [`TraversalKernel`]; the executors then run
//! it under every strategy the paper evaluates:
//!
//! | Executor | Paper section | What it models |
//! |---|---|---|
//! | [`cpu::run_sequential`] | baseline | Figure 1's traversal, run as one loop over a child stack |
//! | [`cpu::run_parallel`] | §6 CPU rows | multithreaded point loop, real wall time |
//! | [`gpu::recursive`] | §6 “naïve GPU” | CUDA-recursion baseline: call overhead, frame traffic, call-site serialization |
//! | [`gpu::autoropes`] | §3 | iterative rope-stack traversal, per-lane stacks, non-lockstep |
//! | [`gpu::lockstep`] | §4 | per-warp rope stack with mask bit-vectors, warp votes, optional shared-memory stack |
//! | [`gpu::stackless::run_skip`] | beyond the paper | ropes-free skip-link walk (Apetrei escape links), zero stack traffic |
//! | [`gpu::stackless::run_wald`] | beyond the paper | Wald stack-free walk of the left-balanced implicit kd-tree, `(current, previous)` state only; consumes a [`PointRule`] directly |
//!
//! There is one kernel contract, in two halves. [`TraversalKernel`] is the
//! *structure*: a node body that names the children to descend into, which
//! every executor above but the last drives. [`PointRule`] is the
//! *semantics* of a point-distance op — its prune bound and its update —
//! from which such structures are derived (`gts_apps::kd::KdBox`, the Wald
//! walk), and a pair of rules is a rule ([`fused`]), which is all of
//! traversal fusion — as a rule over the points a [`Tombstones`] set leaves
//! alive ([`Live`]) is all of walking a tree with deleted points.
//!
//! The GPU executors perform the *real* computation (points end up with
//! exactly the values the CPU baseline computes — tests depend on it) while
//! mirroring every warp step into `gts-sim` for cycle/transaction
//! accounting — through a [`gpu::Meter`]: an executor's `run` is its loop
//! under the C2070 model ([`gpu::WarpSim`]), `run_on::<Unmetered, _>` the
//! same loop with nothing accounted, which is how `gts-service` answers
//! most batches. Host-side, independent warps are simulated on multiple
//! threads (crossbeam scoped threads, deterministic in-order merge), per
//! the Rayon-style chunking idiom.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu;
pub mod fused;
pub mod gpu;
pub mod kernel;
pub mod report;
pub mod stack;

pub use fused::{AllLive, Dead, FusedPoint, Live, Renamed, Tombstones};
pub use kernel::{Child, ChildBuf, PointRule, TraversalKernel, VisitOutcome, BUCKET};
pub use report::{CpuReport, GpuReport, TraversalStats};
pub use stack::StackLayout;

#[cfg(test)]
pub(crate) mod test_kernels;
