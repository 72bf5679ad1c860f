//! # gpu-tree-traversals
//!
//! A Rust reproduction of **“General Transformations for GPU Execution of
//! Tree Traversals”** (Goldfarb, Jo & Kulkarni, SC 2013): the *autoropes*
//! and *lockstep traversal* transformations, static call-set analysis, and
//! the paper's five benchmarks, running on a deterministic SIMT GPU
//! simulator.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! * [`sim`] — the SIMT GPU simulator (warps, masks, coalescing, SMs).
//! * [`trees`] — kd-trees, the Barnes-Hut oct-tree, vantage-point trees,
//!   left-biased linearization, hot/cold node layouts.
//! * [`points`] — benchmark inputs, point sorting, the sortedness profiler.
//! * [`runtime`] — the executors: the CPU walk (sequential/parallel),
//!   naïve GPU recursion, autoropes, lockstep.
//! * [`apps`] — Barnes-Hut, Point Correlation, kNN, NN, Vantage Point.
//! * [`ir`] — the traversal compiler: kernel IR, call-set analysis,
//!   pseudo-tail-recursion checking, the transformations, an interpreter.
//! * [`harness`] — regenerates the paper's Table 1, Table 2, Figures 10/11.
//! * [`service`] — a batched concurrent query service that applies the
//!   paper's sort + profile + executor-choice pipeline per batch, online.
//! * [`net`] — the TCP front-end over [`service`]: length-prefixed binary
//!   frames, batch submission, waker-multiplexed completions.
//!
//! ## Quickstart
//!
//! Count neighbors within a radius (Point Correlation) with the lockstep
//! GPU traversal and check it against the CPU baseline:
//!
//! ```
//! use gpu_tree_traversals::prelude::*;
//!
//! // A small clustered dataset and its kd-tree.
//! let data = gts_points::gen::covtype_like(512, 42);
//! let tree = KdTree::build(&data, 8, SplitPolicy::MedianCycle);
//! let kernel = gts_apps::pc::PcKernel::new(&tree, 0.5);
//!
//! // CPU reference (the paper's Figure 1, run as one loop).
//! let mut cpu_pts: Vec<_> = data.iter().map(|&p| gts_apps::pc::PcPoint::new(p)).collect();
//! gts_runtime::cpu::run_sequential(&kernel, &mut cpu_pts);
//!
//! // Lockstep GPU traversal on the simulated Tesla C2070.
//! let mut gpu_pts: Vec<_> = data.iter().map(|&p| gts_apps::pc::PcPoint::new(p)).collect();
//! let report = gts_runtime::gpu::lockstep::run(&kernel, &mut gpu_pts, &GpuConfig::default());
//!
//! // Same counts, and the simulator tells you what the traversal cost.
//! for (c, g) in cpu_pts.iter().zip(&gpu_pts) {
//!     assert_eq!(c.count, g.count);
//! }
//! assert!(report.launch.counters.global_transactions > 0);
//! println!("modeled time: {:.3} ms", report.ms());
//! ```

#![warn(missing_docs)]

pub use gts_apps as apps;
pub use gts_harness as harness;
pub use gts_ir as ir;
pub use gts_net as net;
pub use gts_points as points;
pub use gts_runtime as runtime;
pub use gts_service as service;
pub use gts_sim as sim;
pub use gts_trees as trees;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use gts_apps;
    pub use gts_points;
    pub use gts_runtime::gpu::GpuConfig;
    pub use gts_runtime::{self, StackLayout, TraversalKernel};
    pub use gts_service::{Query, QueryKind, QueryResult, Service, ServiceConfig};
    pub use gts_sim::{CostModel, DeviceConfig, WarpMask};
    pub use gts_trees::{Aabb, KdTree, Octree, PointN, SplitPolicy, VpTree};
}
