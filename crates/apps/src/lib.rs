//! # gts-apps — the paper's five traversal benchmarks
//!
//! Each benchmark (paper §6.1.2) is one module providing:
//!
//! * a **point type** (query state mutated during traversal),
//! * a [`gts_runtime::TraversalKernel`] — the Figure 1 pseudocode with the
//!   application's `truncate?`/`update` filled in and its structural facts
//!   (call sets, argument variance) declared,
//! * a **brute-force oracle** used by the tests to verify that every
//!   executor computes exactly the right answer.
//!
//! The point-distance ops the service serves state their
//! `truncate?`/`update` once, as a [`gts_runtime::PointRule`], and get
//! their kernels derived: [`kd::KdBox`] is the box-pruned kd-tree walk of
//! any rule, the Wald walk consumes the rule directly, and a pair of rules
//! is the fused rule.
//!
//! | Module | Tree | Guided? | Call sets | Notes |
//! |---|---|---|---|---|
//! | [`bh`] | oct-tree | no | 1 | traversal-variant `dsq` argument rides the rope stack |
//! | [`pc`] | kd (median) | no | 1 | [`pc::PcRule`]: radius count; `PcKernel` = `KdBox<PcRule>` |
//! | [`knn`] | kd (median) | yes | 2 | [`knn::KnnRule`]: bounded k-best set; `KnnKernel` = `KdBox<KnnRule>` |
//! | [`nn`] | kd (midpoint) | yes | 2 | [`nn::NnRule`] under split-plane pruning with a variant argument ([`nn::NnKernel`], hand-written); `NnAabbKernel` = `KdBox<NnRule>` for the stackless skip walk |
//! | [`vp`] | vantage-point | yes | 2 | metric-shell pruning |
//! | [`kd`] | kd (either) | per rule | 1 or 2 | [`kd::KdBox`]: the one box-pruned kernel, generic over the rule |
//! | [`wald`] | left-balanced implicit kd | — | — | tests of the rules on the stack-free Wald walk ([`gts_runtime::gpu::stackless::run_wald`]) |
//! | [`fused`] | kd (either) | yes | 2 | NN + kNN + PC in one walk: the rule `(NnRule, (KnnRule, MultiPcRule))` under the union prune bound; per-op answers bit-identical to the solo kernels |
//!
//! All guided kernels carry the §4.3 `CALL_SETS_EQUIVALENT` annotation:
//! their call sets reorder the search but cannot change the final
//! nearest-neighbor answer, which the property tests verify.
//!
//! [`ray`] adds a sixth application beyond the paper's benchmark set — the
//! ray–BVH traversal its introduction motivates — to demonstrate the
//! kernel abstraction on a workload the authors did not evaluate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bh;
pub mod fused;
pub mod kbest;
pub mod kd;
pub mod knn;
pub mod nn;
pub mod oracle;
pub mod pc;
pub mod ray;
pub mod vp;
pub mod wald;
