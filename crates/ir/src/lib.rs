//! # gts-ir — the traversal compiler
//!
//! This crate reproduces the paper's §3: the pseudo-tail-recursion check,
//! the restructuring that makes a kernel body pseudo-tail-recursive,
//! call-set analysis, the autoropes transform, and Figures 4–6. Nothing on
//! the served path (`gts-service`, `gts-net`) reads it; the served
//! kernels are hand-written `gts-apps` rules whose declared constants are
//! held to their behaviour by tests instead.
//!
//! The paper implements its transformations in a C++ source-to-source
//! compiler (ROSE, §5). This crate is that compiler's analysis and
//! transformation layer over an equivalent input: traversal kernels
//! written as **reduced control-flow graphs** ([`ir::KernelIr`]) — the
//! same abstraction §3.2.1 analyzes (“we instead analyze a reduced CFG,
//! which contains all recursive calls and any control flow that determines
//! which recursive calls are made”).
//!
//! Passes, in pipeline order:
//!
//! 0. [`unroll::unroll`] — fully unroll child loops (§3.2.1 footnote 1),
//!    and [`restructure::restructure`] — push work between recursive calls
//!    down into children (§3.2) when the kernel is not yet
//!    pseudo-tail-recursive.
//! 1. [`analysis::call_sets`] — enumerate the static call sets: the
//!    sequences of recursive calls executed along each path (§3.2.1).
//! 2. [`analysis::check_pseudo_tail_recursive`] — verify that every path
//!    from a recursive call to an exit contains only recursive calls
//!    (§3.2's applicability condition).
//! 3. [`analysis::classify`] — conservatively decide guided vs. unguided:
//!    unguided requires a single call set whose child selectors do not
//!    depend on the point (§3.2.1).
//! 4. [`transform::transform`] — produce a [`transform::RopeProgram`]: the
//!    validated kernel plus everything the runtime needs (call sets,
//!    guidance, guiding branches for the §4.3 vote, lockstep eligibility).
//!
//! [`interp`] executes IR kernels three ways — plain recursion
//! (Figure 1), autoropes (Figure 6/7), and lockstep with masks and
//! majority votes (Figure 8) — recording exact visit traces, so the §3.3
//! correctness argument (“the order that the tree is traversed is
//! unchanged”) is checked by tests rather than asserted. [`adapter`]
//! wraps a `RopeProgram` as a [`gts_runtime::TraversalKernel`], so
//! compiled kernels also run on the simulated GPU through the very same
//! executors the hand-written benchmarks use.

//! ## Example: the pipeline on the paper's Figure 4
//!
//! ```
//! use gts_ir::{call_sets, check_pseudo_tail_recursive, classify, transform, Guidance};
//! use gts_ir::examples_ir::figure4_pc;
//!
//! let ir = figure4_pc();
//! assert!(check_pseudo_tail_recursive(&ir).is_ok());
//! assert_eq!(call_sets(&ir).unwrap().len(), 1);
//! assert_eq!(classify(&ir).unwrap(), Guidance::Unguided);
//!
//! let prog = transform(&ir, false).unwrap();
//! assert!(prog.lockstep_eligible);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod analysis;
pub mod examples_ir;
pub mod interp;
pub mod ir;
pub mod pretty;
pub mod restructure;
pub mod transform;
pub mod unroll;

pub use analysis::{call_sets, check_pseudo_tail_recursive, classify, Guidance};
pub use ir::{Block, BlockId, ChildSel, CondId, KernelIr, KernelOps, SelId, Stmt, Terminator};
pub use transform::{transform, RopeProgram, TransformError};
