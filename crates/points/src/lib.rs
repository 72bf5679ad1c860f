//! # gts-points — benchmark inputs, point sorting, and the sortedness profiler
//!
//! The paper evaluates on 18 benchmark/input pairs (§6.1.2). Two of its
//! datasets are procedurally defined and reproduced exactly in spirit
//! ([`gen::plummer`], [`gen::uniform`]); the other three are external data
//! files we do not have, so [`gen`] provides **surrogates** that match the
//! properties the paper exploits (dimensionality, cluster structure,
//! projection pipeline) — see DESIGN.md §2 for the substitution table.
//!
//! [`sort`] implements point sorting (paper §4.4): Morton-order and
//! tree-order sorts that place points with similar traversals in the same
//! warp, plus a seeded shuffle that produces the paper's “unsorted”
//! configuration from any input.
//!
//! [`profile`] implements the run-time sortedness profiler the paper adopts
//! from Jo & Kulkarni \[11\]: sample neighboring points, compare their
//! traversals, and decide lockstep vs. non-lockstep execution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gen;
pub mod profile;
pub mod project;
pub mod sort;

pub use gen::Dataset;
pub use profile::{profile_sortedness, SortednessReport};
