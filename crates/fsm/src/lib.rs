//! Explicit and symbolic Mealy machines.
//!
//! The paper treats both the design implementation and the derived test
//! model as Mealy machines. This crate provides:
//!
//! * [`ExplicitMealy`] — a dense, enumerated machine used by the tour
//!   algorithms, the error model, and as a brute-force oracle in tests;
//! * [`SymbolicFsm`] — a machine represented by BDD next-state and output
//!   functions built from a [`simcov_netlist::Netlist`], with implicit
//!   reachability analysis and exact state/transition counting in the style
//!   of Touati et al. (ICCAD 1990) — the machinery behind Section 7.2's
//!   statistics;
//! * [`enumerate`] — extraction of an [`ExplicitMealy`] from a netlist by
//!   forward enumeration of the reachable state graph under a declared set
//!   of valid input vectors (the paper's input don't-cares).
//!
//! # Example
//!
//! ```
//! use simcov_fsm::MealyBuilder;
//!
//! let mut b = MealyBuilder::new();
//! let s0 = b.add_state("idle");
//! let s1 = b.add_state("busy");
//! let go = b.add_input("go");
//! let stay = b.add_input("stay");
//! let none = b.add_output("none");
//! let ack = b.add_output("ack");
//! b.add_transition(s0, go, s1, ack);
//! b.add_transition(s0, stay, s0, none);
//! b.add_transition(s1, go, s1, none);
//! b.add_transition(s1, stay, s0, none);
//! let m = b.build(s0).unwrap();
//! assert!(m.is_complete());
//! assert_eq!(m.num_transitions(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
mod explicit;
mod input_classes;
mod minimize;
mod product;
pub mod refine;
mod symbolic;

pub use enumerate::{enumerate_netlist, EnumerateError, EnumerateOptions};
pub use explicit::{
    BuildError, ExplicitMealy, InputSym, MealyBuilder, OutputSym, PatchedMealy, StateId, Transition,
};
pub use input_classes::{input_equivalence_classes, InputClasses};
pub use minimize::{minimize, Minimized};
pub use product::{forall_k_symbolic, PairAnalysisResult, PairFsm, TransferDetectPrep};
pub use refine::{partition_by_rows, refine_partition, Partition};
pub use symbolic::{CoverageAccumulator, ReachResult, SymbolicFsm, SymbolicStats};
