//! Bit-level sequential circuit intermediate representation.
//!
//! This crate models the *structural* level at which the DAC'97 paper's
//! test-model derivation operates (Section 6): a synchronous netlist of
//! single-bit latches and combinational logic, organised into named
//! modules. Test-model abstraction is then a sequence of *topological*
//! operations — removing state elements and the logic associated only with
//! them, turning cut signals into primary inputs, re-encoding one-hot
//! registers — exactly the operations of Figure 3(b).
//!
//! The IR is deliberately small:
//!
//! * [`Netlist`] owns a hash-consed DAG of [`NodeKind`] gates,
//!   a list of [`Latch`]es (each with an init value and a next-state
//!   signal), named primary inputs, and named primary outputs.
//! * [`Word`] provides multi-bit convenience builders (adders are not
//!   needed — control logic is bit-level).
//! * Structural transforms live in [`transform`]: cone-of-influence
//!   analysis, sweeping, latch/module removal with cut-signals-to-inputs
//!   semantics, one-hot → binary re-encoding.
//!
//! # Example
//!
//! ```
//! use simcov_netlist::Netlist;
//!
//! let mut n = Netlist::new();
//! let a = n.add_input("a");
//! let en = n.add_input("en");
//! let q = n.add_latch("q", false);
//! let qo = n.latch_output(q);
//! let next = n.mux(en, a, qo); // en ? a : hold
//! n.set_latch_next(q, next);
//! n.add_output("q_out", qo);
//! assert_eq!(n.stats().latches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blif;
mod build;
mod circuit;
pub mod transform;

pub use blif::{from_blif, to_blif, BlifError};
pub use build::Word;
pub use circuit::{InputId, Latch, LatchId, Netlist, NetlistStats, NodeKind, SignalId, SimState};
