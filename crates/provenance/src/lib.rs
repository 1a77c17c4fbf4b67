//! # mpr-provenance — classical network provenance
//!
//! The provenance substrate of the reproduction (§2.2/§3.1): positive and
//! negative provenance graphs over NDlog executions, in the style of
//! ExSPAN/SNP/Y! — the systems the paper builds on.
//!
//! - [`vertex::Vertex`] — the §3.1 vertices an explanation builds (EXIST,
//!   INSERT, DERIVE, APPEAR, SEND, RECEIVE) plus negative twins (NEXIST,
//!   NDERIVE, NINSERT, NAPPEAR) and failed-selection vertices;
//! - [`graph::explain_exist`] — "why does this tuple exist?" (positive);
//! - [`graph::explain_absent`] — "why is this tuple missing?" (negative,
//!   diagnosis-flavored: all failing rules are explained);
//! - [`graph::ProvTree`] — rendering (ASCII / GraphViz DOT).
//!
//! A tree is never stored: the engine's `ExecLog` is the durable record
//! and the `explain_*` queries rebuild any tree from it.
//!
//! Classical provenance can *diagnose* but not *repair* (§2.4): the graph
//! treats the program as immutable. The meta-provenance layer in
//! `mpr-core` lifts the same machinery over programs-as-data.

#![warn(missing_docs)]

pub mod graph;
pub mod vertex;

pub use graph::{
    derivation_set, explain_absent, explain_absent_with, explain_exist, explain_exist_with,
    ExplainOptions, ProvTree,
};
pub use vertex::{Pattern, Vertex};
