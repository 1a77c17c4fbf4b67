//! # mpr-solver — constraint pools over declared domains
//!
//! The constraint substrate of the reproduction (§3.4). Meta provenance
//! trees carry *constraint pools*: symbolic variables for the attributes of
//! missing/changed tuples, joined by comparisons over linear arithmetic. A
//! completed tree yields a repair only if its pool is satisfiable
//! ([`Pool::solve`]); positive symptoms are handled by *negating* collected
//! constraints ([`Constraint::negate`]) and solving for a breaking
//! assignment (§4.2).
//!
//! A pool is a conjunction of [`Constraint`]s, and every variable ranges
//! over the domain its pool declares for it; [`Pool::solve`] returns the
//! first satisfying assignment in lexicographic order. The paper's split
//! into a mini-solver plus Z3 (§5.1) is not reproduced: see [`solve`].

#![warn(missing_docs)]

pub mod constraint;
pub mod solve;

pub use constraint::{Assignment, Constraint, STerm};
pub use solve::Pool;
