//! # mpr-solver — a crate with no code
//!
//! The explorer (`mpr_core::explore`) answers §3.4's constraint pools by
//! searching the world's domain under the rule's own evaluator. This crate
//! stays, and `mpr_core` keeps depending on it, only because the
//! benchmark's lock file records that edge; both go at its next re-lock.
