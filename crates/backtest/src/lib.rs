//! # mpr-backtest — repair backtesting
//!
//! "Primum non nocere" (§4.3): before a repair candidate is suggested, it
//! is replayed against historical traffic and rejected if it distorts the
//! global traffic distribution.
//!
//! - [`replay()`] — sequential backtesting: fresh network + controller per
//!   candidate, replaying the recorded workload; [`replay_candidates`] is
//!   that for a list of candidates, one after the other, a panic contained
//!   per candidate — the fallback for every candidate the joint replay
//!   hands back;
//! - [`ks`] — the two-sample Kolmogorov–Smirnov filter (α = 0.05, §5.3);
//! - [`mqo`] — the §4.4 multi-query optimization: one tagged joint replay
//!   for all candidates, with rule-copy coalescing and flow tables shared
//!   across candidates until a FlowMod tells them apart. It names the
//!   candidates it cannot answer for ([`mqo::JointReplay::diverged`]) —
//!   all of them under a fault plan, which it does not model; property
//!   tests pin the correctness claim for the rest: per-tag results equal
//!   those of a sequential, memo-free `inject` + `run` loop.

#![warn(missing_docs)]

pub mod ks;
pub mod mqo;
pub mod replay;

pub use ks::{ks_coefficient, ks_two_sample, KsResult};
pub use mqo::{
    mqo_replay, mqo_replay_deltas, mqo_replay_indexed, tagged_program, JointReplay,
    TagSet, TaggedProgram, TaggedVariant,
};
pub use replay::{
    replay, replay_candidates, replay_with_extra_flows, BacktestSetup, CandidateRun,
    ReplayOutcome,
};
