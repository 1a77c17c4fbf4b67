//! # mpr-backtest — repair backtesting
//!
//! "Primum non nocere" (§4.3): before a repair candidate is suggested, it
//! is replayed against historical traffic and rejected if it distorts the
//! global traffic distribution.
//!
//! - [`replay()`] — sequential backtesting: fresh network + controller per
//!   candidate, replaying the recorded workload; [`replay_candidates`]
//!   fans independent candidates out over the [`pool`] worker threads;
//! - [`ks`] — the two-sample Kolmogorov–Smirnov filter (α = 0.05, §5.3);
//! - [`mqo`] — the §4.4 multi-query optimization: one tagged joint replay
//!   for all candidates, with rule-copy coalescing and flow tables shared
//!   across candidates until a FlowMod tells them apart. A property test
//!   pins the correctness claim: per-tag results equal sequential results.
//! - [`pool`] — the scoped worker pool behind [`replay_candidates`]
//!   (one worker per available core).

#![warn(missing_docs)]

pub mod ks;
pub mod mqo;
pub mod pool;
pub mod replay;

pub use ks::{ks_coefficient, ks_two_sample, KsResult};
pub use mqo::{
    build_tagged_program, mqo_replay, mqo_replay_deltas, mqo_supported, tagged_program, TagSet,
    TaggedProgram, TaggedVariant,
};
pub use replay::{
    replay, replay_candidates, replay_with_extra_flows, BacktestSetup, CandidateRun,
    ReplayOutcome,
};
