//! # mpr-runtime — the NDlog evaluation engine
//!
//! The runtime substrate of the reproduction: a deterministic semi-naive
//! datalog engine in the style of RapidNet (the paper's declarative SDN
//! environment, §5.1). There is one evaluation path (see
//! [`engine::EvalStrategy`]): *batch* semi-naive iteration — whole rounds
//! of deltas joined against the store's own key maps ([`store`]), with the
//! round that made each tuple visible tracked ([`delta`]). Two reference
//! evaluators exist for tests to compare it against: the original
//! per-tuple *pipelined* propagation (an explicit per-engine
//! [`Options::strategy`]) and a from-scratch naive fixpoint ([`naive`]).
//! Machinery around the round loop:
//!
//! - rules compiled to slot frames, column programs and a static selection
//!   schedule ([`compiled`]) at the first delta that reaches them — what
//!   both the round loop and the joint backtest of `mpr_backtest` fire
//!   through;
//! - a step memo: an event the engine already handled at an unchanged
//!   state is answered by replaying that step's effects
//!   ([`Engine::memo_hits`]), filed in a [`Prehashed`] map; the joint
//!   backtest files whole injections the same way, a level up, where this
//!   memo files steps; and [`QuietSteps`], by which both answer a first
//!   occurrence or a punt whose step would change nothing;
//! - a tuple store keyed on location and primary key, with replacement
//!   ([`store`]): one map per table, which a join that knows a table's
//!   whole key probes and any other join scans in tuple-id order;
//! - support counting and cascading retraction (UNDERIVE/DISAPPEAR);
//! - transient *event* tables (`PacketIn` and friends) whose derivations
//!   persist (the OpenFlow install pattern);
//! - the one built-in function, `f_unique()`, counting from a
//!   deterministic seed;
//! - a full execution log ([`log::ExecLog`]) of INSERT/DELETE, DERIVE/
//!   UNDERIVE, APPEAR/DISAPPEAR and SEND/RECEIVE events — the raw material
//!   for the §3.1 provenance graph — held as interned tuples and fixed-size
//!   rows chained by head, read through borrowed views, and switched off
//!   to measure the provenance overhead (§5.4);
//! - a write-ahead log of the engine's inputs ([`Durability::Wal`],
//!   [`codec`]) that [`Engine::recover`] re-runs after a restart;
//! - a naive fixpoint oracle ([`naive`]) for differential testing.

#![warn(missing_docs)]

pub(crate) mod batch;
pub mod codec;
pub mod compiled;
pub mod delta;
pub mod engine;
pub mod log;
mod memo;
pub mod naive;
pub mod store;

#[cfg(debug_assertions)]
pub use batch::{indexes_built, scanned_rows};
pub use batch::{
    DerivedDispatch, DerivedGroup, DerivedTable, DerivedTriggers, GroupReads, MergedTriggers, TriggerDispatch,
    TriggerIndex,
};
pub use codec::WalRecord;
pub use compiled::{CompiledRule, LazyRule, ScanScratch};
pub use delta::DeltaTracker;
pub use engine::{
    CompileError, Durability, Engine, EngineRecovery, EvalStrategy, Options, RecoverError, RuntimeError, StepResult,
    WalOptions,
};
pub use log::{ExecEvent, ExecLog, Time, TupleId, TupleKind, TupleRecord};
pub use memo::{PassHash, Prehashed, QuietKey, QuietSteps};
pub use store::{AddOutcome, DropOutcome, LiveTuple, Store};
