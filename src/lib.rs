//! # sdn-meta-repair
//!
//! A reproduction of *"Automated Bug Removal for Software-Defined
//! Networks"* (Wu, Chen, Haeberlen, Zhou, Loo — NSDI 2017).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! - [`ndlog`] — the NDlog/µDlog controller language (values, AST, parser).
//! - [`runtime`] — the datalog evaluation engine with provenance hooks.
//! - [`provenance`] — classical positive/negative provenance graphs.
//! - [`sdn`] — the software-defined-network simulator substrate.
//! - [`trace`] — workload generation.
//! - [`backtest`] — repair backtesting, KS filtering, multi-query optimization.
//! - [`langs`] — mini-Trema and mini-Pyretic frontends and their meta models.
//! - [`core`] — meta provenance, cost-ordered repair search (whose §3.4
//!   constraint pools are domain searches under the rule's own evaluator),
//!   the debugger.
//!
//! Every engine evaluates by batch semi-naive rounds. [`EvalStrategy`]
//! (re-exported from the runtime) exists so tests can ask one engine for
//! the per-tuple pipelined reference evaluator instead, explicitly via
//! `runtime::Options { strategy: EvalStrategy::Pipelined, .. }`; nothing
//! process-wide (no environment variable, no global) changes how an engine
//! evaluates.
//!
//! ## Quickstart
//!
//! ```
//! use sdn_meta_repair::core::scenarios::Scenario;
//! use sdn_meta_repair::core::debugger::Debugger;
//!
//! // Build the Fig. 1 scenario: a buggy load balancer where the backup
//! // HTTP server H2 never receives requests.
//! let scenario = Scenario::q1_copy_paste();
//! let dbg = Debugger::for_scenario(&scenario);
//! let report = dbg.diagnose_and_repair().expect("scenario runs");
//! assert!(report
//!     .accepted
//!     .iter()
//!     .any(|&i| report.outcomes[i].candidate.description.contains("Swi == 3")));
//! ```

pub use mpr_backtest as backtest;
pub use mpr_runtime::EvalStrategy;
pub use mpr_core as core;
pub use mpr_langs as langs;
pub use mpr_ndlog as ndlog;
pub use mpr_provenance as provenance;
pub use mpr_runtime as runtime;
pub use mpr_sdn as sdn;
pub use mpr_trace as trace;
