//! # mpr-core — meta provenance and automated repair
//!
//! The paper's primary contribution. Classical provenance explains *data*
//! in terms of data; **meta provenance** (§3) treats the program as just
//! another kind of data: the syntactic elements of the controller program
//! become *meta tuples*, the operational semantics of the language become
//! *meta rules*, and a diagnostic query over the meta program yields a
//! forest of trees whose completions — once their constraint pools are
//! satisfiable — are *repair candidates*.
//!
//! The crate holds one meta model, the explorer: it walks the trees the
//! meta rules would derive for a symptom, forking where a meta rule
//! could fire on changed meta tuples, without running a meta program.
//!
//! - [`cost`] — the §3.5 plausibility cost model and search budget;
//! - [`explore`] — the meta model: cost-ordered candidate generation for
//!   missing tuples (§3.3–§3.5) and existing tuples (§4.2, Fig. 5);
//! - [`repair`] — candidates: program patches, tuple insertions/deletions/
//!   changes;
//! - [`debugger`] — the end-to-end loop with backtesting (KS filter, §4.3)
//!   and multi-query optimization (§4.4), including the Fig. 9a phase
//!   timings;
//! - [`solve`] — §3.4's constraint pools, searched over the domain;
//! - [`scenarios`] — the five §5.3 case studies plus the Fig. 9c / Fig. 10
//!   scaling helpers;
//! - [`chaos`] — the fault-schedule chaos search: seeded random
//!   [`mpr_sdn::FaultPlan`]s swept over the scenarios, survivors minimized
//!   into pinned regression cases.

#![warn(missing_docs)]

pub mod chaos;
pub mod cost;
pub mod debugger;
pub mod explore;
pub mod repair;
pub mod scenarios;
pub mod solve;

pub use chaos::{random_plan, ChaosOutcome, ChaosReport, FaultClass};
pub use cost::SearchBudget;
pub use debugger::{
    repair_scenario, try_repair_scenario, CandidateOutcome, Debugger, PhaseTimings, Recording, RepairReport,
};
pub use explore::{generate_existing, generate_missing, DerivationRecord, ExploreStats, World};
pub use repair::{Candidate, Repair};
pub use scenarios::{Effect, Scenario, Symptom};
