//! # mpr-trace — workloads
//!
//! The traffic substrate of the reproduction (§5.2/§5.4):
//! [`workload::Workload`] — deterministic synthetic campus traffic with
//! protocol mixes, Zipf-ish client popularity, and two profiles standing
//! in for the Benson et al. campus traces (synthetic stand-ins, since the
//! original traces are not redistributable).
//!
//! The history a run records is not kept here: it is the controller's
//! `mpr_runtime::ExecLog`, whose base-insert rows on the packet-in table
//! are the ingress log backtesting replays (§4.3).

#![warn(missing_docs)]

pub mod workload;

pub use workload::{Injection, Mix, Workload};

/// The paper's per-entry log cost (§5.4: "a 120-byte log entry that
/// contains the packet header and the timestamp"), the yardstick the
/// storage experiment sizes the recorded log against.
pub const LOG_ENTRY_BYTES: u64 = 120;
