//! # mpr-sdn — the software-defined-network substrate
//!
//! The paper evaluates on Mininet plus OpenFlow switches driven by a
//! RapidNet/Trema/Pyretic controller (§5.1–§5.2). This crate is the
//! deterministic, laptop-scale replacement: packets, priority/wildcard
//! flow tables, a discrete-event simulator with OpenFlow buffered-miss
//! semantics, campus-scale topologies, and the controller interface
//! (including the NDlog controller adapter).
//!
//! - [`packet`] — integer-field packets mapping 1:1 onto NDlog columns;
//! - [`flowtable`] — OpenFlow-style match/action tables;
//! - [`topology`] — the Fig. 1 fixture and the Stanford-campus generator
//!   (19 → 169 switches, Fig. 9c);
//! - [`sim`] — the event-driven simulator with fault injection;
//! - [`faults`] — seeded, deterministic fault plans (link outages/flaps,
//!   switch crashes, control-channel drop/dup/reorder/delay);
//! - [`controller`] — the [`controller::Controller`] trait, and
//!   [`controller::NdlogController`] wiring an `mpr-runtime` engine to the
//!   network through a [`controller::TupleCodec`].

#![warn(missing_docs)]

pub mod controller;
pub mod faults;
pub mod flowtable;
pub mod packet;
pub mod sim;
pub mod topology;

pub use controller::{Controller, CtrlMsg, NdlogController, NullController, PacketInMsg, PktArg, TupleCodec};
pub use faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash, Window};
pub use flowtable::{Action, FlowEntry, FlowTable, FlowTables, Match};
pub use packet::{Field, Packet, Proto};
pub use sim::{SimConfig, SimStats, Simulation};
pub use topology::{campus, fig1, CampusParams, NodeRef, Topology};
