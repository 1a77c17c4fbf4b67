//! The controller interface and the NDlog controller adapter.
//!
//! A [`Controller`] receives OpenFlow-style `PacketIn` messages and answers
//! with `FlowMod`/`PacketOut` messages. [`NdlogController`] wraps an
//! `mpr-runtime` engine and a [`TupleCodec`] that maps packets onto
//! `PacketIn` tuples and derived `FlowTable`/`PacketOut` tuples back onto
//! control messages — the RapidNet proxy of §5.1.

use crate::flowtable::{Action, FlowEntry, Match};
use crate::packet::{Field, Packet};
use mpr_ndlog::{Program, Tuple, Value};
use mpr_runtime::{Engine, ExecLog, Options as EngineOptions};
use std::sync::Arc;

/// A `PacketIn` punt from a switch to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketInMsg {
    /// Switch that missed.
    pub switch: i64,
    /// Ingress port.
    pub in_port: i64,
    /// The packet (buffered at the switch).
    pub packet: Packet,
}

/// A message from the controller back to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Install a flow entry.
    FlowMod {
        /// Target switch.
        switch: i64,
        /// The entry.
        entry: FlowEntry,
    },
    /// Release the buffered packet with an action.
    PacketOut {
        /// Target switch.
        switch: i64,
        /// Packet to emit (usually the buffered one).
        packet: Packet,
        /// What to do with it.
        action: Action,
    },
}

/// The controller interface.
pub trait Controller {
    /// Handle a `PacketIn`; push control messages into `out` (handed in
    /// empty — the simulator reuses one buffer across punts so the hot
    /// path allocates nothing per miss).
    fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>);

    /// Display name (reports).
    fn name(&self) -> &str {
        "controller"
    }
}

/// A no-op controller (drops every punted packet).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullController;

impl Controller for NullController {
    fn on_packet_in(&mut self, _msg: &PacketInMsg, _out: &mut Vec<CtrlMsg>) {}

    fn name(&self) -> &str {
        "null"
    }
}

/// One argument slot of a `PacketIn`/match tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktArg {
    /// A packet header field.
    Field(Field),
    /// The switch ingress port.
    InPort,
}

impl PktArg {
    /// The value this slot takes for `msg`.
    pub fn value_of(&self, msg: &PacketInMsg) -> i64 {
        match self {
            PktArg::Field(f) => msg.packet.field(*f),
            PktArg::InPort => msg.in_port,
        }
    }
}

/// Mapping between packets and NDlog tuples. Conventions:
///
/// - `PacketIn(@C, Swi, <packet_in_args...>)` — the event fed to the engine;
/// - `FlowTable(@Swi, <match args...>, Prt)` — derived tuples whose location
///   is the target switch; the leading args (one per `flow_match_args`
///   entry) are exact-match values, the final arg is the output port
///   (negative = drop);
/// - optionally `PacketOut(@Swi, ..., Prt)` — release the buffered packet
///   out of `Prt` (the Q4 scenario hinges on a controller forgetting these).
#[derive(Debug, Clone)]
pub struct TupleCodec {
    /// Location value of the controller node.
    pub controller_loc: Value,
    /// `PacketIn` table name, shared with every event tuple it names.
    pub packet_in_table: Arc<str>,
    /// Argument layout after the switch id.
    pub packet_in_args: Vec<PktArg>,
    /// `FlowTable` table name.
    pub flow_table: Arc<str>,
    /// Which packet attributes the leading `FlowTable` args match on.
    pub flow_match_args: Vec<PktArg>,
    /// Priority given to installed entries.
    pub flow_priority: i32,
    /// Optional `PacketOut` table name (last arg = port).
    pub packet_out_table: Option<Arc<str>>,
}

impl TupleCodec {
    /// The codec for the Fig. 2 program: `PacketIn(@C,Swi,Hdr)` where `Hdr`
    /// is the destination port, and `FlowTable(@Swi,Hdr,Prt)`.
    pub fn fig2() -> TupleCodec {
        TupleCodec {
            controller_loc: Value::str("C"),
            packet_in_table: "PacketIn".into(),
            packet_in_args: vec![PktArg::Field(Field::DstPort)],
            flow_table: "FlowTable".into(),
            flow_match_args: vec![PktArg::Field(Field::DstPort)],
            flow_priority: 10,
            packet_out_table: None,
        }
    }

    /// A five-tuple codec used by the richer scenarios:
    /// `PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt)` and
    /// `FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt)`.
    pub fn five_tuple() -> TupleCodec {
        TupleCodec {
            controller_loc: Value::str("C"),
            packet_in_table: "PacketIn".into(),
            packet_in_args: vec![
                PktArg::Field(Field::SrcIp),
                PktArg::Field(Field::DstIp),
                PktArg::Field(Field::SrcPort),
                PktArg::Field(Field::DstPort),
                PktArg::InPort,
            ],
            flow_table: "FlowTable".into(),
            flow_match_args: vec![
                PktArg::Field(Field::SrcIp),
                PktArg::Field(Field::DstIp),
                PktArg::Field(Field::SrcPort),
                PktArg::Field(Field::DstPort),
            ],
            flow_priority: 10,
            packet_out_table: None,
        }
    }

    /// Encode a `PacketIn` message as the event tuple.
    pub fn packet_in_tuple(&self, msg: &PacketInMsg) -> Tuple {
        let mut args = Vec::with_capacity(1 + self.packet_in_args.len());
        args.push(Value::Int(msg.switch));
        args.extend(self.packet_in_args.iter().map(|a| Value::Int(a.value_of(msg))));
        Tuple::new(Arc::clone(&self.packet_in_table), self.controller_loc.clone(), args)
    }

    /// Is `table` one of the output tables, whose tuples [`Self::decode`]
    /// turns into control messages?
    pub fn is_output(&self, table: &str) -> bool {
        table == &*self.flow_table || self.packet_out_table.as_deref() == Some(table)
    }

    /// Read a tuple laid out as a flow-table row — match values, then the
    /// output port (negative = drop) — as the switch it is located at and
    /// the entry it stands for, at `priority`. `None` if the location or a
    /// value is no integer, or the arity is not the match layout's plus one.
    pub fn flow_entry(&self, tuple: &Tuple, priority: i32) -> Option<(i64, FlowEntry)> {
        let switch = tuple.loc.as_int()?;
        if tuple.args.len() != self.flow_match_args.len() + 1 {
            return None;
        }
        let mut m = Match::any();
        for (spec, v) in self.flow_match_args.iter().zip(tuple.args.iter()) {
            let v = v.as_int()?;
            match spec {
                PktArg::Field(f) => m = m.with(*f, v),
                PktArg::InPort => m = m.on_port(v),
            }
        }
        let port = tuple.args.last()?.as_int()?;
        let actions = if port < 0 { vec![Action::Drop] } else { vec![Action::Output(port)] };
        Some((switch, FlowEntry::new(priority, m, actions)))
    }

    /// Decode a derived tuple into a control message, if it is one of the
    /// recognized output tables.
    pub fn decode(&self, tuple: &Tuple, msg: &PacketInMsg) -> Option<CtrlMsg> {
        if tuple.table == self.flow_table {
            let (switch, entry) = self.flow_entry(tuple, self.flow_priority)?;
            return Some(CtrlMsg::FlowMod { switch, entry });
        }
        if let Some(po) = &self.packet_out_table {
            if &tuple.table == po {
                let switch = tuple.loc.as_int()?;
                let port = tuple.args.last()?.as_int()?;
                let action = if port < 0 { Action::Drop } else { Action::Output(port) };
                return Some(CtrlMsg::PacketOut { switch, packet: msg.packet.clone(), action });
            }
        }
        None
    }
}

/// An NDlog-programmed controller: the declarative environment of §5.1.
pub struct NdlogController {
    engine: Engine,
    codec: TupleCodec,
    name: String,
}

impl NdlogController {
    /// Check `program` with the default engine options (its rules compile
    /// when traffic first reaches them). The controller's engine shares the
    /// program it is handed: an `Arc<Program>` is kept as it is, a
    /// `Program` is moved into one.
    pub fn new(
        program: impl Into<Arc<Program>>,
        codec: TupleCodec,
    ) -> Result<Self, mpr_runtime::CompileError> {
        Self::with_options(program, codec, EngineOptions::default())
    }

    /// With explicit engine options (e.g. provenance off for the §5.4
    /// overhead measurement).
    pub fn with_options(
        program: impl Into<Arc<Program>>,
        codec: TupleCodec,
        opts: EngineOptions,
    ) -> Result<Self, mpr_runtime::CompileError> {
        let engine = Engine::shared(program.into(), opts)?;
        let name = format!("ndlog:{}", engine.program().name);
        Ok(NdlogController { engine, codec, name })
    }

    /// The controller program.
    pub fn program(&self) -> &Program {
        self.engine.program()
    }

    /// The codec.
    pub fn codec(&self) -> &TupleCodec {
        &self.codec
    }

    /// Seed controller state (e.g. `WebLoadBalancer` configuration tuples).
    pub fn seed(&mut self, tuples: Vec<Tuple>) -> Result<(), mpr_runtime::RuntimeError> {
        self.engine.insert_all(tuples)?;
        Ok(())
    }

    /// Access the engine's execution log (the provenance record).
    pub fn exec_log(&self) -> &ExecLog {
        self.engine.log()
    }

    /// Take the execution log out of a finished run (see
    /// [`Engine::take_log`]: the controller must not be driven afterwards).
    pub fn take_log(&mut self) -> ExecLog {
        self.engine.take_log()
    }

    /// Direct access to the engine (diagnostics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Controller for NdlogController {
    fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>) {
        let tuple = self.codec.packet_in_tuple(msg);
        if let Ok(step) = self.engine.insert(tuple) {
            out.extend(step.appeared.iter().filter_map(|t| self.codec.decode(t, msg)));
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::parse_program;

    fn msg(switch: i64, dst_port: i64) -> PacketInMsg {
        let mut p = Packet::http(1, 50, 20);
        p.dst_port = dst_port;
        PacketInMsg { switch, in_port: 0, packet: p }
    }

    #[test]
    fn codec_encodes_packet_in() {
        let c = TupleCodec::fig2();
        let t = c.packet_in_tuple(&msg(2, 80));
        assert_eq!(t.to_string(), "PacketIn(@'C',2,80)");
        let c5 = TupleCodec::five_tuple();
        let t = c5.packet_in_tuple(&msg(2, 80));
        assert_eq!(t.args.len(), 6);
    }

    #[test]
    fn codec_decodes_flow_mods_and_drops() {
        let c = TupleCodec::fig2();
        let m = msg(2, 80);
        let t = Tuple::new("FlowTable", 2i64, vec![Value::Int(80), Value::Int(1)]);
        match c.decode(&t, &m) {
            Some(CtrlMsg::FlowMod { switch, entry }) => {
                assert_eq!(switch, 2);
                assert_eq!(entry.actions, vec![Action::Output(1)]);
                assert!(entry.m.matches(&m.packet, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Negative port = drop entry.
        let t = Tuple::new("FlowTable", 1i64, vec![Value::Int(22), Value::Int(-1)]);
        match c.decode(&t, &m) {
            Some(CtrlMsg::FlowMod { entry, .. }) => {
                assert_eq!(entry.actions, vec![Action::Drop])
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown tables are ignored.
        let t = Tuple::new("Other", 1i64, vec![Value::Int(1)]);
        assert!(c.decode(&t, &m).is_none());
    }

    #[test]
    fn manual_flow_entry_conversion() {
        // A hand-inserted row reads as an entry at the priority asked for
        // (the debugger's manual repairs sit at 50, above reactive ones).
        let codec = TupleCodec::fig2();
        let t = Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)]);
        let (sw, entry) = codec.flow_entry(&t, 50).unwrap();
        assert_eq!((sw, entry.priority), (3, 50));
        assert_eq!(entry.actions, vec![Action::Output(2)]);
        // Drop entries for negative ports.
        let t = Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(-1)]);
        let (_, entry) = codec.flow_entry(&t, 50).unwrap();
        assert_eq!(entry.actions, vec![Action::Drop]);
        // Arity mismatch is refused.
        let t = Tuple::new("FlowTable", 3i64, vec![Value::Int(80)]);
        assert!(codec.flow_entry(&t, 50).is_none());
    }

    #[test]
    fn ndlog_controller_runs_fig2() {
        let program = parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            ",
        )
        .unwrap();
        let mut ctrl = NdlogController::new(program, TupleCodec::fig2()).unwrap();
        let mut out = Vec::new();
        ctrl.on_packet_in(&msg(2, 80), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CtrlMsg::FlowMod { switch: 2, .. }));
        // Unmatched traffic produces nothing.
        out.clear();
        ctrl.on_packet_in(&msg(9, 22), &mut out);
        assert!(out.is_empty());
        assert!(ctrl.exec_log().len() > 0);
        assert_eq!(ctrl.name(), "ndlog:fig2");
    }

    #[test]
    fn a_rule_no_packet_in_reaches_still_refuses_the_controller() {
        // `Never` receives no tuple, so no delta compiles `t2`; the
        // controller is refused with what compiling it says, and of two
        // bad rules the first is named.
        for also_bad in ["", "t3 FlowTable(@S,H,P) :- Never(@S,H,P), Qq > 1.\n"] {
            let src = format!(
                "materialize(PacketIn, event, 2, keys()).\n\
                 materialize(FlowTable, infinity, 2, keys(0)).\n\
                 t1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Prt := 1.\n\
                 t2 FlowTable(@S,H,P) :- Never(@S,H,X), P := X + Zz.\n{also_bad}"
            );
            let program = parse_program("refused", &src).unwrap();
            let eager = mpr_runtime::CompiledRule::compile(program.rule("t2").unwrap(), &program.catalog);
            let err = NdlogController::new(program, TupleCodec::fig2()).err();
            assert_eq!(err, eager.err());
            assert_eq!(
                err,
                Some(mpr_runtime::CompileError::UnboundAssignVar { rule: "t2".into(), var: "Zz".into() })
            );
        }
    }

    #[test]
    fn packet_out_decoding() {
        let mut c = TupleCodec::fig2();
        c.packet_out_table = Some("PacketOut".into());
        let m = msg(2, 80);
        let t = Tuple::new("PacketOut", 2i64, vec![Value::Int(80), Value::Int(1)]);
        match c.decode(&t, &m) {
            Some(CtrlMsg::PacketOut { switch: 2, action: Action::Output(1), packet }) => {
                assert_eq!(packet, m.packet);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn null_controller_is_silent() {
        let mut c = NullController;
        let mut out = Vec::new();
        c.on_packet_in(&msg(1, 80), &mut out);
        assert!(out.is_empty());
        assert_eq!(c.name(), "null");
    }
}
