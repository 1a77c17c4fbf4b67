//! Mini-Trema: an imperative, Ruby-flavored controller language (§5.8).
//!
//! The paper's Trema meta model (Appendix B.2) covers the subset of Ruby a
//! `packet_in` handler uses: conditionals over packet fields, flow-mod and
//! packet-out calls. Mini-Trema is exactly that subset:
//!
//! ```text
//! def packet_in(switch, packet)
//!   if switch == 2 && packet.dst_port == 80
//!     send_flow_mod_add(match: {dst_port: 80}, port: 2)
//!   end
//! end
//! ```
//!
//! Programs *compile to NDlog* (each if-statement becomes one rule), so the
//! meta-provenance machinery of `mpr-core` applies unchanged; repairs are
//! rendered back in mini-Trema syntax through the site map. The language
//! imposes its own repair legality: all comparison operators are mutable
//! (Ruby allows `<`, `>`, `!=` anywhere), mirroring the paper's
//! observation that RapidNet and Trema admit operator repairs.

use mpr_ndlog::ast::{Assign, Atom, CmpOp, Expr, Selection, Term};
use mpr_ndlog::{Program, Rule};
use std::fmt;

/// A guard condition: `subject op literal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// What is inspected: `switch` or a packet field (NDlog variable name,
    /// e.g. `Swi`, `Hdr`, `Sip`).
    pub subject: String,
    /// Comparison.
    pub op: CmpOp,
    /// Literal.
    pub value: i64,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subj = match self.subject.as_str() {
            "Swi" => "switch".to_string(),
            other => format!("packet.{}", other.to_lowercase()),
        };
        write!(f, "{subj} {} {}", self.op, self.value)
    }
}

/// A handler action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TremaAction {
    /// `send_flow_mod_add(port)` — install an entry matching this packet's
    /// inspected fields, forwarding to `port` (negative = drop).
    FlowModAdd {
        /// Output port.
        port: i64,
    },
    /// `send_packet_out(port)` — release the buffered packet.
    PacketOut {
        /// Output port.
        port: i64,
    },
}

impl fmt::Display for TremaAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TremaAction::FlowModAdd { port } => write!(f, "send_flow_mod_add(port: {port})"),
            TremaAction::PacketOut { port } => write!(f, "send_packet_out(port: {port})"),
        }
    }
}

/// One `if conds… then action end` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfStmt {
    /// Statement label (becomes the NDlog rule id).
    pub label: String,
    /// Conjunctive guard.
    pub conds: Vec<Cond>,
    /// The action.
    pub action: TremaAction,
}

impl fmt::Display for IfStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "  if ")?;
        for (i, c) in self.conds.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        writeln!(f, "  # {}", self.label)?;
        writeln!(f, "    {}", self.action)?;
        write!(f, "  end")
    }
}

/// A mini-Trema program: the body of `packet_in`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TremaProgram {
    /// Program name.
    pub name: String,
    /// Fields the handler inspects, in PacketIn tuple order (after `Swi`).
    pub fields: Vec<String>,
    /// Statements in source order.
    pub stmts: Vec<IfStmt>,
}

impl fmt::Display for TremaProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "def packet_in(switch, packet)  # {}", self.name)?;
        for s in &self.stmts {
            writeln!(f, "{s}")?;
        }
        write!(f, "end")
    }
}

impl TremaProgram {
    /// Compile to NDlog: one rule per statement. `FlowModAdd` statements
    /// derive `FlowTable(@Swi, fields…, Prt)`; `PacketOut` statements
    /// derive `PacketOut(@Swi, fields…, Prt)`.
    pub fn compile(&self) -> Program {
        let mut src = String::new();
        let arity = self.fields.len() + 1; // + Swi
        src.push_str(&format!("materialize(PacketIn, event, {arity}, keys()).\n"));
        let fkeys: Vec<String> = (0..self.fields.len()).map(|i| i.to_string()).collect();
        src.push_str(&format!(
            "materialize(FlowTable, infinity, {}, keys({})).\n",
            self.fields.len() + 1,
            fkeys.join(",")
        ));
        src.push_str(&format!(
            "materialize(PacketOut, event, {}, keys()).\n",
            self.fields.len() + 1
        ));
        let mut program = mpr_ndlog::parse_program(&self.name, &src).expect("decls parse");
        for stmt in &self.stmts {
            program.rules.push(self.compile_stmt(stmt));
        }
        program
    }

    fn compile_stmt(&self, stmt: &IfStmt) -> Rule {
        let head_table = match stmt.action {
            TremaAction::FlowModAdd { .. } => "FlowTable",
            TremaAction::PacketOut { .. } => "PacketOut",
        };
        let port = match stmt.action {
            TremaAction::FlowModAdd { port } | TremaAction::PacketOut { port } => port,
        };
        let mut head_args: Vec<Term> =
            self.fields.iter().map(|f| Term::Var(f.clone())).collect();
        head_args.push(Term::Var("Prt".into()));
        let mut body_args: Vec<Term> = vec![Term::Var("Swi".into())];
        body_args.extend(self.fields.iter().map(|f| Term::Var(f.clone())));
        Rule::new(
            stmt.label.clone(),
            Atom::new(head_table, Term::Var("Swi".into()), head_args),
            vec![Atom::new("PacketIn", Term::Var("C".into()), body_args)],
            stmt.conds
                .iter()
                .map(|c| Selection::new(Expr::var(c.subject.clone()), c.op, Expr::int(c.value)))
                .collect(),
            vec![Assign::new("Prt", Expr::int(port))],
        )
    }

    /// Render an NDlog patch description back in mini-Trema vocabulary.
    pub fn describe_repair(&self, ndlog_description: &str) -> String {
        let mut d = ndlog_description.to_string();
        d = d.replace("Swi ==", "switch ==");
        d = d.replace("Swi !=", "switch !=");
        d = d.replace("Swi >", "switch >");
        d = d.replace("Swi <", "switch <");
        d = d.replace("Prt :=", "port:");
        for f in &self.fields {
            let lower = format!("packet.{}", f.to_lowercase());
            d = d.replace(&format!("{f} =="), &format!("{lower} =="));
            d = d.replace(&format!("{f} !="), &format!("{lower} !="));
        }
        d
    }
}

/// The mini-Trema port of the Q1 load balancer (Fig. 2 as a `packet_in`
/// handler), bug included.
pub fn q1_trema() -> TremaProgram {
    let c = |subject: &str, op: CmpOp, value: i64| Cond { subject: subject.into(), op, value };
    TremaProgram {
        name: "q1-trema".into(),
        fields: vec!["Hdr".into()],
        stmts: vec![
            IfStmt {
                label: "t1".into(),
                conds: vec![c("Swi", CmpOp::Eq, 1), c("Hdr", CmpOp::Eq, 80)],
                action: TremaAction::FlowModAdd { port: 2 },
            },
            IfStmt {
                label: "t2".into(),
                conds: vec![c("Swi", CmpOp::Eq, 1), c("Hdr", CmpOp::Eq, 53)],
                action: TremaAction::FlowModAdd { port: 2 },
            },
            IfStmt {
                label: "t5".into(),
                conds: vec![c("Swi", CmpOp::Eq, 2), c("Hdr", CmpOp::Eq, 80)],
                action: TremaAction::FlowModAdd { port: 1 },
            },
            // The copy-and-paste bug: should be switch == 3.
            IfStmt {
                label: "t7".into(),
                conds: vec![c("Swi", CmpOp::Eq, 2), c("Hdr", CmpOp::Eq, 80)],
                action: TremaAction::FlowModAdd { port: 2 },
            },
            IfStmt {
                label: "t8".into(),
                conds: vec![c("Swi", CmpOp::Eq, 3), c("Hdr", CmpOp::Eq, 53)],
                action: TremaAction::FlowModAdd { port: 1 },
            },
            IfStmt {
                label: "t9".into(),
                conds: vec![c("Swi", CmpOp::Eq, 4), c("Hdr", CmpOp::Eq, 80)],
                action: TremaAction::FlowModAdd { port: 1 },
            },
            IfStmt {
                label: "t10".into(),
                conds: vec![c("Swi", CmpOp::Eq, 5), c("Hdr", CmpOp::Eq, 80)],
                action: TremaAction::FlowModAdd { port: 1 },
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printing_reads_like_ruby() {
        let p = q1_trema();
        let s = p.to_string();
        assert!(s.contains("def packet_in(switch, packet)"));
        assert!(s.contains("if switch == 2 && packet.hdr == 80"));
        assert!(s.contains("send_flow_mod_add(port: 2)"));
        assert!(s.ends_with("end"));
    }

    #[test]
    fn compiles_to_valid_ndlog() {
        let p = q1_trema().compile();
        assert!(p.validate().is_ok());
        assert_eq!(p.rules.len(), 7);
        let t7 = p.rule("t7").unwrap();
        assert_eq!(t7.head.table, "FlowTable");
        assert_eq!(t7.sels.len(), 2);
        assert_eq!(t7.sels[0].sid(), "Swi == 2");
    }

    #[test]
    fn packet_out_statements_compile() {
        let mut p = q1_trema();
        p.stmts.push(IfStmt {
            label: "po".into(),
            conds: vec![Cond { subject: "Swi".into(), op: CmpOp::Eq, value: 1 }],
            action: TremaAction::PacketOut { port: 2 },
        });
        let compiled = p.compile();
        assert_eq!(compiled.rule("po").unwrap().head.table, "PacketOut");
    }

    #[test]
    fn repair_descriptions_speak_trema() {
        let p = q1_trema();
        assert_eq!(
            p.describe_repair("Changing Swi == 2 in t7 to Swi == 3"),
            "Changing switch == 2 in t7 to switch == 3"
        );
        assert_eq!(
            p.describe_repair("Changing Hdr == 53 in t2 to Hdr == 80"),
            "Changing packet.hdr == 53 in t2 to packet.hdr == 80"
        );
    }
}
