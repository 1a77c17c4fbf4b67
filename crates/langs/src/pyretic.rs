//! Mini-Pyretic: the NetCore policy algebra (§5.8, Appendix B.3).
//!
//! Policies compose: a primitive action forwards or drops; `match(f=v)[P]`
//! restricts `P` to matching traffic; `P1 | P2` applies both in parallel;
//! `P1 >> P2` pipes `P1`'s output through `P2`.
//!
//! Two Pyretic-specific properties from the paper are reproduced:
//!
//! 1. **`match` admits only equality** — "a fix that changes the operator
//!    to `>` is possible in RapidNet but disallowed in Pyretic because
//!    of the syntax of `match`". The compiler records which NDlog
//!    selections came from `match`es, and a Pyretic scenario sets
//!    `Scenario.op_repairs` to `false` (`mpr_core`'s `pyretic_variant`),
//!    so the debugger generates no operator mutations — which is why Q1
//!    yields fewer candidates under Pyretic (Table 3).
//! 2. **Q4 cannot be reproduced** — "the Pyretic abstraction and its
//!    runtime already prevents such problems": the compiler emits the
//!    `PacketOut` rule automatically alongside every forwarding policy, so
//!    a programmer cannot forget it.

use mpr_ndlog::ast::{Assign, Atom, CmpOp, Expr, Selection, Term};
use mpr_ndlog::{Program, Rule};
use std::fmt;

/// A policy expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    /// `fwd(port)`.
    Fwd(i64),
    /// `drop`.
    Drop,
    /// `match(field=value)[policy]` — field is an NDlog variable name
    /// (`Swi`, `Hdr`, `Sip`, ...).
    Match(String, i64, Box<Policy>),
    /// `p1 | p2` — parallel composition.
    Par(Vec<Policy>),
    /// `p1 >> p2` — sequential composition.
    Seq(Vec<Policy>),
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Fwd(p) => write!(f, "fwd({p})"),
            Policy::Drop => f.write_str("drop"),
            Policy::Match(field, v, inner) => {
                let name = match field.as_str() {
                    "Swi" => "switch".to_string(),
                    other => other.to_lowercase(),
                };
                write!(f, "match({name}={v})[{inner}]")
            }
            Policy::Par(ps) => {
                let strs: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", strs.join(" | "))
            }
            Policy::Seq(ps) => {
                let strs: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", strs.join(" >> "))
            }
        }
    }
}

/// A mini-Pyretic program: one top-level policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyreticProgram {
    /// Program name.
    pub name: String,
    /// Fields the policy may match on, in PacketIn tuple order after `Swi`.
    pub fields: Vec<String>,
    /// The policy.
    pub policy: Policy,
}

impl fmt::Display for PyreticProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "# {}\npolicy = {}", self.name, self.policy)
    }
}

impl PyreticProgram {
    /// Compile to NDlog. The policy tree is flattened into its atomic
    /// branches: every path `match(f1=v1)[… match(fk=vk)[fwd(p)]]` becomes
    /// one rule. `Drop` branches become `Prt := -1` rules. A `PacketOut`
    /// rule is emitted automatically per forwarding branch (the runtime
    /// behavior that makes Q4 impossible, per the paper).
    pub fn compile(&self) -> Program {
        let mut src = String::new();
        let arity = self.fields.len() + 1;
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
        let mut branches = Vec::new();
        flatten(&self.policy, &mut Vec::new(), &mut branches);
        for (i, (conds, port)) in branches.iter().enumerate() {
            program.rules.push(self.branch_rule(&format!("py{i}"), conds, *port, "FlowTable"));
            if *port >= 0 {
                // The runtime's automatic first-packet handling.
                program.rules.push(self.branch_rule(
                    &format!("py{i}po"),
                    conds,
                    *port,
                    "PacketOut",
                ));
            }
        }
        program
    }

    fn branch_rule(
        &self,
        id: &str,
        conds: &[(String, i64)],
        port: i64,
        head: &str,
    ) -> Rule {
        let mut head_args: Vec<Term> =
            self.fields.iter().map(|f| Term::Var(f.clone())).collect();
        head_args.push(Term::Var("Prt".into()));
        let mut body_args: Vec<Term> = vec![Term::Var("Swi".into())];
        body_args.extend(self.fields.iter().map(|f| Term::Var(f.clone())));
        Rule::new(
            id,
            Atom::new(head, Term::Var("Swi".into()), head_args),
            vec![Atom::new("PacketIn", Term::Var("C".into()), body_args)],
            conds
                .iter()
                .map(|(f, v)| Selection::new(Expr::var(f.clone()), CmpOp::Eq, Expr::int(*v)))
                .collect(),
            vec![Assign::new("Prt", Expr::int(port))],
        )
    }

    /// Render an NDlog repair description in Pyretic vocabulary.
    pub fn describe_repair(&self, ndlog_description: &str) -> String {
        let mut d = ndlog_description.to_string();
        d = d.replace("Swi ==", "match(switch=)");
        for f in &self.fields {
            d = d.replace(&format!("{f} =="), &format!("match({}=)", f.to_lowercase()));
        }
        d = d.replace("Prt :=", "fwd:");
        d
    }
}

/// Flatten a policy into `(conds, port)` branches; `port = -1` encodes
/// drop. Sequential composition of matches narrows; parallel composition
/// forks.
fn flatten(p: &Policy, conds: &mut Vec<(String, i64)>, out: &mut Vec<(Vec<(String, i64)>, i64)>) {
    match p {
        Policy::Fwd(port) => out.push((conds.clone(), *port)),
        Policy::Drop => out.push((conds.clone(), -1)),
        Policy::Match(f, v, inner) => {
            conds.push((f.clone(), *v));
            flatten(inner, conds, out);
            conds.pop();
        }
        Policy::Par(ps) | Policy::Seq(ps) => {
            // For the restriction-style policies the scenarios use,
            // parallel branches are independent; sequential composition of
            // matches is already handled by nesting. Treat both as forks.
            for sub in ps {
                flatten(sub, conds, out);
            }
        }
    }
}

/// The mini-Pyretic port of Q1, bug included (`match(switch=2)` should be
/// `match(switch=3)` in the backup branch).
pub fn q1_pyretic() -> PyreticProgram {
    let m = |f: &str, v: i64, p: Policy| Policy::Match(f.into(), v, Box::new(p));
    PyreticProgram {
        name: "q1-pyretic".into(),
        fields: vec!["Hdr".into()],
        policy: Policy::Par(vec![
            m("Swi", 1, m("Hdr", 80, Policy::Fwd(2))),
            m("Swi", 1, m("Hdr", 53, Policy::Fwd(2))),
            m("Swi", 2, m("Hdr", 80, Policy::Fwd(1))),
            // BUG: the backup branch tests switch 2 instead of 3.
            m("Swi", 2, m("Hdr", 80, Policy::Fwd(2))),
            m("Swi", 3, m("Hdr", 53, Policy::Fwd(1))),
            m("Swi", 4, m("Hdr", 80, Policy::Fwd(1))),
            m("Swi", 5, m("Hdr", 80, Policy::Fwd(1))),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_pretty_printing() {
        let p = q1_pyretic();
        let s = p.to_string();
        assert!(s.contains("match(switch=2)[match(hdr=80)[fwd(2)]]"));
        assert!(s.contains(" | "));
    }

    #[test]
    fn compiles_with_automatic_packet_outs() {
        let p = q1_pyretic().compile();
        assert!(p.validate().is_ok());
        // 7 branches × (FlowTable + PacketOut).
        assert_eq!(p.rules.len(), 14);
        assert!(p.rule("py3").is_some());
        assert!(p.rule("py3po").is_some());
        assert_eq!(p.rule("py3po").unwrap().head.table, "PacketOut");
    }

    #[test]
    fn drop_branches_have_no_packet_out() {
        let prog = PyreticProgram {
            name: "drop-test".into(),
            fields: vec!["Hdr".into()],
            policy: Policy::Match("Hdr".into(), 22, Box::new(Policy::Drop)),
        };
        let p = prog.compile();
        assert_eq!(p.rules.len(), 1);
        let r = p.rule("py0").unwrap();
        assert_eq!(r.assigns[0].expr, Expr::int(-1));
    }

    #[test]
    fn seq_and_par_flatten() {
        let m = |f: &str, v: i64, p: Policy| Policy::Match(f.into(), v, Box::new(p));
        let prog = PyreticProgram {
            name: "flat".into(),
            fields: vec!["Hdr".into()],
            policy: Policy::Seq(vec![
                m("Hdr", 80, Policy::Fwd(1)),
                m("Hdr", 53, Policy::Fwd(2)),
            ]),
        };
        let p = prog.compile();
        // 2 branches × 2 rules each.
        assert_eq!(p.rules.len(), 4);
    }

    #[test]
    fn repair_descriptions_speak_pyretic() {
        let p = q1_pyretic();
        let d = p.describe_repair("Changing Swi == 2 in py3 to Swi == 3");
        assert!(d.contains("match(switch=)"));
    }
}
