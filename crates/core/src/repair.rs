//! Repair candidates — the output of the meta provenance search.

use mpr_backtest::mqo::ExtraFlows;
use mpr_backtest::replay::BacktestSetup;
use mpr_ndlog::{Patch, PatchError, Program, ProgramOutline, RuleDelta, Tuple};
use std::fmt;

/// A concrete repair.
#[derive(Debug, Clone, PartialEq)]
pub enum Repair {
    /// A program patch (most repairs).
    Patch(Patch),
    /// A base-tuple insertion — "manually installing a flow entry"
    /// (Table 2 candidate A) or a manual learning-table entry (Table 6d
    /// candidate I). The tuple is fed to the controller as configuration
    /// state, or pre-installed as a flow entry when it names the flow
    /// table.
    InsertTuple(Tuple),
    /// A base-tuple deletion (positive symptoms, Fig. 5's DELETETUPLE).
    DeleteTuple(Tuple),
    /// A base-tuple change found by symbolic propagation plus negation
    /// (§4.2's CHANGETUPLE).
    ChangeTuple {
        /// The existing tuple.
        from: Tuple,
        /// Its replacement.
        to: Tuple,
    },
}

impl Repair {
    /// The patched program, whole (for a tuple repair, a copy of `base`).
    /// For whoever must compile or print the repaired program — the
    /// examples, the tests' oracles; a backtest reads the repair as
    /// [`Repair::replay_input`].
    pub fn apply(&self, base: &Program) -> Result<Program, PatchError> {
        match self {
            Repair::Patch(p) => p.apply(base),
            _ => Ok(base.clone()),
        }
    }

    /// Transform a seed-tuple set according to this repair (insertion adds,
    /// deletion removes, change replaces; patches leave seeds alone).
    pub fn adjust_seeds(&self, seeds: &mut Vec<Tuple>) {
        match self {
            Repair::Patch(_) => {}
            Repair::InsertTuple(t) => seeds.push(t.clone()),
            Repair::DeleteTuple(t) => seeds.retain(|s| s != t),
            Repair::ChangeTuple { from, to } => {
                seeds.retain(|s| s != from);
                seeds.push(to.clone());
            }
        }
    }

    /// How a backtest replays the repair on `setup`, jointly or on its
    /// own: a patch as what it changes in `base`, rule by rule (`outline`
    /// is `base`'s, built once for all candidates) — the syntax check, and
    /// what the joint replay is built from; a tuple inserted into an output
    /// table as a hand-installed flow entry at priority 50 (above the
    /// reactive ones); any other tuple repair as seeds of its own, only
    /// when they differ from `setup.seeds`.
    pub fn replay_input(&self, base: &Program, outline: &ProgramOutline, setup: &BacktestSetup) -> ReplayInput {
        let mut input = ReplayInput { delta: Ok(RuleDelta::default()), extra_flows: Vec::new(), seeds: None };
        match self {
            Repair::Patch(p) => input.delta = p.delta(base, outline),
            Repair::InsertTuple(t) if setup.codec.is_output(&t.table) => {
                input.extra_flows.extend(setup.codec.flow_entry(t, 50));
            }
            other => {
                let mut seeds = setup.seeds.clone();
                other.adjust_seeds(&mut seeds);
                input.seeds = (seeds != setup.seeds).then_some(seeds);
            }
        }
        input
    }
}

/// A repair as a backtest replays it ([`Repair::replay_input`]).
#[derive(Debug, Clone)]
pub struct ReplayInput {
    /// What it changes in the base program, or why its patch does not
    /// apply.
    pub delta: Result<RuleDelta, PatchError>,
    /// Its hand-installed flow entries.
    pub extra_flows: ExtraFlows,
    /// Its own seeds; `None` replays the setup's.
    pub seeds: Option<Vec<Tuple>>,
}

/// A repair candidate with its plausibility cost and the meta-provenance
/// path that produced it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The repair.
    pub repair: Repair,
    /// Cost under the [`crate::cost`] table (lower = more plausible).
    pub cost: u32,
    /// Human-readable description in the paper's Table 2 style.
    pub description: String,
    /// The meta provenance tree that yielded this candidate, rendered as
    /// indented text (root first) — the Fig. 6 view.
    pub trace: Vec<String>,
}

impl Candidate {
    /// Render the meta provenance tree.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.trace.iter().enumerate() {
            for _ in 0..i {
                out.push_str("  ");
            }
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cost {}] {}", self.cost, self.description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::patch::Edit;
    use mpr_ndlog::{parse_program, Value};

    #[test]
    fn patch_repairs_apply() {
        let p = parse_program(
            "t",
            "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Prt := 2.",
        )
        .unwrap();
        let r = Repair::Patch(Patch::single(Edit::SetSelectionOp {
            rule: "r7".into(),
            sel: 0,
            op: mpr_ndlog::CmpOp::Ne,
        }));
        let out = r.apply(&p).unwrap();
        assert_eq!(out.rule("r7").unwrap().sels[0].op, mpr_ndlog::CmpOp::Ne);
    }

    #[test]
    fn insert_repairs_leave_program_alone() {
        let p = parse_program(
            "t",
            "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Prt := 2.",
        )
        .unwrap();
        let t = Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)]);
        let r = Repair::InsertTuple(t.clone());
        assert_eq!(r.apply(&p).unwrap(), p);
    }

    #[test]
    fn candidate_rendering() {
        let c = Candidate {
            repair: Repair::InsertTuple(Tuple::new("FlowTable", 3i64, vec![Value::Int(80)])),
            cost: 3,
            description: "Manually installing a flow entry".into(),
            trace: vec![
                "NEXIST[Tuple(L=S3, Tab=FlowTable, 80, 2)]".into(),
                "NEXIST[Base(FlowTable, 80, 2)]".into(),
            ],
        };
        assert_eq!(c.to_string(), "[cost 3] Manually installing a flow entry");
        let t = c.render_trace();
        assert!(t.starts_with("NEXIST[Tuple"));
        assert!(t.contains("\n  NEXIST[Base"));
    }
}
