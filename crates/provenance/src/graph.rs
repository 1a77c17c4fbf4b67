//! Provenance trees and the explanation queries.
//!
//! [`explain_exist`] answers "why does tuple τ exist?" by folding the
//! engine's execution log into the §3.1 graph: EXIST ← APPEAR ←
//! INSERT/DERIVE (← RECEIVE ← SEND for cross-node installs) ← body EXISTs,
//! recursively down to base tuples. It follows the log's per-head chains
//! (`ExecLog::derivations_of`, `ExecLog::shipment_of`), so a tree reads
//! log rows in proportion to its own size, not to the log's.
//!
//! [`explain_absent`] answers "why does no tuple matching this pattern
//! exist?" with negative provenance: NEXIST ← NDERIVE per candidate rule ←
//! the missing precondition (recursively) or the selection predicate that
//! blocked an otherwise-complete join. This is the *diagnosis* flavor —
//! every failing rule is explained. The *repair* flavor, which forks a
//! forest instead (§3.3), lives in `mpr-core`.

use crate::vertex::{Pattern, Vertex};
use mpr_ndlog::eval::{Env, PureFuncs};
use mpr_ndlog::{Program, Rule, Term, Tuple};
use mpr_runtime::engine::match_atom;
use mpr_runtime::{ExecEvent, ExecLog, Time, TupleId, TupleKind};
use std::collections::BTreeSet;

/// A provenance explanation tree. The root is the queried (non-)event;
/// children are its direct causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvTree {
    /// This vertex.
    pub vertex: Vertex,
    /// Direct causes.
    pub children: Vec<ProvTree>,
}

impl ProvTree {
    /// Leaf tree.
    pub fn leaf(vertex: Vertex) -> Self {
        ProvTree { vertex, children: Vec::new() }
    }

    /// Number of vertices.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProvTree::size).sum::<usize>()
    }

    /// Height (leaf = 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(ProvTree::depth).max().unwrap_or(0)
    }

    /// All leaves.
    pub fn leaves(&self) -> Vec<&Vertex> {
        if self.children.is_empty() {
            vec![&self.vertex]
        } else {
            self.children.iter().flat_map(ProvTree::leaves).collect()
        }
    }

    /// Indented ASCII rendering (one vertex per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.vertex.label());
        out.push('\n');
        for c in &self.children {
            c.render_into(out, indent + 1);
        }
    }

    /// GraphViz DOT rendering.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=BT;\n");
        let mut next = 0usize;
        self.dot_into(&mut out, &mut next);
        out.push_str("}\n");
        out
    }

    fn dot_into(&self, out: &mut String, next: &mut usize) -> usize {
        let me = *next;
        *next += 1;
        let shape = if self.vertex.is_negative() { "box" } else { "ellipse" };
        let color = if self.vertex.is_negative() { "firebrick" } else { "black" };
        out.push_str(&format!(
            "  n{me} [label=\"{}\", shape={shape}, color={color}];\n",
            self.vertex.label().replace('"', "\\\"")
        ));
        for c in &self.children {
            let cid = c.dot_into(out, next);
            out.push_str(&format!("  n{cid} -> n{me};\n"));
        }
        me
    }
}

/// Options bounding an explanation.
#[derive(Debug, Clone, Copy)]
pub struct ExplainOptions {
    /// Maximum recursion depth (tuple hops).
    pub max_depth: usize,
    /// Maximum total vertices.
    pub max_vertices: usize,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions { max_depth: 32, max_vertices: 10_000 }
    }
}

/// The *net* derivation set of an execution: every `(rule, head, body)`
/// combination whose DERIVE events strictly outnumber its UNDERIVE events,
/// keyed by tuple **values** rather than instance ids (body tuples sorted).
///
/// This is the provenance-equivalence invariant the differential harness
/// checks: the pipelined and batch strategies may fire a shared body
/// combination a different number of times (support-count multiplicities
/// differ), but because duplicate firings carry identical body sets, every
/// retraction cascade underives them together — so the *net* sets agree.
pub fn derivation_set(log: &ExecLog) -> BTreeSet<(String, Tuple, Vec<Tuple>)> {
    let value_of = |tid: TupleId| log.tuple(tid).clone();
    let mut net: std::collections::BTreeMap<(String, Tuple, Vec<Tuple>), i64> =
        std::collections::BTreeMap::new();
    for ev in log.events() {
        let (rule, head, body, sign) = match ev {
            ExecEvent::Derive { rule, head, body, .. } => (rule, head, body, 1),
            ExecEvent::Underive { rule, head, body, .. } => (rule, head, body, -1),
            _ => continue,
        };
        let mut body_vals: Vec<Tuple> = body.iter().map(|&t| value_of(t)).collect();
        body_vals.sort();
        *net.entry((rule.to_string(), value_of(head), body_vals)).or_insert(0) += sign;
    }
    net.into_iter().filter(|&(_, n)| n > 0).map(|(k, _)| k).collect()
}

/// Explain why `tuple` existed at time `at`. Returns `None` if no matching
/// instance was alive then.
pub fn explain_exist(log: &ExecLog, tuple: &Tuple, at: Time) -> Option<ProvTree> {
    explain_exist_with(log, tuple, at, ExplainOptions::default())
}

/// [`explain_exist`] with explicit bounds.
pub fn explain_exist_with(
    log: &ExecLog,
    tuple: &Tuple,
    at: Time,
    opts: ExplainOptions,
) -> Option<ProvTree> {
    let rec = log.instance_alive_at(tuple, at)?;
    let mut budget = opts.max_vertices;
    Some(exist_tree(log, rec.tid, opts.max_depth, &mut budget))
}

fn exist_tree(log: &ExecLog, tid: TupleId, depth: usize, budget: &mut usize) -> ProvTree {
    let rec = log.record(tid);
    let node = rec.tuple.loc.clone();
    let mut root = ProvTree::leaf(Vertex::Exist {
        from: rec.appear,
        to: rec.disappear,
        node: node.clone(),
        tuple: rec.tuple.clone(),
    });
    if depth == 0 || *budget == 0 {
        return root;
    }
    *budget = budget.saturating_sub(1);
    let mut appear = ProvTree::leaf(Vertex::Appear {
        at: rec.appear,
        node: node.clone(),
        tuple: rec.tuple.clone(),
    });
    match rec.kind {
        TupleKind::Base | TupleKind::Event => {
            appear.children.push(ProvTree::leaf(Vertex::Insert {
                at: rec.appear,
                node,
                tuple: rec.tuple.clone(),
            }));
        }
        TupleKind::Derived => {
            // Cross-node installs interpose SEND → RECEIVE.
            let shipped = log.shipment_of(tid);
            for ev in log.derivations_of(tid) {
                let ExecEvent::Derive { time, rule, body, .. } = ev else {
                    continue;
                };
                let mut derive = ProvTree::leaf(Vertex::Derive {
                    at: time,
                    node: node.clone(),
                    rule: rule.to_string(),
                    tuple: rec.tuple.clone(),
                });
                for &btid in body {
                    if *budget == 0 {
                        break;
                    }
                    derive.children.push(exist_tree(log, btid, depth - 1, budget));
                }
                if let Some((st, from, to)) = shipped {
                    let send = ProvTree {
                        vertex: Vertex::Send {
                            at: st,
                            from: from.clone(),
                            to: to.clone(),
                            tuple: rec.tuple.clone(),
                            positive: true,
                        },
                        children: vec![derive],
                    };
                    let receive = ProvTree {
                        vertex: Vertex::Receive {
                            at: st,
                            from: from.clone(),
                            to: to.clone(),
                            tuple: rec.tuple.clone(),
                            positive: true,
                        },
                        children: vec![send],
                    };
                    appear.children.push(receive);
                } else {
                    appear.children.push(derive);
                }
            }
        }
    }
    root.children.push(appear);
    root
}

/// Explain why no tuple matching `pattern` existed at time `at` under
/// `program`. Always returns a tree (the root is NEXIST over `[0, at]`).
pub fn explain_absent(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
) -> ProvTree {
    explain_absent_with(log, program, pattern, at, ExplainOptions::default())
}

/// [`explain_absent`] with explicit bounds.
pub fn explain_absent_with(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
    opts: ExplainOptions,
) -> ProvTree {
    let mut budget = opts.max_vertices;
    absent_tree(log, program, pattern, at, opts.max_depth, &mut budget)
}

fn absent_tree(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
    depth: usize,
    budget: &mut usize,
) -> ProvTree {
    let mut root = ProvTree::leaf(Vertex::NExist { from: 0, to: at, pattern: pattern.clone() });
    if depth == 0 || *budget == 0 {
        return root;
    }
    *budget = budget.saturating_sub(1);
    let deriving: Vec<&Rule> = program.rules_for_table(&pattern.table);
    if deriving.is_empty() {
        root.children
            .push(ProvTree::leaf(Vertex::NInsert { at, pattern: pattern.clone() }));
        return root;
    }
    for rule in deriving {
        if let Some(nd) = explain_failed_rule(log, program, rule, pattern, at, depth, budget) {
            root.children.push(nd);
        }
    }
    root
}

/// Why did `rule` fail to derive a tuple matching `pattern`?
fn explain_failed_rule(
    log: &ExecLog,
    program: &Program,
    rule: &Rule,
    pattern: &Pattern,
    at: Time,
    depth: usize,
    budget: &mut usize,
) -> Option<ProvTree> {
    // Head feasibility: constants in the head must agree with the pattern.
    let mut seed = Env::new();
    if let (Some(pl), Term::Const(c)) = (&pattern.loc, &rule.head.loc) {
        if pl != c {
            return None;
        }
    }
    if let (Some(pl), Term::Var(v)) = (&pattern.loc, &rule.head.loc) {
        seed.insert(v.clone(), pl.clone());
    }
    for (t, pv) in rule.head.args.iter().zip(pattern.args.iter()) {
        match (t, pv) {
            (Term::Const(c), Some(v)) if c != v => return None,
            (Term::Var(name), Some(v)) => match seed.get(name) {
                Some(bound) if bound != v => return None,
                _ => {
                    seed.insert(name.clone(), v.clone());
                }
            },
            _ => {}
        }
    }
    let mut nd = ProvTree::leaf(Vertex::NDerive {
        at,
        rule: rule.id.clone(),
        pattern: pattern.clone(),
    });
    // Join body atoms left-to-right against tuples alive at `at`.
    let mut envs: Vec<Env> = vec![seed];
    for atom in &rule.body {
        let alive: Vec<Tuple> = log
            .alive_at(&atom.table, at)
            .into_iter()
            .map(|r| r.tuple.clone())
            .collect();
        let mut next: Vec<Env> = Vec::new();
        for env in &envs {
            for t in &alive {
                if let Some(e2) = match_atom(atom, t, env) {
                    next.push(e2);
                }
            }
        }
        if next.is_empty() {
            // Missing precondition: instantiate what we can and recurse.
            let sub = instantiate_pattern(atom, envs.first().unwrap_or(&Env::new()).clone());
            if *budget > 0 {
                nd.children.push(absent_tree(log, program, &sub, at, depth - 1, budget));
            } else {
                nd.children.push(ProvTree::leaf(Vertex::NAppear { at, pattern: sub }));
            }
            return Some(nd);
        }
        envs = next;
    }
    // All atoms matched at least once: a selection (or head-value mismatch)
    // must be to blame. Report the first blocking selection of the first
    // binding for concreteness.
    'envs: for mut env in envs {
        let mut funcs = PureFuncs;
        for a in &rule.assigns {
            match a.expr.eval(&env, &mut funcs) {
                Ok(v) => {
                    env.insert(a.var.clone(), v);
                }
                Err(_) => continue 'envs,
            }
        }
        for sel in &rule.sels {
            match sel.eval(&env, &mut funcs) {
                Ok(true) => {}
                _ => {
                    let vars: BTreeSet<String> = sel.vars();
                    let bindings = vars
                        .iter()
                        .filter_map(|v| env.get(v).map(|x| format!("{v}={x}")))
                        .collect::<Vec<_>>()
                        .join(",");
                    nd.children.push(ProvTree::leaf(Vertex::FailedSelection {
                        at,
                        rule: rule.id.clone(),
                        sid: sel.sid(),
                        bindings,
                    }));
                    continue 'envs;
                }
            }
        }
        // Selections passed — the head simply has different values than the
        // pattern (e.g. assigned constants disagree). Report as a failed
        // "head match" pseudo-selection.
        nd.children.push(ProvTree::leaf(Vertex::FailedSelection {
            at,
            rule: rule.id.clone(),
            sid: format!("head {} matches {}", rule.head, pattern),
            bindings: String::new(),
        }));
    }
    Some(nd)
}

fn instantiate_pattern(atom: &mpr_ndlog::Atom, env: Env) -> Pattern {
    let resolve = |t: &Term| match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => env.get(v).cloned(),
    };
    Pattern { table: atom.table.clone(), loc: resolve(&atom.loc), args: atom.args.iter().map(resolve).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::{parse_program, Value};
    use mpr_runtime::Engine;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn fig2() -> Program {
        parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            materialize(WebLoadBalancer, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
            ",
        )
        .unwrap()
    }

    #[test]
    fn positive_explanation_reaches_base_tuples() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(1), vec![v(80), v(7)]);
        assert!(e.contains(&ft));
        let tree = explain_exist(e.log(), &ft, e.now()).expect("tuple exists");
        let rendered = tree.render();
        assert!(rendered.contains("EXIST"), "{rendered}");
        assert!(rendered.contains("DERIVE"), "{rendered}");
        // The flow entry was installed across nodes C→1: SEND/RECEIVE.
        assert!(rendered.contains("SEND"), "{rendered}");
        assert!(rendered.contains("RECEIVE"), "{rendered}");
        // Leaves include the two base insertions.
        let leaves = tree.leaves();
        assert!(leaves.iter().any(|l| matches!(l, Vertex::Insert { tuple, .. } if &*tuple.table == "PacketIn")));
        assert!(leaves.iter().any(|l| matches!(l, Vertex::Insert { tuple, .. } if &*tuple.table == "WebLoadBalancer")));
    }

    #[test]
    fn missing_tuple_explained_by_failed_selection() {
        // The Fig. 1 symptom: no flow entry sending HTTP to port 2 on S3.
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(3), v(80)])).unwrap();
        // No FlowTable at switch 3.
        assert!(e.tuples("FlowTable").iter().all(|t| t.loc != v(3)));
        let pat = Pattern {
            table: "FlowTable".into(),
            loc: Some(v(3)),
            args: vec![Some(v(80)), Some(v(2))],
        };
        let tree = explain_absent(e.log(), &p, &pat, e.now());
        let rendered = tree.render();
        // r7 is the near-miss: its join succeeded but Swi==2 failed (Swi=3).
        assert!(rendered.contains("NDERIVE"), "{rendered}");
        assert!(rendered.contains("Swi == 2"), "{rendered}");
        assert!(rendered.contains("Swi=3"), "{rendered}");
    }

    #[test]
    fn missing_base_tuple_explained_by_ninsert() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        // r1 fails because WebLoadBalancer is empty; recursion bottoms out
        // in NINSERT for the missing base tuple.
        let pat = Pattern {
            table: "FlowTable".into(),
            loc: Some(v(1)),
            args: vec![Some(v(80)), None],
        };
        let tree = explain_absent(e.log(), &p, &pat, e.now());
        let rendered = tree.render();
        assert!(rendered.contains("NINSERT"), "{rendered}");
        assert!(rendered.contains("WebLoadBalancer"), "{rendered}");
    }

    #[test]
    fn absent_with_no_deriving_rules() {
        let p = fig2();
        let e = Engine::new(&p).unwrap();
        let pat = Pattern::any("WebLoadBalancer", 2);
        let tree = explain_absent(e.log(), &p, &pat, 0);
        assert!(matches!(tree.children[0].vertex, Vertex::NInsert { .. }));
    }

    #[test]
    fn tree_metrics_and_dot() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(2), vec![v(80), v(2)]);
        let tree = explain_exist(e.log(), &ft, e.now()).unwrap();
        assert!(tree.size() >= 4);
        assert!(tree.depth() >= 3);
        let dot = tree.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("EXIST"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn depth_bound_truncates() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(1), vec![v(80), v(7)]);
        let shallow = explain_exist_with(
            e.log(),
            &ft,
            e.now(),
            ExplainOptions { max_depth: 0, max_vertices: 10 },
        )
        .unwrap();
        assert_eq!(shallow.size(), 1);
    }
}
