//! The arity-generic NDlog meta model (Appendix B.1, Table 4).
//!
//! The paper's full meta model is written with *template rules*: `Base(k)`
//! stands for a family of tables with `k` columns, `Vals[k]` expands to
//! `Val1, …, Valk`, and a template rule expands into one concrete rule per
//! arity (Table 4 lists the procedures). This module implements that
//! expansion programmatically: [`meta_program_k`] generates the concrete
//! meta program for payload arities `1..=k`, covering
//!
//! - `h1(k)` — `Tuple_k` from `Base_k`;
//! - `p1(k)` / `p2` — predicate instantiation and counting;
//! - `j2(k)` — single-predicate joins (`Join_k` with a fresh JID);
//! - `j1(k1,k2)` — two-predicate cross products (`Join_{k1}_{k2}`);
//! - `e*(k)` — one expression per join column, plus constants (`e1`);
//! - `a1`, `s1` — assignments and selections (arity-independent);
//! - `h2(k, m)` — one firing rule per (arity, selection count), the same
//!   expansion the paper applies to its `h7` template (`CID{k} > CID{k'}`
//!   orders constraint atoms so permutations are not double-counted).
//!
//! The paper's µDlog (§3.2, Fig. 4) is this model at two columns: the
//! differential tests below pin `meta_k(P) ≡ eval(P)` on the Fig. 2
//! controller program, buggy and repaired, and on the *five-tuple* and
//! mixed-arity scenario programs (Q2/Q3/Q5).
//!
//! Two documented deviations from the paper's listing:
//!
//! 1. `Val := (Val' Opr Val'')` is spelled `Val := f_apply(Opr, Vl, Vr)` —
//!    our expression grammar keeps operators-as-data in a built-in;
//! 2. `h2` matches `Sel` join-IDs with `f_match` rather than exact
//!    unification, so selections over two constants (whose `Expr` tuples
//!    carry the `*` wildcard JID) participate correctly. The paper's
//!    `f_match` exists for precisely this wildcard semantics.
//!
//! The translator makes the implicit equijoin of repeated variables
//! explicit: `PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt)` becomes
//! `...WebLoadBalancer(@C,Hdr__b,Prt)` plus the selection `Hdr == Hdr__b`.

use mpr_ndlog::ast::{Expr, Term};
use mpr_ndlog::{parse_program, Program, Rule, Tuple, Value};
use std::sync::Arc;

const C: &str = "C";

fn s(x: impl Into<Arc<str>>) -> Value {
    Value::Str(x.into())
}

/// Expand `Vals[k]` (Table 4 row 2): `prefix1, …, prefixk`.
pub fn expand_args(prefix: &str, k: usize) -> Vec<String> {
    (1..=k).map(|i| format!("{prefix}{i}")).collect()
}

/// Concrete meta-table name for an arity (`Base(k)` → `Base3`).
pub fn table_k(base: &str, k: usize) -> String {
    format!("{base}{k}")
}

/// Generate the full meta program for payload arities `1..=max_arity`.
pub fn meta_program_k(max_arity: usize) -> Program {
    assert!(max_arity >= 1, "arity must be positive");
    let mut src = String::new();
    // --- arity-independent tables -----------------------------------
    src.push_str("materialize(PredFuncAny, infinity, 2, keys(0,1)).\n");
    src.push_str("materialize(PredFuncCount, infinity, 2, keys(0)).\n");
    src.push_str("materialize(SelCount, infinity, 2, keys(0)).\n");
    src.push_str("materialize(Assign, infinity, 3, keys(0,1,2)).\n");
    src.push_str("materialize(Const, infinity, 3, keys(0,1)).\n");
    src.push_str("materialize(Oper, infinity, 5, keys(0,1)).\n");
    src.push_str("materialize(Expr, infinity, 4, keys(0,1,2,3)).\n");
    src.push_str("materialize(HeadVal, infinity, 4, keys(0,1,2,3)).\n");
    src.push_str("materialize(Sel, infinity, 4, keys(0,1,2,3)).\n");
    // --- per-arity tables --------------------------------------------
    for k in 1..=max_arity {
        let all = |n: usize| {
            (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        };
        src.push_str(&format!("materialize(Base{k}, infinity, {}, keys({})).\n", k + 1, all(k + 1)));
        src.push_str(&format!("materialize(Tuple{k}, infinity, {}, keys({})).\n", k + 1, all(k + 1)));
        src.push_str(&format!("materialize(HeadFunc{k}, infinity, {}, keys(0)).\n", k + 3));
        src.push_str(&format!("materialize(PredFunc{k}, infinity, {}, keys(0,1)).\n", k + 2));
        src.push_str(&format!(
            "materialize(TuplePred{k}, infinity, {}, keys({})).\n",
            2 * k + 2,
            all(2 * k + 2)
        ));
        src.push_str(&format!("materialize(Join{k}, infinity, {}, keys(0,1)).\n", 2 * k + 2));
    }
    for k1 in 1..=max_arity {
        for k2 in 1..=max_arity {
            src.push_str(&format!(
                "materialize(JoinP{k1}x{k2}, infinity, {}, keys(0,1)).\n",
                2 * (k1 + k2) + 2
            ));
        }
    }
    // --- rules ----------------------------------------------------------
    for k in 1..=max_arity {
        let vals = expand_args("Val", k).join(",");
        let args = expand_args("Arg", k).join(",");
        // h1(k): base tuples exist.
        src.push_str(&format!(
            "h1x{k} Tuple{k}(@C,Tab,{vals}) :- Base{k}(@C,Tab,{vals}).\n"
        ));
        // p1(k): instantiate syntactic predicates.
        src.push_str(&format!(
            "p1x{k} TuplePred{k}(@C,Rul,Tab,{args},{vals}) :- Tuple{k}(@C,Tab,{vals}), PredFunc{k}(@C,Rul,Tab,{args}).\n"
        ));
        // p2(k): predicates of every arity flow into one relation so the
        // count sums across arities (mixed-arity joins, e.g. Q5's f3).
        src.push_str(&format!(
            "pAx{k} PredFuncAny(@C,Rul,Tab) :- PredFunc{k}(@C,Rul,Tab,{args}).\n"
        ));
        // j2(k): single-predicate join.
        src.push_str(&format!(
            "j2x{k} Join{k}(@C,Rul,JID,{args},{vals}) :- TuplePred{k}(@C,Rul,Tab,{args},{vals}), PredFuncCount(@C,Rul,N), N == 1, JID := f_unique().\n"
        ));
        // e*(k): one expression per join column.
        for i in 1..=k {
            src.push_str(&format!(
                "e{i}x{k} Expr(@C,Rul,JID,Arg{i},Val{i}) :- Join{k}(@C,Rul,JID,{args},{vals}).\n"
            ));
        }
        // h2(k, m): one firing rule per (arity, selection count) — the
        // paper expands its h7 template the same way (CID{k} > CID{k'}
        // orders the constraint atoms to avoid permutation duplicates).
        let head_vals: String = (1..=k)
            .map(|i| format!("HeadVal(@C,Rul,JID{i},Arg{i},Val{i}), true == f_match(JID{i},JID), "))
            .collect();
        for m in 1..=4usize {
            let mut sels = String::new();
            for j in 1..=m {
                sels.push_str(&format!(
                    "Sel(@C,Rul,SJ{j},SID{j},SV{j}), SV{j} == true, true == f_match(SJ{j},JID), "
                ));
                if j > 1 {
                    sels.push_str(&format!("SID{} < SID{j}, ", j - 1));
                }
            }
            src.push_str(&format!(
                "h2x{k}x{m} Tuple{k}(@L,Tab,{vals}) :- HeadFunc{k}(@C,Rul,Tab,Loc,{args}), \
                 HeadVal(@C,Rul,JID,Loc,L), {head_vals}{sels}\
                 SelCount(@C,Rul,M), M == {m}.\n"
            ));
        }
    }
    // j1(k1,k2): two-predicate cross products, mixed arities.
    for k1 in 1..=max_arity {
        for k2 in 1..=max_arity {
            let a1 = expand_args("Arg", k1).join(",");
            let v1 = expand_args("Val", k1).join(",");
            let a2 = expand_args("Brg", k2).join(",");
            let v2 = expand_args("Wal", k2).join(",");
            src.push_str(&format!(
                "j1x{k1}x{k2} JoinP{k1}x{k2}(@C,Rul,JID,{a1},{a2},{v1},{v2}) :- \
                 TuplePred{k1}(@C,Rul,Tab,{a1},{v1}), TuplePred{k2}(@C,Rul,TabP,{a2},{v2}), \
                 PredFuncCount(@C,Rul,N), N == 2, Tab != TabP, JID := f_unique().\n"
            ));
            for i in 1..=k1 {
                src.push_str(&format!(
                    "eL{i}x{k1}x{k2} Expr(@C,Rul,JID,Arg{i},Val{i}) :- JoinP{k1}x{k2}(@C,Rul,JID,{a1},{a2},{v1},{v2}).\n"
                ));
            }
            for i in 1..=k2 {
                src.push_str(&format!(
                    "eR{i}x{k1}x{k2} Expr(@C,Rul,JID,Brg{i},Wal{i}) :- JoinP{k1}x{k2}(@C,Rul,JID,{a1},{a2},{v1},{v2}).\n"
                ));
            }
        }
    }
    // Arity-independent: counting, constants, assignments, selections.
    src.push_str("p2 PredFuncCount(@C,Rul,a_count<Tab>) :- PredFuncAny(@C,Rul,Tab).\n");
    src.push_str("sc SelCount(@C,Rul,a_count<SID>) :- Oper(@C,Rul,SID,IDl,IDr,Opr).\n");
    src.push_str("e0 Expr(@C,Rul,JID,ID,Val) :- Const(@C,Rul,ID,Val), JID := *.\n");
    src.push_str("a1 HeadVal(@C,Rul,JID,Arg,Val) :- Assign(@C,Rul,Arg,ID), Expr(@C,Rul,JID,ID,Val).\n");
    src.push_str(
        "s1 Sel(@C,Rul,JID,SID,Val) :- Oper(@C,Rul,SID,IDl,IDr,Opr), Expr(@C,Rul,JIDl,IDl,Vl), \
         Expr(@C,Rul,JIDr,IDr,Vr), true == f_match(JIDl,JIDr), JID := f_join(JIDl,JIDr), \
         Val := f_apply(Opr,Vl,Vr), IDl != IDr.\n",
    );
    parse_program("ndlog-meta-full", &src).expect("full meta program parses")
}

/// Translate a base tuple into its arity-tagged `Base{k}` meta tuple.
pub fn base_meta_tuple_k(t: &Tuple) -> Tuple {
    let k = t.args.len();
    let mut args = vec![s(Arc::clone(&t.table))];
    args.extend(t.args.iter().cloned());
    Tuple::new(table_k("Base", k), s(C), args)
}

/// Errors from the arity-generic translator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaKError {
    /// More than two body predicates.
    TooManyPredicates(String),
    /// More than four selections after equijoin expansion.
    TooManySelections(String),
    /// Head arguments must be variables.
    HeadConstant(String),
    /// Assignments must be constant or variable.
    ComplexAssign(String),
    /// Selections must compare variables/constants.
    ComplexSelection(String),
}

impl std::fmt::Display for MetaKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaKError::TooManyPredicates(r) => write!(f, "rule `{r}`: >2 predicates"),
            MetaKError::TooManySelections(r) => write!(f, "rule `{r}`: >4 selections"),
            MetaKError::HeadConstant(r) => write!(f, "rule `{r}`: constant head argument"),
            MetaKError::ComplexAssign(r) => write!(f, "rule `{r}`: complex assignment"),
            MetaKError::ComplexSelection(r) => write!(f, "rule `{r}`: complex selection"),
        }
    }
}

impl std::error::Error for MetaKError {}

/// Translate a program into arity-tagged meta tuples (`HeadFunc{k}`,
/// `PredFunc{k}`, `Const`, `Oper`, `Assign`).
pub fn meta_tuples_k(program: &Program) -> Result<Vec<Tuple>, MetaKError> {
    let mut out = Vec::new();
    for rule in &program.rules {
        rule_meta_tuples_k(rule, &mut out)?;
    }
    Ok(out)
}

fn rule_meta_tuples_k(rule: &Rule, out: &mut Vec<Tuple>) -> Result<(), MetaKError> {
    let rid = rule.id.clone();
    if rule.body.len() > 2 {
        return Err(MetaKError::TooManyPredicates(rid));
    }
    // Body predicates with equijoin expansion (Table 4's repeated-variable
    // convention): repeated vars in the second predicate are renamed and
    // re-equated through a selection.
    let mut extra_sels: Vec<(String, String)> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for (pi, atom) in rule.body.iter().enumerate() {
        let k = atom.args.len();
        let mut names = Vec::new();
        for t in &atom.args {
            match t {
                Term::Var(v) => {
                    if pi > 0 && seen.contains(v) {
                        let renamed = format!("{v}__b");
                        extra_sels.push((v.clone(), renamed.clone()));
                        names.push(renamed);
                    } else {
                        seen.push(v.clone());
                        names.push(v.clone());
                    }
                }
                _ => return Err(MetaKError::ComplexSelection(rid.clone())),
            }
        }
        let mut args = vec![s(rid.clone()), s(atom.table.clone())];
        args.extend(names.iter().map(|n| s(n.clone())));
        out.push(Tuple::new(table_k("PredFunc", k), s(C), args));
    }
    // Head.
    let hk = rule.head.args.len();
    let head_names: Vec<String> = std::iter::once(&rule.head.loc)
        .chain(rule.head.args.iter())
        .map(|t| match t {
            Term::Var(v) => Ok(v.clone()),
            _ => Err(MetaKError::HeadConstant(rid.clone())),
        })
        .collect::<Result<_, _>>()?;
    let mut args = vec![s(rid.clone()), s(rule.head.table.clone())];
    args.extend(head_names.iter().map(|n| s(n.clone())));
    out.push(Tuple::new(table_k("HeadFunc", hk), s(C), args));
    // Assignments (explicit + identity).
    for (ai, a) in rule.assigns.iter().enumerate() {
        match &a.expr {
            Expr::Const(v) => {
                let cid = format!("asg{ai}");
                out.push(Tuple::new("Const", s(C), vec![s(rid.clone()), s(cid.clone()), v.clone()]));
                out.push(Tuple::new("Assign", s(C), vec![s(rid.clone()), s(a.var.clone()), s(cid)]));
            }
            Expr::Var(v) => {
                out.push(Tuple::new(
                    "Assign",
                    s(C),
                    vec![s(rid.clone()), s(a.var.clone()), s(v.clone())],
                ));
            }
            _ => return Err(MetaKError::ComplexAssign(rid)),
        }
    }
    let assigned: Vec<&str> = rule.assigns.iter().map(|a| a.var.as_str()).collect();
    for name in &head_names {
        if !assigned.contains(&name.as_str()) {
            out.push(Tuple::new(
                "Assign",
                s(C),
                vec![s(rid.clone()), s(name.clone()), s(name.clone())],
            ));
        }
    }
    // Selections (+ padding to the two-selection convention).
    let mut sels: Vec<(String, String, String, String)> = Vec::new();
    for (si, sel) in rule.sels.iter().enumerate() {
        let mut side = |e: &Expr, tag: &str| -> Result<String, MetaKError> {
            match e {
                Expr::Var(v) => Ok(v.clone()),
                Expr::Const(v) => {
                    let cid = format!("sel{si}.{tag}");
                    out.push(Tuple::new(
                        "Const",
                        s(C),
                        vec![s(rid.clone()), s(cid.clone()), v.clone()],
                    ));
                    Ok(cid)
                }
                _ => Err(MetaKError::ComplexSelection(rid.clone())),
            }
        };
        let idl = side(&sel.lhs, "l")?;
        let idr = side(&sel.rhs, "r")?;
        sels.push((sel.sid(), idl, idr, sel.op.symbol().to_string()));
    }
    for (var, renamed) in &extra_sels {
        sels.push((format!("{var} == {renamed}"), var.clone(), renamed.clone(), "==".into()));
    }
    if sels.len() > 4 {
        return Err(MetaKError::TooManySelections(rid));
    }
    if sels.is_empty() {
        // Zero-selection rules get one tautology so h2(k, 1) covers them.
        for tag in ["l", "r"] {
            out.push(Tuple::new(
                "Const",
                s(C),
                vec![s(rid.clone()), s(format!("pad0.{tag}")), Value::Int(0)],
            ));
        }
        sels.push(("pad0".into(), "pad0.l".into(), "pad0.r".into(), "==".into()));
    }
    for (sid, idl, idr, op) in sels {
        out.push(Tuple::new("Oper", s(C), vec![s(rid.clone()), s(sid), s(idl), s(idr), s(op)]));
    }
    Ok(())
}

/// Interpret `program` through the arity-generic meta program and read back
/// the derived tuples of `table` (payload arity `k`).
pub fn meta_interpret_k(
    program: &Program,
    base: &[Tuple],
    table: &str,
    k: usize,
) -> Result<Vec<Tuple>, String> {
    let max_arity = program
        .rules
        .iter()
        .flat_map(|r| {
            std::iter::once(r.head.args.len()).chain(r.body.iter().map(|a| a.args.len()))
        })
        .chain(base.iter().map(|t| t.args.len()))
        .max()
        .unwrap_or(1);
    let meta = meta_program_k(max_arity);
    let mut engine = mpr_runtime::Engine::new(&meta).map_err(|e| e.to_string())?;
    engine
        .insert_all(meta_tuples_k(program).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    for t in base {
        engine.insert(base_meta_tuple_k(t)).map_err(|e| e.to_string())?;
    }
    let mut out = Vec::new();
    for t in engine.tuples(&table_k("Tuple", k)) {
        if t.args.first().and_then(|v| v.as_str()) == Some(table) {
            out.push(Tuple::new(table, t.loc.clone(), t.args[1..].to_vec()));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::Value as V;

    fn direct(program: &Program, base: &[Tuple], table: &str) -> Vec<Tuple> {
        let mut p = program.clone();
        p.catalog = mpr_ndlog::Catalog::new();
        let mut engine = mpr_runtime::Engine::new(&p).unwrap();
        for t in base {
            engine.insert(t.clone()).unwrap();
        }
        let mut v = engine.tuples(table);
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn template_expansion_helpers() {
        assert_eq!(expand_args("Val", 3), vec!["Val1", "Val2", "Val3"]);
        assert_eq!(table_k("Base", 5), "Base5");
    }

    #[test]
    fn full_meta_program_parses_and_scales() {
        for k in 1..=6 {
            let m = meta_program_k(k);
            assert!(m.validate().is_ok(), "arity {k}");
            // One h1/h2/p1/p2/j2 per arity plus per-column e-rules plus the
            // k1×k2 cross-product family plus 3 shared rules.
            assert!(m.rules.len() >= 5 * k + 3);
        }
    }

    #[test]
    fn five_tuple_program_through_the_meta_model() {
        // Q2's forwarding program: 6-column PacketIn, 5-column FlowTable —
        // far beyond µDlog's 2 columns.
        let scenario = crate::scenarios::Scenario::q2_forwarding_error();
        let base: Vec<Tuple> = vec![
            Tuple::new(
                "PacketIn",
                V::str("C"),
                vec![V::Int(3), V::Int(5), V::Int(17), V::Int(1005), V::Int(53), V::Int(0)],
            ),
            Tuple::new(
                "PacketIn",
                V::str("C"),
                vec![V::Int(3), V::Int(6), V::Int(17), V::Int(1006), V::Int(53), V::Int(0)],
            ),
            Tuple::new(
                "PacketIn",
                V::str("C"),
                vec![V::Int(1), V::Int(2), V::Int(10), V::Int(2002), V::Int(80), V::Int(0)],
            ),
        ];
        let via_meta = meta_interpret_k(&scenario.program, &base, "FlowTable", 5).unwrap();
        let oracle = direct(&scenario.program, &base, "FlowTable");
        assert_eq!(via_meta, oracle);
        // Client 5 is allowed (Sip < 6), client 6 is not — the Q2 symptom,
        // visible through the meta program.
        assert!(via_meta.iter().any(|t| t.args[0] == V::Int(5)));
        assert!(!via_meta.iter().any(|t| t.args[0] == V::Int(6)));
    }

    #[test]
    fn mixed_arity_join_through_the_meta_model() {
        // Q5's f3 joins a 6-column event with a 3-column state table.
        let program = parse_program(
            "mixed",
            r"
            f3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Learned(@C,Swi,Dip,Prt).
            ",
        )
        .unwrap();
        let base = vec![
            Tuple::new(
                "PacketIn",
                V::str("C"),
                vec![V::Int(2), V::Int(30), V::Int(10), V::Int(4000), V::Int(80), V::Int(3)],
            ),
            Tuple::new("Learned", V::str("C"), vec![V::Int(2), V::Int(10), V::Int(1)]),
            Tuple::new("Learned", V::str("C"), vec![V::Int(2), V::Int(99), V::Int(7)]),
        ];
        let via_meta = meta_interpret_k(&program, &base, "FlowTable", 5).unwrap();
        let oracle = direct(&program, &base, "FlowTable");
        assert_eq!(via_meta, oracle);
        assert_eq!(via_meta.len(), 1, "only the Dip=10 learned entry joins");
        assert_eq!(via_meta[0].args.last(), Some(&V::Int(1)));
    }

    fn fig2_base() -> Vec<Tuple> {
        vec![
            Tuple::new("WebLoadBalancer", V::str("C"), vec![V::Int(80), V::Int(2)]),
            Tuple::new("PacketIn", V::str("C"), vec![V::Int(1), V::Int(80)]),
            Tuple::new("PacketIn", V::str("C"), vec![V::Int(2), V::Int(80)]),
            Tuple::new("PacketIn", V::str("C"), vec![V::Int(3), V::Int(80)]),
            Tuple::new("PacketIn", V::str("C"), vec![V::Int(3), V::Int(53)]),
        ]
    }

    #[test]
    fn meta_tuples_for_fig2_rule() {
        let ts = meta_tuples_k(&crate::scenarios::q1_program()).unwrap();
        let r7: Vec<&Tuple> =
            ts.iter().filter(|t| t.args.first().and_then(|v| v.as_str()) == Some("r7")).collect();
        let count = |table: &str| r7.iter().filter(|t| &*t.table == table).count();
        assert_eq!((count("HeadFunc2"), count("PredFunc2")), (1, 1));
        assert_eq!(count("Oper"), 2);
        // Swi==2 rhs, Hdr==80 rhs, Prt:=2 → three constants.
        assert_eq!(count("Const"), 3);
        // Identity assigns for Swi and Hdr plus the explicit Prt assign.
        assert_eq!(count("Assign"), 3);
    }

    #[test]
    fn equijoin_expansion_for_r1() {
        let ts = meta_tuples_k(&crate::scenarios::q1_program()).unwrap();
        // r1 shares Hdr between PacketIn and WebLoadBalancer: the second
        // occurrence is renamed and an equality selection appears.
        let r1_opers: Vec<&str> = ts
            .iter()
            .filter(|t| &*t.table == "Oper" && t.args[0] == V::str("r1"))
            .map(|t| t.args[1].as_str().unwrap())
            .collect();
        assert!(r1_opers.contains(&"Swi == 1"), "{r1_opers:?}");
        assert!(r1_opers.contains(&"Hdr == Hdr__b"), "{r1_opers:?}");
    }

    #[test]
    fn meta_interpretation_matches_direct_evaluation() {
        // THE differential test: the meta program ≡ the engine, on the
        // Fig. 2 controller program.
        let p = crate::scenarios::q1_program();
        let base = fig2_base();
        let via_meta = meta_interpret_k(&p, &base, "FlowTable", 2).unwrap();
        assert_eq!(via_meta, direct(&p, &base, "FlowTable"), "meta ≠ direct");
        // Sanity: the buggy program derives S2/S1 entries but nothing for
        // HTTP at S3 (the Fig. 1 symptom).
        assert!(!via_meta.is_empty());
        assert!(via_meta.iter().all(|t| !(t.loc == V::Int(3) && t.args[0] == V::Int(80))));
        // DNS at S3 works (p3).
        assert!(via_meta.iter().any(|t| t.loc == V::Int(3) && t.args[0] == V::Int(53)));
    }

    #[test]
    fn meta_interpretation_matches_after_repair() {
        // Apply the intuitive fix (Swi==2 → Swi==3 in r7) and check the
        // meta interpretation again — now the S3 entry appears.
        use mpr_ndlog::patch::{Edit, Patch};
        use mpr_ndlog::{Expr, ExprSide};
        let p = Patch::single(Edit::SetSelectionExpr {
            rule: "r7".into(),
            sel: 0,
            side: ExprSide::Rhs,
            expr: Expr::int(3),
        })
        .apply(&crate::scenarios::q1_program())
        .unwrap();
        let base = fig2_base();
        let via_meta = meta_interpret_k(&p, &base, "FlowTable", 2).unwrap();
        assert_eq!(via_meta, direct(&p, &base, "FlowTable"));
        assert!(via_meta
            .iter()
            .any(|t| t.loc == V::Int(3) && t.args[0] == V::Int(80) && t.args[1] == V::Int(2)));
    }

    #[test]
    fn translator_rejects_what_the_model_cannot_express() {
        let p = parse_program("bad", "x T(@A,B) :- S(@A,B), U(@A,B), W(@A,B), B == 1.").unwrap();
        assert!(matches!(meta_tuples_k(&p), Err(MetaKError::TooManyPredicates(_))));
        let p = parse_program("bad2", "x T(@A,B) :- S(@A,B), B := B * 2 + 1.").unwrap();
        assert!(matches!(meta_tuples_k(&p), Err(MetaKError::ComplexAssign(_))));
    }
}
