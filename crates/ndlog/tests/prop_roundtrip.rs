//! Property-based tests: the pretty-printer and parser are inverse maps,
//! and patch application is site-faithful, on randomly generated programs.

use mpr_ndlog::ast::*;
use mpr_ndlog::parser::{parse_program, parse_rule};
use mpr_ndlog::patch::{Edit, Patch};
use mpr_ndlog::value::Value;
use proptest::prelude::*;

fn var_name() -> impl Strategy<Value = String> {
    // Uppercase-initial identifiers, short, from a small alphabet so joins occur.
    prop::sample::select(vec!["Swi", "Hdr", "Prt", "Sip", "Dip", "Spt", "Dpt", "A", "B", "C"])
        .prop_map(String::from)
}

fn table_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["PacketIn", "FlowTable", "Acl", "Lb", "T1", "T2"])
        .prop_map(String::from)
}

/// Small integers, and the ends of `i64`.
fn int() -> impl Strategy<Value = i64> {
    prop_oneof![-100i64..100, Just(i64::MIN), Just(i64::MIN + 1), Just(i64::MAX)]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        int().prop_map(Value::Int),
        // Identifiers print bare; a string the lexer would read as a
        // subtraction or a boolean must print quoted, and one holding a
        // quote, a backslash or a newline escaped.
        prop::sample::select(vec!["output", "drop", "fwd", "a-b", "true", "false", "it's", "a\\b", "a\nb"])
            .prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Wild),
    ]
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        var_name().prop_map(Term::Var),
        value().prop_map(Term::Const),
    ]
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        var_name().prop_map(Expr::Var),
        int().prop_map(Expr::int),
    ]
}

fn expr() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
            prop::collection::vec(inner, 0..3)
                .prop_map(|args| Expr::Call("f_concat".to_string(), args)),
        ]
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

fn atom() -> impl Strategy<Value = Atom> {
    (table_name(), term(), prop::collection::vec(term(), 1..4))
        .prop_map(|(t, loc, args)| Atom::new(t, loc, args))
}

prop_compose! {
    fn rule()(
        idn in 1u32..999,
        body in prop::collection::vec(atom(), 1..3),
        sels in prop::collection::vec((expr(), cmp_op(), expr()).prop_map(|(l, o, r)| Selection::new(l, o, r)), 0..3),
        loc in var_name(),
    ) -> Rule {
        // The head repeats body variables plus one assigned variable, so the
        // rule is always well-formed (no unbound head vars).
        let mut head_args: Vec<Term> = body[0].args.clone();
        head_args.push(Term::Var("Zz".into()));
        let assigns = vec![Assign::new("Zz", Expr::int(1))];
        // Bind the head location to something always available.
        let mut r = Rule::new(format!("r{idn}"), Atom::new("Out", Term::Var(loc), head_args), body, sels, assigns);
        // Ensure head location var is bound: add it as first arg of first body atom.
        let head_loc = r.head.loc.clone();
        r.body[0].loc = head_loc;
        r
    }
}

/// A string constant holding `'`, `\` or a newline prints escaped, and
/// the parser reads the escape back: the printed rule is the rule.
#[test]
fn a_string_with_a_quote_a_backslash_or_a_newline_round_trips() {
    for s in ["it's", "a\\b", "two\nlines", "'\\\n'"] {
        let r = Rule::new(
            "r1",
            Atom::new("Out", Term::Var("N".into()), vec![Term::Const(Value::str(s))]),
            vec![Atom::new("In", Term::Var("N".into()), vec![Term::Var("X".into())])],
            vec![Selection::new(Expr::var("X"), CmpOp::Eq, Expr::Const(Value::str(s)))],
            vec![],
        );
        let printed = r.to_string();
        let reparsed = parse_rule(&printed).unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        assert_eq!(reparsed, r, "{printed}");
    }
    // An escape the lexer does not know is an error at its backslash.
    let err = parse_rule("r1 Out(@N,X) :- In(@N,X), X == 'a\\tb'.").unwrap_err();
    assert!(err.to_string().contains("1:34"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rule_roundtrips_through_parser(r in rule()) {
        let printed = r.to_string();
        let reparsed = parse_rule(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(reparsed, r);
    }

    #[test]
    fn program_roundtrips_through_parser(rules in prop::collection::vec(rule(), 1..6)) {
        let mut p = Program::new("prop");
        // Deduplicate ids to keep the program valid.
        let mut seen = std::collections::BTreeSet::new();
        for (i, mut r) in rules.into_iter().enumerate() {
            if !seen.insert(r.id.clone()) {
                r.id = format!("{}_{i}", r.id);
                seen.insert(r.id.clone());
            }
            p.rules.push(r);
        }
        let printed = p.to_string();
        let reparsed = parse_program("prop", &printed)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{printed}\n{e}"));
        prop_assert_eq!(reparsed.rules, p.rules);
    }

    #[test]
    fn expr_display_is_stable(e in expr()) {
        // Printing is idempotent: print→parse→print is a fixed point.
        let r = Rule::new(
            "x",
            Atom::new("Out", Term::Var("A".into()), vec![Term::Var("Zz".into())]),
            vec![Atom::new("In", Term::Var("A".into()), vec![Term::Var("B".into())])],
            vec![],
            vec![Assign::new("Zz", e)],
        );
        let once = r.to_string();
        let reparsed = parse_rule(&once).unwrap();
        prop_assert_eq!(reparsed.to_string(), once);
    }

    #[test]
    fn set_selection_expr_patch_changes_exactly_one_side(
        r in rule(),
        e in expr(),
        pick in 0usize..3,
        lhs in any::<bool>(),
    ) {
        let mut p = Program::new("prop");
        p.rules.push(r.clone());
        // Random same-name atoms may disagree on arity; such programs are
        // invalid and patches rightly refuse them.
        prop_assume!(p.validate().is_ok());
        if r.sels.is_empty() {
            return Ok(());
        }
        let sel = pick % r.sels.len();
        let side = if lhs { ExprSide::Lhs } else { ExprSide::Rhs };
        let patch = Patch::single(Edit::SetSelectionExpr { rule: r.id.clone(), sel, side, expr: e.clone() });
        let p2 = patch.apply(&p).unwrap();
        // The targeted side is the new expression; every other part of
        // the rule is untouched.
        let mut want = r.clone();
        match side {
            ExprSide::Lhs => want.sels[sel].lhs = e,
            ExprSide::Rhs => want.sels[sel].rhs = e,
        }
        prop_assert_eq!(p2.rule(&r.id).unwrap(), &want);
        prop_assert_eq!(p2.rules.len(), 1);
    }
}
