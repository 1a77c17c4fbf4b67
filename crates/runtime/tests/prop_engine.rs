//! Differential property test: both evaluation strategies (pipelined and
//! batch semi-naive) compute the same fixpoint as the naive oracle on
//! random stratified programs over state tables.

use mpr_ndlog::ast::*;
use mpr_ndlog::{Program, Tuple, Value};
use mpr_runtime::naive::naive_fixpoint;
use mpr_runtime::{Engine, EvalStrategy, Options};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn engine_with(p: &Program, strategy: EvalStrategy) -> Engine {
    Engine::with_options(p, Options { strategy, ..Options::default() }).unwrap()
}

/// Tables T0..T3 (base) and D0..D3 (derived); all payload arity 2.
fn base_tuple() -> impl Strategy<Value = Tuple> {
    (0u8..4, 0i64..4, -3i64..6).prop_map(|(t, a, b)| {
        Tuple::new(format!("T{t}"), Value::str("C"), vec![Value::Int(a), Value::Int(b)])
    })
}

fn term(vars: &'static [&'static str]) -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => prop::sample::select(vars.to_vec()).prop_map(|v| Term::Var(v.to_string())),
        1 => (-2i64..4).prop_map(|i| Term::Const(Value::Int(i))),
    ]
}

fn sel(vars: &'static [&'static str]) -> impl Strategy<Value = Selection> {
    (
        prop::sample::select(vars.to_vec()),
        prop::sample::select(CmpOp::ALL.to_vec()),
        prop_oneof![
            prop::sample::select(vars.to_vec()).prop_map(|v| Expr::Var(v.to_string())),
            (-2i64..5).prop_map(Expr::int),
        ],
    )
        .prop_map(|(l, op, r)| Selection::new(Expr::var(l), op, r))
}

// A stratified rule: derived tables only depend on base tables, so the
// fixpoint is trivially finite. Variables come from a fixed pool; the head
// repeats two body variables.
prop_compose! {
    fn rule(idx: usize)(
        head_t in 0u8..4,
        body_ts in prop::collection::vec(0u8..4, 1..3),
        args in prop::collection::vec(term(&["A", "B", "X", "Y"]), 4),
        sels in prop::collection::vec(sel(&["A", "B"]), 0..2),
    ) -> Rule {
        let body: Vec<Atom> = body_ts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (a, b) = if i == 0 { (args[0].clone(), args[1].clone()) } else { (args[2].clone(), args[3].clone()) };
                // Ensure at least vars A, B are bound by the first atom.
                let (a, b) = if i == 0 { (Term::Var("A".into()), b.or_var(a, "B")) } else { (a, b) };
                Atom::new(format!("T{t}"), Term::Var("C".into()), vec![a, b])
            })
            .collect();
        Rule::new(
            format!("r{idx}"),
            Atom::new(format!("D{head_t}"), Term::Var("C".into()), vec![Term::Var("A".into()), Term::Var("B".into())]),
            body,
            sels,
            vec![],
        )
    }
}

/// Helper: make sure the second term is a variable "B" when the first
/// draw produced something unusable.
trait OrVar {
    fn or_var(self, other: Term, name: &str) -> Term;
}
impl OrVar for Term {
    fn or_var(self, _other: Term, name: &str) -> Term {
        match self {
            Term::Const(c) => {
                // keep some constants, but bind B half the time based on parity
                if matches!(c, Value::Int(i) if i % 2 == 0) {
                    Term::Const(c)
                } else {
                    Term::Var(name.to_string())
                }
            }
            t => {
                let _ = t;
                Term::Var(name.to_string())
            }
        }
    }
}

prop_compose! {
    fn program()(rules in prop::collection::vec(0usize..1, 1..5)) (
        built in rules.iter().enumerate().map(|(i, _)| rule(i)).collect::<Vec<_>>()
    ) -> Program {
        let mut p = Program::new("prop");
        for r in built {
            p.rules.push(r);
        }
        p
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn both_strategies_match_naive(p in program(), base in prop::collection::vec(base_tuple(), 0..12)) {
        // Rules must bind their head variables; rule() guarantees A and B
        // appear in the first body atom, so validation always passes — but
        // keep the guard in case the generator drifts.
        prop_assume!(p.validate().is_ok());
        let expected = naive_fixpoint(&p, &base, 64);

        for strategy in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
            let mut engine = engine_with(&p, strategy);
            for t in &base {
                engine.insert(t.clone()).unwrap();
            }
            let mut actual: BTreeSet<Tuple> = BTreeSet::new();
            for table in ["T0", "T1", "T2", "T3", "D0", "D1", "D2", "D3"] {
                actual.extend(engine.tuples(table));
            }
            prop_assert_eq!(actual, expected.clone(), "strategy = {}", strategy);
        }
    }

    #[test]
    fn deletion_returns_to_pre_insertion_state(p in program(), base in prop::collection::vec(base_tuple(), 1..8), extra in base_tuple()) {
        prop_assume!(p.validate().is_ok());
        prop_assume!(!base.contains(&extra));

        for strategy in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
            // State A: insert the base set.
            let mut e1 = engine_with(&p, strategy);
            for t in &base {
                e1.insert(t.clone()).unwrap();
            }
            let snapshot = |e: &Engine| {
                let mut s: BTreeSet<Tuple> = BTreeSet::new();
                for table in ["T0", "T1", "T2", "T3", "D0", "D1", "D2", "D3"] {
                    s.extend(e.tuples(table));
                }
                s
            };
            let before = snapshot(&e1);

            // Insert `extra`, then delete it: the visible state must return
            // to `before` (support counting, no over-retraction).
            e1.insert(extra.clone()).unwrap();
            e1.delete(&extra);
            prop_assert_eq!(snapshot(&e1), before, "strategy = {}", strategy);
        }
    }
}
