//! What a program is refused with, pinned case by case: the exact
//! [`CompileError`] `Engine::shared` returns under either strategy and the
//! exact message `Program::validate` returns, including which of two bad
//! rules is reported. Validity (`Program::validate`) is judged over the
//! whole program before any rule's own checks, and within each the first
//! bad rule in program order wins. An aggregate never gets that far:
//! `parse_program` refuses it.

use mpr_ndlog::parse_program;
use mpr_runtime::{CompileError, Engine, EvalStrategy, Options};
use std::sync::Arc;

fn rule_err(kind: &str, rule: &str, detail: &str) -> CompileError {
    let (rule, detail) = (rule.to_string(), detail.to_string());
    match kind {
        "assign" => CompileError::UnboundAssignVar { rule, var: detail },
        "selection" => CompileError::UnboundSelectionVar { rule, var: detail },
        _ => unreachable!("{kind}"),
    }
}

/// `(case, source, what validate says, what the engine says)`.
type Case = (&'static str, &'static str, Result<(), String>, CompileError);

fn cases() -> Vec<Case> {
    let invalid = |m: &str| (Err(m.to_string()), CompileError::InvalidProgram(m.to_string()));
    let valid = |e: CompileError| (Ok(()), e);
    let unknown = |rule: &str, func: &str, arity| CompileError::UnknownFunction { rule: rule.into(), func: func.into(), arity };
    let table: Vec<(&str, &str, (Result<(), String>, CompileError))> = vec![
        (
            "duplicate id",
            "r1 A(@X) :- B(@X). r2 C(@X) :- B(@X). r1 D(@X) :- B(@X).",
            invalid("duplicate rule id `r1`"),
        ),
        (
            "key column out of range",
            "materialize(T, infinity, 2, keys(0,2)). r1 A(@X) :- T(@X,Y,Z).",
            invalid("table `T`: key column 2 out of range for arity 2"),
        ),
        ("unbound head variable", "r1 A(@X,Y,Z) :- B(@X), Q := 1.", invalid("rule `r1`: unbound head variables {\"Y\", \"Z\"}")),
        (
            "arity clash, declared",
            "materialize(B, infinity, 2, keys(0)). r1 A(@X) :- B(@X,Y).",
            invalid("table `B` declared with arity 2 but used with arity 1"),
        ),
        ("arity clash, undeclared", "r1 A(@X) :- B(@X). r2 A(@X,Y) :- B(@X), Y := 1.", invalid("table `A` used with arities 0 and 1")),
        ("unbound assignment variable", "r1 A(@X,Y) :- B(@X), Y := Z + W, W := 1.", valid(rule_err("assign", "r1", "W"))),
        ("unbound selection variable", "r1 A(@X) :- B(@X), Zz > Y, Y == X.", valid(rule_err("selection", "r1", "Y"))),
        ("unknown function", "r1 A(@X,Y) :- B(@X), Y := f_nope(X, 2).", valid(unknown("r1", "f_nope", 2))),
        ("f_unique with an argument", "r1 A(@X,Y) :- B(@X), Y := f_unique(X).", valid(unknown("r1", "f_unique", 1))),
        // One rule, two faults: the checks run in this order.
        ("two faults of one rule", "r1 A(@X,Y) :- B(@X), Q == 1, Y := f_nope().", valid(rule_err("selection", "r1", "Q"))),
        // Two bad rules: the first in program order is the one reported.
        (
            "two rule errors",
            "r1 A(@X) :- B(@X). r2 A(@X) :- B(@X), Q == 1. r3 D(@X,Y) :- B(@X), Y := f_nope().",
            valid(rule_err("selection", "r2", "Q")),
        ),
        (
            "two validity errors",
            "r1 A(@X) :- B(@X). r2 A(@X,Y) :- B(@X). r3 C(@X) :- B(@X,X).",
            invalid("rule `r2`: unbound head variables {\"Y\"}"),
        ),
        (
            "a rule error before a validity error",
            "r1 A(@X) :- B(@X), Q == 1. r2 C(@X) :- B(@X,X).",
            invalid("table `B` used with arities 0 and 1"),
        ),
    ];
    table.into_iter().map(|(case, src, (validate, engine))| (case, src, validate, engine)).collect()
}

#[test]
fn every_refusal_is_pinned_with_its_exact_error() {
    for (case, src, validate, want) in cases() {
        let program = parse_program(case, src).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(program.validate(), validate, "{case}: validate");
        for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
            let got = Engine::shared(Arc::new(program.clone()), Options { strategy, ..Options::default() });
            assert_eq!(got.err(), Some(want.clone()), "{case}: {strategy}");
        }
        assert_eq!(Engine::new(&program).err(), Some(want), "{case}: Engine::new");
    }
}

/// Every aggregate, in a head or in a body, is a parse error: there is no
/// program for the engine to refuse. The first four were the engine's
/// aggregate refusals.
#[test]
fn every_aggregate_is_refused_by_the_parser() {
    let sources = [
        "r1 A(@X,N) :- B(@X,a_count<N>).",
        "materialize(E, event, 1, keys()). r1 A(@X,a_count<Y>) :- E(@X,Y).",
        "r1 A(@X,a_count<Y>,X) :- B(@X,Y).",
        "r1 A(@X,a_count<Y>) :- B(@X,Y), C(@X). r2 A(@X,Y) :- B(@X,Y), Q == 1.",
        "r1 A(@X,a_min<Y>) :- B(@X,Y).",
        "r1 A(@X,N) :- B(@X,a_min<N>).",
        "r1 A(@X,a_max<Y>) :- B(@X,Y).",
        "r1 A(@X,N) :- B(@X,a_max<N>).",
    ];
    for src in sources {
        let err = parse_program("agg", src).expect_err(src);
        assert!(err.msg.ends_with("<…>`: aggregates are not supported"), "{src}: {err}");
    }
}
