//! Repeated-run determinism: the engine's fixpoint *and* its execution log
//! must be a pure function of the program and the input script — never of
//! hash-map iteration order.
//!
//! Each `HashMap` in the process draws its own random SipHash keys, so
//! re-running the same script on a freshly built engine genuinely
//! reshuffles every internal iteration order; these tests re-run scripts
//! many times and demand byte-for-byte identical logs. The scenario is
//! chosen to make order dependence *observable*: rules race to install
//! tuples under one primary key (last write wins), so any wobble in
//! candidate visit order — the pipelined engine's historical bug, fixed by
//! `Store::scan_ordered` — changes which instance survives and the shape
//! of the eviction cascade.

use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_runtime::{Engine, EvalStrategy, ExecLog, Options};

/// Primary-key races and multi-candidate joins in one program: the
/// fragments where iteration order could leak.
fn program() -> Program {
    parse_program(
        "det",
        r"
        materialize(Src, infinity, 2, keys(0,1)).
        materialize(Pick, infinity, 2, keys(0)).
        materialize(Joined, infinity, 2, keys(0,1)).
        p1 Pick(@N,X,Y) :- Src(@N,X,Y).
        j1 Joined(@N,X,Z) :- Src(@N,X,Y), Src(@N,Y,Z).
        ",
    )
    .unwrap()
}

/// Insert a batch of facts (several sharing primary keys, so replacement
/// order matters), then delete a few to cascade.
fn script(e: &mut Engine) {
    let n = Value::Int(1);
    let t = |a: i64, b: i64| Tuple::new("Src", n.clone(), vec![Value::Int(a), Value::Int(b)]);
    for (a, b) in [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 1), (1, 2)] {
        e.insert(t(a, b)).unwrap();
    }
    e.delete(&t(1, 2));
    e.delete(&t(2, 3));
}

fn run(strategy: EvalStrategy) -> (Vec<Tuple>, Vec<Tuple>, ExecLog) {
    let p = program();
    let mut e = Engine::with_options(
        &p,
        Options { strategy, ..Options::default() },
    )
    .unwrap();
    script(&mut e);
    (e.tuples("Pick"), e.tuples("Joined"), e.take_log())
}

#[test]
fn pipelined_runs_are_bit_identical() {
    let first = run(EvalStrategy::Pipelined);
    for _ in 0..8 {
        assert_eq!(run(EvalStrategy::Pipelined), first, "pipelined run diverged");
    }
}

#[test]
fn batch_runs_are_bit_identical() {
    let first = run(EvalStrategy::Batch);
    for _ in 0..8 {
        assert_eq!(run(EvalStrategy::Batch), first, "batch run diverged");
    }
}

#[test]
fn provenance_events_are_reproducible_under_churn() {
    // The provenance graph is built from the event log; identical logs on
    // every run mean identical graphs. Exercise a deeper cascade: build a
    // cycle, then remove its anchor edge.
    let p = parse_program(
        "prov",
        r"
        materialize(Link, infinity, 2, keys(0,1)).
        materialize(Reach, infinity, 2, keys(0,1)).
        r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
        r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
        ",
    )
    .unwrap();
    let run = |strategy| {
        let mut e = Engine::with_options(
            &p,
            Options { strategy, ..Options::default() },
        )
        .unwrap();
        let c = Value::str("C");
        let t = |a: i64, b: i64| Tuple::new("Link", c.clone(), vec![Value::Int(a), Value::Int(b)]);
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)] {
            e.insert(t(a, b)).unwrap();
        }
        e.delete(&t(1, 2));
        e.take_log()
    };
    for strategy in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
        let first = run(strategy);
        for _ in 0..5 {
            assert_eq!(run(strategy), first, "{strategy} provenance events diverged");
        }
    }
}
