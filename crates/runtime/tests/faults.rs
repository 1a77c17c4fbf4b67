//! Graceful-degradation suite: fixpoint budget exhaustion must surface as
//! a typed [`RuntimeError`] that leaves the engine inspectable.

use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_runtime::{Engine, EvalStrategy, Options, RuntimeError};

fn closure_program() -> Program {
    parse_program(
        "tc",
        r"
        materialize(Link, infinity, 2, keys(0,1)).
        materialize(Reach, infinity, 2, keys(0,1)).
        r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
        r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
        ",
    )
    .unwrap()
}

fn chain_links(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new("Link", Value::str("C"), vec![Value::Int(i), Value::Int(i + 1)]))
        .collect()
}

#[test]
fn round_budget_exhaustion_is_a_typed_error_and_recoverable() {
    let program = closure_program();
    let mut e = Engine::with_options(
        &program,
        Options { strategy: EvalStrategy::Batch, max_rounds: 3, ..Options::default() },
    )
    .unwrap();
    // Insert the chain tail-first: each new head link must propagate
    // reachability down the whole suffix, so the per-insert fixpoint needs
    // one semi-naive round per hop and soon exceeds the cap.
    let err = e.insert_all(chain_links(12).into_iter().rev()).unwrap_err();
    assert_eq!(err, RuntimeError::RoundLimit(3));
    assert_eq!(err.to_string(), "fixpoint round limit exceeded (3)");

    // Graceful degradation: the engine survives for inspection — the
    // frame stack is balanced (no recent partitions linger) and queries
    // over the partial state still work.
    assert!(e.delta_stats().iter().all(|s| s.recent == 0));
    assert!(!e.tuples("Reach").is_empty(), "partial rounds landed");
    assert!(e.tuple_count() > 0);
}

#[test]
fn generous_budgets_change_nothing() {
    let program = closure_program();
    let mut bounded = Engine::with_options(
        &program,
        Options {
            strategy: EvalStrategy::Batch,
            max_rounds: 1_000,
            ..Options::default()
        },
    )
    .unwrap();
    bounded.insert_all(chain_links(12)).unwrap();
    let mut plain = Engine::with_options(
        &program,
        Options { strategy: EvalStrategy::Batch, ..Options::default() },
    )
    .unwrap();
    plain.insert_all(chain_links(12)).unwrap();
    assert_eq!(bounded.log(), plain.log());
}
