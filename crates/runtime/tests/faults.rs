//! Graceful-degradation suite: a step that exceeds the per-step
//! derivation budget must surface as a typed [`RuntimeError`] that leaves
//! the engine inspectable and usable, and steps that fit the budget must
//! succeed however long the engine has run.

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

/// The budget is per step: an engine that has made many times its
/// budget's derivations still answers every step that fits it — a drain
/// or a replay from the step memo alike.
#[test]
fn the_derivation_budget_bounds_a_step_not_the_engine() {
    let program = parse_program(
        "one",
        r"
        materialize(A, infinity, 1, keys(0)).
        materialize(B, infinity, 1, keys(0)).
        materialize(PacketIn, event, 1, keys()).
        materialize(Seen, infinity, 1, keys(0)).
        r1 B(@X,Y) :- A(@X,Y).
        r2 Seen(@X,Y) :- PacketIn(@X,Y).
        ",
    )
    .unwrap();
    for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
        let mut e = Engine::with_options(&program, Options { strategy, max_derivations: 3, ..Options::default() }).unwrap();
        for i in 0..5 {
            let step = e.insert(Tuple::new("A", Value::Int(1), vec![Value::Int(i)]));
            assert_eq!(step.map(|r| r.derivations), Ok(1), "{strategy}: insert {i}");
        }
        let packet_in = Tuple::new("PacketIn", Value::Int(1), vec![Value::Int(80)]);
        for i in 0..8 {
            let step = e.insert(packet_in.clone());
            assert_eq!(step.map(|r| r.derivations), Ok(1), "{strategy}: packet-in {i}");
        }
        assert_eq!(e.total_derivations(), 13);
        assert_eq!(e.tuples("Seen").len(), 1);
        // The first two packet-ins drain (the second is filed), the rest
        // are replayed.
        let hits = if strategy == EvalStrategy::Batch { 6 } else { 0 };
        assert_eq!(e.memo_hits(), hits, "{strategy}");
    }
}

#[test]
fn derivation_budget_exhaustion_is_a_typed_error_and_recoverable() {
    let program = closure_program();
    let mut e = Engine::with_options(
        &program,
        Options { strategy: EvalStrategy::Batch, max_derivations: 8, ..Options::default() },
    )
    .unwrap();
    // Insert the chain tail-first: each new head link must propagate
    // reachability down the whole suffix, one firing per hop, and soon
    // needs more firings than one step may make.
    let err = e.insert_all(chain_links(12).into_iter().rev()).unwrap_err();
    assert_eq!(err, RuntimeError::DerivationLimit(8));
    assert_eq!(err.to_string(), "derivation limit exceeded (8)");

    // Graceful degradation: the engine survives for inspection, and
    // queries over the partial state still work (that no round lingers is
    // `batch.rs`'s at-rest property).
    assert!(!e.tuples("Reach").is_empty(), "partial rounds landed");
    assert!(e.tuple_count() > 0);
    // And the next step that fits the budget succeeds.
    let apart = Tuple::new("Link", Value::str("D"), vec![Value::Int(0), Value::Int(1)]);
    assert_eq!(e.insert(apart).map(|r| r.derivations), Ok(1));
}

/// A budget equal to the largest step's need cuts nothing short.
#[test]
fn generous_budgets_change_nothing() {
    let program = closure_program();
    let opts = Options { strategy: EvalStrategy::Batch, ..Options::default() };
    let mut plain = Engine::with_options(&program, opts.clone()).unwrap();
    let mut need = 0;
    for link in chain_links(12).into_iter().rev() {
        need = need.max(plain.insert(link).unwrap().derivations);
    }
    assert!(need > 8, "the chain must outgrow the tight budget above");
    let mut bounded = Engine::with_options(&program, Options { max_derivations: need, ..opts }).unwrap();
    bounded.insert_all(chain_links(12).into_iter().rev()).unwrap();
    assert_eq!(bounded.log(), plain.log());
}
