//! Property tests for the execution log — the invariants provenance
//! construction relies on:
//!
//! - every `Derive` event's body tuples were alive at the derivation time;
//! - every derived (non-base) live tuple has at least one `Derive` event;
//! - `Appear`/`Disappear` events bracket each tuple's lifetime interval;
//! - retraction is logged: every `Disappear` of a derived tuple follows an
//!   `Underive` or a replacement.

use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_runtime::{Engine, ExecEvent, TupleKind};
use proptest::prelude::*;

fn program() -> Program {
    parse_program(
        "log-prop",
        r"
        materialize(A, infinity, 2, keys(0,1)).
        materialize(B, infinity, 2, keys(0,1)).
        materialize(D, infinity, 2, keys(0,1)).
        materialize(E, infinity, 2, keys(0,1)).
        r1 D(@N,X,Y) :- A(@N,X,Y), X != Y.
        r2 D(@N,X,Y) :- B(@N,X,Y), X > 0.
        r3 E(@N,X,Y) :- D(@N,X,Y), A(@N,Y,X2), X2 == X, Y < 9.
        ",
    )
    .unwrap()
}

fn tuple() -> impl Strategy<Value = Tuple> {
    (prop::sample::select(vec!["A", "B"]), 0i64..4, 0i64..4).prop_map(|(t, x, y)| {
        Tuple::new(t, Value::Int(1), vec![Value::Int(x), Value::Int(y)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log_invariants_hold(
        inserts in prop::collection::vec(tuple(), 1..14),
        deletes in prop::collection::vec(tuple(), 0..6),
    ) {
        let mut e = Engine::new(&program()).unwrap();
        for t in &inserts {
            e.insert(t.clone()).unwrap();
        }
        for t in &deletes {
            e.delete(t).unwrap();
        }
        let log = e.log();

        // (1) Derive bodies were alive at derive time.
        for ev in log.events() {
            if let ExecEvent::Derive { time, body, .. } = ev {
                for &b in body {
                    let rec = log.record(b);
                    prop_assert!(
                        rec.alive_at(time),
                        "body tuple {b} dead at derive time {time}"
                    );
                }
            }
        }

        // (2) Every live derived tuple has a Derive event naming it.
        for rec in log.records() {
            if rec.disappear.is_none() && rec.kind == TupleKind::Derived {
                prop_assert!(
                    log.derivations_of(rec.tid).iter().count() > 0,
                    "derived tuple {} has no derivation",
                    rec.tuple
                );
            }
        }

        // (3) Appear/Disappear bracket lifetimes: appear time matches the
        // record, disappear only for closed records.
        for ev in log.events() {
            match ev {
                ExecEvent::Appear { time, tid } => {
                    prop_assert_eq!(log.record(tid).appear, time);
                }
                ExecEvent::Disappear { time, tid } => {
                    let rec = log.record(tid);
                    prop_assert_eq!(rec.disappear, Some(time));
                }
                _ => {}
            }
        }

        // (4) The store's final contents agree with open lifetime records
        // (events are instantaneous and never linger).
        for rec in log.records() {
            if rec.disappear.is_none() {
                prop_assert!(
                    e.contains(rec.tuple),
                    "open record for absent tuple {}",
                    rec.tuple
                );
            }
        }
    }

    #[test]
    fn disabled_logging_changes_no_visible_state(
        inserts in prop::collection::vec(tuple(), 1..10),
    ) {
        use mpr_runtime::Options;
        let mut with = Engine::new(&program()).unwrap();
        let mut without = Engine::with_options(
            &program(),
            Options { record_events: false, ..Options::default() },
        )
        .unwrap();
        for t in &inserts {
            with.insert(t.clone()).unwrap();
            without.insert(t.clone()).unwrap();
        }
        for table in ["A", "B", "D", "E"] {
            prop_assert_eq!(with.tuples(table), without.tuples(table));
        }
        prop_assert!(without.log().is_empty());
    }
}
