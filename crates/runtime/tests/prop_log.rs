//! Property tests for the execution log — the invariants provenance
//! construction relies on:
//!
//! - every `Derive` event's body tuples were alive at the derivation time;
//! - every derived (non-base) live tuple has at least one `Derive` event;
//! - `Appear`/`Disappear` events bracket each tuple's lifetime interval;
//! - retraction is logged: every `Disappear` of a derived tuple follows an
//!   `Underive` or a replacement.
//!
//! Over two nodes and an event table, the shapes the log stores as one row
//! read back whole:
//!
//! - every `Send` directly follows the `Derive` or `Underive` it ships and
//!   directly precedes its `Receive`;
//! - an event instance appears and disappears at its own tick;
//! - `shipment_of` answers like a scan of the whole log.

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

/// Links on nodes 1 and 2 feed heads on the other node, and events on
/// either node derive an event and a state tuple on the node they name.
fn two_node_program() -> Program {
    parse_program(
        "log-ship",
        r"
        materialize(Link, infinity, 2, keys(0,1)).
        materialize(Ev, event, 2, keys()).
        materialize(Far, infinity, 2, keys(0,1)).
        materialize(Out, event, 1, keys()).
        materialize(Got, infinity, 1, keys(0)).
        f1 Far(@M,X,N) :- Link(@N,X,M).
        f2 Far(@N,X,M) :- Far(@M,X,N), X > 1.
        e1 Out(@M,X) :- Ev(@N,X,M).
        g1 Got(@M,X) :- Ev(@N,X,M), Far(@M,X,N).
        ",
    )
    .unwrap()
}

/// A `Link` or an `Ev` tuple over nodes 1 and 2.
fn two_node_tuple() -> impl Strategy<Value = Tuple> {
    (prop::sample::select(vec!["Link", "Ev"]), 1i64..3, 0i64..4, 1i64..3).prop_map(|(t, n, x, m)| {
        Tuple::new(t, Value::Int(n), vec![Value::Int(x), Value::Int(m)])
    })
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
            e.delete(t);
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
    fn shipments_and_events_read_back_whole(
        inserts in prop::collection::vec(two_node_tuple(), 1..16),
        deletes in prop::collection::vec(two_node_tuple(), 0..6),
    ) {
        let mut e = Engine::new(&two_node_program()).unwrap();
        for t in &inserts {
            e.insert(t.clone()).unwrap();
        }
        for t in deletes.iter().filter(|t| &*t.table == "Link") {
            e.delete(t);
        }
        let log = e.log();
        let events: Vec<ExecEvent<'_>> = log.events().collect();
        prop_assert_eq!(events.len(), log.len());

        // (1) Derive/Underive, Send, Receive: adjacent, one instance, one
        // sign, one time, and the receiver is the head's own node.
        for (i, ev) in events.iter().enumerate() {
            if let ExecEvent::Send { time, from, to, tid, positive } = *ev {
                let shipped = match i.checked_sub(1).map(|j| events[j]) {
                    Some(ExecEvent::Derive { time: t, head, .. }) => (t, head, true),
                    Some(ExecEvent::Underive { time: t, head, .. }) => (t, head, false),
                    other => return Err(TestCaseError::fail(format!("send {i} follows {other:?}"))),
                };
                prop_assert_eq!(shipped, (time, tid, positive));
                prop_assert_eq!(events.get(i + 1).copied(), Some(ExecEvent::Receive { time, from, to, tid, positive }));
                prop_assert_eq!(to, &log.tuple(tid).loc);
                prop_assert_ne!(from, to);
            }
            if let ExecEvent::Receive { .. } = ev {
                prop_assert!(i > 0 && matches!(events[i - 1], ExecEvent::Send { .. }), "receive {} without its send", i);
            }
        }

        // (2) An event instance appears and disappears at its own tick,
        // once each.
        for rec in log.records().filter(|r| r.kind == TupleKind::Event) {
            let at: Vec<(bool, u64)> = events
                .iter()
                .filter_map(|ev| match *ev {
                    ExecEvent::Appear { time, tid } if tid == rec.tid => Some((true, time)),
                    ExecEvent::Disappear { time, tid } if tid == rec.tid => Some((false, time)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(at, vec![(true, rec.appear), (false, rec.appear)]);
            prop_assert_eq!(rec.disappear, Some(rec.appear));
        }

        // (3) `shipment_of` is the earliest positive `Send` of the instance.
        for rec in log.records() {
            let scan = events.iter().find_map(|ev| match *ev {
                ExecEvent::Send { time, from, to, tid, positive: true } if tid == rec.tid => Some((time, from, to)),
                _ => None,
            });
            prop_assert_eq!(log.shipment_of(rec.tid), scan);
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
