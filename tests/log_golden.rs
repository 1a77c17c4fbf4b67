//! Same history, new layout: digests of the full record and event sequence
//! of eight executions, captured at the parent commit of the interned log
//! (PR 15) from its owning `Vec<TupleRecord>` / `Vec<ExecEvent>` by
//! `common::reference::digest` with `log.tuples.iter()` /
//! `log.events.iter()` in place of the accessors. The borrowed views derive
//! `Debug` over the same field names, so an identical digest means every
//! record and every event reads back exactly as it was written before.
//!
//! The `stream` row is the Q1 controller answering 2 000 packet-ins of the
//! campus trace, nearly all of them repeats: the batch engine answers
//! those from its step memo, the pipelined reference evaluates each, and
//! both must write this log.
//!
//! A restart keeps that history: the controller's WAL holds what its
//! engine was given, and re-running it writes the `stream` log again.
//!
//! The `ship` row was captured while every event was still a row of its
//! own, before the log folded the rows other rows imply (an inserted
//! event's three, a shipped derivation's `Send` and `Receive`) into one;
//! it covers each fold over two nodes.
//!
//! The `det` and `ship` rows were re-derived when head aggregates left
//! the language: each script lost its count rule, and the new digests
//! were taken on the engine that still ran aggregates, so the engine
//! without them reproduces them exactly.

mod common;

use common::observation_run;
use common::reference::{self, digest, Digest};
use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::ndlog::{parse_program, Tuple, Value};
use sdn_meta_repair::runtime::{Durability, Engine, ExecLog, Options, WalOptions};
use sdn_meta_repair::sdn::controller::Controller;
use sdn_meta_repair::EvalStrategy;
use std::sync::Arc;

fn det_script(strategy: EvalStrategy) -> ExecLog {
    let p = parse_program(
        "det",
        r"
        materialize(Src, infinity, 2, keys(0,1)).
        materialize(Pick, infinity, 2, keys(0)).
        materialize(Joined, infinity, 2, keys(0,1)).
        p1 Pick(@N,X,Y) :- Src(@N,X,Y).
        j1 Joined(@N,X,Z) :- Src(@N,X,Y), Src(@N,Y,Z).
        ",
    )
    .unwrap();
    let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
    let n = Value::Int(1);
    let t = |a: i64, b: i64| Tuple::new("Src", n.clone(), vec![Value::Int(a), Value::Int(b)]);
    for (a, b) in [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 1), (1, 2)] {
        e.insert(t(a, b)).unwrap();
    }
    e.delete(&t(1, 2));
    e.delete(&t(2, 3));
    e.take_log()
}

fn churn_script(strategy: EvalStrategy) -> ExecLog {
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
    let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
    let c = Value::str("C");
    let t = |a: i64, b: i64| Tuple::new("Link", c.clone(), vec![Value::Int(a), Value::Int(b)]);
    for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)] {
        e.insert(t(a, b)).unwrap();
    }
    e.delete(&t(1, 2));
    e.take_log()
}

/// Two nodes, 1 and 2: a state rule whose heads live on the other node,
/// an event table feeding a derived event and a state head there too,
/// then deletes that retract shipped derivations.
fn ship_script(strategy: EvalStrategy) -> ExecLog {
    let p = parse_program(
        "ship",
        r"
        materialize(Link, infinity, 2, keys(0,1)).
        materialize(Far, infinity, 2, keys(0,1)).
        materialize(Ev, event, 2, keys()).
        materialize(Out, event, 1, keys()).
        materialize(Got, infinity, 1, keys(0)).
        f1 Far(@M,X,N) :- Link(@N,X,M), M != N.
        e1 Out(@M,X) :- Ev(@N,X,M).
        g1 Got(@M,X) :- Ev(@N,X,M).
        ",
    )
    .unwrap();
    let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
    let t = |table: &str, n: i64, args: &[i64]| Tuple::new(table, Value::Int(n), args.iter().map(|&a| Value::Int(a)).collect());
    for (n, x, m) in [(1, 10, 2), (1, 11, 2), (2, 12, 1), (1, 13, 1)] {
        e.insert(t("Link", n, &[x, m])).unwrap();
    }
    for (n, x, m) in [(1, 5, 2), (1, 5, 2), (2, 6, 2), (1, 5, 2)] {
        e.insert(t("Ev", n, &[x, m])).unwrap();
    }
    for (n, x, m) in [(1, 10, 2), (2, 12, 1), (1, 11, 2)] {
        e.delete(&t("Link", n, &[x, m]));
    }
    e.take_log()
}

fn stream_log(strategy: EvalStrategy) -> ExecLog {
    let mut ctrl = common::q1_controller(Options { strategy, ..Options::default() });
    let mut replies = Vec::new();
    for msg in common::q1_packet_ins(2_000) {
        replies.clear();
        ctrl.on_packet_in(&msg, &mut replies);
    }
    ctrl.take_log()
}

/// `(records, events, FNV-1a of their Debug lines)` at the parent commit.
const GOLDEN: [(&str, Digest); 12] = [
    ("Q1", (29, 93, 5538504264831413089)),
    ("Q2", (323, 994, 12445163981565451473)),
    ("Q3", (97, 303, 4471909954027315175)),
    ("Q4", (5, 19, 71113111321593410)),
    ("Q5", (90, 313, 6391172259523739424)),
    ("Fig7", (10, 34, 11934155181101249839)),
    ("det-pipelined", (24, 60, 6018604554509209618)),
    ("churn-pipelined", (17, 53, 726358710916901491)),
    ("det-batch", (24, 60, 6018604554509209618)),
    ("churn-batch", (17, 53, 726358710916901491)),
    ("stream", (2008, 12243, 10711370453409716946)),
    ("ship", (17, 80, 3281163895776741999)),
];

#[test]
fn logs_read_back_as_the_owning_layout_wrote_them() {
    let mut got: Vec<(String, Digest)> = Scenario::all()
        .into_iter()
        .chain([Scenario::fig7_harmful_entry()])
        .map(|s| (s.id.to_string(), digest(observation_run(&s).controller().exec_log())))
        .collect();
    for st in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
        got.push((format!("det-{st}"), digest(&det_script(st))));
        got.push((format!("churn-{st}"), digest(&churn_script(st))));
    }
    let stream = digest(&stream_log(EvalStrategy::Batch));
    assert_eq!(digest(&stream_log(EvalStrategy::Pipelined)), stream, "the stream, pipelined against batch");
    got.push(("stream".to_string(), stream));
    let ship = digest(&ship_script(EvalStrategy::Batch));
    assert_eq!(digest(&ship_script(EvalStrategy::Pipelined)), ship, "the ship script, pipelined against batch");
    got.push(("ship".to_string(), ship));
    let want: Vec<(String, Digest)> =
        GOLDEN.iter().map(|(id, d)| (id.to_string(), *d)).collect();
    assert_eq!(got, want);
}

/// The curated differential of the observation run: on every curated run,
/// the debugger's workload loop — the simulator's injection memo over the
/// batch engine's step memo — leaves the counters, the clock and the log
/// the reference leaves.
#[test]
fn the_workload_loop_leaves_what_inject_and_run_leave() {
    for s in &reference::curated() {
        let product = observation_run(s);
        let want = reference::run(&Debugger::for_scenario(s).setup(), Arc::clone(&s.program), &[], true).unwrap();
        println!("{}: {} of {} injections answered", s.id, product.answered(), product.stats.injected);
        assert_eq!(product.stats, want.stats, "{}", s.id);
        assert_eq!(product.now(), want.now, "{}", s.id);
        assert_eq!(Some(digest(product.controller().exec_log())), want.log, "{}", s.id);
    }
}

#[test]
fn a_restarted_stream_reads_back_the_same_history() {
    let parent = std::env::temp_dir().join(format!("mpr-stream-wal-{}", std::process::id()));
    let seeds = Scenario::q1_copy_paste().seeds.len();
    for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
        let opts = Options { strategy, ..Options::default() };
        let wal = Durability::Wal(WalOptions::new(&parent));
        let mut ctrl = common::q1_controller(Options { durability: wal, ..opts.clone() });
        let mut replies = Vec::new();
        for msg in common::q1_packet_ins(2_000) {
            replies.clear();
            ctrl.on_packet_in(&msg, &mut replies);
        }
        let live = ctrl.engine();
        let dir = live.wal_dir().expect("the WAL opened");
        let (recovered, report) = Engine::recover(live.program().clone(), opts, dir).unwrap();
        assert!(report.status.is_clean());
        assert_eq!(report.inputs, seeds + 2_000, "{strategy}");
        assert!(recovered.store().dump() == live.store().dump(), "{strategy}: store diverged");
        assert!(recovered.log() == live.log(), "{strategy}: log diverged");
        assert_eq!(digest(recovered.log()), GOLDEN[10].1, "{strategy}");
    }
    let _ = std::fs::remove_dir_all(&parent);
}
