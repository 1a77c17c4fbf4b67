//! Same history, new layout: digests of the full record and event sequence
//! of eight executions, captured at the parent commit of the interned log
//! (PR 15) from its owning `Vec<TupleRecord>` / `Vec<ExecEvent>` by the
//! `digest` below with `log.tuples.iter()` / `log.events.iter()` in place of
//! the accessors. The borrowed views derive `Debug` over the same field
//! names, so an identical digest means every record and every event reads
//! back exactly as it was written before.
//!
//! The `stream` row is the Q1 controller answering 2 000 packet-ins of the
//! campus trace, nearly all of them repeats: the batch engine answers
//! those from its step memo, the pipelined reference evaluates each, and
//! both must write this log.

mod common;

use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::ndlog::{parse_program, Tuple, Value};
use sdn_meta_repair::runtime::{Engine, ExecLog, Options};
use sdn_meta_repair::sdn::controller::{Controller, NdlogController};
use sdn_meta_repair::sdn::Simulation;
use sdn_meta_repair::EvalStrategy;

fn fnv(h: &mut u64, s: &str) {
    for b in s.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(log: &ExecLog) -> (usize, usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in log.records() {
        fnv(&mut h, &format!("{r:?}\n"));
    }
    for e in log.events() {
        fnv(&mut h, &format!("{e:?}\n"));
    }
    (log.records().len(), log.len(), h)
}

fn scenario_log(s: &Scenario) -> ExecLog {
    let mut ctrl = NdlogController::with_options(s.program.clone(), s.codec.clone(), Options::default())
        .expect("scenario program compiles");
    ctrl.seed(s.seeds.clone()).expect("seeds");
    let mut sim = Simulation::new(s.topology.clone(), ctrl, s.sim.clone());
    for (src, pkt) in s.workload.iter() {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    sim.controller().exec_log().clone()
}

fn det_script(strategy: EvalStrategy) -> ExecLog {
    let p = parse_program(
        "det",
        r"
        materialize(Src, infinity, 2, keys(0,1)).
        materialize(Pick, infinity, 2, keys(0)).
        materialize(Joined, infinity, 2, keys(0,1)).
        materialize(Cnt, infinity, 2, keys(0)).
        p1 Pick(@N,X,Y) :- Src(@N,X,Y).
        j1 Joined(@N,X,Z) :- Src(@N,X,Y), Src(@N,Y,Z).
        c1 Cnt(@N,X,a_count<Y>) :- Src(@N,X,Y).
        ",
    )
    .unwrap();
    let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
    let n = Value::Int(1);
    let t = |a: i64, b: i64| Tuple::new("Src", n.clone(), vec![Value::Int(a), Value::Int(b)]);
    for (a, b) in [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 1), (1, 2)] {
        e.insert(t(a, b)).unwrap();
    }
    e.delete(&t(1, 2)).unwrap();
    e.delete(&t(2, 3)).unwrap();
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
    e.delete(&t(1, 2)).unwrap();
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
const GOLDEN: [(&str, (usize, usize, u64)); 11] = [
    ("Q1", (29, 93, 5538504264831413089)),
    ("Q2", (323, 994, 12445163981565451473)),
    ("Q3", (97, 303, 4471909954027315175)),
    ("Q4", (5, 19, 71113111321593410)),
    ("Q5", (90, 313, 6391172259523739424)),
    ("Fig7", (10, 34, 11934155181101249839)),
    ("det-pipelined", (32, 79, 1124674743549265391)),
    ("churn-pipelined", (17, 53, 726358710916901491)),
    ("det-batch", (32, 79, 1124674743549265391)),
    ("churn-batch", (17, 53, 726358710916901491)),
    ("stream", (2008, 12243, 10711370453409716946)),
];

#[test]
fn logs_read_back_as_the_owning_layout_wrote_them() {
    let mut got: Vec<(String, (usize, usize, u64))> = Scenario::all()
        .into_iter()
        .chain([Scenario::fig7_harmful_entry()])
        .map(|s| (s.id.to_string(), digest(&scenario_log(&s))))
        .collect();
    for st in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
        got.push((format!("det-{st}"), digest(&det_script(st))));
        got.push((format!("churn-{st}"), digest(&churn_script(st))));
    }
    let stream = digest(&stream_log(EvalStrategy::Batch));
    assert_eq!(digest(&stream_log(EvalStrategy::Pipelined)), stream, "the stream, pipelined against batch");
    got.push(("stream".to_string(), stream));
    let want: Vec<(String, (usize, usize, u64))> =
        GOLDEN.iter().map(|(id, d)| (id.to_string(), *d)).collect();
    assert_eq!(got, want);
}
