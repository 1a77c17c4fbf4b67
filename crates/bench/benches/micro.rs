//! Criterion micro-benchmarks — ablations for the reproduction's main
//! design choices: pipelined-delta evaluation, the solver's two tiers, flow
//! table lookup, and MQO tag-set construction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mpr_backtest::mqo::build_tagged_program;
use mpr_ndlog::{CmpOp, Tuple, Value};
use mpr_runtime::{Engine, EvalStrategy, Options};
use mpr_sdn::flowtable::{Action, FlowEntry, FlowTable, Match};
use mpr_sdn::packet::{Field, Packet};
use mpr_solver::{Constraint, Pool, STerm};

fn bench_engine(c: &mut Criterion) {
    let program = mpr_core::scenarios::q1_program();
    c.bench_function("engine/packetin_insert", |b| {
        b.iter_batched(
            || Engine::new(&program).unwrap(),
            |mut e| {
                for i in 0..100 {
                    e.insert(Tuple::new(
                        "PacketIn",
                        Value::str("C"),
                        vec![Value::Int(1 + i % 5), Value::Int(80)],
                    ))
                    .unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    // Head-to-head strategy ablation on the identical workload, with the
    // strategy pinned explicitly so the process-global default is irrelevant.
    for strategy in [EvalStrategy::Pipelined, EvalStrategy::Batch] {
        c.bench_function(&format!("engine/packetin_insert/{strategy}"), |b| {
            b.iter_batched(
                || {
                    Engine::with_options(&program, Options { strategy, ..Options::default() })
                        .unwrap()
                },
                |mut e| {
                    for i in 0..100 {
                        e.insert(Tuple::new(
                            "PacketIn",
                            Value::str("C"),
                            vec![Value::Int(1 + i % 5), Value::Int(80)],
                        ))
                        .unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_solver(c: &mut Criterion) {
    // Mini-tier pool (conjunctive, flat).
    let mut mini = Pool::new();
    mini.push(Constraint::eq_var("a", "b"));
    mini.push(Constraint::cmp(STerm::var("a"), CmpOp::Gt, STerm::int(0)));
    mini.push(Constraint::cmp(STerm::var("b"), CmpOp::Lt, STerm::int(9)));
    c.bench_function("solver/mini_tier", |b| b.iter(|| mini.solve()));
    // Search-tier pool (arithmetic forces the second tier).
    let mut search = Pool::new();
    search.push(Constraint::cmp(
        STerm::Add(Box::new(STerm::var("x")), Box::new(STerm::var("y"))),
        CmpOp::Gt,
        STerm::int(1),
    ));
    search.push(Constraint::cmp(STerm::var("x"), CmpOp::Gt, STerm::int(0)));
    c.bench_function("solver/search_tier", |b| b.iter(|| search.solve()));
}

fn bench_flowtable(c: &mut Criterion) {
    let mut ft = FlowTable::new();
    for i in 0..256 {
        ft.install(FlowEntry::new(
            (i % 16) as i32,
            Match::any().with(Field::DstIp, i).with(Field::DstPort, 80),
            vec![Action::Output(i % 8)],
        ));
    }
    let pkt = Packet::http(1, 5, 128);
    c.bench_function("flowtable/lookup_256", |b| b.iter(|| ft.lookup(&pkt, 1)));
}

fn bench_mqo(c: &mut Criterion) {
    let base = mpr_core::scenarios::q1_program();
    let mut candidates = Vec::new();
    for i in 0..9 {
        let mut p = base.clone();
        let r = p.rule_mut("r7").unwrap();
        r.sels[0].rhs = mpr_ndlog::Expr::int(3 + i % 3);
        candidates.push(p);
    }
    c.bench_function("mqo/build_tagged_program_9", |b| {
        b.iter(|| build_tagged_program(&base, &candidates))
    });
}

fn bench_meta(c: &mut Criterion) {
    let program = mpr_core::scenarios::q1_program();
    let base: Vec<Tuple> = (1..=3)
        .map(|s| Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(s), Value::Int(80)]))
        .collect();
    c.bench_function("meta/interpret_fig2", |b| {
        b.iter(|| mpr_core::metafull::meta_interpret_k(&program, &base, "FlowTable", 2).unwrap())
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engine, bench_solver, bench_flowtable, bench_mqo, bench_meta
);
criterion_main!(micro);
