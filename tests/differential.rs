//! Differential test harness: the batch engine against its two reference
//! evaluators.
//!
//! Over random NDlog programs and fact sets (well over 100 generated
//! programs per run), the batch semi-naive engine and the per-tuple
//! pipelined reference must reach identical fixpoints — which must also match
//! the naive whole-program oracle — and must record provenance-equivalent
//! executions: the same *net* derivation set keyed by tuple values
//! (`provenance::derivation_set`). Instance ids and support-count
//! multiplicities may differ between strategies; net derivations, live
//! state, and retraction cascades may not.
//!
//! Scripted scenarios cover the fragments the random generator avoids:
//! primary-key replacement, transient events, aggregates, and recursion.
//!
//! The same executions pin the log's indexes (`assert_chains_match_scans`):
//! every chain-walking query must answer like a linear scan of the whole
//! log, and every `explain_exist` tree must equal the tree built from such
//! scans.

use proptest::prelude::*;
use sdn_meta_repair::ndlog::ast::{Assign, Atom, BinOp, CmpOp, Expr, Rule, Selection, Term};
use sdn_meta_repair::ndlog::{parse_program, Program, Tuple, Value};
use sdn_meta_repair::provenance::{
    derivation_set, explain_exist_with, ExplainOptions, ProvTree, Vertex,
};
use sdn_meta_repair::runtime::naive::naive_fixpoint;
use sdn_meta_repair::runtime::{Engine, ExecEvent, ExecLog, Options, StepResult, TupleId, TupleKind};
use sdn_meta_repair::EvalStrategy;
use std::collections::BTreeSet;

const TABLES: [&str; 8] = ["T0", "T1", "T2", "T3", "D0", "D1", "D2", "D3"];

type DerivationSet = BTreeSet<(String, Tuple, Vec<Tuple>)>;

fn engine(p: &Program, strategy: EvalStrategy) -> Engine {
    Engine::with_options(p, Options { strategy, ..Options::default() }).unwrap()
}

fn snapshot(e: &Engine) -> BTreeSet<Tuple> {
    TABLES.iter().flat_map(|t| e.tuples(t)).collect()
}

/// Run one strategy over the same script: insert every base fact (fixpoint
/// after each), then delete the listed facts. Returns the final live state
/// and the net derivation set of the whole execution.
fn run(
    p: &Program,
    base: &[Tuple],
    deletes: &[Tuple],
    strategy: EvalStrategy,
) -> (BTreeSet<Tuple>, DerivationSet) {
    let mut e = engine(p, strategy);
    for t in base {
        e.insert(t.clone()).unwrap();
    }
    for t in deletes {
        e.delete(t).unwrap();
    }
    assert_chains_match_scans(e.log());
    (snapshot(&e), derivation_set(e.log()))
}

/// The reference `explain_exist`: the tree of instance `tid` built from
/// linear scans of `events()` alone (one per derived vertex, and one more
/// for its shipment), as the explainer did before the log was indexed.
/// Support cycles are cut by the explainer's own bounds.
fn scan_exist_tree(log: &ExecLog, tid: TupleId, depth: usize, budget: &mut usize) -> ProvTree {
    let rec = log.record(tid);
    let (node, tuple) = (rec.tuple.loc.clone(), rec.tuple.clone());
    let mut root = ProvTree::leaf(Vertex::Exist {
        from: rec.appear,
        to: rec.disappear,
        node: node.clone(),
        tuple: tuple.clone(),
    });
    if depth == 0 || *budget == 0 {
        return root;
    }
    *budget -= 1;
    let mut appear =
        ProvTree::leaf(Vertex::Appear { at: rec.appear, node: node.clone(), tuple: tuple.clone() });
    if rec.kind != TupleKind::Derived {
        appear.children.push(ProvTree::leaf(Vertex::Insert {
            at: rec.appear,
            node: node.clone(),
            tuple: tuple.clone(),
        }));
    }
    for ev in log.events().filter(|_| rec.kind == TupleKind::Derived) {
        let ExecEvent::Derive { time, rule, head, body } = ev else { continue };
        if head != tid {
            continue;
        }
        let mut derive = ProvTree::leaf(Vertex::Derive {
            at: time,
            node: node.clone(),
            rule: rule.to_string(),
            tuple: tuple.clone(),
        });
        for &b in body {
            if *budget == 0 {
                break;
            }
            derive.children.push(scan_exist_tree(log, b, depth - 1, budget));
        }
        let shipped = log.events().find_map(|e| match e {
            ExecEvent::Send { time, from, to, tid: sent, positive: true } if sent == tid => {
                Some((time, from.clone(), to.clone()))
            }
            _ => None,
        });
        appear.children.push(match shipped {
            None => derive,
            Some((at, from, to)) => ProvTree {
                vertex: Vertex::Receive {
                    at,
                    from: from.clone(),
                    to: to.clone(),
                    tuple: tuple.clone(),
                    positive: true,
                },
                children: vec![ProvTree {
                    vertex: Vertex::Send { at, from, to, tuple: tuple.clone(), positive: true },
                    children: vec![derive],
                }],
            },
        });
    }
    root.children.push(appear);
    root
}

/// Bounds that keep the recursive programs' trees to a few hundred vertices.
const BOUNDS: ExplainOptions = ExplainOptions { max_depth: 6, max_vertices: 256 };

/// Every indexed query of `log` against the linear scan it replaced.
/// (`explain_absent` reads the log through `alive_at` alone, so pinning
/// `alive_at` pins its trees.)
fn assert_chains_match_scans(log: &ExecLog) {
    let end = log.events().last().map_or(0, |e| e.time());
    for rec in log.records() {
        let scan: Vec<ExecEvent<'_>> = log
            .events()
            .filter(|e| matches!(e, ExecEvent::Derive { head, .. } if *head == rec.tid))
            .collect();
        assert_eq!(log.derivations_of(rec.tid), scan, "derivations of {}", rec.tid);
        let same: Vec<_> = log.records().filter(|r| r.tuple == rec.tuple).collect();
        assert_eq!(log.instances_of(rec.tuple), same, "instances of {}", rec.tuple);
        for at in [rec.appear, rec.disappear.unwrap_or(end), end] {
            let first = same.iter().find(|r| r.alive_at(at)).copied();
            assert_eq!(log.instance_alive_at(rec.tuple, at), first, "{} at {at}", rec.tuple);
            assert_eq!(
                explain_exist_with(log, rec.tuple, at, BOUNDS),
                first.map(|r| scan_exist_tree(log, r.tid, BOUNDS.max_depth, &mut { BOUNDS.max_vertices })),
                "explanation of {} at {at}",
                rec.tuple
            );
            let alive: Vec<_> = log
                .records()
                .filter(|r| r.tuple.table == rec.tuple.table && r.alive_at(at))
                .collect();
            assert_eq!(log.alive_at(&rec.tuple.table, at), alive, "{} at {at}", rec.tuple.table);
        }
    }
}

/// Assert both strategies agree and return the common state for oracle
/// comparison. Pipelined is compared on net semantics (state + derivation
/// sets — instance ids legitimately differ).
fn assert_strategies_agree(
    p: &Program,
    base: &[Tuple],
    deletes: &[Tuple],
) -> Result<BTreeSet<Tuple>, TestCaseError> {
    let (state_p, derivs_p) = run(p, base, deletes, EvalStrategy::Pipelined);
    let (state_b, derivs_b) = run(p, base, deletes, EvalStrategy::Batch);
    prop_assert_eq!(&state_p, &state_b, "fixpoints diverge");
    prop_assert_eq!(&derivs_p, &derivs_b, "net derivation sets diverge");
    Ok(state_p)
}

// ---------------------------------------------------------------------
// Random stratified programs (set-semantics state tables, no aggregates —
// the fragment where the naive oracle is also meaningful).

/// Base facts over T0..T3, arity 2, on one of two nodes.
fn base_tuple() -> impl Strategy<Value = Tuple> {
    (0u8..4, 0u8..2, 0i64..4, -3i64..6).prop_map(|(t, node, a, b)| {
        let loc = if node == 0 { Value::str("C") } else { Value::str("S") };
        Tuple::new(format!("T{t}"), loc, vec![Value::Int(a), Value::Int(b)])
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

prop_compose! {
    /// A stratified rule with 1–3 body atoms: the first atom always binds
    /// `A` and `B` (so heads and selections are safe), later atoms draw
    /// their terms freely from the pool — constants, repeats of `A`/`B`
    /// (join columns), or fresh `X`/`Y`. Half the rules append an
    /// arithmetic assignment; some heads install remotely (constant node).
    fn rule(idx: usize)(
        head_t in 0u8..4,
        body_ts in prop::collection::vec(0u8..4, 1..4),
        args in prop::collection::vec(term(&["A", "B", "X", "Y"]), 4),
        sels in prop::collection::vec(sel(&["A", "B"]), 0..3),
        assign_c in -2i64..4,
        with_assign in prop::sample::select(vec![false, true]),
        remote in 0u8..4,
    ) -> Rule {
        let body: Vec<Atom> = body_ts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (a, b) = if i == 0 {
                    (Term::Var("A".into()), Term::Var("B".into()))
                } else {
                    (args[2 * (i - 1)].clone(), args[2 * (i - 1) + 1].clone())
                };
                Atom::new(format!("T{t}"), Term::Var("C".into()), vec![a, b])
            })
            .collect();
        let assigns = if with_assign {
            vec![Assign::new(
                "W",
                Expr::Binary(BinOp::Add, Box::new(Expr::var("A")), Box::new(Expr::int(assign_c))),
            )]
        } else {
            vec![]
        };
        let head_loc =
            if remote == 0 { Term::Const(Value::str("S")) } else { Term::Var("C".into()) };
        let second = if with_assign { Term::Var("W".into()) } else { Term::Var("B".into()) };
        Rule::new(
            format!("r{idx}"),
            Atom::new(format!("D{head_t}"), head_loc, vec![Term::Var("A".into()), second]),
            body,
            sels,
            assigns,
        )
    }
}

prop_compose! {
    fn program()(n in 1usize..5)(
        built in (0..n).map(rule).collect::<Vec<_>>()
    ) -> Program {
        let mut p = Program::new("diff");
        p.rules.extend(built);
        p
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Insert-only: both strategies agree with each other and with the
    /// naive oracle on every random program.
    #[test]
    fn insertions_agree_across_strategies_and_oracle(
        p in program(),
        base in prop::collection::vec(base_tuple(), 0..12),
    ) {
        prop_assume!(p.validate().is_ok());
        let state = assert_strategies_agree(&p, &base, &[])?;
        let expected = naive_fixpoint(&p, &base, 64);
        prop_assert_eq!(state, expected, "engines diverge from the naive oracle");
    }

    /// Deletion cascades: delete a prefix of the inserted facts; both
    /// strategies must agree, and the survivors must equal the oracle's
    /// fixpoint over the remaining base facts.
    #[test]
    fn deletion_cascades_agree_across_strategies(
        p in program(),
        base in prop::collection::vec(base_tuple(), 1..10),
        n_del in 0usize..10,
    ) {
        prop_assume!(p.validate().is_ok());
        let deletes: Vec<Tuple> = base.iter().take(n_del).cloned().collect();
        let state = assert_strategies_agree(&p, &base, &deletes)?;
        // Remaining base support: each delete removes one unit; duplicates
        // in `base` keep the fact alive.
        let mut remaining = base.clone();
        for d in &deletes {
            if let Some(pos) = remaining.iter().position(|t| t == d) {
                remaining.remove(pos);
            }
        }
        let expected = naive_fixpoint(&p, &remaining, 64);
        prop_assert_eq!(state, expected, "cascade left the wrong survivors");
    }
}

// ---------------------------------------------------------------------
// Recursion: rounds deeper than one are where batch semi-naive differs
// most from per-tuple pipelining.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recursive_reachability_agrees(
        edges in prop::collection::vec((0i64..7, 0i64..7), 0..14),
        n_del in 0usize..6,
    ) {
        let p = parse_program(
            "tc",
            r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
            ",
        )
        .unwrap();
        let c = Value::str("C");
        let base: Vec<Tuple> = edges
            .iter()
            .map(|&(a, b)| Tuple::new("Link", c.clone(), vec![Value::Int(a), Value::Int(b)]))
            .collect();
        let deletes: Vec<Tuple> = base.iter().take(n_del).cloned().collect();

        let (state_p, derivs_p) = run(&p, &base, &deletes, EvalStrategy::Pipelined);
        let (state_b, derivs_b) = run(&p, &base, &deletes, EvalStrategy::Batch);
        prop_assert_eq!(&state_p, &state_b, "reachability fixpoints diverge");
        prop_assert_eq!(&derivs_p, &derivs_b, "reachability derivations diverge");
    }
}

// ---------------------------------------------------------------------
// Scripted scenarios for the fragments the generator avoids. Each runs the
// identical script under both strategies and compares everything — what
// the script itself reports (say, what appeared at each step) included.

fn dual_run<Seen: PartialEq + std::fmt::Debug>(src: &str, script: impl Fn(&mut Engine) -> Seen) {
    let p = parse_program("scripted", src).unwrap();
    let mut e_pipe = engine(&p, EvalStrategy::Pipelined);
    let mut e_batch = engine(&p, EvalStrategy::Batch);
    let seen_pipe = script(&mut e_pipe);
    let seen_batch = script(&mut e_batch);
    assert_eq!(seen_pipe, seen_batch, "what the script saw, step by step");
    assert_chains_match_scans(e_pipe.log());
    assert_chains_match_scans(e_batch.log());
    let tables: BTreeSet<String> = e_pipe
        .log()
        .records()
        .chain(e_batch.log().records())
        .map(|r| r.tuple.table.clone())
        .collect();
    for t in &tables {
        assert_eq!(e_pipe.tuples(t), e_batch.tuples(t), "table {t} diverges");
    }
    assert_eq!(
        derivation_set(e_pipe.log()),
        derivation_set(e_batch.log()),
        "net derivation sets diverge"
    );
}

#[test]
fn keyed_replacement_agrees() {
    // Fig. 2's shape: two rules race to install FlowTable entries under the
    // same primary key; last write wins, and the evicted entry's cascade
    // must agree between strategies.
    let src = r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0)).
        materialize(Mirror, infinity, 2, keys(0,1)).
        r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
        r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
        m1 Mirror(@Swi,Hdr,Prt) :- FlowTable(@Swi,Hdr,Prt).
    ";
    dual_run(src, |e| {
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(2), Value::Int(80)]))
            .unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(2), Value::Int(80)]))
            .unwrap();
    });
}

#[test]
fn transient_events_agree() {
    // Events trigger persistent derivations but are never stored; their
    // derivations must not retract when the event passes.
    let src = r"
        materialize(PacketIn, event, 2, keys()).
        materialize(WebLoadBalancer, infinity, 2, keys(0)).
        materialize(FlowTable, infinity, 2, keys(0)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
    ";
    dual_run(src, |e| {
        e.insert(Tuple::new(
            "WebLoadBalancer",
            Value::str("C"),
            vec![Value::Int(80), Value::Int(7)],
        ))
        .unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(1), Value::Int(80)]))
            .unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(9), Value::Int(80)]))
            .unwrap();
        e.delete(&Tuple::new(
            "WebLoadBalancer",
            Value::str("C"),
            vec![Value::Int(80), Value::Int(7)],
        ))
        .unwrap();
    });
}

#[test]
fn aggregates_agree() {
    // Incremental a_count with churn: inserts, a retraction that shrinks
    // the group, and one that empties it (evicting the emitted tuple).
    let src = r"
        materialize(PredFunc, infinity, 2, keys(0,1)).
        materialize(PredFuncCount, infinity, 2, keys(0)).
        materialize(Big, infinity, 2, keys(0)).
        p2 PredFuncCount(@C,Rul,a_count<Tab>) :- PredFunc(@C,Rul,Tab).
        p3 Big(@C,Rul,N) :- PredFuncCount(@C,Rul,N), N > 1.
    ";
    let c = || Value::str("C");
    let pf = |r: &str, t: &str| Tuple::new("PredFunc", c(), vec![Value::str(r), Value::str(t)]);
    dual_run(src, move |e| {
        e.insert(pf("r1", "T1")).unwrap();
        e.insert(pf("r1", "T2")).unwrap();
        e.insert(pf("r2", "T1")).unwrap();
        e.delete(&pf("r1", "T2")).unwrap();
        e.delete(&pf("r2", "T1")).unwrap();
        e.insert(pf("r3", "T9")).unwrap();
    });
}

#[test]
fn multiway_join_ordering_agrees() {
    // Three-way join where every table receives deltas in every order; the
    // positional discipline must not miss (or lose) combinations.
    let src = r"
        materialize(A, infinity, 2, keys(0,1)).
        materialize(B, infinity, 2, keys(0,1)).
        materialize(E, infinity, 2, keys(0,1)).
        materialize(Out, infinity, 3, keys(0,1,2)).
        j1 Out(@N,X,Y,Z) :- A(@N,X,Y), B(@N,Y,Z), E(@N,Z,X).
    ";
    let n = || Value::Int(1);
    let t2 = |tab: &str, a: i64, b: i64| {
        Tuple::new(tab, n(), vec![Value::Int(a), Value::Int(b)])
    };
    dual_run(src, move |e| {
        // Cycle 1→2→3→1 completed in three different insertion orders.
        e.insert(t2("A", 1, 2)).unwrap();
        e.insert(t2("B", 2, 3)).unwrap();
        e.insert(t2("E", 3, 1)).unwrap();
        e.insert(t2("E", 6, 4)).unwrap();
        e.insert(t2("B", 5, 6)).unwrap();
        e.insert(t2("A", 4, 5)).unwrap();
        e.insert(t2("B", 8, 9)).unwrap();
        e.insert(t2("A", 7, 8)).unwrap();
        e.insert(t2("E", 9, 7)).unwrap();
        e.delete(&t2("B", 2, 3)).unwrap();
    });
}

#[test]
fn a_join_first_reached_late_sees_what_is_live() {
    // The batch engine compiles `j` — registering the indexes it probes
    // and filling them from the store — at the first delta that reaches it.
    // Dispatch on `B` is keyed on `K`, so the `B` rows with `K != 1` never
    // reach `j`: `B` is filled and partly retracted first. Then a `Src`
    // derives `A` and two `B` rows under one key (the second replaces the
    // first) in one round, and `A`, the next round's first delta, compiles
    // `j` while a live `A` and a live `B` row exist that were minted before
    // any index over their tables — the `B` row is the one that joins.
    let src = r"
        materialize(Src, infinity, 1, keys(0)).
        materialize(A, infinity, 1, keys(0)).
        materialize(B, infinity, 2, keys(0)).
        materialize(Out, infinity, 2, keys(0,1)).
        a A(@N,X) :- Src(@N,X).
        b1 B(@N,K,V) :- Src(@N,X), K := 1, V := X.
        b2 B(@N,K,V) :- Src(@N,X), K := 1, V := X + 1.
        j Out(@N,X,V) :- A(@N,X), B(@N,K,V), K == 1.
    ";
    let t = |table: &str, args: &[i64]| Tuple::new(table, Value::Int(1), args.iter().map(|&a| Value::Int(a)).collect());
    dual_run(src, move |e| {
        let mut seen = Vec::new();
        let mut step = |r: StepResult| seen.push((r.appeared, r.disappeared));
        for (k, v) in [(2, 7), (3, 8), (4, 9)] {
            step(e.insert(t("B", &[k, v])).unwrap());
        }
        step(e.delete(&t("B", &[3, 8])).unwrap());
        step(e.insert(t("Src", &[5])).unwrap());
        assert!(e.contains(&t("Out", &[5, 6])), "under {}", e.strategy());
        step(e.insert(t("Src", &[7])).unwrap());
        step(e.delete(&t("Src", &[5])).unwrap());
        assert_eq!(e.tuples("Out"), [t("Out", &[7, 8])], "under {}", e.strategy());
        seen
    });
}

#[test]
fn a_derived_tuple_joins_only_once_it_is_dequeued() {
    // `b` joins the packet-in with the `Last` that `a` derives from the
    // same packet-in. Derived, `Last` is queued; it is inserted — and
    // joinable — when it is dequeued, after the packet-in has fired `b`
    // (RapidNet's pipeline; under `Batch`, the next round). So `b` answers
    // the *second* packet-in of a header. The final states agree either
    // way, so the comparison is per insert: the reference once scanned
    // the store, where a derived tuple sits from the moment it is
    // derived, and `FlowTable` appeared one packet-in early — [1,1,0,0,0,0]
    // keyed on everything, [1,1,1,1,1,0] keyed on the switch, where every
    // other header replaces the `Last` before it.
    for (keys, want) in [("0,1", [0, 0, 1, 1, 0, 0]), ("0", [0, 0, 0, 0, 0, 1])] {
        let src = format!(
            "materialize(PacketIn, event, 2, keys()).
             materialize(Last, infinity, 2, keys({keys})).
             materialize(FlowTable, infinity, 2, keys(0,1)).
             a Last(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr).
             b FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Last(@C,Swi,Hdr), Prt := 1."
        );
        dual_run(&src, |e| {
            let appeared: Vec<Vec<Tuple>> = [80, 53, 80, 53, 80, 80]
                .iter()
                .map(|&hdr| {
                    let packet_in =
                        Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(1), Value::Int(hdr)]);
                    e.insert(packet_in).unwrap().appeared
                })
                .collect();
            let flow_entries: Vec<usize> = appeared
                .iter()
                .map(|step| step.iter().filter(|t| t.table == "FlowTable").count())
                .collect();
            assert_eq!(flow_entries, want, "Last keyed on ({keys}), under {}", e.strategy());
            appeared
        });
    }
}

// ---------------------------------------------------------------------
// The step memo. The batch engine answers an event it has already handled
// at an unchanged state generation by replaying the step it filed; the
// pipelined reference evaluates every event. Event streams with many
// repeats, interleaved with what must empty the memo or must not be
// filed, are fed to both, and after every insert or delete the step
// result, the store with its support counts and the whole execution log
// must be equal.

/// Tables of the memo programs: two event tables and the event a counting
/// function stamps, base state (`S1` keyed, so a second payload replaces
/// the first), derived state (`D1` keyed likewise).
const MEMO_TABLES: &str = "
    materialize(Ev, event, 2, keys()).
    materialize(Ev2, event, 2, keys()).
    materialize(Uid, event, 2, keys()).
    materialize(S0, infinity, 2, keys(0,1)).
    materialize(S1, infinity, 2, keys(0)).
    materialize(D0, infinity, 2, keys(0,1)).
    materialize(D1, infinity, 2, keys(0)).
    materialize(D2, infinity, 2, keys(0,1)).
";

/// One insert or delete of a memo script.
#[derive(Debug, Clone)]
enum MemoOp {
    /// `Ev(@'C', a, b)`.
    Event(i64, i64),
    /// Base `S{s}(@'C', a, b)`.
    Insert(u8, i64, i64),
    /// Delete base `S{s}(@'C', a, b)` (absent ones included).
    Delete(u8, i64, i64),
}

fn memo_tuple(table: &str, a: i64, b: i64) -> Tuple {
    Tuple::new(table, Value::str("C"), vec![Value::Int(a), Value::Int(b)])
}

/// Apply `ops` to a batch and a pipelined engine of `src` built with
/// `opts`, comparing them after every one; returns the batch engine's
/// memo hits.
fn memo_lockstep(src: &str, ops: &[MemoOp], opts: &Options) -> u64 {
    let p = parse_program("memo", &format!("{MEMO_TABLES}{src}")).unwrap();
    let mut batch =
        Engine::with_options(&p, Options { strategy: EvalStrategy::Batch, ..opts.clone() }).unwrap();
    let mut pipe =
        Engine::with_options(&p, Options { strategy: EvalStrategy::Pipelined, ..opts.clone() }).unwrap();
    for (i, op) in ops.iter().enumerate() {
        let apply = |e: &mut Engine| match op {
            MemoOp::Event(a, b) => e.insert(memo_tuple("Ev", *a, *b)),
            MemoOp::Insert(s, a, b) => e.insert(memo_tuple(&format!("S{s}"), *a, *b)),
            MemoOp::Delete(s, a, b) => e.delete(&memo_tuple(&format!("S{s}"), *a, *b)),
        };
        let (got, want) = (apply(&mut batch), apply(&mut pipe));
        assert_eq!(got, want, "step {i} ({op:?}) of {ops:?} under\n{src}");
        assert_eq!(batch.store().dump(), pipe.store().dump(), "store after step {i} ({op:?}) under\n{src}");
        assert!(batch.log() == pipe.log(), "log after step {i} ({op:?}) of {ops:?} under\n{src}");
    }
    assert_eq!(pipe.memo_hits(), 0, "the reference keeps no memo");
    assert_eq!(batch.steps() + batch.memo_hits(), pipe.steps(), "every event is a step or a hit");
    batch.memo_hits()
}

fn memo_op() -> impl Strategy<Value = MemoOp> {
    prop_oneof![
        6 => (0i64..3, 0i64..3).prop_map(|(a, b)| MemoOp::Event(a, b)),
        2 => (0u8..2, 0i64..3, 0i64..3).prop_map(|(s, a, b)| MemoOp::Insert(s, a, b)),
        2 => (0u8..2, 0i64..3, 0i64..3).prop_map(|(s, a, b)| MemoOp::Delete(s, a, b)),
    ]
}

/// A rule of a memo program: an event joining base state into a
/// (possibly keyed, possibly remote) derived head, a derived event and a
/// rule it fires, an event-only body, an `f_unique()` stamp, or derived
/// state feeding derived state, so a delete cascades.
fn memo_rule() -> impl Strategy<Value = String> {
    let op = prop::sample::select(vec!["==", "!=", "<", ">="]);
    (0u8..6, 0u8..2, 0u8..2, op, 0i64..3, prop::sample::select(vec!["C", "'S'"])).prop_map(
        |(kind, h, s, op, c, loc)| match kind {
            0 => format!("D{h}(@{loc},A,X) :- Ev(@C,A,B), S{s}(@C,B,X), A {op} {c}."),
            1 => format!("Ev2(@C,A,B) :- Ev(@C,A,B), B {op} {c}."),
            2 => format!("D{h}(@{loc},A,X) :- Ev2(@C,A,B), S{s}(@C,A,X)."),
            3 => format!("D{h}(@{loc},A,B) :- Ev(@C,A,B), A {op} {c}."),
            4 => format!("Uid(@C,A,I) :- Ev(@C,A,B), B == {c}, I := f_unique()."),
            _ => format!("D2(@N,A,B) :- D{h}(@N,A,B)."),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated event programs over scripts that repeat a few events many
    /// times between inserts and deletes of base state.
    #[test]
    fn memoized_steps_write_what_the_reference_writes(
        rules in prop::collection::vec(memo_rule(), 1..6),
        ops in prop::collection::vec(memo_op(), 1..40),
    ) {
        let src: String = rules.iter().enumerate().map(|(i, r)| format!("r{i} {r}\n")).collect();
        memo_lockstep(&src, &ops, &Options::default());
    }
}

#[test]
fn each_way_a_memoized_step_can_go_stale_is_caught() {
    // `e1` records a support bump under `S0` on a repeat; `e2` installs
    // under `S1`'s key, so replacing `S1` replaces `D1`; `c1` / `f1` chain
    // a derived event into state; `u1` stamps with `f_unique()`; `d1`
    // cascades from `D0`.
    let src = "
        e1 D0(@'S',A,X) :- Ev(@C,A,B), S0(@C,B,X).
        e2 D1(@C,A,X) :- Ev(@C,A,B), S1(@C,B,X).
        c1 Ev2(@C,A,B) :- Ev(@C,A,B), B > 0.
        f1 D0(@C,A,X) :- Ev2(@C,A,B), S0(@C,A,X).
        u1 Uid(@C,A,I) :- Ev(@C,A,B), B == 2, I := f_unique().
        d1 D2(@N,A,B) :- D0(@N,A,B).
    ";
    use MemoOp::{Delete, Event, Insert};
    let repeat = |a, b| [Event(a, b), Event(a, b), Event(a, b)];
    let ops: Vec<MemoOp> = [
        vec![Insert(0, 1, 5), Insert(0, 0, 6), Insert(1, 1, 7)],
        // First a miss that installs, then a miss that is filed, then hits.
        repeat(0, 1).to_vec(),
        repeat(1, 1).to_vec(),
        // A state insert moves the generation: misses again, then hits.
        vec![Insert(0, 2, 9)],
        repeat(0, 1).to_vec(),
        // The delete retracts what the hits derived, one record each.
        vec![Delete(0, 1, 5)],
        repeat(0, 1).to_vec(),
        // Replacing `S1(1, 7)` by `S1(1, 8)` replaces `D1` at the next
        // event, which is a miss.
        vec![Insert(1, 1, 8)],
        repeat(0, 1).to_vec(),
        // `f_unique()` runs on every one: none is filed.
        repeat(0, 2).to_vec(),
        // No rule matches: filed with nothing to replay.
        repeat(9, 0).to_vec(),
        vec![Delete(1, 1, 8), Delete(0, 0, 6)],
        repeat(1, 1).to_vec(),
    ]
    .concat();
    let hits = memo_lockstep(src, &ops, &Options::default());
    assert!(hits >= 8, "{hits} memo hits");
    // A derivation budget a hit would cross: the drain runs, and fails
    // where the reference fails.
    let tight = Options { max_derivations: 12, ..Options::default() };
    memo_lockstep(src, &ops, &tight);
}
