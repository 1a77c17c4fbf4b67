//! Property tests for the batch engine's round tracking:
//!
//! - the tracker agrees with the frame semantics it replaced — open
//!   rounds as a stack of disjoint tuple-id sets (recent), finished rounds
//!   merged into one set (stable) — through random begin / end / retire
//!   scripts;
//! - at rest (no open round) every live state tuple is merged, also after
//!   a step cut short by its round budget;
//! - fixpoints are idempotent: re-inserting already-live facts adds
//!   support but changes nothing visible.

use mpr_ndlog::ast::*;
use mpr_ndlog::{Program, Tuple, Value};
use mpr_runtime::delta::Visibility;
use mpr_runtime::{DeltaTracker, Engine, Options};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One scripted action. Tuple ids come from a tiny pool so that retires
/// and re-promotions often hit tracked tuples.
#[derive(Debug, Clone)]
enum Op {
    BeginRound(Vec<u64>),
    EndRound,
    Retire(u64),
}

const POOL: u64 = 32;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(0..POOL, 0..6).prop_map(Op::BeginRound),
        2 => Just(Op::EndRound),
        2 => (0..POOL).prop_map(Op::Retire),
    ]
}

/// The frame semantics: what each open round promoted, innermost last,
/// and everything finished rounds merged.
#[derive(Default)]
struct Frames {
    open: Vec<BTreeSet<u64>>,
    merged: BTreeSet<u64>,
}

impl Frames {
    /// No tuple id sits in two open rounds, or in an open round and the
    /// merged set.
    fn disjoint(&self) -> bool {
        let mut seen = self.merged.clone();
        self.open.iter().flatten().all(|&t| seen.insert(t))
    }

    fn visibility(&self, tid: u64) -> Visibility {
        match self.open.split_last() {
            Some((innermost, _)) if innermost.contains(&tid) => Visibility::Current,
            Some((_, outer)) if outer.iter().any(|f| f.contains(&tid)) => Visibility::Merged,
            _ if self.merged.contains(&tid) => Visibility::Merged,
            _ => Visibility::Absent,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every op the model's partitions are disjoint and the tracker
    /// reads each tuple exactly as the model does.
    #[test]
    fn stable_and_recent_stay_disjoint(ops in prop::collection::vec(op(), 0..40)) {
        let mut d = DeltaTracker::default();
        let mut model = Frames::default();
        for op in ops {
            match op {
                Op::BeginRound(batch) => {
                    // The engine promotes a tuple id once while it lives:
                    // keep only ids the model holds nowhere, once each.
                    let mut fresh = BTreeSet::new();
                    for t in batch {
                        if model.visibility(t) == Visibility::Absent {
                            fresh.insert(t);
                        }
                    }
                    d.begin_round(fresh.iter().copied());
                    model.open.push(fresh);
                }
                Op::EndRound => {
                    if let Some(frame) = model.open.pop() {
                        d.end_round();
                        model.merged.extend(frame);
                    }
                }
                Op::Retire(t) => {
                    d.retire(t);
                    model.merged.remove(&t);
                    for frame in &mut model.open {
                        frame.remove(&t);
                    }
                }
            }
            prop_assert!(model.disjoint(), "stable and recent overlap");
            prop_assert_eq!(d.depth(), model.open.len());
            for t in 0..POOL {
                prop_assert_eq!(d.visibility(t), model.visibility(t), "tuple {}", t);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level invariants on a small stratified fragment: two-column base
// tables `T0..T2` joined into heads `D0..D2`.

fn base_tuple() -> impl Strategy<Value = Tuple> {
    (0u8..3, 0i64..4, -2i64..5).prop_map(|(t, a, b)| {
        Tuple::new(format!("T{t}"), Value::str("C"), vec![Value::Int(a), Value::Int(b)])
    })
}

fn rule(idx: usize) -> impl Strategy<Value = Rule> {
    (0u8..3, prop::collection::vec(0u8..3, 1..3)).prop_map(move |(head_t, body_ts)| {
        let var = |v: &str| Term::Var(v.into());
        let body: Vec<Atom> = body_ts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let args = if i == 0 { vec![var("A"), var("B")] } else { vec![var("B"), var("X")] };
                Atom::new(format!("T{t}"), var("C"), args)
            })
            .collect();
        let head = Atom::new(format!("D{head_t}"), var("C"), vec![var("A"), var("B")]);
        Rule::new(format!("r{idx}"), head, body, vec![], vec![])
    })
}

fn program() -> impl Strategy<Value = Program> {
    (1usize..4).prop_flat_map(|n| {
        (0..n).map(rule).collect::<Vec<_>>().prop_map(|rules| {
            let mut p = Program::new("prop-delta");
            p.rules.extend(rules);
            p
        })
    })
}

fn snapshot(e: &Engine) -> BTreeSet<Tuple> {
    ["T0", "T1", "T2", "D0", "D1", "D2"].iter().flat_map(|t| e.tuples(t)).collect()
}

/// No round is open and every live state tuple is merged, so a later
/// step's joins see all of it.
fn at_rest(e: &Engine) -> Result<(), String> {
    let deltas = e.deltas();
    if deltas.depth() != 0 {
        return Err(format!("{} rounds outlived the step", deltas.depth()));
    }
    for (tuple, ..) in e.store().dump() {
        let tid = e.store().get(&tuple).expect("dumped tuples are live").tid;
        if deltas.visibility(tid) != Visibility::Merged {
            return Err(format!("{tuple} is live but {:?}", deltas.visibility(tid)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every insert — finished, or cut short by a derivation budget
    /// of one or two firings per step — no round is open and every live
    /// state tuple is merged, once.
    #[test]
    fn at_rest_every_live_tuple_is_stable_once(
        p in program(),
        base in prop::collection::vec(base_tuple(), 0..10),
        max_derivations in prop_oneof![Just(1u64), Just(2), Just(Options::default().max_derivations)],
    ) {
        prop_assume!(p.validate().is_ok());
        let mut e = Engine::with_options(&p, Options { max_derivations, ..Options::default() }).unwrap();
        for t in &base {
            let _ = e.insert(t.clone());
            let rest = at_rest(&e);
            prop_assert!(rest.is_ok(), "after inserting {} under max_derivations {}: {:?}", t, max_derivations, rest);
        }
    }

    /// Fixpoint idempotence: replaying the same base facts changes
    /// nothing visible (support counting absorbs the duplicates) and
    /// indexes nothing new.
    #[test]
    fn reinsertion_is_idempotent(
        p in program(),
        base in prop::collection::vec(base_tuple(), 1..10),
    ) {
        prop_assume!(p.validate().is_ok());
        let mut e = Engine::with_options(&p, Options::default()).unwrap();
        for t in &base {
            e.insert(t.clone()).unwrap();
        }
        let before = snapshot(&e);
        let index_before = e.index_entries();
        for t in &base {
            e.insert(t.clone()).unwrap();
        }
        prop_assert_eq!(snapshot(&e), before);
        prop_assert_eq!(e.index_entries(), index_before);
    }
}
