//! Property tests for the batch engine's round tracking:
//!
//! - the tracker agrees with the frame semantics it replaced — the open
//!   round as a set of tuple ids (recent), finished rounds merged into one
//!   set (stable) — through random scripts of rounds and retires, with at
//!   most one round open at a time, as in the engine;
//! - at rest (no open round) every live state tuple is merged, also after
//!   a step cut short by its derivation budget;
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
    /// Begin a round over the batch, retire these ids while it is open,
    /// then end it.
    Round(Vec<u64>, Vec<u64>),
    /// Retire an id between rounds.
    Retire(u64),
}

const POOL: u64 = 32;

fn op() -> impl Strategy<Value = Op> {
    let ids = |n| prop::collection::vec(0..POOL, 0..n);
    prop_oneof![
        3 => (ids(6), ids(3)).prop_map(|(batch, retires)| Op::Round(batch, retires)),
        2 => (0..POOL).prop_map(Op::Retire),
    ]
}

/// The frame semantics: what the open round promoted, if one is open, and
/// everything finished rounds merged.
#[derive(Default)]
struct Frames {
    open: Option<BTreeSet<u64>>,
    merged: BTreeSet<u64>,
}

impl Frames {
    fn visibility(&self, tid: u64) -> Visibility {
        match &self.open {
            Some(frame) if frame.contains(&tid) => Visibility::Current,
            _ if self.merged.contains(&tid) => Visibility::Merged,
            _ => Visibility::Absent,
        }
    }

    fn retire(&mut self, tid: u64) {
        self.merged.remove(&tid);
        if let Some(frame) = &mut self.open {
            frame.remove(&tid);
        }
    }

    /// No tuple id sits in the open round and the merged set, and the
    /// tracker reads each tuple exactly as the model does.
    fn agrees_with(&self, d: &DeltaTracker) -> Result<(), String> {
        if self.open.iter().flatten().any(|t| self.merged.contains(t)) {
            return Err("stable and recent overlap".into());
        }
        if d.is_open() != self.open.is_some() {
            return Err(format!("open: tracker {}, model {}", d.is_open(), self.open.is_some()));
        }
        match (0..POOL).find(|&t| d.visibility(t) != self.visibility(t)) {
            Some(t) => Err(format!("tuple {t}: tracker {:?}, model {:?}", d.visibility(t), self.visibility(t))),
            None => Ok(()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every step of a script the model's partitions are disjoint
    /// and the tracker reads each tuple exactly as the model does.
    #[test]
    fn stable_and_recent_stay_disjoint(ops in prop::collection::vec(op(), 0..40)) {
        let mut d = DeltaTracker::default();
        let mut model = Frames::default();
        for op in ops {
            match op {
                Op::Round(batch, retires) => {
                    // The engine promotes a tuple id once while it lives:
                    // keep only ids the model holds nowhere, once each.
                    let fresh: BTreeSet<u64> = batch.into_iter().filter(|&t| model.visibility(t) == Visibility::Absent).collect();
                    d.begin_round(fresh.iter().copied());
                    model.open = Some(fresh);
                    let agreed = model.agrees_with(&d);
                    prop_assert!(agreed.is_ok(), "round begun: {:?}", agreed);
                    for t in retires {
                        d.retire(t);
                        model.retire(t);
                        let agreed = model.agrees_with(&d);
                        prop_assert!(agreed.is_ok(), "{} retired in the round: {:?}", t, agreed);
                    }
                    d.end_round();
                    model.merged.extend(model.open.take().into_iter().flatten());
                }
                Op::Retire(t) => {
                    d.retire(t);
                    model.retire(t);
                }
            }
            let agreed = model.agrees_with(&d);
            prop_assert!(agreed.is_ok(), "{:?}", agreed);
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
    if deltas.is_open() {
        return Err("a round outlived the step".into());
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
    /// mints no new instance: every live tuple keeps its id, so the joins
    /// that read the store see what they saw.
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
        let ids = |e: &Engine| -> Vec<_> { e.store().dump().into_iter().map(|(t, ..)| e.store().get(&t).unwrap().tid).collect() };
        let ids_before = ids(&e);
        for t in &base {
            e.insert(t.clone()).unwrap();
        }
        prop_assert_eq!(snapshot(&e), before);
        prop_assert_eq!(ids(&e), ids_before);
    }
}
