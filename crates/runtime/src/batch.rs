//! Batch semi-naive join plans and the round-based drain loop.
//!
//! Compiled once per engine ([`build_plans`]): for every non-aggregate rule
//! and every body position the rule can be triggered at (the *delta*
//! position), a [`DeltaPlan`] lists the remaining atoms in join order
//! together with the keyed index ([`crate::index`]) each one probes and the
//! terms that produce the probe key from the environment bound so far.
//!
//! At runtime, `Engine::drain_batch` runs the classic semi-naive rounds:
//! the whole pending delta becomes the *recent* partition
//! ([`crate::delta`]), every delta tuple fires its triggers against index
//! probes, and tuples produced during the round form the next round's
//! delta. The positional discipline makes each new body combination fire
//! once per round: with the delta bound at body position `i`, an atom at
//! position `j > i` may only match tuples *outside the current round's
//! recent partition* (stable tuples, or a suspended outer round's recent
//! ones), while positions `j < i` may match anything already merged —
//! the mirror-image combination fires when the later tuple is the delta.
//! Tuples still pending (produced in the round being processed) are
//! invisible to every probe; they join as next-round deltas.

use crate::delta::{DeltaTracker, Visibility};
use crate::engine::{
    match_atom, resolve_term, CompiledRule, Engine, RuntimeError, StepResult,
};
use crate::index::{IndexRegistry, IndexSpec};
use crate::log::{TupleId, TupleKind};
use mpr_ndlog::ast::{CmpOp, Expr, Term};
use mpr_ndlog::eval::Env;
use mpr_ndlog::{Tuple, Value};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// One join extension: probe `index_id` with the key built from
/// `key_terms`, then unify the candidates against body atom `atom_idx`.
#[derive(Debug, Clone)]
pub(crate) struct AtomPlan {
    /// Body position this extension fills.
    pub(crate) atom_idx: usize,
    /// Keyed index to probe (registered in the engine's registry).
    pub(crate) index_id: usize,
    /// Terms producing the probe key, one per index column; each is a
    /// constant or a variable bound before this extension runs.
    pub(crate) key_terms: Vec<Term>,
    /// Positional semi-naive discipline: this atom sits *after* the delta
    /// position, so it must not match the current round's recent tuples.
    pub(crate) exclude_recent: bool,
}

/// Join order for one (rule, delta position) pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaPlan {
    /// Constant-equality selections over the delta atom's own columns,
    /// pushed down into the dispatch: `(column, constant)` pairs a delta
    /// tuple must satisfy or the rule cannot fire from this position.
    /// Column `0` is the location, `i + 1` payload argument `i`. Purely an
    /// early-out — the selection still evaluates normally afterwards.
    pub(crate) prefilter: Vec<(usize, Value)>,
    /// Extensions in execution order (body order, skipping the delta slot).
    pub(crate) atoms: Vec<AtomPlan>,
}

/// All delta plans of one rule, indexed by delta body position.
///
/// Aggregate rules keep an empty plan list — their single body atom feeds
/// the incremental aggregate groups instead of a join pipeline.
#[derive(Debug, Clone, Default)]
pub struct RulePlan {
    pub(crate) delta_plans: Vec<DeltaPlan>,
}

/// Constant-keyed trigger dispatch for one table (batch strategy only).
///
/// Rules whose delta plan pushes an `Eq`-with-constant selection onto the
/// same delta column are grouped by that constant: a delta tuple then
/// visits only the group matching its own value at the column, plus the
/// residual triggers, instead of scanning (and prefilter-rejecting) every
/// rule the table appears in. On programs where many rules select disjoint
/// constants from one event stream — the Fig. 10 padded policies are the
/// extreme case — this turns trigger dispatch from `O(rules)` into `O(1)`.
///
/// Only [`Value::Int`]/[`Value::Str`]/[`Value::Bool`] constants are keyed:
/// on those variants `HashMap` equality coincides with [`CmpOp::Eq`], while
/// a `Wild` constant never satisfies `Eq` and would be mis-matched by the
/// map. Triggers with no usable constant stay in `rest`. The in-plan
/// prefilter still runs for every dispatched trigger, so the grouping is
/// purely an early-out and never changes which rules fire.
#[derive(Debug, Default)]
pub(crate) struct TriggerDispatch {
    /// Delta column the keyed groups test (`0` = location, `i + 1` =
    /// payload argument `i`).
    pub(crate) col: usize,
    /// Triggers keyed by their prefilter constant on `col`, each group in
    /// original trigger order.
    pub(crate) keyed: HashMap<Value, Vec<(usize, usize)>>,
    /// Triggers without a keyable constant on `col`, in original order.
    pub(crate) rest: Vec<(usize, usize)>,
}

impl TriggerDispatch {
    /// The triggers `tuple` visits, in the exact order the plain trigger
    /// list would produce: the keyed group for the tuple's value at the
    /// dispatch column merged with the residual triggers by original
    /// `(rule, atom)` position.
    pub(crate) fn triggers_for(&self, tuple: &Tuple) -> MergedTriggers<'_> {
        let keyed: &[(usize, usize)] = if self.keyed.is_empty() {
            &[]
        } else {
            let got = if self.col == 0 {
                Some(&tuple.loc)
            } else {
                tuple.args.get(self.col - 1)
            };
            got.and_then(|v| self.keyed.get(v)).map_or(&[], Vec::as_slice)
        };
        MergedTriggers { keyed, rest: &self.rest, i: 0, j: 0 }
    }
}

/// Allocation-free two-pointer merge of a keyed trigger group with the
/// residual triggers (both already sorted by `(rule, atom)`).
pub(crate) struct MergedTriggers<'a> {
    keyed: &'a [(usize, usize)],
    rest: &'a [(usize, usize)],
    i: usize,
    j: usize,
}

impl Iterator for MergedTriggers<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let from_keyed = match (self.keyed.get(self.i), self.rest.get(self.j)) {
            (Some(a), Some(b)) => a < b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        Some(if from_keyed {
            self.i += 1;
            self.keyed[self.i - 1]
        } else {
            self.j += 1;
            self.rest[self.j - 1]
        })
    }
}

/// Is `v` a variant on which `HashMap` equality matches [`CmpOp::Eq`]?
fn keyable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_))
}

/// Group each table's trigger list by the prefilter constant on the
/// column most of its triggers constrain (see [`TriggerDispatch`]).
pub(crate) fn build_dispatch(
    triggers: &HashMap<String, Vec<(usize, usize)>>,
    plans: &[RulePlan],
) -> HashMap<String, std::sync::Arc<TriggerDispatch>> {
    let prefilter = |ri: usize, ai: usize| -> &[(usize, Value)] {
        // Aggregate rules compile to an empty plan list; their triggers
        // always dispatch (they land in `rest`).
        plans[ri].delta_plans.get(ai).map_or(&[], |p| p.prefilter.as_slice())
    };
    triggers
        .iter()
        .map(|(table, list)| {
            let mut votes: HashMap<usize, usize> = HashMap::new();
            for &(ri, ai) in list {
                for &(col, ref val) in prefilter(ri, ai) {
                    if keyable(val) {
                        *votes.entry(col).or_default() += 1;
                    }
                }
            }
            // Most-constrained column wins; ties break to the lowest
            // column so the choice is deterministic.
            let col = votes
                .iter()
                .max_by_key(|&(&c, &n)| (n, std::cmp::Reverse(c)))
                .map(|(&c, _)| c);
            let mut dispatch = TriggerDispatch {
                col: col.unwrap_or(0),
                keyed: HashMap::new(),
                rest: Vec::new(),
            };
            for &(ri, ai) in list {
                let keyed_const = col.and_then(|col| {
                    prefilter(ri, ai)
                        .iter()
                        .find(|&&(c, ref v)| c == col && keyable(v))
                });
                match keyed_const {
                    Some(&(_, ref v)) => {
                        dispatch.keyed.entry(v.clone()).or_default().push((ri, ai));
                    }
                    None => dispatch.rest.push((ri, ai)),
                }
            }
            (table.clone(), std::sync::Arc::new(dispatch))
        })
        .collect()
}

/// Compile the delta plans for `rules`, registering every index shape the
/// plans probe in `registry`.
pub(crate) fn build_plans(rules: &[CompiledRule], registry: &mut IndexRegistry) -> Vec<RulePlan> {
    rules
        .iter()
        .map(|cr| {
            if cr.agg.is_some() {
                return RulePlan::default();
            }
            let body = &cr.rule.body;
            // `Var == Const` selections, for pushdown onto delta columns.
            let const_sels: Vec<(&String, &Value)> = cr
                .rule
                .sels
                .iter()
                .filter(|s| s.op == CmpOp::Eq)
                .filter_map(|s| match (&s.lhs, &s.rhs) {
                    (Expr::Var(v), Expr::Const(c)) | (Expr::Const(c), Expr::Var(v)) => {
                        Some((v, c))
                    }
                    _ => None,
                })
                .collect();
            let delta_plans = (0..body.len())
                .map(|d| {
                    let prefilter = const_sels
                        .iter()
                        .filter_map(|&(v, c)| {
                            let col = if body[d].loc == Term::Var(v.clone()) {
                                Some(0)
                            } else {
                                body[d]
                                    .args
                                    .iter()
                                    .position(|t| *t == Term::Var(v.clone()))
                                    .map(|i| i + 1)
                            };
                            col.map(|col| (col, c.clone()))
                        })
                        .collect();
                    let mut bound: BTreeSet<String> = body[d].vars();
                    let mut atoms = Vec::with_capacity(body.len().saturating_sub(1));
                    for (ai, atom) in body.iter().enumerate() {
                        if ai == d {
                            continue;
                        }
                        let positions = atom.bound_positions(&bound);
                        let cols = positions.iter().map(|&(c, _)| c).collect();
                        let key_terms =
                            positions.iter().map(|&(_, t)| t.clone()).collect();
                        let index_id = registry
                            .register(IndexSpec { table: atom.table.clone(), cols });
                        atoms.push(AtomPlan {
                            atom_idx: ai,
                            index_id,
                            key_terms,
                            exclude_recent: ai > d,
                        });
                        bound.extend(atom.vars());
                    }
                    DeltaPlan { prefilter, atoms }
                })
                .collect();
            RulePlan { delta_plans }
        })
        .collect()
}

impl Engine {
    /// Batch propagation: promote the whole pending delta to a round's
    /// recent partition, fire every trigger through index probes, repeat
    /// with whatever the round produced until nothing is pending.
    pub(crate) fn drain_batch(
        &mut self,
        queue: VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        let mut pending = queue;
        // The processed batch and the next round's delta swap roles each
        // iteration, so the two buffers are allocated once per drain.
        let mut round_out: VecDeque<(TupleId, Tuple)> = VecDeque::new();
        // Fixpoint budgets: a round cap and an optional wall-clock
        // deadline, both surfaced as typed errors rather than spinning.
        // Checked at round boundaries only (outside any frame), so an
        // error here leaves the tracker balanced and the engine usable.
        let deadline = self
            .opts
            .time_budget
            .map(|b| (std::time::Instant::now() + b, b.as_millis() as u64));
        let mut rounds: u64 = 0;
        while !pending.is_empty() {
            rounds += 1;
            if rounds > self.opts.max_rounds {
                return Err(RuntimeError::RoundLimit(self.opts.max_rounds));
            }
            if let Some((d, budget_ms)) = deadline {
                // `>=` so a zero budget deterministically fails on the
                // first round regardless of clock granularity.
                if std::time::Instant::now() >= d {
                    return Err(RuntimeError::TimeBudget { budget_ms });
                }
            }
            // Events are transient — they fire triggers but are never
            // probed, so they stay out of the partitions.
            {
                let log = &self.log;
                self.deltas.begin_round(
                    pending
                        .iter()
                        .filter(|(tid, _)| log.kind(*tid) != TupleKind::Event)
                        .map(|(tid, t)| (*tid, t.table.as_str())),
                );
            }
            let mut outcome = Ok(());
            'round: for (tid, tuple) in &pending {
                // A tuple may have died while queued (replacement/cascade).
                if self.log.kind(*tid) != TupleKind::Event && !self.log.is_live(*tid) {
                    continue;
                }
                let dispatch = match self.batch_dispatch.get(&tuple.table) {
                    Some(d) => std::sync::Arc::clone(d),
                    None => continue,
                };
                // The keyed group for this delta's value at the dispatch
                // column (if any), merged with the residual triggers in
                // original `(rule, atom)` order so firing order matches
                // the plain trigger list exactly.
                for (rule_idx, atom_idx) in dispatch.triggers_for(tuple) {
                    let fired = if self.rules[rule_idx].agg.is_some() {
                        self.agg_add(rule_idx, *tid, tuple, &mut round_out, result)
                    } else {
                        self.fire_batch(rule_idx, atom_idx, *tid, tuple, &mut round_out, result)
                    };
                    if let Err(e) = fired {
                        outcome = Err(e);
                        break 'round;
                    }
                }
            }
            // Balance the frame stack even on error so the engine stays
            // usable for inspection after a derivation-limit abort.
            self.deltas.end_round();
            outcome?;
            // Round boundary: push this round's journaled store mutations
            // to the OS, bounding what a mid-fixpoint crash can lose to at
            // most one round of buffered ops.
            self.store.journal_flush();
            std::mem::swap(&mut pending, &mut round_out);
            round_out.clear();
        }
        Ok(())
    }

    /// Join `rule` with the delta bound at body position `atom_idx`,
    /// extending through keyed index probes.
    fn fire_batch(
        &mut self,
        rule_idx: usize,
        atom_idx: usize,
        delta_tid: TupleId,
        delta: &Tuple,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        // The plans live behind an `Arc` so the firing can keep its plan
        // across the `&mut self` join calls (and any nested fixpoint those
        // trigger) without cloning the plan per delta tuple.
        let plans = std::sync::Arc::clone(&self.plans);
        let plan = &plans[rule_idx].delta_plans[atom_idx];
        // Pushed-down constant selections: reject the delta before paying
        // for unification. `CmpOp::Eq` (not `PartialEq`) keeps wildcard
        // semantics identical to the ordinary selection pass below.
        for &(col, ref want) in &plan.prefilter {
            let got = if col == 0 { Some(&delta.loc) } else { delta.args.get(col - 1) };
            match got {
                Some(v) if CmpOp::Eq.eval(v, want) => {}
                _ => return Ok(()),
            }
        }
        let cr = &self.rules[rule_idx];
        let Some(env0) = match_atom(&cr.rule.body[atom_idx], delta, &Env::new()) else {
            return Ok(());
        };
        let n_sels = cr.rule.sels.len();
        let mut sel_done = vec![false; n_sels];
        if !self.eval_ready_sels(rule_idx, &env0, &mut sel_done) {
            return Ok(());
        }
        let mut matches: Vec<(Env, Vec<TupleId>, Vec<bool>)> =
            vec![(env0, vec![delta_tid], sel_done)];
        for ap in &plan.atoms {
            let mut next: Vec<(Env, Vec<TupleId>, Vec<bool>)> = Vec::new();
            for (env, tids, sels) in &matches {
                let mut key = Vec::with_capacity(ap.key_terms.len());
                for t in &ap.key_terms {
                    match resolve_term(t, env) {
                        Some(v) => key.push(v),
                        // Unreachable by construction (every key term is a
                        // constant or a bound variable); stay total.
                        None => return Ok(()),
                    }
                }
                // Ids only: the probe borrows the index and the visibility
                // test the tracker, while unification below needs the
                // engine mutably.
                let candidates: Vec<TupleId> = self
                    .indexes
                    .probe(ap.index_id, &key)
                    .filter(|&tid| joinable(&self.deltas, tid, ap.exclude_recent))
                    .collect();
                for ctid in candidates {
                    let env2 = {
                        let ctuple = self.log.tuple(ctid);
                        let atom = &self.rules[rule_idx].rule.body[ap.atom_idx];
                        match_atom(atom, ctuple, env)
                    };
                    let Some(env2) = env2 else { continue };
                    let mut sels2 = sels.clone();
                    if !self.eval_ready_sels(rule_idx, &env2, &mut sels2) {
                        continue;
                    }
                    let mut tids2 = tids.clone();
                    tids2.push(ctid);
                    next.push((env2, tids2, sels2));
                }
            }
            matches = next;
            if matches.is_empty() {
                return Ok(());
            }
        }
        // Reorder body tids into body-atom order for the provenance log.
        for (env, tids, sels) in matches {
            let mut body_tids = vec![0; tids.len()];
            body_tids[atom_idx] = tids[0];
            for (slot, ap) in plan.atoms.iter().enumerate() {
                body_tids[ap.atom_idx] = tids[slot + 1];
            }
            self.finish_firing(rule_idx, env, sels, body_tids, delta, queue, result)?;
        }
        Ok(())
    }
}

/// The semi-naive visibility predicate: a candidate joins when it is
/// already merged (stable), or recent but — for positions after the delta
/// slot — not in the innermost round. Pending tuples (in no partition)
/// never join; they are next-round deltas.
fn joinable(deltas: &DeltaTracker, tid: TupleId, exclude_recent: bool) -> bool {
    match deltas.visibility(tid) {
        Visibility::Stable | Visibility::RecentOuter => true,
        Visibility::RecentInnermost => !exclude_recent,
        Visibility::Absent => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EvalStrategy, Options};
    use mpr_ndlog::{parse_program, Value};

    fn batch_engine(src: &str) -> Engine {
        let p = parse_program("t", src).unwrap();
        Engine::with_options(
            &p,
            Options { strategy: EvalStrategy::Batch, ..Options::default() },
        )
        .unwrap()
    }

    #[test]
    fn plans_register_one_index_per_extension_shape() {
        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
        ";
        let e = batch_engine(src);
        // r1 has a single-atom body (no extensions); r2 contributes two
        // delta positions: Reach-delta probes Link on (loc, arg0) and
        // Link-delta probes Reach on (loc, arg1).
        assert_eq!(e.strategy(), EvalStrategy::Batch);
        assert!(e.index_entries() == 0, "no tuples inserted yet");
    }

    #[test]
    fn indexes_track_live_tuples_through_cascades() {
        let src = r"
            materialize(A, infinity, 1, keys(0)).
            materialize(B, infinity, 1, keys(0)).
            materialize(Out, infinity, 2, keys(0,1)).
            r1 Out(@N,X,Y) :- A(@N,X), B(@N,Y).
        ";
        let mut e = batch_engine(src);
        let v = |i: i64| Value::Int(i);
        e.insert(Tuple::new("A", v(1), vec![v(10)])).unwrap();
        e.insert(Tuple::new("B", v(1), vec![v(20)])).unwrap();
        assert!(e.contains(&Tuple::new("Out", v(1), vec![v(10), v(20)])));
        let populated = e.index_entries();
        assert!(populated > 0, "live tuples must be indexed");
        e.delete(&Tuple::new("A", v(1), vec![v(10)])).unwrap();
        assert!(!e.contains(&Tuple::new("Out", v(1), vec![v(10), v(20)])));
        assert!(
            e.index_entries() < populated,
            "killed tuples must leave the indexes"
        );
    }

    #[test]
    fn dispatch_groups_triggers_by_pushed_down_constant() {
        let src = r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Hdr == 25, Prt := 9.
        ";
        let e = batch_engine(src);
        let d = e.batch_dispatch.get("PacketIn").expect("PacketIn dispatches");
        // All three rules constrain Hdr (arg 1 → column 2); only r1/r2
        // constrain Swi — so Hdr wins the vote and every trigger is keyed.
        assert_eq!(d.col, 2);
        assert!(d.rest.is_empty());
        assert_eq!(d.keyed.get(&Value::Int(80)).map(Vec::len), Some(2));
        assert_eq!(d.keyed.get(&Value::Int(25)).map(Vec::len), Some(1));
        // A delta carrying Hdr = 80 visits two triggers; Hdr = 99 none.
        let mut e = e;
        let v = |i: i64| Value::Int(i);
        e.insert(Tuple::new("PacketIn", v(9), vec![v(1), v(80)])).unwrap();
        assert_eq!(e.tuples("FlowTable").len(), 1);
        e.insert(Tuple::new("PacketIn", v(9), vec![v(7), v(99)])).unwrap();
        assert_eq!(e.tuples("FlowTable").len(), 1, "no rule matches Hdr 99");
        e.insert(Tuple::new("PacketIn", v(9), vec![v(7), v(25)])).unwrap();
        assert_eq!(e.tuples("FlowTable").len(), 2, "r3 has no Swi constraint");
    }

    #[test]
    fn rounds_settle_into_stable_partitions() {
        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
        ";
        let mut e = batch_engine(src);
        let c = Value::str("C");
        let v = |i: i64| Value::Int(i);
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            e.insert(Tuple::new("Link", c.clone(), vec![v(a), v(b)])).unwrap();
        }
        assert_eq!(e.tuples("Reach").len(), 6);
        let stats = e.delta_stats();
        assert!(stats.iter().all(|s| s.recent == 0), "no round is active");
        let reach = stats.iter().find(|s| s.table == "Reach").unwrap();
        assert_eq!(reach.stable, 6);
    }
}
