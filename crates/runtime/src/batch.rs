//! The batch semi-naive driver: trigger dispatch, the round-based drain
//! loop, and the join that fires a compiled rule against the store.
//!
//! What a rule is at run time is [`crate::compiled`]'s business — slots,
//! per-delta-position column programs, the selection schedule, the column
//! prefilter. This module drives that form for the engine: once per engine
//! it groups each table's triggers by the constant their prefilters pin a
//! delta column to ([`build_dispatch`] — the same builder the joint
//! backtest dispatches its rule variants with), reading the source rules;
//! the first delta that reaches a rule compiles it against the store's
//! schemas ([`Store::catalog`](crate::store::Store::catalog)).
//!
//! A join extension reads the store itself. One that knows its table's
//! location and every effective key column before it runs is a *full-key
//! probe*: its key plan looks the one candidate up in the table's key map.
//! Any other extension scans the table and visits its matches in ascending
//! tuple-id order, the order tuples were minted in, so the join — and with
//! it the execution log — never inherits hash-map iteration order.
//!
//! At runtime, `Engine::drain_batch` runs the classic semi-naive rounds:
//! the whole pending delta opens a round ([`crate::delta`]), every delta
//! tuple fires its triggers against the store, and tuples produced
//! during the round form the next round's delta. The positional
//! discipline makes each new body combination fire once per round: with
//! the delta bound at body position `i`, an atom at position `j > i` may
//! only match tuples *merged* before the current round (by a finished
//! round, or a suspended outer one), while positions `j < i` may also
//! match the current round's — the mirror-image combination fires when
//! the later tuple is the delta. Tuples still pending (produced in the
//! round being processed) are invisible to every probe; they join as
//! next-round deltas. A drain cut short by its budget merges what it
//! produced but never fired, so later steps' joins see it.
//!
//! A firing (`Engine::fire_batch`) allocates nothing per variable and
//! nothing per join candidate: the partial matches of a join level live
//! flat in the engine's [`JoinScratch`] — `n_slots` values and one tuple
//! id per body atom each — and a candidate is matched *into* its partial
//! match's frame, copied to the next level only if it survives.

use crate::compiled::{cols_match, eq_consts, match_cols};
use crate::delta::{DeltaTracker, Visibility};
use crate::engine::{Engine, RuntimeError, StepResult};
use crate::log::{TupleId, TupleKind};
use mpr_ndlog::{Rule, Tuple, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Constant-keyed trigger dispatch for one table: which `(rule, body
/// position)` pairs a delta tuple of the table visits.
///
/// Rules whose column prefilter tests the same delta column for equality
/// with a constant are grouped by that constant: a delta tuple then
/// visits only the group matching its own value at the column, plus the
/// residual triggers, instead of scanning (and prefilter-rejecting) every
/// rule the table appears in. On programs where many rules select disjoint
/// constants from one event stream — the Fig. 10 padded policies are the
/// extreme case — this turns trigger dispatch from `O(rules)` into `O(1)`.
///
/// Only [`Value::Int`]/[`Value::Str`]/[`Value::Bool`] constants are keyed:
/// on those variants `HashMap` equality coincides with `CmpOp::Eq`, while
/// a `Wild` constant never satisfies `Eq` and would be mis-matched by the
/// map. Triggers with no usable constant stay in `rest`. The rule's own
/// prefilter still runs for every dispatched trigger, so the grouping is
/// purely an early-out and never changes which rules fire.
#[derive(Debug, Default)]
pub struct TriggerDispatch {
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
    pub fn triggers_for(&self, tuple: &Tuple) -> MergedTriggers<'_> {
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
pub struct MergedTriggers<'a> {
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

/// Is `v` a variant on which `HashMap` equality matches `CmpOp::Eq`?
fn keyable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_))
}

/// Group each table's trigger list — `(rule, body position)` pairs in
/// firing order — by the constant `rule(i)`'s column prefilter pins the
/// column most of the table's triggers constrain to (see
/// [`TriggerDispatch`]). Reads the source rules, so the rules need not be
/// compiled yet; each trigger's constants are read once.
pub fn build_dispatch<'r>(
    triggers: &HashMap<&str, Vec<(usize, usize)>>,
    rule: impl Fn(usize) -> &'r Rule,
) -> HashMap<String, Arc<TriggerDispatch>> {
    // Per table: `(trigger, column, constant)` in trigger order, and the
    // constants per column.
    let mut consts: Vec<(usize, usize, &Value)> = Vec::new();
    let mut votes: Vec<usize> = Vec::new();
    triggers
        .iter()
        .map(|(&table, list)| {
            consts.clear();
            votes.clear();
            for (k, &(ri, ai)) in list.iter().enumerate() {
                for (col, val) in eq_consts(rule(ri), ai).filter(|&(_, val)| keyable(val)) {
                    if votes.len() <= col {
                        votes.resize(col + 1, 0);
                    }
                    votes[col] += 1;
                    consts.push((k, col, val));
                }
            }
            // Most-constrained column wins; ties break to the lowest
            // column so the choice is deterministic.
            let col = (0..votes.len()).max_by_key(|&c| (votes[c], std::cmp::Reverse(c))).unwrap_or(0);
            let mut dispatch = TriggerDispatch { col, keyed: HashMap::new(), rest: Vec::new() };
            // A trigger is keyed by its first constant on the column.
            let mut on_col = consts.iter().filter(|&&(_, c, _)| c == col).peekable();
            for (k, &trigger) in list.iter().enumerate() {
                let mut first = None;
                while let Some(&(_, _, val)) = on_col.next_if(|&&(owner, ..)| owner == k) {
                    first.get_or_insert(val);
                }
                match first {
                    Some(val) => dispatch.keyed.entry(val.clone()).or_default().push(trigger),
                    None => dispatch.rest.push(trigger),
                }
            }
            (table.to_string(), Arc::new(dispatch))
        })
        .collect()
}

#[cfg(debug_assertions)]
thread_local! {
    static SCANNED_ROWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Stored rows the join extensions that are not full-key probes have
/// scanned on this thread — the work counter behind the test that the
/// curated controllers join by key. Debug builds only; release builds
/// compile the counter out.
#[cfg(debug_assertions)]
pub fn scanned_rows() -> u64 {
    SCANNED_ROWS.with(std::cell::Cell::get)
}

#[inline]
fn scan_visit() {
    #[cfg(debug_assertions)]
    SCANNED_ROWS.with(|c| c.set(c.get() + 1));
}

/// The partial matches of the join level being extended and of the next,
/// flat: per match `n_slots` frame values and one tuple id per body atom
/// (in body order — the provenance log's order). Kept from one firing to
/// the next, so in the steady state a firing allocates no buffer.
#[derive(Debug, Default)]
pub(crate) struct JoinScratch {
    frames: Vec<Option<Value>>,
    tids: Vec<TupleId>,
    next_frames: Vec<Option<Value>>,
    next_tids: Vec<TupleId>,
    key: Vec<Value>,
    /// One partial match's candidates for the extension being joined.
    cands: Vec<TupleId>,
}

impl Engine {
    /// Batch propagation: open a round over the whole pending delta, fire
    /// every trigger against the store, repeat with whatever the round
    /// produced until nothing is pending.
    pub(crate) fn drain_batch(
        &mut self,
        queue: VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        let mut pending = queue;
        // The processed batch and the next round's delta swap roles each
        // iteration, so the two buffers are allocated once per drain.
        let mut round_out: VecDeque<(TupleId, Tuple)> = VecDeque::new();
        // The step's derivation budget bounds the rounds: each after the
        // first fires only what a counted firing produced.
        let outcome = loop {
            if pending.is_empty() {
                break Ok(());
            }
            self.open_round(&pending);
            let mut fired = Ok(());
            'round: for (tid, tuple) in &pending {
                // A tuple may have died while queued (replacement/cascade).
                if self.log.kind(*tid) != TupleKind::Event && !self.log.is_live(*tid) {
                    continue;
                }
                let dispatch = match self.batch_dispatch.get(&tuple.table) {
                    Some(d) => Arc::clone(d),
                    None => continue,
                };
                // The keyed group for this delta's value at the dispatch
                // column (if any), merged with the residual triggers in
                // original `(rule, atom)` order so firing order matches
                // the plain trigger list exactly.
                for (rule_idx, atom_idx) in dispatch.triggers_for(tuple) {
                    fired = if self.rules[rule_idx].agg.is_some() {
                        self.agg_add(rule_idx, *tid, tuple, &mut round_out, result)
                    } else {
                        self.fire_batch(rule_idx, atom_idx, *tid, tuple, &mut round_out, result)
                    };
                    if fired.is_err() {
                        break 'round;
                    }
                }
            }
            self.deltas.end_round();
            std::mem::swap(&mut pending, &mut round_out);
            round_out.clear();
            if let Err(e) = fired {
                break Err(e);
            }
        };
        if outcome.is_err() {
            self.merge_unfired(&pending);
            return outcome;
        }
        // Both buffers are empty now; the one that grew is worth keeping.
        self.spare_queue =
            if pending.capacity() >= round_out.capacity() { pending } else { round_out };
        Ok(())
    }

    /// Merge `leftovers`, what a step cut short queued but never fired:
    /// they are live in the store, and merging them
    /// without firing keeps them visible to later joins, as the pipelined
    /// reference's are, and leaves no round open. (A pipelined engine
    /// never reads the tracker.)
    pub(crate) fn merge_unfired(&mut self, leftovers: &VecDeque<(TupleId, Tuple)>) {
        self.open_round(leftovers);
        self.deltas.end_round();
    }

    /// Open a round over the state tuples of `batch`. Events are transient
    /// — they fire triggers but are never probed — so they stay out.
    fn open_round(&mut self, batch: &VecDeque<(TupleId, Tuple)>) {
        let log = &self.log;
        self.deltas.begin_round(batch.iter().map(|&(tid, _)| tid).filter(|&tid| log.kind(tid) != TupleKind::Event));
    }

    /// Join `rule` with the delta bound at body position `atom_idx`,
    /// extending through store probes and scans, and fire every complete
    /// match.
    fn fire_batch(
        &mut self,
        rule_idx: usize,
        atom_idx: usize,
        delta_tid: TupleId,
        delta: &Tuple,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        let rules = Arc::clone(&self.rules);
        let source = &self.program.rules[rule_idx];
        // `check` passed at construction: every rule that reaches here
        // compiles.
        let Some(rule) = rules[rule_idx].compiled.get(source, self.store.catalog()) else {
            return Ok(());
        };
        let plan = &rule.deltas[atom_idx];
        // The column prefilter rejects on the raw tuple, before any
        // buffer is touched.
        if !plan.accepts(delta) {
            return Ok(());
        }
        let (n, b) = (rule.n_slots, plan.exts.len() + 1);
        let s = &mut self.scratch;
        s.frames.clear();
        s.frames.resize(n, None);
        if !match_cols(&plan.cols, delta, &mut s.frames)
            || !rule.sels_hold(&plan.ready, &s.frames, &mut self.funcs)
        {
            return Ok(());
        }
        s.tids.clear();
        s.tids.resize(b, 0);
        s.tids[atom_idx] = delta_tid;
        for ext in &plan.exts {
            s.next_frames.clear();
            s.next_tids.clear();
            // Positional semi-naive discipline: an atom *after* the delta
            // position must not match the current round's tuples.
            let exclude_current = ext.atom_idx > atom_idx;
            for m in 0..s.tids.len() / b {
                let frame = &mut s.frames[m * n..(m + 1) * n];
                s.cands.clear();
                match &ext.key {
                    Some(plan) => {
                        if !ext.key_values(plan, frame, &mut s.key) {
                            return Ok(());
                        }
                        s.cands.extend(self.store.probe(&ext.table, &s.key).map(|l| l.tid));
                    }
                    None => {
                        let rows = self.store.scan(&ext.table, None).inspect(|_| scan_visit());
                        s.cands.extend(rows.filter(|l| cols_match(&ext.cols, &l.tuple, frame)).map(|l| l.tid));
                        s.cands.sort_unstable();
                    }
                }
                for &ctid in &s.cands {
                    if joinable(&self.deltas, ctid, exclude_current)
                        && match_cols(&ext.cols, self.log.tuple(ctid), frame)
                        && rule.sels_hold(&ext.ready, frame, &mut self.funcs)
                    {
                        s.next_frames.extend_from_slice(frame);
                        let at = s.next_tids.len();
                        s.next_tids.extend_from_slice(&s.tids[m * b..(m + 1) * b]);
                        s.next_tids[at + ext.atom_idx] = ctid;
                    }
                }
            }
            std::mem::swap(&mut s.frames, &mut s.next_frames);
            std::mem::swap(&mut s.tids, &mut s.next_tids);
            if s.tids.is_empty() {
                return Ok(());
            }
        }
        // Every match is collected before the first fires (a firing may
        // evict what a later match joined), and firing needs the whole
        // engine: the buffers leave it meanwhile. A nested fixpoint finds,
        // and leaves, empty ones; an error drops them.
        let mut s = std::mem::take(&mut self.scratch);
        for m in 0..s.tids.len() / b {
            self.count_derivation(result)?;
            if let Some(head) = rule.finish(&mut s.frames[m * n..(m + 1) * n], &mut self.funcs) {
                let body_tids = &s.tids[m * b..(m + 1) * b];
                self.emit_head(rule_idx, head, body_tids, delta_tid, queue, result)?;
            }
        }
        self.scratch = s;
        Ok(())
    }
}

/// The semi-naive visibility predicate: a candidate joins when an earlier
/// (or a suspended outer) round merged it, or the current round did and
/// its position comes before the delta slot. Pending tuples never join;
/// they are next-round deltas.
fn joinable(deltas: &DeltaTracker, tid: TupleId, exclude_current: bool) -> bool {
    match deltas.visibility(tid) {
        Visibility::Merged => true,
        Visibility::Current => !exclude_current,
        Visibility::Absent => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EvalStrategy, Options};
    use mpr_ndlog::parse_program;

    fn batch_engine(src: &str) -> Engine {
        let p = parse_program("t", src).unwrap();
        Engine::with_options(
            &p,
            Options { strategy: EvalStrategy::Batch, ..Options::default() },
        )
        .unwrap()
    }

    /// The key plans of rule `ri`, `[delta position][extension]`, if it
    /// is compiled.
    fn key_plans(e: &Engine, ri: usize) -> Option<Vec<Vec<Option<Vec<usize>>>>> {
        let lazy = &e.rules[ri].compiled;
        let rule = lazy.is_compiled().then(|| lazy.get(&e.program.rules[ri], e.store.catalog()))??;
        Some(rule.deltas.iter().map(|p| p.exts.iter().map(|x| x.key.clone()).collect()).collect())
    }

    #[test]
    fn rules_compile_at_their_first_delta_with_their_key_plans() {
        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            materialize(Other, infinity, 1, keys(0)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
            r3 Reach(@C,X,X) :- Other(@C,X), Link(@C,X,X).
        ";
        let mut e = batch_engine(src);
        assert_eq!(e.strategy(), EvalStrategy::Batch);
        assert!((0..3).all(|ri| key_plans(&e, ri).is_none()), "nothing is compiled before a delta reaches it");
        e.insert(Tuple::new("Link", Value::str("C"), vec![Value::Int(1), Value::Int(2)])).unwrap();
        // Every rule `Link` triggers compiled. r1 has a single-atom body (no
        // extensions). r2's extensions each know one of two key columns:
        // both scan. r3's Link-delta knows Other's whole key (loc, arg0),
        // its Other-delta Link's (loc, arg0, arg1).
        assert_eq!(key_plans(&e, 0), Some(vec![vec![]]));
        assert_eq!(key_plans(&e, 1), Some(vec![vec![None], vec![None]]));
        assert_eq!(key_plans(&e, 2), Some(vec![vec![Some(vec![0, 1, 2])], vec![Some(vec![0, 1])]]));
        assert_eq!(e.tuples("Reach").len(), 1);
    }

    #[test]
    fn a_rule_no_delta_reaches_is_never_compiled() {
        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            materialize(Other, infinity, 1, keys(0)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,X) :- Other(@C,X), Never(@C,X).
        ";
        let mut e = batch_engine(src);
        e.insert(Tuple::new("Link", Value::str("C"), vec![Value::Int(1), Value::Int(2)])).unwrap();
        let compiled: Vec<bool> = e.rules.iter().map(|r| r.compiled.is_compiled()).collect();
        assert_eq!(compiled, [true, false], "no Other and no Never: r2 is never reached");
    }

    #[test]
    fn dead_tuples_stop_joining() {
        // r1's extensions are full-key probes; r2's C-delta scans A.
        let src = r"
            materialize(A, infinity, 2, keys(0)).
            materialize(B, infinity, 1, keys(0)).
            materialize(C, infinity, 1, keys(0)).
            materialize(Out, infinity, 2, keys(0,1)).
            materialize(Out2, infinity, 2, keys(0,1)).
            r1 Out(@N,X,Y) :- B(@N,X), A(@N,X,Y).
            r2 Out2(@N,X,Y) :- C(@N,Y), A(@N,X,Y).
        ";
        let mut e = batch_engine(src);
        let t = |table: &str, args: &[i64]| Tuple::new(table, Value::Int(1), args.iter().map(|&a| Value::Int(a)).collect());
        for tuple in [t("A", &[10, 5]), t("B", &[10]), t("C", &[5])] {
            e.insert(tuple).unwrap();
        }
        assert!(e.contains(&t("Out", &[10, 5])) && e.contains(&t("Out2", &[10, 5])));
        assert_eq!(key_plans(&e, 1), Some(vec![vec![None], vec![Some(vec![0, 1])]]));
        // A(10,6) replaces A(10,5): the old instance's joins are retracted,
        // and new deltas meeting its values find nothing.
        e.insert(t("A", &[10, 6])).unwrap();
        assert!(!e.contains(&t("Out", &[10, 5])) && !e.contains(&t("Out2", &[10, 5])));
        assert!(e.contains(&t("Out", &[10, 6])));
        e.delete(&t("C", &[5])).unwrap();
        e.insert(t("C", &[5])).unwrap();
        assert!(e.tuples("Out2").is_empty(), "the scan finds no dead A(10,5)");
        // A deleted tuple: the full-key probe finds nothing either.
        e.delete(&t("A", &[10, 6])).unwrap();
        e.delete(&t("B", &[10])).unwrap();
        e.insert(t("B", &[10])).unwrap();
        assert!(e.tuples("Out").is_empty());
    }

    #[test]
    fn a_partial_key_join_scans_in_tuple_id_order() {
        // `Last` keeps the last firing per X, so the order the scan visits
        // T's matches in is the fixpoint: ascending tuple id, in which a
        // replaced T row comes after the rows it was minted after.
        let src = r"
            materialize(Ev, event, 1, keys()).
            materialize(T, infinity, 3, keys(0,1)).
            materialize(Last, infinity, 2, keys(0)).
            r1 Last(@C,X,Z) :- Ev(@C,X), T(@C,X,Y,Z).
        ";
        let mut e = batch_engine(src);
        let t = |table: &str, args: &[i64]| Tuple::new(table, Value::Int(1), args.iter().map(|&a| Value::Int(a)).collect());
        for (y, z) in [(30, 1), (10, 2), (20, 3), (30, 4)] {
            e.insert(t("T", &[7, y, z])).unwrap();
        }
        e.insert(t("T", &[8, 10, 9])).unwrap();
        #[cfg(debug_assertions)]
        let before = scanned_rows();
        let step = e.insert(t("Ev", &[7])).unwrap();
        #[cfg(debug_assertions)]
        assert_eq!(scanned_rows() - before, 4, "the scan reads every stored T row");
        assert_eq!(key_plans(&e, 0), Some(vec![vec![None], vec![None]]), "T scans, and so does Ev");
        let last: Vec<&Tuple> = step.appeared.iter().filter(|a| a.table == "Last").collect();
        assert_eq!(last, [&t("Last", &[7, 2]), &t("Last", &[7, 3]), &t("Last", &[7, 4])]);
        assert_eq!(e.tuples("Last"), [t("Last", &[7, 4])]);
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

    /// At rest no round is open and every live state tuple is merged, so
    /// a later step's joins see all of it.
    fn at_rest(e: &Engine) -> Result<(), String> {
        if e.deltas.depth() != 0 {
            return Err(format!("{} rounds outlived the step", e.deltas.depth()));
        }
        for (tuple, ..) in e.store.dump() {
            let tid = e.store.get(&tuple).expect("dumped tuples are live").tid;
            if e.deltas.visibility(tid) != Visibility::Merged {
                return Err(format!("{tuple} is live but {:?}", e.deltas.visibility(tid)));
            }
        }
        Ok(())
    }

    #[test]
    fn a_step_cut_short_leaves_its_tuples_joinable() {
        // A `Link` fires r1 (the join), r2, then r3: under a budget of one
        // firing per step, r3's cuts the step short.
        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            materialize(Seen, infinity, 1, keys(0)).
            r1 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z).
            r2 Reach(@C,X,Y) :- Link(@C,X,Y).
            r3 Seen(@C,X) :- Link(@C,X,Y).
        ";
        let p = parse_program("t", src).unwrap();
        let mut e = Engine::with_options(&p, Options { max_derivations: 1, ..Options::default() }).unwrap();
        let c = Value::str("C");
        let tuple = |t: &str, a: i64, b: i64| Tuple::new(t, c.clone(), vec![Value::Int(a), Value::Int(b)]);
        // r2 derives Reach(1,2), which never fires as a delta.
        assert_eq!(e.insert(tuple("Link", 1, 2)), Err(RuntimeError::DerivationLimit(1)));
        assert!(e.contains(&tuple("Reach", 1, 2)));
        at_rest(&e).unwrap();
        // The next step's first firing is r1 joining Reach(1,2) at body
        // position 0.
        assert_eq!(e.insert(tuple("Link", 2, 3)), Err(RuntimeError::DerivationLimit(1)));
        assert_eq!(e.tuples("Reach"), [tuple("Reach", 1, 2), tuple("Reach", 1, 3)]);
        at_rest(&e).unwrap();
    }

    #[test]
    fn a_replacement_whose_cascade_is_cut_short_stays_joinable() {
        // Counts of counts: replacing a `Src` tuple re-emits a `Cnt`,
        // whose replacement re-emits a `Tot`, whose consequences take
        // two more firings.
        let src = r"
            materialize(Src, infinity, 2, keys(0)).
            materialize(Other, infinity, 2, keys(0,1)).
            materialize(Cnt, infinity, 2, keys(0)).
            materialize(Tot, infinity, 2, keys(0)).
            materialize(Out, infinity, 2, keys(0,1)).
            materialize(Fin, infinity, 2, keys(0,1)).
            materialize(J, infinity, 2, keys(0,1)).
            c1 Cnt(@N,Y,a_count<X>) :- Src(@N,X,Y).
            c2 Tot(@N,C,a_count<Y>) :- Cnt(@N,Y,C).
            o1 Out(@N,C,T) :- Tot(@N,C,T).
            o2 Fin(@N,C,T) :- Out(@N,C,T).
            j1 J(@N,X,Z) :- Src(@N,X,Y), Other(@N,Y,Z).
        ";
        let p = parse_program("t", src).unwrap();
        let mut e = Engine::with_options(&p, Options { max_derivations: 3, ..Options::default() }).unwrap();
        let tuple = |t: &str, a: i64, b: i64| Tuple::new(t, Value::Int(1), vec![Value::Int(a), Value::Int(b)]);
        for (x, y) in [(1, 7), (2, 7), (3, 9), (4, 9)] {
            let _ = e.insert(tuple("Src", x, y));
        }
        assert!(e.contains(&tuple("Tot", 2, 2)), "Cnt(7,2) and Cnt(9,2)");
        // Src(1,8) replaces Src(1,7): Cnt(7,1) replaces Cnt(7,2) (firing
        // 1), Tot(2,1) replaces Tot(2,2) (2), Out(2,1) follows (3), and
        // Fin(2,1) would be the fourth. The insert fails inside both
        // replacements' cascades, before either new instance was fired.
        assert_eq!(e.insert(tuple("Src", 1, 8)), Err(RuntimeError::DerivationLimit(3)));
        assert!(e.contains(&tuple("Src", 1, 8)) && e.contains(&tuple("Cnt", 7, 1)));
        assert!(!e.contains(&tuple("Fin", 2, 1)));
        at_rest(&e).unwrap();
        e.insert(tuple("Other", 8, 9)).unwrap();
        assert!(e.contains(&tuple("J", 1, 9)), "Src(1,8) joins at body position 0");
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
        at_rest(&e).unwrap();
    }
}
