//! The batch semi-naive driver: trigger dispatch, the round-based drain
//! loop, and the join that fires a compiled rule through keyed indexes.
//!
//! What a rule is at run time is [`crate::compiled`]'s business — slots,
//! per-delta-position column programs, the selection schedule, the column
//! prefilter. This module drives that form for the engine: once per engine
//! it groups each table's triggers by the constant their prefilters pin a
//! delta column to ([`build_dispatch`] — the same builder the joint
//! backtest dispatches its rule variants with), reading the source rules;
//! the first delta that reaches a rule compiles it and registers, for every
//! join extension of every plan, the keyed index ([`crate::index`]) over
//! the columns the extension knows before it runs, filled from the store
//! if it is new ([`probed_indexes`]).
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
//!
//! A firing (`Engine::fire_batch`) allocates nothing per variable and
//! nothing per join candidate: the partial matches of a join level live
//! flat in the engine's [`JoinScratch`] — `n_slots` values and one tuple
//! id per body atom each — and a candidate is matched *into* its partial
//! match's frame, copied to the next level only if it survives.

use crate::compiled::{eq_consts, match_cols, CompiledRule};
use crate::delta::{DeltaTracker, Visibility};
use crate::engine::{Engine, RuntimeError, StepResult};
use crate::index::{IndexRegistry, IndexSpec};
use crate::log::{TupleId, TupleKind};
use crate::store::Store;
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

/// The keyed index each join extension of `rule` probes, `[delta position]
/// [extension]`: registered over the columns the extension knows before it
/// runs and, if new, filled from the store's live tuples of its table. In
/// debug builds every index over that table is then checked against them.
pub(crate) fn probed_indexes(rule: &CompiledRule, registry: &mut IndexRegistry, store: &Store) -> Vec<Vec<usize>> {
    let live = |table: &str| store.scan(table, None).map(|l| (l.tid, &l.tuple));
    let mut register = |table: &str, cols: Vec<usize>| {
        let id = registry.register(IndexSpec { table: table.to_string(), cols }, live(table));
        #[cfg(debug_assertions)]
        assert!(registry.holds_exactly(table, || live(table)), "an index over {table} is not its live tuples");
        id
    };
    rule.deltas
        .iter()
        .map(|plan| plan.exts.iter().map(|ext| register(&ext.table, ext.probe_cols().collect())).collect())
        .collect()
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
        // The round cap, surfaced as a typed error rather than spinning.
        // Checked at round boundaries only (outside any frame), so an
        // error here leaves the tracker balanced and the engine usable.
        let mut rounds: u64 = 0;
        while !pending.is_empty() {
            rounds += 1;
            if rounds > self.opts.max_rounds {
                return Err(RuntimeError::RoundLimit(self.opts.max_rounds));
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
                    Some(d) => Arc::clone(d),
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
            std::mem::swap(&mut pending, &mut round_out);
            round_out.clear();
        }
        // Both buffers are empty now; the one that grew is worth keeping.
        self.spare_queue =
            if pending.capacity() >= round_out.capacity() { pending } else { round_out };
        Ok(())
    }

    /// Join `rule` with the delta bound at body position `atom_idx`,
    /// extending through keyed index probes, and fire every complete match.
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
        let (indexes, store) = (&mut self.indexes, &self.store);
        let source = &self.program.rules[rule_idx];
        let compiled = rules[rule_idx].compiled.get(source, &self.program.catalog, |rule| {
            probed_indexes(rule, indexes, store)
        });
        // `check` passed at construction: every rule that reaches here
        // compiles.
        let Some((rule, index_ids)) = compiled else {
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
        for (ext, &index_id) in plan.exts.iter().zip(&index_ids[atom_idx]) {
            s.next_frames.clear();
            s.next_tids.clear();
            // Positional semi-naive discipline: an atom *after* the delta
            // position must not match the current round's recent tuples.
            let exclude_recent = ext.atom_idx > atom_idx;
            for m in 0..s.tids.len() / b {
                let frame = &mut s.frames[m * n..(m + 1) * n];
                if !ext.probe_key(frame, &mut s.key) {
                    return Ok(());
                }
                for ctid in self.indexes.probe(index_id, &s.key) {
                    if joinable(&self.deltas, ctid, exclude_recent)
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
        // They register when a delta first reaches their rule, filled
        // with what is live by then.
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
        assert!(e.indexes.is_empty(), "nothing is compiled before a delta reaches it");
        let compiled = |e: &Engine| e.rules.iter().map(|r| r.compiled.is_compiled()).collect::<Vec<_>>();
        e.insert(Tuple::new("Link", Value::str("C"), vec![Value::Int(1), Value::Int(2)])).unwrap();
        // Every rule `Link` triggers compiled. r1 has a single-atom body (no
        // extensions); r2 contributes two delta positions: Reach-delta
        // probes Link on (loc, arg0) and Link-delta probes Reach on (loc,
        // arg1); r3's Link-delta probes Other on (loc, arg0), its
        // Other-delta Link on (loc, arg0, arg1).
        assert_eq!(compiled(&e), [true, true, true]);
        assert_eq!(e.indexes.len(), 4);
        // The Link and Reach tuples the insert made were already live when
        // r2 registered the indexes over them.
        assert_eq!(e.index_entries(), 3, "Link (1,2) twice, Reach (1,2) once");
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
        assert!(e.indexes.is_empty(), "r1 joins nothing");
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
