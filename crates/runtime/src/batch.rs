//! The batch semi-naive driver: trigger dispatch, the round-based drain
//! loop, and the join that fires a compiled rule against the store.
//!
//! What a rule is at run time is [`crate::compiled`]'s business — slots,
//! per-delta-position column programs, the selection schedule, the column
//! prefilter. This module drives that form for the engine: once per engine
//! it groups each table's triggers by the constant their prefilters pin a
//! delta column to ([`TriggerIndex`], reading the source rules); the first
//! delta that reaches a rule compiles it against the store's schemas
//! ([`Store::catalog`](crate::store::Store::catalog)). The joint backtest
//! dispatches its rule variants through the same index: a
//! [`DerivedDispatch`] reads the base program's for the rules the variants
//! share with it and groups only the candidates' own.
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
//! round), while positions `j < i` may also
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

use crate::compiled::{cols_match, column_test, match_cols, pure, ColTest, CompiledRule};
use crate::delta::{DeltaTracker, Visibility};
use crate::engine::{Engine, RuntimeError, StepResult};
use crate::log::{TupleId, TupleKind};
use crate::memo::Prehashed;
use mpr_ndlog::hash::FxBuild;
use mpr_ndlog::{CmpOp, Program, Rule, Tuple, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

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
    /// Prefilter constant on `col` → its keyed group.
    pub(crate) keyed: HashMap<Value, usize, FxBuild>,
    /// The keyed groups' triggers, group after group, each group in
    /// original trigger order: group `g` is `grouped[starts[g]..starts[g + 1]]`.
    grouped: Vec<(usize, usize)>,
    starts: Vec<usize>,
    /// Triggers without a keyable constant on `col`, in original order.
    pub(crate) rest: Vec<(usize, usize)>,
    /// How many triggers there are.
    len: usize,
    /// Per keyed group, then for `rest` alone: [`Self::reads`], made once.
    reads: Vec<OnceLock<Option<GroupReads>>>,
}

/// What a dispatch group's triggers read of a delta before a complete
/// match: their distinct prefilter tests and the columns their plans read
/// (`CompiledRule::reads`) — what a [`crate::QuietSteps`] key holds.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReads {
    pub(crate) tests: Vec<ColTest>,
    pub(crate) cols: Vec<usize>,
}

/// [`GroupReads`] of `triggers`, `rule(i)` being rule `i` compiled; `None`
/// if a rule does not compile, or there are over 64 tests.
fn group_reads<'r>(
    triggers: impl IntoIterator<Item = (usize, usize)>,
    mut rule: impl FnMut(usize) -> Option<&'r CompiledRule>,
) -> Option<GroupReads> {
    let (mut tests, mut cols) = (Vec::new(), Vec::new());
    for (ri, ai) in triggers {
        let (t, c) = rule(ri)?.reads(ai);
        t.iter().for_each(|t| if !tests.contains(t) { tests.push(t.clone()) });
        cols.extend(c);
    }
    cols.sort_unstable();
    cols.dedup();
    Some(GroupReads { tests, cols }).filter(|r| r.tests.len() <= 64)
}

impl TriggerDispatch {
    /// Group `list` — one table's `(rule, body position)` triggers in
    /// firing order — by the constant `rule(i)`'s column prefilter pins
    /// column `col` to, or, without one, the column most of the triggers
    /// constrain. Reads the source rules, so the rules need not be compiled
    /// yet.
    pub fn new<'r>(list: &[(usize, usize)], rule: impl Fn(usize) -> &'r Rule, col: Option<usize>) -> Self {
        let mut consts = Vec::new();
        for (k, &(ri, ai)) in list.iter().enumerate() {
            let rule = rule(ri);
            eq_consts(rule, ai, pure(rule), &mut consts, |col, c| (k, col, c));
        }
        Self::group(list, &consts, col)
    }

    /// [`Self::new`] from each trigger's keyable constants, `(trigger,
    /// column, constant)` in trigger order.
    fn group(list: &[(usize, usize)], consts: &[(usize, usize, &Value)], col: Option<usize>) -> Self {
        // Most-constrained column wins; ties break to the lowest column so
        // the choice is deterministic.
        let col = col.unwrap_or_else(|| {
            let mut votes: Vec<usize> = Vec::new();
            for &(_, c, _) in consts {
                if votes.len() <= c {
                    votes.resize(c + 1, 0);
                }
                votes[c] += 1;
            }
            (0..votes.len()).max_by_key(|&c| (votes[c], std::cmp::Reverse(c))).unwrap_or(0)
        });
        // A trigger is keyed by its first constant on the column; groups
        // are numbered in the order their first trigger comes.
        const REST: usize = usize::MAX;
        let on_col = consts.iter().filter(|&&(_, c, _)| c == col).count();
        let mut keyed: HashMap<Value, usize, FxBuild> = HashMap::with_capacity_and_hasher(on_col, FxBuild::default());
        let mut sizes: Vec<usize> = Vec::new();
        let mut group = vec![REST; list.len()];
        for &(k, _, val) in consts.iter().filter(|&&(_, c, _)| c == col) {
            if group[k] == REST {
                let g = match keyed.get(val) {
                    Some(&g) => g,
                    None => {
                        keyed.insert(val.clone(), sizes.len());
                        sizes.push(0);
                        sizes.len() - 1
                    }
                };
                sizes[g] += 1;
                group[k] = g;
            }
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for n in &mut sizes {
            let start = *starts.last().expect("starts at 0");
            starts.push(start + *n);
            *n = start; // the group's next free place
        }
        let mut dispatch = TriggerDispatch { col, keyed, len: list.len(), ..TriggerDispatch::default() };
        dispatch.grouped = vec![(0, 0); starts[sizes.len()]];
        for (&trigger, &g) in list.iter().zip(&group) {
            if g == REST {
                dispatch.rest.push(trigger);
            } else {
                dispatch.grouped[sizes[g]] = trigger;
                sizes[g] += 1;
            }
        }
        dispatch.reads.resize_with(sizes.len() + 1, OnceLock::new);
        dispatch.starts = starts;
        dispatch
    }

    /// How many keyed groups there are.
    fn groups(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The triggers of keyed group `g`.
    fn group_triggers(&self, g: usize) -> &[(usize, usize)] {
        &self.grouped[self.starts[g]..self.starts[g + 1]]
    }

    /// The delta column the keyed groups test (`0` = location, `i + 1` =
    /// payload argument `i`).
    pub fn col(&self) -> usize {
        self.col
    }

    /// The index of the keyed group `tuple`'s value at the dispatch column
    /// falls in; `None` when it falls in none.
    pub fn group_of(&self, tuple: &Tuple) -> Option<usize> {
        tuple.column(self.col).and_then(|v| self.keyed.get(v)).copied()
    }

    /// The triggers a tuple of keyed group `group` ([`Self::group_of`])
    /// visits, in the exact order the plain trigger list would produce:
    /// the group merged with the residual triggers by original `(rule,
    /// atom)` position.
    pub fn triggers_in(&self, group: Option<usize>) -> MergedTriggers<'_> {
        let keyed = group.map_or(&[][..], |g| self.group_triggers(g));
        MergedTriggers { keyed, rest: &self.rest, i: 0, j: 0 }
    }

    /// The triggers `tuple` visits: those of its keyed group.
    pub fn triggers_for(&self, tuple: &Tuple) -> MergedTriggers<'_> {
        self.triggers_in(self.group_of(tuple))
    }

    /// What the triggers of `group` read of a delta before a complete match,
    /// `rule(i)` being rule `i` compiled: `None` if a rule does not compile,
    /// or there are over 64 tests. Made at the first call, which `rule`
    /// must answer alike.
    pub fn reads<'r>(
        &self,
        group: Option<usize>,
        rule: impl FnMut(usize) -> Option<&'r CompiledRule>,
    ) -> Option<&GroupReads> {
        let at = self.reads.get(group.unwrap_or(self.groups()))?;
        at.get_or_init(|| group_reads(self.triggers_in(group), rule)).as_ref()
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

/// Push to `out` the keyable `(column, constant)` pairs a tuple must carry
/// for `rule` to fire with it at body position `d` — the `Eq` tests of its
/// column prefilter, in selection order — given whether `rule` is
/// [`pure`], as `at(column, constant)`.
fn eq_consts<'r, T>(rule: &'r Rule, d: usize, pure: bool, out: &mut Vec<T>, at: impl Fn(usize, &'r Value) -> T) {
    for s in rule.sels.iter().filter(|s| pure && s.op == CmpOp::Eq) {
        if let Some((col, _, c, _)) = column_test(s, &rule.body[d]).filter(|t| keyable(t.2)) {
            out.push(at(col, c));
        }
    }
}

/// One table's triggers, `(rule, body position)` in firing order, and
/// their constants, `(trigger, column, constant)` in trigger order.
type TableTriggers<'r> = (&'r str, Vec<(usize, usize)>, Vec<(usize, usize, &'r Value)>);

/// A program's triggers, table by table, each with the keyable constants
/// its prefilter pins delta columns to: what a [`TriggerIndex`] groups,
/// collected rule by rule ([`Self::add`]) — by the engine in the one walk
/// that outlines and checks its program.
#[derive(Debug, Default)]
pub(crate) struct TriggerLists<'r> {
    /// Table → its place in `tables`.
    slots: HashMap<&'r str, usize, FxBuild>,
    /// Per table, in the order the tables are first read.
    tables: Vec<TableTriggers<'r>>,
}

impl<'r> TriggerLists<'r> {
    /// Add the triggers of `rule`, rule `ri` of the program, which follows
    /// every rule added before it.
    pub(crate) fn add(&mut self, ri: usize, rule: &'r Rule) {
        let pure = pure(rule);
        for (ai, atom) in rule.body.iter().enumerate() {
            let tables = &mut self.tables;
            let slot = *self.slots.entry(&atom.table).or_insert_with(|| {
                tables.push((&atom.table, Vec::new(), Vec::new()));
                tables.len() - 1
            });
            let (_, list, keys) = &mut tables[slot];
            let k = list.len();
            eq_consts(rule, ai, pure, keys, |col, c| (k, col, c));
            list.push((ri, ai));
        }
    }

    /// Each table's triggers alone.
    pub(crate) fn into_lists(self) -> impl Iterator<Item = (&'r str, Vec<(usize, usize)>)> {
        self.tables.into_iter().map(|(table, list, _)| (table, list))
    }

    /// The index of the `rules` rules added.
    pub(crate) fn index(self, rules: usize) -> TriggerIndex {
        #[cfg(debug_assertions)]
        INDEXES.with(|n| n.set(n.get() + 1));
        let group = |(table, list, keys): TableTriggers| (table.to_string(), TriggerDispatch::group(&list, &keys, None));
        TriggerIndex { tables: self.tables.into_iter().map(group).collect(), rules }
    }
}

#[cfg(debug_assertions)]
thread_local!(static INDEXES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

/// Trigger indexes [`TriggerIndex::new`] built on this thread, the count
/// behind the test that a repair indexes its base program once. Debug
/// builds only.
#[cfg(debug_assertions)]
pub fn indexes_built() -> u64 {
    INDEXES.with(std::cell::Cell::get)
}

/// A program's trigger dispatch: a [`TriggerDispatch`] per table its rules
/// read. A batch engine builds one for its program
/// ([`crate::Engine::trigger_index`]); the joint backtest reads it for the
/// rules its candidates share with that program ([`DerivedDispatch`]).
#[derive(Debug)]
pub struct TriggerIndex {
    tables: HashMap<String, TriggerDispatch, FxBuild>,
    /// How many rules the indexed program has.
    rules: usize,
}

impl TriggerIndex {
    /// Index every rule of `program`.
    pub fn new(program: &Program) -> Self {
        let mut lists = TriggerLists::default();
        program.rules.iter().enumerate().for_each(|(ri, rule)| lists.add(ri, rule));
        lists.index(program.rules.len())
    }

    /// The dispatch of `table`; `None` when no rule reads it.
    pub fn get(&self, table: &str) -> Option<&TriggerDispatch> {
        self.tables.get(table)
    }
}

/// The trigger dispatch of a program derived from an indexed base program:
/// the base's rules renumbered, some of them gone, and rules of its own.
/// It reads the base's [`TriggerIndex`] for the rules the two share and
/// groups only its own, on the base's column, so building it costs what the
/// derived program changes, not what it shares.
///
/// A delta visits the triggers [`TriggerDispatch::new`] over the derived
/// program's triggers on the base's column would have it visit, in that
/// order and in the same groups: its base group's, renumbered and without
/// the gone rules, merged with its own group's. Those that fire are the
/// ones grouping the derived program on its own vote fires, in the same
/// order, whichever column the vote picks: a trigger a grouping skips is
/// one its prefilter rejects. A table no base rule reads is grouped on its
/// own vote; one whose every trigger is gone reads as unread.
#[derive(Debug)]
pub struct DerivedDispatch<'b> {
    base: &'b TriggerIndex,
    /// Per base rule, its index in the derived program; `None` where the
    /// derived program has none.
    at: &'b [Option<u32>],
    /// Per table the derived program's own rules read, their triggers
    /// grouped; `None` for a table whose every base trigger is gone.
    changed: HashMap<&'b str, Option<Own>, FxBuild>,
}

/// The derived program's own triggers on one table, grouped.
#[derive(Debug)]
struct Own {
    dispatch: TriggerDispatch,
    /// `(base group, own group)` for each own group whose constant keys a
    /// base group too, ascending: a delta the base's map places needs no
    /// second lookup.
    attached: Vec<(usize, usize)>,
    /// Whether some own group's constant keys no base group, so a delta the
    /// base's map misses is looked up in the own one.
    beyond: bool,
}

impl<'b> DerivedDispatch<'b> {
    /// The dispatch of the program whose base rule `i` is its rule
    /// `at[i]`, if any, and whose other rules are `own` (ascending);
    /// `rule(i)` is its rule `i`, `base` the index of `base_rules`.
    pub fn new(
        base: &'b TriggerIndex,
        base_rules: &'b [Rule],
        at: &'b [Option<u32>],
        own: &[usize],
        rule: impl Fn(usize) -> &'b Rule,
    ) -> Self {
        assert_eq!((base.rules, at.len()), (base_rules.len(), base_rules.len()), "an index of another program");
        let mut lists = TriggerLists::default();
        own.iter().for_each(|&i| lists.add(i, rule(i)));
        let mut changed: HashMap<&str, Option<Own>, FxBuild> = HashMap::default();
        for (table, list, keys) in lists.tables {
            let shared = base.get(table);
            let dispatch = TriggerDispatch::group(&list, &keys, shared.map(|b| b.col));
            let (mut attached, mut beyond) = (Vec::new(), false);
            for (value, &g) in &dispatch.keyed {
                match shared.and_then(|b| b.keyed.get(value)) {
                    Some(&b) => attached.push((b, g)),
                    None => beyond = true,
                }
            }
            attached.sort_unstable();
            changed.insert(table, Some(Own { dispatch, attached, beyond }));
        }
        // A table whose base triggers are all gone, and that no own rule
        // reads, has no trigger left.
        let mut gone: HashMap<&str, usize> = HashMap::new();
        for (r, _) in base_rules.iter().zip(at).filter(|(_, at)| at.is_none()) {
            r.body.iter().for_each(|atom| *gone.entry(&atom.table).or_default() += 1);
        }
        for (table, n) in gone {
            if base.get(table).is_some_and(|b| b.len == n) {
                changed.entry(table).or_insert(None);
            }
        }
        DerivedDispatch { base, at, changed }
    }

    /// The dispatch of `table`; `None` when no rule of the derived program
    /// reads it.
    pub fn get(&self, table: &str) -> Option<DerivedTable<'_>> {
        let (base, own) = match self.changed.get(table) {
            None => (Some(self.base.get(table)?), None),
            Some(own) => (self.base.get(table), Some(own.as_ref()?)),
        };
        Some(DerivedTable { base, at: self.at, own })
    }
}

/// One table of a [`DerivedDispatch`]: the base's dispatch, renumbered,
/// and the derived program's own.
#[derive(Debug, Clone, Copy)]
pub struct DerivedTable<'a> {
    base: Option<&'a TriggerDispatch>,
    at: &'a [Option<u32>],
    own: Option<&'a Own>,
}

/// A delta's keyed groups in a [`DerivedTable`]: the base's and the own.
pub type DerivedGroup = (Option<usize>, Option<usize>);

impl<'a> DerivedTable<'a> {
    /// The keyed groups `tuple`'s value at the dispatch column falls in:
    /// one lookup in the base's map, and one in the own map only where the
    /// base's misses and some own constant is not the base's.
    pub fn group_of(&self, tuple: &Tuple) -> DerivedGroup {
        let base = self.base.and_then(|b| b.group_of(tuple));
        let own = self.own.and_then(|o| match base {
            Some(b) => o.attached.binary_search_by_key(&b, |&(b, _)| b).ok().map(|i| o.attached[i].1),
            None if o.beyond => o.dispatch.group_of(tuple),
            None => None,
        });
        (base, own)
    }

    /// The triggers a tuple of `group` visits, in the derived program's
    /// `(rule, atom)` order: the base's, renumbered and without the gone
    /// rules, merged with the own.
    pub fn triggers_in(&self, group: DerivedGroup) -> DerivedTriggers<'a> {
        let none = || MergedTriggers { keyed: &[], rest: &[], i: 0, j: 0 };
        DerivedTriggers {
            base: self.base.map_or_else(none, |b| b.triggers_in(group.0)),
            own: self.own.map_or_else(none, |o| o.dispatch.triggers_in(group.1)),
            at: self.at,
            next: (None, None),
        }
    }

    /// The triggers `tuple` visits.
    pub fn triggers_for(&self, tuple: &Tuple) -> DerivedTriggers<'a> {
        self.triggers_in(self.group_of(tuple))
    }

    /// A [`crate::QuietSteps`] lookup's view of `tuple`: `None` if no
    /// trigger hears it, else its group's number ([`Self::group_number`])
    /// and what the group reads, kept in `reads` by that number (the
    /// residual group's under `u64::MAX`).
    pub fn quiet_view<'c, 'r>(
        &self,
        tuple: &Tuple,
        reads: &'c mut Prehashed<Option<GroupReads>>,
        rule: impl FnMut(usize) -> Option<&'r CompiledRule>,
    ) -> Option<(Option<usize>, Option<&'c GroupReads>)> {
        let group = self.group_of(tuple);
        self.triggers_in(group).next()?;
        let number = self.group_number(group);
        let slot = reads.entry(number.map_or(u64::MAX, |n| n as u64));
        Some((number, slot.or_insert_with(|| group_reads(self.triggers_in(group), rule)).as_ref()))
    }

    /// `group` as one number, one per keyed group that grouping the derived
    /// program's triggers on the base's column makes: the base's group
    /// while a trigger of it or of the own group is left, else the own
    /// group after the base's; `None` for the residual triggers alone.
    pub fn group_number(&self, group: DerivedGroup) -> Option<usize> {
        let left = |b: &TriggerDispatch, g: usize| b.group_triggers(g).iter().any(|&(ri, _)| self.at[ri].is_some());
        match (self.base.zip(group.0), group.1) {
            (Some((_, g)), Some(_)) => Some(g),
            (Some((b, g)), None) if left(b, g) => Some(g),
            (_, Some(o)) => Some(self.base.map_or(0, TriggerDispatch::groups) + o),
            _ => None,
        }
    }
}

/// [`DerivedTable::triggers_in`]: the base's triggers, renumbered, merged
/// with the own, both ascending.
pub struct DerivedTriggers<'a> {
    base: MergedTriggers<'a>,
    own: MergedTriggers<'a>,
    at: &'a [Option<u32>],
    /// The next trigger of each side, once looked at.
    next: (Option<(usize, usize)>, Option<(usize, usize)>),
}

impl Iterator for DerivedTriggers<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let at = self.at;
        let base = self.next.0.take().or_else(|| self.base.find_map(|(ri, ai)| Some((at[ri]? as usize, ai))));
        let own = self.next.1.take().or_else(|| self.own.next());
        match (base, own) {
            (Some(b), Some(o)) if o < b => {
                self.next.0 = Some(b);
                Some(o)
            }
            (b, o) => {
                self.next.1 = o;
                b.or_else(|| self.next.1.take())
            }
        }
    }
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
        // Held across the `&mut self` firings.
        let index = Arc::clone(self.index.as_ref().expect("a batch engine keeps its trigger index"));
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
                let Some(dispatch) = index.get(&tuple.table) else {
                    continue;
                };
                // The keyed group for this delta's value at the dispatch
                // column (if any), merged with the residual triggers in
                // original `(rule, atom)` order so firing order matches
                // the plain trigger list exactly.
                for (rule_idx, atom_idx) in dispatch.triggers_for(tuple) {
                    fired = self.fire_batch(rule_idx, atom_idx, *tid, tuple, &mut round_out, result);
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
    fn merge_unfired(&mut self, leftovers: &VecDeque<(TupleId, Tuple)>) {
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
        // engine: the buffers leave it meanwhile. An error drops them.
        let mut s = std::mem::take(&mut self.scratch);
        for m in 0..s.tids.len() / b {
            self.count_derivation(result)?;
            if let Some(head) = rule.finish(&mut s.frames[m * n..(m + 1) * n], &mut self.funcs) {
                let body_tids = &s.tids[m * b..(m + 1) * b];
                self.emit_head(rule_idx, head, body_tids, delta_tid, queue, result);
            }
        }
        self.scratch = s;
        Ok(())
    }
}

/// The semi-naive visibility predicate: a candidate joins when an earlier
/// round merged it, or the current round did and its position comes
/// before the delta slot. Pending tuples never join;
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
        e.delete(&t("C", &[5]));
        e.insert(t("C", &[5])).unwrap();
        assert!(e.tuples("Out2").is_empty(), "the scan finds no dead A(10,5)");
        // A deleted tuple: the full-key probe finds nothing either.
        e.delete(&t("A", &[10, 6]));
        e.delete(&t("B", &[10]));
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
        let last: Vec<&Tuple> = step.appeared.iter().filter(|a| &*a.table == "Last").collect();
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
        let d = e.index.as_ref().and_then(|i| i.get("PacketIn")).expect("PacketIn dispatches");
        // All three rules constrain Hdr (arg 1 → column 2); only r1/r2
        // constrain Swi — so Hdr wins the vote and every trigger is keyed.
        assert_eq!(d.col, 2);
        assert!(d.rest.is_empty());
        let group_len = |v: i64| d.keyed.get(&Value::Int(v)).map(|&g| d.group_triggers(g).len());
        assert_eq!(group_len(80), Some(2));
        assert_eq!(group_len(25), Some(1));
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
        if e.deltas.is_open() {
            return Err("a round outlived the step".into());
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
        // `Src(1,8)` fires p1, whose `Pick(1,8)` replaces `Pick(1,7)` on
        // its key (the old instance's `Out(1,7)` is retracted), then s1 and
        // s2: under a budget of two firings per step, s2's cuts the step
        // short in the round that derived the replacement, before it fired.
        let src = r"
            materialize(Src, infinity, 2, keys(0,1)).
            materialize(Pick, infinity, 2, keys(0)).
            materialize(Other, infinity, 2, keys(0,1)).
            materialize(Out, infinity, 2, keys(0,1)).
            materialize(Seen, infinity, 1, keys(0)).
            materialize(Saw, infinity, 1, keys(0)).
            materialize(J, infinity, 2, keys(0,1)).
            p1 Pick(@N,X,Y) :- Src(@N,X,Y).
            s1 Seen(@N,Y) :- Src(@N,X,Y).
            s2 Saw(@N,Y) :- Src(@N,X,Y).
            o1 Out(@N,X,Y) :- Pick(@N,X,Y).
            j1 J(@N,X,Z) :- Pick(@N,X,Y), Other(@N,Y,Z).
        ";
        let p = parse_program("t", src).unwrap();
        let mut e = Engine::with_options(&p, Options { max_derivations: 2, ..Options::default() }).unwrap();
        let tuple = |t: &str, a: i64, b: i64| Tuple::new(t, Value::Int(1), vec![Value::Int(a), Value::Int(b)]);
        e.insert(tuple("Pick", 1, 7)).unwrap();
        assert!(e.contains(&tuple("Out", 1, 7)));
        assert_eq!(e.insert(tuple("Src", 1, 8)), Err(RuntimeError::DerivationLimit(2)));
        assert_eq!(e.tuples("Pick"), [tuple("Pick", 1, 8)]);
        assert!(e.tuples("Out").is_empty(), "Out(1,7) went with its body, Out(1,8) never fired");
        at_rest(&e).unwrap();
        e.insert(tuple("Other", 8, 9)).unwrap();
        assert!(e.contains(&tuple("J", 1, 9)), "Pick(1,8) joins at body position 0");
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
