//! The meta provenance explorer: cost-ordered repair-candidate generation
//! (§3.3–§3.5, §4, Fig. 5/Fig. 17).
//!
//! For a **missing** tuple (negative symptom), the explorer forks one meta
//! provenance tree per rule that could derive the goal table (§3.3) and,
//! inside each tree, per recorded trigger event. Expanding a tree collects
//! a constraint pool (§3.4): the join must hold, the head must equal the
//! goal, and every selection must pass. Program-based meta tuples that
//! block a derivation (a `Const`, an `Oper`, a `Sel`, an `Assign`) become
//! candidate *changes*, costed by the [`crate::cost`] table. A pool is a
//! search of the world's domain, the values the network and the program
//! exhibit ([`crate::solve`]), which yields the concrete replacement
//! values: exactly the `Const(Rul=r7, ID=2, Val=3)` leaf of Fig. 6.
//!
//! A tree is **opened by lookup** into postings of the triggers and the
//! state, and **priced before it is built**: each way to unblock a literal
//! is first a small `Copy` value (which literal, what replaces it, what it
//! costs), combinations of them are costed by arithmetic, an [`Edit`] and
//! its description are made only for a combination the running cut still
//! admits — checked against its own rule — and a trace only for a candidate
//! handed out. A **rule is priced before its trees open**: the selections
//! the goal alone makes fail cost at least their cheapest fixes, and a rule
//! whose floor the running cut refuses opens no tree. A rule the symptom
//! never touches therefore costs a few comparisons and no allocation.
//!
//! For an **existing** tuple (positive symptom, Fig. 7), the explorer walks
//! the recorded derivations, re-executes them symbolically, negates the
//! collected constraints, and emits base-tuple deletions/changes plus
//! rule-literal changes that break the derivation (§4.2).

use crate::cost::{self, SearchBudget};
use crate::repair::{Candidate, Repair};
use crate::scenarios::{Scenario, Symptom};
use crate::solve::search_domain;
use mpr_ndlog::ast::{same_name, Assign, Atom, CmpOp, Expr, ExprSide, Term};
use mpr_ndlog::eval::{Bindings, PureFuncs};
use mpr_ndlog::patch::{Edit, Patch, ProgramOutline};
use mpr_ndlog::{Program, Rule, Selection, Tuple, Value};
use mpr_provenance::Pattern;
use mpr_runtime::engine::{instantiate, unify_atom};
use mpr_runtime::{ExecEvent, ExecLog, TupleKind};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Everything the explorer sees about the (logged) world.
#[derive(Debug, Clone)]
pub struct World {
    /// The (buggy) controller program, shared with whoever observed it.
    pub program: Arc<Program>,
    /// Distinct trigger events observed in the history (PacketIn tuples).
    pub triggers: Vec<Tuple>,
    /// Controller state tuples (configuration seeds plus learned state).
    pub state: Vec<Tuple>,
    /// The recorded derivations of a positive symptom's tuple, each
    /// distinct one once, in the order the run made them (none for a
    /// negative symptom).
    pub derivations: Vec<DerivationRecord>,
    /// Search bounds.
    pub budget: SearchBudget,
}

impl World {
    /// What the explorer reads of a recorded run of `scenario` — the one
    /// place a log becomes its input. Triggers are the distinct tuples the
    /// network inserted into the packet-in table; state is what the log
    /// ends with alive, the output tables left out (a seed the run
    /// replaced is not in it); a positive symptom's derivations are those
    /// the run made, with the bodies it made them from — not what the final
    /// state would derive again.
    pub fn from_history(scenario: &Scenario, log: &ExecLog) -> World {
        let codec = &scenario.codec;
        let triggers: BTreeSet<&Tuple> = log
            .events()
            .filter_map(|ev| match ev {
                ExecEvent::InsertBase { tid, .. } => Some(log.tuple(tid)),
                _ => None,
            })
            .filter(|t| t.table == codec.packet_in_table)
            .collect();
        let mut derivations: Vec<DerivationRecord> = Vec::new();
        if let Symptom::Existing(culprit) = &scenario.symptom {
            for instance in log.instances_of(culprit) {
                for ev in log.derivations_of(instance.tid) {
                    let ExecEvent::Derive { rule, body, .. } = ev else { continue };
                    let record = DerivationRecord {
                        rule: rule.to_string(),
                        body: body.iter().map(|&b| log.tuple(b).clone()).collect(),
                        base_mask: body.iter().map(|&b| log.kind(b) == TupleKind::Base).collect(),
                    };
                    if !derivations.contains(&record) {
                        derivations.push(record);
                    }
                }
            }
        }
        World {
            program: Arc::clone(&scenario.program),
            triggers: triggers.into_iter().cloned().collect(),
            state: log.live_state().into_iter().filter(|t| !codec.is_output(&t.table)).cloned().collect(),
            derivations,
            budget: scenario.budget,
        }
    }

    /// Candidate constants: goal values, program constants, and values
    /// observed in triggers/state — the domain a pool is searched over (§2.5:
    /// "why did we change the constant to 3 and not, say, 4?" — because 3
    /// is in the domain the network exhibits).
    fn domain(&self, goal: &Pattern) -> Vec<i64> {
        let mut seen: Vec<i64> = Vec::new();
        for r in &self.program.rules {
            r.for_each_constant(|v| seen.extend(v.as_int()));
        }
        for t in self.triggers.iter().chain(self.state.iter()) {
            seen.extend(std::iter::once(&t.loc).chain(&t.args).filter_map(Value::as_int));
        }
        seen.extend(goal.loc.iter().chain(goal.args.iter().flatten()).filter_map(Value::as_int));
        seen.sort_unstable();
        seen.dedup();
        // ±1 neighbors (off-by-one repairs); one past `i64`'s range is left out.
        let mut domain: Vec<i64> =
            seen.iter().flat_map(|&i| [i.checked_sub(1), Some(i), i.checked_add(1)]).flatten().collect();
        domain.sort_unstable();
        domain.dedup();
        domain
    }
}

/// Statistics from one generation run (feeds the Fig. 9a phase breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Trees forked (rule × trigger expansions).
    pub trees: u64,
    /// Rules whose head unifies with the goal but whose floor the cut refused,
    /// unopened: with one tree per rule, `trees` + these is every such rule.
    pub rules_priced_away: u64,
    /// Constraint pools solved: domain searches and constant scans
    /// (selection feasibility checks).
    pub pools_solved: u64,
    /// Candidates considered: every repair within
    /// [`SearchBudget::max_cost`] the trees reach, whether it was built or
    /// bounded away by the running cut first (those are counted without
    /// the syntax check the built ones pass).
    pub raw_candidates: u64,
    /// Of those, the candidates actually built — syntax check, description
    /// and trace. Bounded by the frontier, not by the program size.
    pub materialised: u64,
    /// Built candidates the syntax check refused: they are in
    /// `materialised` and not in `raw_candidates`, so with nothing bounded
    /// away `materialised == raw_candidates + refused`.
    pub refused: u64,
    /// Nanoseconds in domain searches and constant scans — Fig. 9a's
    /// "Constraint solving". A missing-tuple search does not time a pool whose one
    /// replacement is pinned (`Swi == 2`, `Swi` bound): on a padded Q1, 0.
    pub solver_ns: u128,
}

/// The `max_candidates` cheapest distinct-description candidates seen so
/// far, in rank order — §3.5's "in cost order until a cut-off", kept as
/// the search runs instead of sorted out of the exhaustive set afterwards.
///
/// Invariant: once the frontier is full, its last entry is the k-th
/// cheapest distinct description seen so far, and that cost only ever
/// falls. A candidate costing *strictly* more than it can therefore never
/// be among the final k, whatever its description, so [`Frontier::admits`]
/// lets the explorer drop it before building anything. A candidate that
/// ties the k-th cost is still built: its description decides whether it
/// displaces the k-th, exactly as the (cost, description) sort would.
struct Frontier<T> {
    max_cost: u32,
    max_candidates: usize,
    /// `(cost, description, rest)`, at most `max_candidates` of them,
    /// sorted by cost, then description, each description once.
    ranked: Vec<(u32, String, T)>,
}

impl<T> Frontier<T> {
    fn new(budget: &SearchBudget) -> Self {
        Frontier { max_cost: budget.max_cost, max_candidates: budget.max_candidates, ranked: Vec::new() }
    }

    /// The running cut: `max_cost`, tightened to the k-th cost once k
    /// distinct candidates are ranked.
    fn cut(&self) -> u32 {
        match self.ranked.last() {
            Some((kth, ..)) if self.ranked.len() >= self.max_candidates => self.max_cost.min(*kth),
            _ => self.max_cost,
        }
    }

    /// Could a candidate of this cost still be returned?
    fn admits(&self, cost: u32) -> bool {
        self.max_candidates > 0 && cost <= self.cut()
    }

    /// Where `description` is ranked: a binary search per run of one cost.
    fn position(&self, description: &str) -> Option<usize> {
        let mut run = 0..0;
        while let Some(&(cost, ..)) = self.ranked.get(run.end) {
            run = run.end..run.end + self.ranked[run.end..].partition_point(|(c, ..)| *c == cost);
            if let Ok(i) = self.ranked[run.clone()].binary_search_by(|(_, d, _)| d.as_str().cmp(description)) {
                return Some(run.start + i);
            }
        }
        None
    }

    /// Rank a candidate. Of two with one description the cheaper stays,
    /// and of two at the same cost the one emitted first.
    fn push(&mut self, cost: u32, description: String, rest: T) {
        if !self.admits(cost) {
            return;
        }
        match self.position(&description) {
            Some(i) if self.ranked[i].0 <= cost => return,
            Some(i) => drop(self.ranked.remove(i)),
            None => {}
        }
        let at = self.ranked.partition_point(|(c, d, _)| (*c, d.as_str()) < (cost, description.as_str()));
        if at < self.max_candidates {
            self.ranked.truncate(self.max_candidates - 1);
            self.ranked.insert(at, (cost, description, rest));
        }
    }

    /// The ranked candidates, cheapest first.
    fn finish(self) -> impl Iterator<Item = (u32, String, T)> {
        self.ranked.into_iter()
    }
}

/// A built candidate as the frontier ranks it: cost, description, repair,
/// and what its trace is written from.
type Built<'a> = (u32, String, (Repair, Trace<'a>));

/// What a candidate's trace is written from. A tree's patches — nearly
/// every candidate built — are traced only if they are handed out.
#[derive(Debug, Clone)]
enum Trace<'a> {
    /// Written when the candidate was built (the one-off candidates).
    Lines(Vec<String>),
    /// A tree's patch of `rule` for `goal`: its failing selections, a
    /// range of the search's failing log, and its edit count.
    Tree { goal: &'a Pattern, rule: &'a Rule, failing: Range<usize>, edits: usize },
}

/// Hand a ranked candidate out, writing its trace.
fn hand_out((cost, description, (repair, trace)): Built, failing_log: &[usize]) -> Candidate {
    let trace = match trace {
        Trace::Lines(lines) => lines,
        Trace::Tree { goal, rule, failing, edits } => {
            let head = [format!("NEXIST[Tuple({goal})]"), format!("NDERIVE[{} via meta rule h2]", rule.id)];
            let sel = |&si: &usize| format!("NEXIST[Sel(Rul={}, SID=\"{}\", Val=true)]", rule.id, rule.sels[si]);
            let fix = format!("FIX(cost {cost}): {edits} edit(s)");
            head.into_iter().chain(failing_log[failing].iter().map(sel)).chain([fix]).collect()
        }
    };
    Candidate { repair, cost, description, trace }
}

/// The bindings of one tree. Variable names are borrowed from the rule and
/// values from the goal, the trigger and the state (only an assignment's
/// result is owned), so opening a tree copies no string; name-sorted like
/// [`mpr_ndlog::Env`], whose iteration order the assignment fixes inherit.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope<'a> {
    entries: Vec<(&'a str, Cow<'a, Value>)>,
}

impl<'a> Scope<'a> {
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (*k).cmp(name))
    }

    /// The binding of `name` as it is held, borrowed or owned.
    fn bound(&self, name: &str) -> Option<&Cow<'a, Value>> {
        self.position(name).ok().map(|i| &self.entries[i].1)
    }

    /// Bind `name`, replacing what it was bound to.
    pub(crate) fn set(&mut self, name: &'a str, value: Cow<'a, Value>) {
        match self.position(name) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    fn remove(&mut self, name: &str) {
        if let Ok(i) = self.position(name) {
            self.entries.remove(i);
        }
    }

    /// The bindings in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a str, &Value)> {
        self.entries.iter().map(|(k, v)| (*k, &**v))
    }

    /// Become a copy of `other`, in the buffer this scope already owns.
    fn reset_to(&mut self, other: &Scope<'a>) {
        self.entries.clone_from(&other.entries);
    }

    /// Add the bindings a successful [`unify_atom`] left in `fresh`.
    fn extend(&mut self, fresh: &[(&'a str, &'a Value)]) {
        for &(name, value) in fresh {
            self.set(name, Cow::Borrowed(value));
        }
    }

    /// Unify `atom` with `tuple` under this scope and keep the bindings;
    /// `false`, and the scope as it was, when they do not unify.
    fn unify(&mut self, atom: &'a Atom, tuple: &'a Tuple, fresh: &mut Vec<(&'a str, &'a Value)>) -> bool {
        let unifies = unify_atom(atom, tuple, self, fresh);
        if unifies {
            self.extend(fresh);
        }
        unifies
    }
}

impl Bindings for Scope<'_> {
    fn get(&self, name: &str) -> Option<&Value> {
        self.bound(name).map(|v| &**v)
    }
}

/// `World::triggers` or `World::state` by lookup: each table's positions,
/// and each probed (table, column)'s, sorted by value, then position
/// (column 0 is the location). Names and values are borrowed from the
/// tuples: nothing is allocated per rule or per tree.
struct Postings<'a> {
    tuples: &'a [Tuple],
    tables: Vec<(&'a str, Vec<usize>)>,
    columns: Vec<(&'a str, usize, Vec<usize>)>,
}

impl<'a> Postings<'a> {
    fn new(tuples: &'a [Tuple]) -> Self {
        let mut tables: Vec<(&'a str, Vec<usize>)> = Vec::new();
        for (pos, t) in tuples.iter().enumerate() {
            match tables.iter_mut().find(|(table, _)| **table == *t.table) {
                Some((_, list)) => list.push(pos),
                None => tables.push((&t.table, vec![pos])),
            }
        }
        Postings { tuples, tables, columns: Vec::new() }
    }

    /// The positions of `table`'s tuples.
    fn table(&self, table: &str) -> &[usize] {
        self.tables.iter().find(|(t, _)| *t == table).map_or(&[], |(_, list)| list)
    }

    /// `table`'s tuples holding `value` at `column`, positions ascending.
    fn column(&mut self, table: &str, column: usize, value: &Value) -> &[usize] {
        let tuples = self.tuples;
        let at = |&pos: &usize| std::iter::once(&tuples[pos].loc).chain(&tuples[pos].args).nth(column);
        let i = match self.columns.iter().position(|(t, c, _)| *t == table && *c == column) {
            Some(i) => i,
            None => {
                let Some((table, list)) = self.tables.iter().find(|(t, _)| *t == table) else { return &[] };
                let mut sorted: Vec<usize> = list.iter().copied().filter(|pos| at(pos).is_some()).collect();
                sorted.sort_unstable_by_key(|pos| (at(pos), *pos));
                self.columns.push((table, column, sorted));
                self.columns.len() - 1
            }
        };
        let sorted = &self.columns[i].2;
        let start = sorted.partition_point(|pos| at(pos) < Some(value));
        let len = sorted[start..].partition_point(|pos| at(pos) == Some(value));
        &sorted[start..start + len]
    }

    /// The (trigger, body atom) pairs of `rule` that may unify under
    /// `pins`, **trigger-major** as a scan visits them. An atom reads the
    /// tuples holding the value at its first column a constant or `pins`
    /// fixes, or else its table's: a pair left out could not unify.
    fn pairs(&mut self, rule: &Rule, pins: &Scope, pairs: &mut Vec<(usize, usize)>) {
        pairs.clear();
        for (ai, atom) in rule.body.iter().enumerate() {
            let terms = std::iter::once(&atom.loc).chain(&atom.args);
            let pinned = terms.enumerate().find_map(|(column, term)| match term {
                Term::Const(c) => Some((column, c)),
                Term::Var(v) => pins.get(v).map(|v| (column, v)),
            });
            let positions = match pinned {
                Some((column, value)) => self.column(&atom.table, column, value),
                None => self.table(&atom.table),
            };
            pairs.extend(positions.iter().map(|&pos| (pos, ai)));
        }
        if rule.body.len() > 1 {
            pairs.sort_unstable();
        }
    }
}

/// One way to unblock one literal of a rule, as a value: which literal,
/// what replaces it, what that costs. Options are compared, combined and
/// costed as they are; [`Fix::edit`] makes the [`Edit`] for the few that
/// are built.
#[derive(Debug, Clone, Copy)]
struct FixOption<'a> {
    fix: Fix<'a>,
    cost: u32,
}

#[derive(Debug, Clone, Copy)]
enum Fix<'a> {
    /// Assignment `.0` is rewritten to the constant the goal's head needs.
    AssignNeeded(usize),
    /// Assignment `.0` is rewritten to an in-scope variable carrying it.
    AssignVar(usize, &'a str),
    /// The constant on `side` of selection `sel` becomes `value`.
    Const { sel: usize, side: ExprSide, value: i64 },
    /// Selection `sel` compares with `op` instead.
    Oper { sel: usize, op: CmpOp },
    /// The variable on `side` of selection `sel` becomes `var`.
    Var { sel: usize, side: ExprSide, var: &'a str },
}

impl Fix<'_> {
    /// The edit of `rule` this option stands for. `required` is where an
    /// assignment's needed value is read from.
    fn edit(&self, rule: &Rule, required: &Scope) -> Edit {
        let id = rule.id.clone();
        let assigned = |ai: usize, expr: Expr| Edit::SetAssignExpr { rule: id.clone(), var: rule.assigns[ai].var.clone(), expr };
        match *self {
            Fix::AssignNeeded(ai) => {
                let need = required.get(&rule.assigns[ai].var).expect("priced against a required head value");
                assigned(ai, Expr::Const(need.clone()))
            }
            Fix::AssignVar(ai, var) => assigned(ai, Expr::var(var)),
            Fix::Const { sel, side, value } => Edit::SetSelectionExpr { rule: id, sel, side, expr: Expr::int(value) },
            Fix::Oper { sel, op } => Edit::SetSelectionOp { rule: id, sel, op },
            Fix::Var { sel, side, var } => Edit::SetSelectionExpr { rule: id, sel, side, expr: Expr::var(var) },
        }
    }
}

/// At most this many combinations of one slot sequence are considered.
const MAX_COMBOS: usize = 64;

/// How many ways there are to pick one option per slot, capped: the first
/// [`MAX_COMBOS`] in lexicographic order, the last slot varying fastest.
/// No slot is one (empty) way; a slot without options is none.
fn combinations(slots: &[Range<usize>]) -> usize {
    slots.iter().fold(1usize, |n, slot| n.saturating_mul(slot.len())).min(MAX_COMBOS)
}

/// The `k`-th of those combinations (so no slot is empty) as indices into
/// the option buffer, **last slot first** — `k` read as a mixed-radix
/// number whose least significant digit is the last slot's pick. Pricing
/// and building both read a combination through this, so they cannot
/// disagree on it.
fn combination(slots: &[Range<usize>], mut k: usize) -> impl Iterator<Item = usize> + '_ {
    slots.iter().rev().map(move |slot| {
        let pick = slot.start + k % slot.len();
        k /= slot.len();
        pick
    })
}

/// What the `k`-th combination costs, before the charge for extra edits.
fn price(options: &[FixOption], slots: &[Range<usize>], k: usize) -> u32 {
    combination(slots, k).map(|i| options[i].cost).sum()
}

/// The `k`-th combination as edits of `rule`, first slot first.
fn edits_of(options: &[FixOption], slots: &[Range<usize>], k: usize, rule: &Rule, required: &Scope) -> Vec<Edit> {
    let mut edits: Vec<Edit> = combination(slots, k).map(|i| options[i].fix.edit(rule, required)).collect();
    edits.reverse();
    edits
}

/// What a candidate does about the failing selections of its tree.
#[derive(Debug, Clone, Copy)]
enum SelectionFix {
    /// Which combination of the failing selections' slots.
    Change(usize),
    /// Delete these selections (Table 2 candidates F, G, H).
    Delete(usize, Option<usize>),
}

/// The constants a selection compares directly — the `2` of `Swi == 2` —
/// with the side each sits on, left first: the sides a constant repair
/// rewrites.
fn top_level_constants(sel: &Selection) -> impl Iterator<Item = (ExprSide, &Value)> {
    [(ExprSide::Lhs, &sel.lhs), (ExprSide::Rhs, &sel.rhs)].into_iter().filter_map(|(side, e)| match e {
        Expr::Const(v) => Some((side, v)),
        _ => None,
    })
}

/// The one integer an `==` lets the constant on `side` of `sel` become:
/// what `env` binds the variable opposite it to.
fn pinned(sel: &Selection, side: ExprSide, env: &impl Bindings) -> Option<i64> {
    match (side, &sel.lhs, &sel.rhs) {
        (ExprSide::Lhs, _, Expr::Var(v)) | (ExprSide::Rhs, Expr::Var(v), _) if sel.op == CmpOp::Eq => env.get(v)?.as_int(),
        _ => None,
    }
}

/// `l op r`, with `candidate` standing on `side` and `other` opposite.
fn holds_with(op: CmpOp, side: ExprSide, candidate: &Value, other: &Value) -> bool {
    match side {
        ExprSide::Lhs => op.eval(candidate, other),
        ExprSide::Rhs => op.eval(other, candidate),
    }
}

/// What a search priced and what it then built, in emission order, before
/// the frontier ranks and dedups: the books behind [`ExploreStats`], kept
/// only for [`generate_missing_with_ledger`].
#[derive(Debug, Default)]
pub struct Ledger {
    /// Every rule whose head unifies with the goal, by id, with its floor.
    pub floors: Vec<(String, u32)>,
    /// The cost of every candidate considered, built or bounded away.
    pub priced: Vec<u32>,
    /// Every candidate built that passed its syntax check.
    pub built: Vec<Candidate>,
}

/// A search's candidates, counters and, if it kept them, books.
type Found = (Vec<Candidate>, ExploreStats, Option<Ledger>);

/// One missing-tuple search: what every tree reads, the frontier and
/// counters every tree writes, and the buffers the trees share so that one
/// the cut bounds away allocates nothing.
struct Search<'a> {
    world: &'a World,
    goal: &'a Pattern,
    /// `world.domain(goal)`, scanned by the first pool that is not pinned.
    domain: OnceCell<Vec<i64>>,
    /// `world.triggers` and `world.state` by lookup, built on first use.
    triggers: Option<Postings<'a>>,
    state: OnceCell<Postings<'a>>,
    /// The (trigger, body atom) pairs of the current rule.
    pairs: Vec<(usize, usize)>,
    /// `world.program`'s outline, what [`Search::applies`] checks
    /// whole-program patches against (`None`: the program is invalid).
    outline: Option<&'a ProgramOutline>,
    frontier: Frontier<(Repair, Trace<'a>)>,
    stats: ExploreStats,
    /// The [`Ledger`], traces unwritten, if it is kept.
    books: Option<(Vec<(String, u32)>, Vec<u32>, Vec<Built<'a>>)>,
    /// The failing selections of every tree patch built: [`Trace::Tree`]'s.
    failing_log: Vec<usize>,
    /// What unifying the current rule's head with the goal requires.
    required: Scope<'a>,
    /// The current tree's joins: the trigger's bindings, extended through
    /// the state for every other body atom.
    envs: Vec<Scope<'a>>,
    /// One of those joins after the assignments, each bound to what it
    /// evaluates to or to what the head requires of it.
    post: Scope<'a>,
    fresh: Vec<(&'a str, &'a Value)>,
    /// The current tree's fix options, slot after slot: one slot per
    /// assignment to fix, then one per failing selection.
    options: Vec<FixOption<'a>>,
    slots: Vec<Range<usize>>,
    failing: Vec<usize>,
}

/// Generate repair candidates for a *missing* tuple.
pub fn generate_missing(world: &World, goal: &Pattern) -> (Vec<Candidate>, ExploreStats) {
    generate_missing_against(world, goal, ProgramOutline::new(&world.program).ok().as_ref())
}

/// [`generate_missing`] against the outline of `world.program` its caller
/// holds (`None`: the program is invalid, and no whole-program patch applies).
pub fn generate_missing_against(
    world: &World,
    goal: &Pattern,
    outline: Option<&ProgramOutline>,
) -> (Vec<Candidate>, ExploreStats) {
    let (candidates, stats, _) = Search::run(world, goal, outline, false);
    (candidates, stats)
}

/// [`generate_missing`] with its books open — for the properties that what
/// the search prices is what it builds, and that no rule's candidates cost
/// less than its floor; the debugger does not call this.
pub fn generate_missing_with_ledger(world: &World, goal: &Pattern) -> (Vec<Candidate>, ExploreStats, Ledger) {
    let outline = ProgramOutline::new(&world.program).ok();
    let (candidates, stats, ledger) = Search::run(world, goal, outline.as_ref(), true);
    (candidates, stats, ledger.unwrap_or_default())
}

impl<'a> Search<'a> {
    fn run(world: &'a World, goal: &'a Pattern, outline: Option<&'a ProgramOutline>, books: bool) -> Found {
        let mut s = Search {
            world,
            goal,
            domain: OnceCell::new(),
            triggers: None,
            state: OnceCell::new(),
            pairs: Vec::new(),
            outline,
            frontier: Frontier::new(&world.budget),
            stats: ExploreStats::default(),
            books: books.then(Default::default),
            failing_log: Vec::new(),
            required: Scope::default(),
            envs: Vec::new(),
            post: Scope::default(),
            fresh: Vec::new(),
            options: Vec::new(),
            slots: Vec::new(),
            failing: Vec::new(),
        };

        // (1) The base-tuple insertion repair: make the tuple appear directly.
        if let Some(tuple) = pattern_tuple(goal) {
            if s.worth_building(cost::INSERT_TUPLE) {
                let fix = format!("FIX: insert base tuple {tuple}");
                let trace = vec![format!("NEXIST[Tuple({goal})]"), format!("NEXIST[Base({goal})] via meta rule h1"), fix];
                let description = "Manually installing a flow entry".into();
                s.emit(cost::INSERT_TUPLE, description, Repair::InsertTuple(tuple), Trace::Lines(trace));
            }
        }

        // (2) Fork one tree per rule that derives the goal table (§3.3).
        for rule in world.program.rules.iter().filter(|r| r.head.table == goal.table) {
            s.explore_rule(rule);
        }

        // (3) Donor rules: head re-targeting and copy-with-new-head (the Q4
        // repairs: "changing/copying the head of r5 to packetOut(...)").
        for rule in &world.program.rules {
            if rule.head.table == goal.table || rule.head.args.len() != goal.args.len() {
                continue;
            }
            s.explore_donor(rule);
        }

        // (4) Completeness fallback (Appendix D, case b): a brand-new rule
        // that derives exactly the goal from an observed trigger —
        // `Bar(@A,B) :- Foo(@X), X==1, A:=2, B:=3`. Costly, so it surfaces
        // only when nothing cheaper exists, but it guarantees the search
        // always finds at least one working repair.
        if let (Some(tuple), Some(trigger)) = (pattern_tuple(goal), world.triggers.first()) {
            s.synthesize_rule(&tuple, trigger);
        }

        let Search { frontier, stats, books, failing_log, .. } = s;
        let hand_out = |built| hand_out(built, &failing_log);
        let ledger = books.map(|(floors, priced, built)| {
            Ledger { floors, priced, built: built.into_iter().map(hand_out).collect() }
        });
        (frontier.finish().map(hand_out).collect(), stats, ledger)
    }

    /// The whole-program syntax check of a built candidate, which counts as
    /// refused if it fails: `patch.apply`'s verdict from the delta, which
    /// clones only the rules the patch touches (no outline, no patch applies).
    fn applies(&mut self, patch: &Patch) -> bool {
        let ok = self.outline.is_some_and(|o| patch.delta(&self.world.program, o).is_ok());
        self.stats.refused += u64::from(!ok);
        ok
    }

    /// Is a candidate of this cost worth building? One that is not is
    /// counted as considered here; one that is gets counted by
    /// [`Search::emit`], once it has passed its syntax check.
    fn worth_building(&mut self, cost: u32) -> bool {
        if let Some((_, priced, _)) = &mut self.books {
            priced.push(cost);
        }
        let build = self.frontier.admits(cost);
        if build {
            self.stats.materialised += 1;
        } else {
            self.stats.raw_candidates += 1;
        }
        build
    }

    fn emit(&mut self, cost: u32, description: String, repair: Repair, trace: Trace<'a>) {
        self.stats.raw_candidates += 1;
        if let Some((.., built)) = &mut self.books {
            built.push((cost, description.clone(), (repair.clone(), trace.clone())));
        }
        self.frontier.push(cost, description, (repair, trace));
    }

    /// The Appendix D fallback: a new rule deriving `tuple` from `trigger`.
    fn synthesize_rule(&mut self, tuple: &Tuple, trigger: &Tuple) {
        let goal = self.goal;
        if !self.worth_building(cost::NEW_RULE) {
            return;
        }
        let mut body_args = Vec::new();
        let mut sels = Vec::new();
        for (i, v) in trigger.args.iter().enumerate() {
            let var = format!("X{i}");
            body_args.push(Term::Var(var.clone()));
            sels.push(Selection::new(Expr::var(var), CmpOp::Eq, Expr::Const(v.clone())));
        }
        let mut assigns = Vec::new();
        let mut head_args = Vec::new();
        for (i, v) in tuple.args.iter().enumerate() {
            let var = format!("H{i}");
            assigns.push(Assign::new(var.clone(), Expr::Const(v.clone())));
            head_args.push(Term::Var(var));
        }
        assigns.push(Assign::new("Hl", Expr::Const(tuple.loc.clone())));
        let rule = Rule::new(
            "synth0",
            Atom::new(goal.table.clone(), Term::Var("Hl".into()), head_args),
            vec![Atom::new(&*trigger.table, Term::Var("Xl".into()), body_args)],
            sels,
            assigns,
        );
        let patch = Patch::single(Edit::AddRule { rule: rule.clone() });
        if !self.applies(&patch) {
            return;
        }
        let (no_head, fix) = ("NEXIST[HeadFunc(*)] — no rule can be adapted cheaply".into(), format!("FIX: add rule {rule}"));
        let trace = vec![format!("NEXIST[Tuple({goal})]"), no_head, fix];
        let description = format!("Adding a new rule deriving {tuple}");
        self.emit(cost::NEW_RULE, description, Repair::Patch(patch), Trace::Lines(trace));
    }

    /// One tree: this rule, every compatible trigger — unless the cut
    /// refuses the rule's floor, which it will then refuse for good.
    fn explore_rule(&mut self, rule: &'a Rule) {
        let world = self.world;
        let Some(head) = HeadRequirements::of(rule, self.goal) else {
            return;
        };
        let floor = floor(rule, &head);
        self.books.iter_mut().for_each(|(floors, ..)| floors.push((rule.id.clone(), floor)));
        if !self.frontier.admits(floor) {
            self.stats.rules_priced_away += 1;
            return;
        }
        head.bind(&mut self.required);
        // The trigger must bind one body atom. Every match starts from the
        // required head bindings: triggers they rule out are never looked at.
        let pairs = self.trigger_pairs(rule, true);
        for &(pos, ti) in &pairs {
            let trigger = &world.triggers[pos];
            if !unify_atom(&rule.body[ti], trigger, &self.required, &mut self.fresh) {
                continue;
            }
            self.stats.trees += 1;
            // The tree's first join, in the buffer the last tree's had.
            let mut matched = self.envs.drain(..).next().unwrap_or_default();
            matched.reset_to(&self.required);
            matched.extend(&self.fresh);
            self.envs.push(matched);
            // Join the remaining (state) atoms.
            let state = self.state.get_or_init(|| Postings::new(&world.state));
            match join_state(state, rule, &mut self.envs, &mut self.fresh, |ai, _| ai == ti) {
                Err(ai) => self.emit_state_insertion(rule, ai),
                Ok(()) => (0..self.envs.len()).for_each(|join| self.emit_rule_candidates(rule, join)),
            }
        }
        self.pairs = pairs;
    }

    /// The (trigger, body atom) pairs of `rule`, pinned by the head
    /// requirements or not, in the search's buffer (hand it back to reuse).
    fn trigger_pairs(&mut self, rule: &Rule, pinned: bool) -> Vec<(usize, usize)> {
        let (world, unpinned) = (self.world, Scope::default());
        let mut pairs = std::mem::take(&mut self.pairs);
        let pins = if pinned { &self.required } else { &unpinned };
        self.triggers.get_or_insert_with(|| Postings::new(&world.triggers)).pairs(rule, pins, &mut pairs);
        pairs
    }

    /// A state predicate had no matching tuple: the repair inserts one whose
    /// attributes are searched for under the rule's own evaluator (§3.4),
    /// under the first join that reached it.
    fn emit_state_insertion(&mut self, rule: &'a Rule, atom_idx: usize) {
        let goal = self.goal;
        let atom = &rule.body[atom_idx];
        // Bind what we can from the environment plus the head requirements.
        let mut full = self.envs[0].clone();
        for (k, v) in &self.required.entries {
            if full.get(k).is_none() {
                full.set(k, v.clone());
            }
        }
        // The atom's free columns, and whatever else a selection reads that
        // no joined atom binds, range over the world's domain; every
        // selection must hold with the tuple inserted.
        let domain = self.domain.get_or_init(|| self.world.domain(goal));
        self.stats.pools_solved += 1;
        let t0 = Instant::now();
        let holds = |sel: &Selection, scope: &Scope| sel.eval(scope, &mut PureFuncs) == Ok(true);
        let solved = search_domain(rule, atom.var_names(), |_| true, holds, domain, &mut full);
        self.stats.solver_ns += t0.elapsed().as_nanos();
        let Some(tuple) = solved.then(|| instantiate(atom, &full)).flatten() else {
            return;
        };
        if !self.worth_building(cost::INSERT_TUPLE) {
            return;
        }
        let (id, table) = (&rule.id, &atom.table);
        let head = [format!("NEXIST[Tuple({goal})]"), format!("NDERIVE[{id} via meta rule h2]")];
        let fix = [format!("NEXIST[TuplePred(Rul={id}, Tab={table})]"), format!("FIX: insert base tuple {tuple}")];
        let trace = head.into_iter().chain(fix).collect();
        let description = format!("Manually inserting the {} tuple {tuple}", atom.table);
        self.emit(cost::INSERT_TUPLE, description, Repair::InsertTuple(tuple), Trace::Lines(trace));
    }

    /// The core of the search: under the complete join `self.envs[join]`,
    /// determine which program-based meta tuples block the derivation,
    /// price the change combinations that unblock it, and build the ones
    /// the frontier admits.
    fn emit_rule_candidates(&mut self, rule: &'a Rule, join: usize) {
        let world = self.world;
        let mut funcs = PureFuncs;
        self.options.clear();
        self.slots.clear();
        self.failing.clear();
        // --- assignments -----------------------------------------------------
        // Evaluate assignments; those bound to a required head value that
        // disagree must be fixed.
        self.post.reset_to(&self.envs[join]);
        for (ai, a) in rule.assigns.iter().enumerate() {
            let computed = a.expr.eval(&self.post, &mut funcs).ok();
            let needed = self.required.bound(&a.var);
            let first = self.options.len();
            match (computed, needed) {
                (Some(v), Some(need)) if v != **need => {
                    // Fix options: rewrite to the needed constant, or to an
                    // in-scope variable that carries the needed value.
                    let cost = match (&a.expr, &**need) {
                        (Expr::Const(Value::Int(old)), Value::Int(n)) => cost::const_change(*old, *n),
                        _ => cost::ASSIGN_CHANGE,
                    };
                    self.options.push(FixOption { fix: Fix::AssignNeeded(ai), cost });
                    // It may read what the body or an earlier assignment binds.
                    let bound = |w| {
                        rule.body.iter().any(|b| b.var_names().any(|v| v == w)) || rule.assigns[..ai].iter().any(|p| p.var == w)
                    };
                    for (w, val) in self.envs[join].iter() {
                        if val == &**need && w != a.var && bound(w) {
                            self.options.push(FixOption { fix: Fix::AssignVar(ai, w), cost: cost::VAR_CHANGE });
                        }
                    }
                    self.post.set(&a.var, need.clone());
                    self.slots.push(first..self.options.len());
                }
                (Some(v), _) => self.post.set(&a.var, Cow::Owned(v)),
                (None, Some(need)) => {
                    self.options.push(FixOption { fix: Fix::AssignNeeded(ai), cost: cost::ASSIGN_CHANGE });
                    self.post.set(&a.var, need.clone());
                    self.slots.push(first..self.options.len());
                }
                (None, None) => return, // un-evaluable, unconstrained — give up
            }
        }
        let assign_slots = self.slots.len();
        // --- selections -------------------------------------------------------
        // Fix options per failing selection: constants (scanned from the domain),
        // operators, variable swaps (§2.5's "relevant changes" only — passing
        // selections are never touched). Each side is evaluated once; an
        // option is a comparison of values, not a patched selection.
        for (si, sel) in rule.sels.iter().enumerate() {
            let lhs = sel.lhs.eval(&self.post, &mut funcs).ok();
            let rhs = sel.rhs.eval(&self.post, &mut funcs).ok();
            if matches!((&lhs, &rhs), (Some(l), Some(r)) if sel.op.eval(l, r)) {
                continue;
            }
            self.failing.push(si);
            let first = self.options.len();
            let opposite = |side| match side {
                ExprSide::Lhs => &rhs,
                ExprSide::Rhs => &lhs,
            };
            // (a) constant replacement via the constraint pool (Fig. 6's
            //     NEXIST[Const(Rul, ID, Val)] leaf).
            for (side, old) in top_level_constants(sel) {
                let Value::Int(old) = *old else { continue };
                self.stats.pools_solved += 1;
                let other = opposite(side);
                // Equality against a bound variable admits exactly one
                // replacement constant — skip the domain scan, and the
                // clock, which would time no solving.
                let pinned = pinned(sel, side, &self.post);
                let t0 = pinned.is_none().then(Instant::now);
                let domain = || self.domain.get_or_init(|| world.domain(self.goal)).as_slice();
                let scan = pinned.as_ref().map_or_else(domain, std::slice::from_ref);
                let mut found = 0;
                for &v in scan.iter().filter(|&&v| v != old) {
                    if other.as_ref().is_some_and(|other| holds_with(sel.op, side, &Value::Int(v), other)) {
                        let fix = Fix::Const { sel: si, side, value: v };
                        self.options.push(FixOption { fix, cost: cost::const_change(old, v) });
                        found += 1;
                        if found >= world.budget.consts_per_site {
                            break;
                        }
                    }
                }
                self.stats.solver_ns += t0.map_or(0, |t0| t0.elapsed().as_nanos());
            }
            // (b) operator flips.
            if let (Some(l), Some(r)) = (&lhs, &rhs) {
                for op in CmpOp::ALL {
                    if op != sel.op && op.eval(l, r) {
                        self.options.push(FixOption { fix: Fix::Oper { sel: si, op }, cost: cost::OP_CHANGE });
                    }
                }
            }
            // (c) variable swaps, to another variable the body binds.
            for (side, e) in [(ExprSide::Lhs, &sel.lhs), (ExprSide::Rhs, &sel.rhs)] {
                let (Expr::Var(cur), Some(other)) = (e, opposite(side)) else { continue };
                for (w, val) in self.post.iter() {
                    let in_body = || rule.body.iter().any(|atom| atom.var_names().any(|v| v == w));
                    if w != cur && holds_with(sel.op, side, val, other) && in_body() {
                        let fix = Fix::Var { sel: si, side, var: w };
                        self.options.push(FixOption { fix, cost: cost::VAR_CHANGE });
                    }
                }
            }
            self.slots.push(first..self.options.len());
        }
        if self.failing.is_empty() && assign_slots == 0 {
            // The rule already derives the goal under this trigger — the
            // symptom must come from elsewhere.
            return;
        }
        // --- combinations ------------------------------------------------------
        // A candidate is one combination of selection fixes (or one deletion
        // set) with one combination of assignment fixes, offered in this
        // order: it is what breaks cost ties. No failing selection means one
        // empty combination (only assignments need fixing); a failing
        // selection nothing can fix means none.
        for k in 0..combinations(&self.slots[assign_slots..]) {
            let cost = price(&self.options, &self.slots[assign_slots..], k);
            self.offer(rule, assign_slots, SelectionFix::Change(k), cost, self.failing.len());
        }
        // Deletion subsets: every subset of selections of size ≤ 2 that covers
        // all failing selections (Table 2 candidates F, G, H).
        if self.failing.len() <= 2 {
            let n = rule.sels.len();
            for i in 0..n {
                for j in std::iter::once(None).chain((i + 1..n).map(Some)) {
                    if self.failing.iter().all(|&f| f == i || Some(f) == j) {
                        let deleted = 1 + usize::from(j.is_some());
                        let cost = deleted as u32 * cost::DELETE_SELECTION;
                        self.offer(rule, assign_slots, SelectionFix::Delete(i, j), cost, deleted);
                    }
                }
            }
        }
    }

    /// One way to deal with the failing selections, touching `fixed` of
    /// them, with each combination of assignment fixes: price the candidate
    /// — arithmetic on the options — and build it only if the frontier
    /// still admits that price (the cut tightens as candidates land).
    /// Multi-edit patches are intrinsically less plausible: one extra unit
    /// per additional edit keeps Table 2's single-literal repairs ahead of
    /// combination repairs.
    fn offer(&mut self, rule: &'a Rule, assign_slots: usize, fix: SelectionFix, fix_cost: u32, fixed: usize) {
        let extra_edits = ((fixed + assign_slots) as u32).saturating_sub(1);
        for assign in 0..combinations(&self.slots[..assign_slots]) {
            let cost = fix_cost + price(&self.options, &self.slots[..assign_slots], assign) + extra_edits;
            if cost > self.world.budget.max_cost || !self.worth_building(cost) {
                continue;
            }
            let (assigns, changes) = self.slots.split_at(assign_slots);
            let mut edits = match fix {
                SelectionFix::Change(k) => edits_of(&self.options, changes, k, rule, &self.required),
                SelectionFix::Delete(i, j) => std::iter::once(i)
                    .chain(j)
                    .map(|sel| Edit::DeleteSelection { rule: rule.id.clone(), sel })
                    .collect(),
            };
            edits.extend(edits_of(&self.options, assigns, assign, rule, &self.required));
            self.push_patch(rule, edits, cost);
        }
    }

    /// Build one patch candidate of `rule`, whose failing selections are
    /// `self.failing`, and rank it; its trace is written only if it is
    /// handed out.
    fn push_patch(&mut self, rule: &'a Rule, edits: Vec<Edit>, cost: u32) {
        let patch = Patch::of(edits);
        // Syntax preservation (§4.2): refuse edits that break the grammar.
        // Every edit touches `rule` alone, so it is checked — and described —
        // against that rule alone: emission stays O(1) in program size
        // (Fig. 10's linearity).
        if !patch.applies_to_rule(rule) {
            self.stats.refused += 1;
            return;
        }
        let description = patch.describe_rule(rule);
        let failing = self.failing_log.len()..self.failing_log.len() + self.failing.len();
        self.failing_log.extend(&self.failing);
        let trace = Trace::Tree { goal: self.goal, rule, failing, edits: patch.edits.len() };
        self.emit(cost, description, Repair::Patch(patch), trace);
    }

    /// Donor exploration: `rule` derives a different table; re-targeting or
    /// copying it can make the goal appear (the Q4 repairs).
    fn explore_donor(&mut self, rule: &'a Rule) {
        let goal = self.goal;
        if !self.donor_fires(rule) {
            return;
        }
        self.stats.trees += 1;
        let trace = |fix: &str| {
            let head = format!("NEXIST[HeadFunc(Rul={}, Tab={})] — donor head is {}", rule.id, goal.table, rule.head.table);
            Trace::Lines(vec![format!("NEXIST[Tuple({goal})]"), head, format!("FIX: {fix}")])
        };
        // (a) Re-target the head (loses the original derivation — backtesting
        // usually rejects this, as in Table 6c candidates C–G).
        let patch = Patch::single(Edit::SetHeadTable { rule: rule.id.clone(), table: goal.table.clone() });
        if self.worth_building(cost::HEAD_CHANGE) && self.applies(&patch) {
            let description = format!("Changing the head of {} to {}(...)", rule.id, goal.table);
            self.emit(cost::HEAD_CHANGE, description, Repair::Patch(patch), trace("re-target head"));
        }
        // (b) Copy the rule with the new head (keeps the original — Table 6c
        // candidates J/L, the accepted ones).
        if !self.worth_building(cost::COPY_RULE) {
            return;
        }
        let mut copy = rule.clone();
        copy.id = format!("{}_copy", rule.id);
        copy.head.table = goal.table.clone();
        let patch = Patch::single(Edit::AddRule { rule: copy });
        if self.applies(&patch) {
            let description = format!("Copying {} and replacing head with {}(...)", rule.id, goal.table);
            self.emit(cost::COPY_RULE, description, Repair::Patch(patch), trace("copy rule with new head"));
        }
    }

    /// Does donor `rule` fire under some trigger with a head the goal
    /// matches once re-targeted? A trigger whose state join fails is given
    /// up, its further atoms too.
    fn donor_fires(&mut self, rule: &'a Rule) -> bool {
        let (world, goal) = (self.world, self.goal);
        let mut funcs = PureFuncs;
        let mut given_up = None;
        for (pos, ai) in self.trigger_pairs(rule, false) {
            let trigger = &world.triggers[pos];
            let mut env = Scope::default();
            if given_up == Some(pos) || !env.unify(&rule.body[ai], trigger, &mut self.fresh) {
                continue;
            }
            // Join state, evaluate assigns and sels.
            let mut envs = vec![env];
            let is_trigger = |_, satom: &Atom| *satom.table == *trigger.table;
            let state = self.state.get_or_init(|| Postings::new(&world.state));
            if join_state(state, rule, &mut envs, &mut self.fresh, is_trigger).is_err() {
                given_up = Some(pos);
                continue;
            }
            'env: for mut e in envs {
                for a in &rule.assigns {
                    match a.expr.eval(&e, &mut funcs) {
                        Ok(v) => e.set(&a.var, Cow::Owned(v)),
                        Err(_) => continue 'env,
                    }
                }
                let retargeted = |head| Tuple { table: goal.table.as_str().into(), ..head };
                let passes = rule.sels.iter().all(|s| s.eval(&e, &mut funcs) == Ok(true));
                if passes && instantiate(&rule.head, &e).is_some_and(|head| goal.matches(&retargeted(head))) {
                    return true;
                }
            }
        }
        false
    }
}

/// A fully concrete tuple from a pattern, if every column is constrained.
fn pattern_tuple(p: &Pattern) -> Option<Tuple> {
    let loc = p.loc.clone()?;
    let args: Option<Vec<Value>> = p.args.iter().cloned().collect();
    Some(Tuple { table: p.table.as_str().into(), loc, args: args? })
}

/// What unifying a rule's head with the goal requires of the rule's
/// variables: in each head column the goal fixes, the constant must be the
/// goal's value and the variable takes it. Read in place — a variable's
/// value is the goal's in the first such column it fills — so pricing a
/// rule builds nothing; [`Self::bind`] makes the [`Scope`] a tree opens
/// from.
#[derive(Clone, Copy)]
struct HeadRequirements<'a> {
    head: &'a Atom,
    goal: &'a Pattern,
}

impl<'a> HeadRequirements<'a> {
    /// `rule`'s requirements, `None` when it can never produce the goal
    /// (an arity or constant mismatch, or a variable the goal fixes to two
    /// values).
    fn of(rule: &'a Rule, goal: &'a Pattern) -> Option<Self> {
        let head = HeadRequirements { head: &rule.head, goal };
        let agrees = |(i, column): (usize, (&Term, &Option<Value>))| match column {
            (Term::Const(c), Some(v)) => c == v,
            (Term::Var(name), Some(v)) => head.columns().take(i).all(|earlier| match earlier {
                (Term::Var(other), Some(u)) if same_name(other, name) => u == v,
                _ => true,
            }),
            _ => true,
        };
        (rule.head.args.len() == goal.args.len() && head.columns().enumerate().all(agrees)).then_some(head)
    }

    /// The head's columns with what the goal fixes each to.
    fn columns(self) -> impl Iterator<Item = (&'a Term, &'a Option<Value>)> {
        std::iter::once((&self.head.loc, &self.goal.loc)).chain(self.head.args.iter().zip(&self.goal.args))
    }

    /// Leave the requirements in `required`, in name order.
    fn bind(self, required: &mut Scope<'a>) {
        required.entries.clear();
        for (term, value) in self.columns() {
            if let (Term::Var(name), Some(v)) = (term, value) {
                if required.get(name).is_none() {
                    required.set(name, Cow::Borrowed(v));
                }
            }
        }
    }
}

impl Bindings for HeadRequirements<'_> {
    fn get(&self, name: &str) -> Option<&Value> {
        self.columns().find_map(|(term, value)| match (term, value) {
            (Term::Var(v), Some(value)) if same_name(v, name) => Some(value),
            _ => None,
        })
    }
}

/// The least any candidate of `rule`'s trees can cost. A selection that
/// fails under the head's `required` bindings fails in every tree, whose
/// bindings agree with them, and costs at least its cheapest fix: its
/// constant set to the value an `==` pins (or else moved by one), its
/// operator or a variable changed, or its deletion. Each fix past the first
/// is one more edit. Inserting the tuple a second body atom lacks fixes no
/// selection: its bindings agree with these too, so a selection that fails
/// here refuses the insertion (`emit_state_insertion`), and a rule with one
/// has no candidate under `INSERT_TUPLE` to price.
fn floor(rule: &Rule, required: &impl Bindings) -> u32 {
    let cheapest = |sel: &Selection| {
        let constant = top_level_constants(sel).filter_map(|(side, old)| {
            let old = old.as_int()?;
            Some(pinned(sel, side, required).map_or(cost::CONST_ADJACENT, |pinned| cost::const_change(old, pinned)))
        });
        constant.fold(cost::OP_CHANGE.min(cost::VAR_CHANGE).min(cost::DELETE_SELECTION), u32::min)
    };
    let failing = rule.sels.iter().filter(|sel| sel.eval(required, &mut PureFuncs) == Ok(false));
    let (fixes, least) = failing.fold((0, 0), |(n, least), sel| (n + 1, least + cheapest(sel)));
    least + u32::saturating_sub(fixes, 1)
}

/// Join `envs` with the recorded state through every body atom of `rule`
/// that `skip` does not name, atom after atom, each against its own
/// table's tuples in state order. `Err(i)` when no state tuple extends any
/// of them through atom `i`: `envs` is then as it stood before that atom.
fn join_state<'a>(
    state: &Postings<'a>,
    rule: &'a Rule,
    envs: &mut Vec<Scope<'a>>,
    fresh: &mut Vec<(&'a str, &'a Value)>,
    skip: impl Fn(usize, &Atom) -> bool,
) -> Result<(), usize> {
    for (ai, atom) in rule.body.iter().enumerate() {
        if skip(ai, atom) {
            continue;
        }
        let mut next = Vec::new();
        let tuples = state.table(&atom.table).iter().map(|&pos| &state.tuples[pos]);
        for env in envs.iter() {
            for st in tuples.clone() {
                if unify_atom(atom, st, env, fresh) {
                    let mut extended = env.clone();
                    extended.extend(fresh);
                    next.push(extended);
                }
            }
        }
        if next.is_empty() {
            return Err(ai);
        }
        *envs = next;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// positive symptoms (§4.2, Fig. 7)

/// A recorded derivation of the offending tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationRecord {
    /// The rule that fired.
    pub rule: String,
    /// The body tuples, in body-atom order.
    pub body: Vec<Tuple>,
    /// Which body tuples are base/state (eligible for deletion/change).
    pub base_mask: Vec<bool>,
}

/// Generate repairs that make an *existing* tuple disappear: those that
/// break one of the world's recorded derivations of it.
pub fn generate_existing(world: &World, culprit: &Tuple) -> (Vec<Candidate>, ExploreStats) {
    let mut stats = ExploreStats::default();
    let mut out = Frontier::new(&world.budget);
    let domain = world.domain(&Pattern::exact(culprit));
    let mut fresh = Vec::new();
    for d in &world.derivations {
        let Some(rule) = world.program.rule(&d.rule) else {
            continue;
        };
        // Reconstruct the firing environment.
        let mut env = Scope::default();
        if !rule.body.iter().zip(&d.body).all(|(atom, t)| env.unify(atom, t, &mut fresh)) {
            continue;
        }
        let mut funcs = PureFuncs;
        let mut post = env.clone();
        for a in &rule.assigns {
            if let Ok(v) = a.expr.eval(&post, &mut funcs) {
                post.set(&a.var, Cow::Owned(v));
            }
        }
        let trace_head = vec![
            format!("EXIST[Tuple({culprit})]"),
            format!("DERIVE[{} via meta rule h2]", rule.id),
        ];
        // A rule-literal candidate: described against its rule, traced
        // to the meta tuple (`exists`) it takes away.
        let patched = |out: &mut Frontier<_>, patch: Patch, cost: u32, exists: String| {
            let description = patch.describe_rule(rule);
            let mut trace = trace_head.clone();
            trace.extend([exists, format!("FIX: {description}")]);
            out.push(cost, description, (Repair::Patch(patch), Trace::Lines(trace)));
        };
        // (a) Base-tuple deletions (Fig. 5: DELETETUPLE).
        for (bi, t) in d.body.iter().enumerate() {
            if !d.base_mask[bi] {
                continue;
            }
            stats.raw_candidates += 1;
            let mut trace = trace_head.clone();
            trace.push(format!("EXIST[TuplePred({t})]"));
            trace.push(format!("FIX: delete base tuple {t}"));
            let description = format!("Deleting the {} tuple {t}", t.table);
            // Cost: symmetric with insertion.
            out.push(cost::INSERT_TUPLE, description, (Repair::DeleteTuple(t.clone()), Trace::Lines(trace)));
            // (b) Base-tuple changes: symbolic re-execution + negation
            // (§4.2's `Const('r1',1,Z)` with constraint `1 == Z` negated):
            // the column's first value under which every selection that
            // reads it fails.
            for ci in 0..t.args.len() {
                // Which rule variable is bound to this column?
                let Some(Term::Var(v)) = rule.body[bi].args.get(ci) else {
                    continue;
                };
                let reads = |sel: &Selection| sel.vars().contains(v);
                if !rule.sels.iter().any(reads) {
                    continue;
                }
                let mut sym_env = env.clone();
                sym_env.remove(v);
                let fails = |sel: &Selection, scope: &Scope| {
                    let side = |e: &Expr| e.eval(scope, &mut PureFuncs).ok();
                    matches!((side(&sel.lhs), side(&sel.rhs)), (Some(l), Some(r)) if sel.op.negate().eval(&l, &r))
                };
                stats.pools_solved += 1;
                let t0 = Instant::now();
                let solved = search_domain(rule, [v.as_str()], reads, fails, &domain, &mut sym_env);
                stats.solver_ns += t0.elapsed().as_nanos();
                if let Some(nv) = solved.then(|| sym_env.get(v)).flatten() {
                    let mut nt = t.clone();
                    nt.args[ci] = nv.clone();
                    stats.raw_candidates += 1;
                    let mut trace = trace_head.clone();
                    trace.push(format!("EXIST[TuplePred({t})]"));
                    trace.push(format!("FIX: change {t} to {nt}"));
                    let description = format!("Changing {t} to {nt}");
                    let repair = Repair::ChangeTuple { from: t.clone(), to: nt };
                    out.push(cost::CONST_OTHER, description, (repair, Trace::Lines(trace)));
                }
            }
        }
        // (c) Rule-literal changes that break this binding (the green
        // repair of Fig. 7: `Swi==1` → `Swi==2`).
        for (si, sel) in rule.sels.iter().enumerate() {
            let lhs = sel.lhs.eval(&post, &mut funcs).ok();
            let rhs = sel.rhs.eval(&post, &mut funcs).ok();
            for (side, old) in top_level_constants(sel) {
                let Value::Int(old) = *old else { continue };
                let other = match side {
                    ExprSide::Lhs => &rhs,
                    ExprSide::Rhs => &lhs,
                };
                stats.pools_solved += 1;
                let t0 = Instant::now();
                // The change must make *this* derivation fail; one constant
                // change per site suffices here, the first that is legal.
                let breaking = domain
                    .iter()
                    .filter(|&&v| v != old)
                    .filter(|&&v| other.as_ref().is_some_and(|other| !holds_with(sel.op, side, &Value::Int(v), other)))
                    .map(|&v| {
                        let edit = Edit::SetSelectionExpr { rule: rule.id.clone(), sel: si, side, expr: Expr::int(v) };
                        (v, Patch::single(edit))
                    })
                    .find(|(_, patch)| patch.applies_to_rule(rule));
                stats.solver_ns += t0.elapsed().as_nanos();
                let Some((v, patch)) = breaking else { continue };
                stats.raw_candidates += 1;
                let exists = format!("EXIST[Sel(Rul={}, SID=\"{}\")]", rule.id, sel.sid());
                patched(&mut out, patch, cost::const_change(old, v), exists);
            }
            // Operator negation always breaks the satisfied selection.
            if matches!((&lhs, &rhs), (Some(l), Some(r)) if !sel.op.negate().eval(l, r)) {
                let patch = Patch::single(Edit::SetSelectionOp {
                    rule: rule.id.clone(),
                    sel: si,
                    op: sel.op.negate(),
                });
                if patch.applies_to_rule(rule) {
                    stats.raw_candidates += 1;
                    let exists = format!("EXIST[Oper(Rul={}, SID=\"{}\")]", rule.id, sel.sid());
                    patched(&mut out, patch, cost::OP_CHANGE, exists);
                }
            }
        }
        // (d) Deleting a body predicate (Fig. 7's red repair — often
        // re-derives through another path; backtesting weeds it out, §4.2).
        for (pi, atom) in rule.body.iter().enumerate() {
            if rule.body.len() < 2 {
                break;
            }
            let patch = Patch::single(Edit::DeletePredicate { rule: rule.id.clone(), pred: pi });
            if patch.applies_to_rule(rule) {
                stats.raw_candidates += 1;
                let exists = format!("EXIST[PredFunc(Rul={}, Tab={})]", rule.id, atom.table);
                patched(&mut out, patch, cost::DELETE_PREDICATE, exists);
            }
        }
    }
    // Deletions have no tree to bound away: every candidate counted was built.
    stats.materialised = stats.raw_candidates;
    (out.finish().map(|built| hand_out(built, &[])).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the search returned before it kept a frontier: sort the
    /// exhaustive set by cost, dedupe by description (keeping the
    /// cheapest, and of equals the first emitted), apply the cutoff and
    /// the candidate cap.
    fn sort_dedup_truncate(mut cands: Vec<Candidate>, budget: &SearchBudget) -> Vec<Candidate> {
        cands.sort_by(|a, b| a.cost.cmp(&b.cost).then(a.description.cmp(&b.description)));
        let mut seen = BTreeSet::new();
        cands.retain(|c| c.cost <= budget.max_cost && seen.insert(c.description.clone()));
        cands.truncate(budget.max_candidates);
        cands
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any stream of `(cost, description)`: a draw is fresh, or repeats
        /// an earlier description at an equal, a lower or a higher cost.
        #[test]
        fn frontier_is_sort_dedup_truncate_of_any_stream(
            draws in proptest::collection::vec((0u32..9, 0usize..24, 0usize..4), 0..160),
            max_cost in 0u32..10,
        ) {
            let mut stream: Vec<(u32, usize)> = Vec::new();
            for (cost, d, repeat) in draws {
                let step = 1 + cost % 3;
                stream.push(match (repeat, stream.get(d % stream.len().max(1))) {
                    (1..=3, Some(&(was, earlier))) => ([was, was.saturating_sub(step), was + step][repeat - 1], earlier),
                    _ => (cost, d),
                });
            }
            let candidate = |(i, &(cost, d)): (usize, &(u32, usize))| Candidate {
                repair: Repair::Patch(Patch::default()),
                cost,
                description: format!("d{d}"),
                trace: vec![i.to_string()],
            };
            let candidates: Vec<Candidate> = stream.iter().enumerate().map(candidate).collect();
            for max_candidates in [0, 1, 3, 14, usize::MAX] {
                let budget = SearchBudget { max_cost, max_candidates, ..SearchBudget::default() };
                let mut frontier = Frontier::new(&budget);
                for c in &candidates {
                    frontier.push(c.cost, c.description.clone(), c.trace[0].clone());
                }
                let got: Vec<(u32, String, String)> = frontier.finish().collect();
                let want: Vec<(u32, String, String)> = sort_dedup_truncate(candidates.clone(), &budget)
                    .into_iter()
                    .map(|c| (c.cost, c.description, c.trace[0].clone()))
                    .collect();
                proptest::prop_assert_eq!(got, want, "k = {}, max_cost = {}", max_candidates, max_cost);
            }
        }
    }

    #[test]
    fn frontier_equals_sorting_the_exhaustive_set() {
        // A deterministic stream with many cost ties and repeated
        // descriptions; the trace records the emission index, so a tie
        // resolved towards the wrong emission shows.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let stream: Vec<Candidate> = (0..400)
            .map(|i| Candidate {
                repair: Repair::Patch(Patch::default()),
                cost: 1 + (next() % 6) as u32,
                description: format!("d{}", next() % 40),
                trace: vec![i.to_string()],
            })
            .collect();
        for max_candidates in [0, 1, 3, 14, 39, 40, usize::MAX] {
            for max_cost in [0, 2, 4, 10] {
                let budget = SearchBudget { max_cost, max_candidates, ..SearchBudget::default() };
                let mut frontier = Frontier::new(&budget);
                let mut built = 0;
                for c in &stream {
                    if frontier.admits(c.cost) {
                        built += 1;
                        frontier.push(c.cost, c.description.clone(), c.trace[0].clone());
                    }
                }
                let got: Vec<(u32, String, String)> = frontier.finish().collect();
                let want = sort_dedup_truncate(stream.clone(), &budget);
                let want: Vec<(u32, String, String)> =
                    want.iter().map(|c| (c.cost, c.description.clone(), c.trace[0].clone())).collect();
                assert_eq!(got, want, "k = {max_candidates}, max_cost = {max_cost}");
                if max_candidates == 1 {
                    assert!(built < stream.len() / 2, "the cut pruned nothing: {built}");
                }
            }
        }
    }
}
