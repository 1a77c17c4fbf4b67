//! Compiled rules: what a rule is at run time.
//!
//! [`CompiledRule::compile`] resolves a rule's variables to dense *slots*
//! once, so a firing binds into a *frame* of `n_slots` values instead of a
//! name-keyed [`mpr_ndlog::Env`], and everything the interpreter decides
//! per candidate by looking names up is decided here per rule:
//!
//! | piece | compiled to |
//! |---|---|
//! | body atom | one `ColOp` per column: `Const` / `Check slot` / `SameAs column` / `Bind slot` |
//! | selection, assignment | expressions over slots |
//! | head | a template of constants and slots |
//! | *when* a selection runs | a static schedule: after the delta atom, after each join extension, after each assignment |
//! | `Var op Const` over a delta column | a column test on the raw tuple (the *prefilter*) |
//!
//! Which columns bind and which check depends on what is already bound,
//! and that on the body position the triggering tuple (the *delta*) sits
//! at — so there is one `DeltaPlan` per body position: the delta atom's
//! column program, then the remaining atoms in body order as *extensions*.
//!
//! The schedule visits selections exactly as the interpreter's "evaluate
//! every not-yet-done selection whose variables are all bound" pass does:
//! a selection runs at the first stage that binds its last variable, and
//! selections of one stage run in source order. The prefilter is an
//! early-out on top: a `Var op Const` comparison is a pure function of the
//! delta tuple's own column, so testing it before the frame exists rejects
//! exactly the deltas the scheduled selection would have rejected right
//! after the match; it is built only for rules no selection of which
//! calls `f_unique()` — the one built-in with state — so skipping the
//! selections scheduled before it cannot shift the id sequence either.
//!
//! A join extension that knows, before it runs, the location and every
//! effective key column of its table — as the catalog the rule is compiled
//! against declares them — carries its *key plan*: those columns in the
//! store's key order, so the batch engine looks its one candidate up in the
//! store's own map instead of scanning the table.
//!
//! Two drivers fire through this form: the batch engine
//! (`batch.rs`, store probes, tuple ids as the annotation) and the
//! joint backtest (`mpr_backtest::mqo`, through [`CompiledRule::fire_scan`],
//! candidate tag sets as the annotation). Both compile a rule the first
//! time a delta reaches it, into a [`LazyRule`]; what they refuse up front
//! they refuse by [`check`], the binding half of the compilation, which
//! allocates nothing. The name-keyed interpreter
//! ([`crate::engine::match_atom`], [`crate::engine::instantiate`],
//! `Selection::eval` over `Env`) stays where it is the independent oracle:
//! the `Pipelined` reference engine, the naive fixpoint, the aggregates,
//! the explorer and the provenance queries.

use crate::engine::CompileError;
use mpr_ndlog::ast::{Atom, BinOp, CmpOp, Expr, Rule, Term};
use mpr_ndlog::eval::{eval_binop, FuncHost};
use mpr_ndlog::{Catalog, EvalError, Tuple, Value};
use std::borrow::Cow;
use std::sync::OnceLock;

/// A slot: the index of a rule variable in a [`Frame`].
type Slot = u32;

/// A binding environment: one value per slot, `None` until bound.
pub(crate) type Frame = [Option<Value>];

/// What one column of a body atom does with the tuple's value there.
/// Column `0` is the location, `i + 1` payload argument `i`.
#[derive(Debug, Clone)]
pub(crate) enum ColOp {
    /// Must equal the constant.
    Const(Value),
    /// Must equal the slot, which an earlier atom bound.
    Check(Slot),
    /// Must equal the tuple's own earlier column: a variable this atom
    /// binds and then repeats.
    SameAs(usize),
    /// First occurrence of a variable: bind the slot.
    Bind(Slot),
}

/// A `Var op Const` selection over a column the delta atom binds, tested
/// on the raw tuple.
#[derive(Debug, Clone)]
struct ColTest {
    col: usize,
    op: CmpOp,
    value: Value,
    /// `Var op Const` (else `Const op Var`).
    var_left: bool,
}

/// An expression over slots.
#[derive(Debug, Clone)]
enum SlotExpr {
    Const(Value),
    Slot(Slot),
    Binary(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    Call(String, Vec<SlotExpr>),
}

#[derive(Debug, Clone)]
struct Sel {
    lhs: SlotExpr,
    op: CmpOp,
    rhs: SlotExpr,
}

#[derive(Debug, Clone)]
struct AssignStep {
    slot: Slot,
    expr: SlotExpr,
    /// Selections that become ready once this assignment has run.
    ready: Vec<usize>,
}

#[derive(Debug, Clone)]
enum HeadTerm {
    Const(Value),
    Slot(Slot),
    /// An aggregate, or a variable bound nowhere: the head never
    /// instantiates (as [`crate::engine::instantiate`] answers `None`).
    Never,
}

/// One join extension: a body atom other than the delta's.
#[derive(Debug, Clone)]
pub(crate) struct Extension {
    /// Body position this extension fills.
    pub(crate) atom_idx: usize,
    pub(crate) table: String,
    pub(crate) cols: Vec<ColOp>,
    /// The key plan (module docs): the atom's columns that make up its
    /// table's store key, location first, when every one of them is known
    /// before the atom runs. `None`: the extension scans its table.
    pub(crate) key: Option<Vec<usize>>,
    /// Selections that become ready once this atom is joined.
    pub(crate) ready: Vec<usize>,
}

/// How the rule fires when the delta sits at one body position.
#[derive(Debug, Clone)]
pub(crate) struct DeltaPlan {
    prefilter: Vec<ColTest>,
    pub(crate) cols: Vec<ColOp>,
    /// Selections ready after the delta atom alone, minus the prefilter's.
    pub(crate) ready: Vec<usize>,
    /// The remaining atoms, in body order.
    pub(crate) exts: Vec<Extension>,
}

/// A rule compiled to slots (module docs).
#[derive(Debug, Clone)]
pub struct CompiledRule {
    pub(crate) n_slots: usize,
    head_table: String,
    /// Location, then arguments.
    head: Vec<HeadTerm>,
    head_is_event: bool,
    sels: Vec<Sel>,
    assigns: Vec<AssignStep>,
    /// One plan per body position.
    pub(crate) deltas: Vec<DeltaPlan>,
}

/// Does `e` call `f_unique()`, the one built-in with state?
fn calls_unique(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => false,
        Expr::Binary(_, l, r) => calls_unique(l) || calls_unique(r),
        Expr::Call(name, args) => name == "f_unique" || args.iter().any(calls_unique),
    }
}

/// The columns of `atom`, location first.
fn columns(atom: &Atom) -> impl Iterator<Item = &Term> {
    std::iter::once(&atom.loc).chain(&atom.args)
}

/// The `Var op Const` selections of `rule` (either orientation) over a
/// column its body atom `d` binds, as `(selection, column, op, constant,
/// var on the left)` — what can be decided from the delta tuple alone.
/// Empty when a selection of the rule calls `f_unique()` (module docs).
fn column_tests(
    rule: &Rule,
    d: usize,
) -> impl Iterator<Item = (usize, usize, CmpOp, &Value, bool)> {
    let pure = rule.sels.iter().all(|s| !calls_unique(&s.lhs) && !calls_unique(&s.rhs));
    let atom = rule.body.get(d).filter(|_| pure);
    atom.into_iter().flat_map(move |atom| {
        rule.sels.iter().enumerate().filter_map(move |(i, s)| {
            let (v, c, var_left) = match (&s.lhs, &s.rhs) {
                (Expr::Var(v), Expr::Const(c)) => (v, c, true),
                (Expr::Const(c), Expr::Var(v)) => (v, c, false),
                _ => return None,
            };
            let col = columns(atom).position(|t| t.as_var() == Some(v))?;
            Some((i, col, s.op, c, var_left))
        })
    })
}

/// The `(column, constant)` pairs a tuple must carry for `rule` to fire
/// with it at body position `d`: the `Eq` tests of the column prefilter,
/// read off the source rule so a dispatch can be keyed on them without
/// compiling it.
pub fn eq_consts(rule: &Rule, d: usize) -> impl Iterator<Item = (usize, &Value)> {
    column_tests(rule, d).filter(|t| t.2 == CmpOp::Eq).map(|(_, col, _, c, _)| (col, c))
}

/// The alphabetically first variable of `e` that `bound` rejects, or
/// `first` if that sorts before it — as the interpreter's sorted variable
/// sets had it.
fn first_unbound<'r>(e: &'r Expr, bound: &impl Fn(&str) -> bool, first: Option<&'r str>) -> Option<&'r str> {
    match e {
        Expr::Const(_) => first,
        Expr::Var(v) if !bound(v) && first.map_or(true, |u| v.as_str() < u) => Some(v),
        Expr::Var(_) => first,
        Expr::Binary(_, l, r) => first_unbound(r, bound, first_unbound(l, bound, first)),
        Expr::Call(_, args) => args.iter().fold(first, |u, a| first_unbound(a, bound, u)),
    }
}

/// The binding checks of [`CompiledRule::compile`], which runs them first:
/// every variable an assignment reads is bound by the body or an earlier
/// assignment, every variable a selection reads by the body or any
/// assignment, and no body atom carries an aggregate. Allocates nothing
/// unless the rule fails. A driver that compiles rules lazily runs this on
/// every rule up front, so a program is refused — with the same error, for
/// the same rule, in program order — whether or not a delta ever reaches
/// the bad rule.
pub fn check(rule: &Rule) -> Result<(), CompileError> {
    let in_body = |v: &str| rule.body.iter().any(|a| a.var_names().any(|b| b == v));
    for (j, a) in rule.assigns.iter().enumerate() {
        let bound = |v: &str| in_body(v) || rule.assigns[..j].iter().any(|p| p.var == v);
        if let Some(var) = first_unbound(&a.expr, &bound, None) {
            return Err(CompileError::UnboundAssignVar { rule: rule.id.clone(), var: var.into() });
        }
    }
    let bound = |v: &str| in_body(v) || rule.assigns.iter().any(|a| a.var == v);
    for s in &rule.sels {
        if let Some(var) = first_unbound(&s.rhs, &bound, first_unbound(&s.lhs, &bound, None)) {
            return Err(CompileError::UnboundSelectionVar { rule: rule.id.clone(), var: var.into() });
        }
    }
    if rule.body.iter().any(Atom::has_agg) {
        return Err(CompileError::AggInBody { rule: rule.id.clone() });
    }
    Ok(())
}

/// `e` over slots; [`check`] has bound every variable it reads.
fn compile_expr(e: &Expr, names: &[&str]) -> SlotExpr {
    match e {
        Expr::Const(v) => SlotExpr::Const(v.clone()),
        Expr::Var(v) => {
            let slot = names.iter().position(|n| n == v).expect("`check` bound every variable");
            SlotExpr::Slot(slot as Slot)
        }
        Expr::Binary(op, l, r) => {
            SlotExpr::Binary(*op, Box::new(compile_expr(l, names)), Box::new(compile_expr(r, names)))
        }
        Expr::Call(name, args) => {
            SlotExpr::Call(name.clone(), args.iter().map(|a| compile_expr(a, names)).collect())
        }
    }
}

impl SlotExpr {
    /// The latest stage any slot of the expression is bound at (`0` for
    /// none): the stage the expression becomes evaluable.
    fn stage(&self, bound_at: &[usize]) -> usize {
        match self {
            SlotExpr::Const(_) => 0,
            SlotExpr::Slot(s) => bound_at[*s as usize],
            SlotExpr::Binary(_, l, r) => l.stage(bound_at).max(r.stage(bound_at)),
            SlotExpr::Call(_, args) => args.iter().map(|a| a.stage(bound_at)).max().unwrap_or(0),
        }
    }

    /// `Expr::eval` over a frame: same evaluation order, same errors, and
    /// no clone of a value that is only compared.
    fn eval<'a>(
        &'a self,
        frame: &'a Frame,
        host: &mut dyn FuncHost,
    ) -> Result<Cow<'a, Value>, EvalError> {
        match self {
            SlotExpr::Const(v) => Ok(Cow::Borrowed(v)),
            SlotExpr::Slot(s) => frame
                .get(*s as usize)
                .and_then(Option::as_ref)
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::UnboundVar(format!("slot {s}"))),
            SlotExpr::Binary(op, l, r) => {
                let lv = l.eval(frame, host)?;
                let rv = r.eval(frame, host)?;
                eval_binop(*op, &lv, &rv).map(Cow::Owned)
            }
            SlotExpr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(frame, host)?.into_owned());
                }
                host.call(name, &vals).map(Cow::Owned)
            }
        }
    }
}

/// Does `tuple` pass every test of an atom's column program under
/// `frame`? The half of [`match_cols`] that writes nothing.
pub(crate) fn cols_match(cols: &[ColOp], tuple: &Tuple, frame: &Frame) -> bool {
    if cols.len() != tuple.args.len() + 1 {
        return false;
    }
    let col = |i: usize| if i == 0 { &tuple.loc } else { &tuple.args[i - 1] };
    cols.iter().enumerate().all(|(i, op)| match op {
        ColOp::Const(c) => c == col(i),
        ColOp::Check(s) => frame[*s as usize].as_ref() == Some(col(i)),
        ColOp::SameAs(j) => col(*j) == col(i),
        ColOp::Bind(_) => true,
    })
}

/// Unify `tuple` with an atom's column program: every test first, writing
/// nothing, then — only for a match — the bindings. A rejected candidate,
/// the common case in a join loop, clones nothing; and since a `Bind`
/// slot is read by no test of its own atom, the next candidate can be
/// matched into the same frame without undoing this one's bindings.
pub(crate) fn match_cols(cols: &[ColOp], tuple: &Tuple, frame: &mut Frame) -> bool {
    if !cols_match(cols, tuple, frame) {
        return false;
    }
    for (i, op) in cols.iter().enumerate() {
        if let ColOp::Bind(s) = op {
            frame[*s as usize] = Some(if i == 0 { &tuple.loc } else { &tuple.args[i - 1] }.clone());
        }
    }
    true
}

/// The key plan of an atom over `table` whose column program is `cols`
/// (module docs): `None` unless `catalog` declares the table state and
/// `cols` knows its location and every effective key column.
fn key_plan(catalog: &Catalog, table: &str, cols: &[ColOp]) -> Option<Vec<usize>> {
    let schema = catalog.get(table).filter(|s| s.is_state())?;
    let plan: Vec<usize> = std::iter::once(0).chain(schema.effective_keys().into_iter().map(|k| k + 1)).collect();
    let known = |c: &usize| matches!(cols.get(*c), Some(ColOp::Const(_) | ColOp::Check(_)));
    plan.iter().all(known).then_some(plan)
}

impl Extension {
    /// The store key `plan` reads under `frame`, into `key`. `false` if a
    /// column is unbound — unreachable by construction (a `Check` slot is
    /// bound by an earlier atom), but stay total.
    pub(crate) fn key_values(&self, plan: &[usize], frame: &Frame, key: &mut Vec<Value>) -> bool {
        key.clear();
        plan.iter().all(|&c| {
            let known = match &self.cols[c] {
                ColOp::Const(v) => Some(v),
                ColOp::Check(s) => frame[*s as usize].as_ref(),
                ColOp::SameAs(_) | ColOp::Bind(_) => None,
            };
            known.map(|v| key.push(v.clone())).is_some()
        })
    }
}

impl DeltaPlan {
    /// The column prefilter: can `delta` fire the rule from this position
    /// at all, by its own columns?
    pub(crate) fn accepts(&self, delta: &Tuple) -> bool {
        self.prefilter.iter().all(|t| {
            let got = if t.col == 0 { Some(&delta.loc) } else { delta.args.get(t.col - 1) };
            got.is_some_and(|v| if t.var_left { t.op.eval(v, &t.value) } else { t.op.eval(&t.value, v) })
        })
    }
}

impl CompiledRule {
    /// Compile `rule`; `catalog` says whether its head is an event table,
    /// and which join extensions get a key plan (module docs) — the engine
    /// passes its store's schemas. The one binding analysis a rule gets:
    /// the bound-before-use checks of selections and assignments
    /// ([`check`]), slot resolution, the per-delta column programs and the
    /// selection schedule.
    pub fn compile(rule: &Rule, catalog: &Catalog) -> Result<Self, CompileError> {
        check(rule)?;
        // Slots in first-occurrence order: body columns, then assignment
        // targets. `bound_at[slot]` is the stage an assignment first binds
        // a slot the body does not; body slots are staged per delta plan.
        let n_body = rule.body.len();
        let mut names: Vec<&str> = Vec::new();
        for v in rule.body.iter().flat_map(Atom::var_names) {
            if !names.contains(&v) {
                names.push(v);
            }
        }
        let n_body_slots = names.len();
        let mut assigns = Vec::with_capacity(rule.assigns.len());
        for a in &rule.assigns {
            let expr = compile_expr(&a.expr, &names);
            let slot = names.iter().position(|n| *n == a.var).unwrap_or_else(|| {
                names.push(&a.var);
                names.len() - 1
            });
            assigns.push(AssignStep { slot: slot as Slot, expr, ready: Vec::new() });
        }
        let sels: Vec<Sel> = rule
            .sels
            .iter()
            .map(|s| Sel { lhs: compile_expr(&s.lhs, &names), op: s.op, rhs: compile_expr(&s.rhs, &names) })
            .collect();
        // Stages: 0 the delta atom, k + 1 extension k, n_body + j
        // assignment j. A body slot is bound at a stage that depends on the
        // delta position (`UNBOUND` until its plan places it); a slot only
        // assignments bind, at the first of them.
        const UNBOUND: usize = usize::MAX;
        let mut bound_at = vec![UNBOUND; names.len()];
        for (j, a) in assigns.iter().enumerate().rev() {
            if a.slot as usize >= n_body_slots {
                bound_at[a.slot as usize] = n_body + j;
            }
        }
        let slot_of = |v: &str| names.iter().position(|n| *n == v).map(|s| s as Slot);
        let deltas = (0..n_body)
            .map(|d| {
                let mut bound_at = bound_at.clone();
                let mut atom_cols = |atom: &Atom, stage: usize| -> Vec<ColOp> {
                    columns(atom)
                        .enumerate()
                        .map(|(i, t)| match t {
                            Term::Const(c) => ColOp::Const(c.clone()),
                            Term::Var(v) | Term::Agg(_, v) => {
                                let s = slot_of(v).expect("body variables have slots");
                                match bound_at[s as usize] {
                                    UNBOUND => {
                                        bound_at[s as usize] = stage;
                                        ColOp::Bind(s)
                                    }
                                    earlier if earlier < stage => ColOp::Check(s),
                                    _ => ColOp::SameAs(
                                        columns(atom).position(|u| u.as_var() == Some(v)).unwrap_or(i),
                                    ),
                                }
                            }
                        })
                        .collect()
                };
                let cols = atom_cols(&rule.body[d], 0);
                let mut exts: Vec<Extension> = (0..n_body)
                    .filter(|&ai| ai != d)
                    .enumerate()
                    .map(|(k, ai)| {
                        let atom = &rule.body[ai];
                        let cols = atom_cols(atom, k + 1);
                        let key = key_plan(catalog, &atom.table, &cols);
                        Extension { atom_idx: ai, table: atom.table.clone(), cols, key, ready: Vec::new() }
                    })
                    .collect();
                let mut pushed = vec![false; sels.len()];
                let prefilter = column_tests(rule, d)
                    .map(|(i, col, op, c, var_left)| {
                        pushed[i] = true;
                        ColTest { col, op, value: c.clone(), var_left }
                    })
                    .collect();
                let mut ready = Vec::new();
                for (i, s) in sels.iter().enumerate() {
                    match s.lhs.stage(&bound_at).max(s.rhs.stage(&bound_at)) {
                        0 if !pushed[i] => ready.push(i),
                        0 => {}
                        k if k < n_body => exts[k - 1].ready.push(i),
                        _ => {} // waits for an assignment: scheduled below
                    }
                }
                DeltaPlan { prefilter, cols, ready, exts }
            })
            .collect();
        // After the whole body every body slot is bound, whatever the delta
        // position: a selection that waits for an assignment waits for the
        // same one in every plan.
        bound_at[..n_body_slots].fill(0);
        for (i, s) in sels.iter().enumerate() {
            let stage = s.lhs.stage(&bound_at).max(s.rhs.stage(&bound_at));
            if stage >= n_body.max(1) {
                assigns[stage - n_body].ready.push(i);
            }
        }
        let head = columns(&rule.head)
            .map(|t| match t {
                Term::Const(c) => HeadTerm::Const(c.clone()),
                Term::Var(v) => slot_of(v).map_or(HeadTerm::Never, HeadTerm::Slot),
                Term::Agg(..) => HeadTerm::Never,
            })
            .collect();
        Ok(CompiledRule {
            n_slots: names.len(),
            head_table: rule.head.table.clone(),
            head,
            head_is_event: catalog.get(&rule.head.table).is_some_and(|s| !s.is_state()),
            sels,
            assigns,
            deltas,
        })
    }

    /// Is the head's table declared an event? Then a derived head is
    /// transient: it triggers rules, and is neither stored nor joined.
    pub fn head_is_event(&self) -> bool {
        self.head_is_event
    }

    /// The column prefilter of body position `d` (module docs): `false`
    /// only if the rule cannot fire with `delta` there.
    pub fn accepts(&self, d: usize, delta: &Tuple) -> bool {
        self.deltas.get(d).is_some_and(|p| p.accepts(delta))
    }

    /// Do the selections `which` all hold? One that errors does not.
    pub(crate) fn sels_hold(&self, which: &[usize], frame: &Frame, host: &mut dyn FuncHost) -> bool {
        which.iter().all(|&i| {
            let s = &self.sels[i];
            let Ok(l) = s.lhs.eval(frame, host) else { return false };
            let Ok(r) = s.rhs.eval(frame, host) else { return false };
            s.op.eval(&l, &r)
        })
    }

    /// What follows a complete body match: the assignments in order (one
    /// that errors, or disagrees with what its variable is already bound
    /// to, means no firing), the selections each makes ready, the head.
    pub(crate) fn finish(&self, frame: &mut Frame, host: &mut dyn FuncHost) -> Option<Tuple> {
        for a in &self.assigns {
            let v = a.expr.eval(frame, host).ok()?.into_owned();
            match &frame[a.slot as usize] {
                Some(existing) if *existing != v => return None,
                _ => frame[a.slot as usize] = Some(v),
            }
            if !self.sels_hold(&a.ready, frame, host) {
                return None;
            }
        }
        let mut terms = self.head.iter().map(|t| match t {
            HeadTerm::Const(c) => Some(c.clone()),
            HeadTerm::Slot(s) => frame[*s as usize].clone(),
            HeadTerm::Never => None,
        });
        let loc = terms.next()??;
        let args = terms.collect::<Option<Vec<Value>>>()?;
        Some(Tuple { table: self.head_table.clone(), loc, args })
    }

    /// Fire the rule with `delta` bound at body position `d`, joining the
    /// other body atoms, in body order, against `scan(table, after)` — the
    /// tuples of a table in the order they are to be visited, `after`
    /// saying that the atom sits after the delta's position (where a
    /// round-based driver leaves out the round's own deltas, so a pair of
    /// them fires once: when the later one is the delta). Every tuple
    /// carries an annotation; a match carries the `meet` of its body's, and
    /// a pair whose annotations do not meet is no match. The heads are pushed to
    /// `out` in the interpreter's order: matches extend level by level, and
    /// fire in the order their candidates were visited.
    #[allow(clippy::too_many_arguments)]
    pub fn fire_scan<'s, A: Copy + 's>(
        &self,
        d: usize,
        delta: &Tuple,
        ann: A,
        scan: impl Fn(&str, bool) -> &'s [(Tuple, A)],
        meet: impl Fn(A, A) -> Option<A>,
        host: &mut dyn FuncHost,
        out: &mut Vec<(Tuple, A)>,
    ) {
        let Some(plan) = self.deltas.get(d).filter(|p| p.accepts(delta)) else {
            return;
        };
        let mut frame = vec![None; self.n_slots];
        if !match_cols(&plan.cols, delta, &mut frame) || !self.sels_hold(&plan.ready, &frame, host) {
            return;
        }
        let mut matches = vec![(frame, ann)];
        for ext in &plan.exts {
            let mut next = Vec::new();
            for (frame, ann) in &mut matches {
                for (t, t_ann) in scan(&ext.table, ext.atom_idx > d) {
                    let Some(joint) = meet(*ann, *t_ann) else { continue };
                    if match_cols(&ext.cols, t, frame) && self.sels_hold(&ext.ready, frame, host) {
                        next.push((frame.clone(), joint));
                    }
                }
            }
            if next.is_empty() {
                return;
            }
            matches = next;
        }
        for (mut frame, ann) in matches {
            if let Some(head) = self.finish(&mut frame, host) {
                out.push((head, ann));
            }
        }
    }
}

/// A rule's compiled form, built the first time a driver asks for it and
/// kept. A program of 900 rules whose traffic reaches a handful compiles a
/// handful.
#[derive(Debug, Default)]
pub struct LazyRule(OnceLock<Option<CompiledRule>>);

impl LazyRule {
    /// `rule` compiled against `catalog`, made on the first call; `None`
    /// for a rule that does not compile, or aggregates — the engine runs
    /// those through the interpreter, the joint replay hands back the
    /// candidates that reach them.
    pub fn get(&self, rule: &Rule, catalog: &Catalog) -> Option<&CompiledRule> {
        self.0.get_or_init(|| CompiledRule::compile(rule, catalog).ok().filter(|_| !rule.is_aggregate())).as_ref()
    }

    /// Has [`Self::get`] compiled the rule?
    pub fn is_compiled(&self) -> bool {
        self.0.get().is_some_and(Option::is_some)
    }
}
