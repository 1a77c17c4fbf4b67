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
//! the `Pipelined` reference engine, the naive fixpoint, the explorer and
//! the provenance queries.

use crate::engine::CompileError;
use mpr_ndlog::ast::{same_name, Atom, BinOp, Binders, CmpOp, Expr, Rule, Selection, Term};
use mpr_ndlog::eval::{eval_binop, FuncHost};
use mpr_ndlog::{Catalog, EvalError, Tuple, Value};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

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
/// on the raw tuple: one test of a column prefilter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColTest {
    col: usize,
    op: CmpOp,
    value: Value,
    /// `Var op Const` (else `Const op Var`).
    var_left: bool,
}

impl ColTest {
    /// Does `delta` pass the test? A column it does not have fails it.
    pub(crate) fn passes(&self, delta: &Tuple) -> bool {
        let v = delta.column(self.col);
        v.is_some_and(|v| if self.var_left { self.op.eval(v, &self.value) } else { self.op.eval(&self.value, v) })
    }
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
    /// A variable bound nowhere: the head never instantiates (as
    /// [`crate::engine::instantiate`] answers `None`).
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
    /// The delta columns, ascending, a firing reads before its body match
    /// is complete, apart from the prefilter's tests: a constant or repeated
    /// column of the delta atom, and a column whose slot an extension checks
    /// (or probes by key) or a selection reads that runs at the delta or at
    /// an extension — not one only the head or an assignment reads, which
    /// run after a complete match. Deltas of one arity that pass the same
    /// tests and agree here have, against one state, the same complete matches.
    reads: Vec<usize>,
}

/// A rule compiled to slots (module docs).
#[derive(Debug, Clone)]
pub struct CompiledRule {
    pub(crate) n_slots: usize,
    head_table: Arc<str>,
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

/// Does no selection of `rule` call `f_unique()`? Only such a rule's
/// selections may be tested before its frame exists (module docs).
pub(crate) fn pure(rule: &Rule) -> bool {
    rule.sels.iter().all(|s| !calls_unique(&s.lhs) && !calls_unique(&s.rhs))
}

/// `s` as a test of a delta column of `atom`: `(column, op, constant, var
/// on the left)` when `s` compares, either way round, a constant with a
/// variable `atom` binds — what can be decided from the delta tuple alone.
/// The `Eq` tests are what a trigger dispatch keys on, read off the source
/// rule so that it need not compile it.
pub(crate) fn column_test<'r>(s: &'r Selection, atom: &Atom) -> Option<(usize, CmpOp, &'r Value, bool)> {
    let (v, c, var_left) = match (&s.lhs, &s.rhs) {
        (Expr::Var(v), Expr::Const(c)) => (v, c, true),
        (Expr::Const(c), Expr::Var(v)) => (v, c, false),
        _ => return None,
    };
    let col = columns(atom).position(|t| t.as_var().is_some_and(|t| same_name(t, v)))?;
    Some((col, s.op, c, var_left))
}

/// What one walk of an expression finds that [`check`] refuses: the
/// alphabetically first variable `bound` rejects (as the interpreter's
/// sorted variable sets had it), and the first call the runtime does not
/// provide — anything but a zero-argument `f_unique()` — as its name and
/// argument count. A walk keeps what an earlier walk into `found` found.
fn scan<'r>(e: &'r Expr, bound: &impl Fn(&str) -> bool, found: &mut (Option<&'r str>, Option<(&'r str, usize)>)) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(v) => {
            if !bound(v) && found.0.map_or(true, |u| v.as_str() < u) {
                found.0 = Some(v);
            }
        }
        Expr::Binary(_, l, r) => {
            scan(l, bound, found);
            scan(r, bound, found);
        }
        Expr::Call(name, args) => {
            if !(name == "f_unique" && args.is_empty()) {
                found.1.get_or_insert((name, args.len()));
            }
            args.iter().for_each(|a| scan(a, bound, found));
        }
    }
}

/// The binding checks of [`CompiledRule::compile`], which runs them first,
/// against the rule's binding analysis `bound`: every variable an
/// assignment reads is bound by the body or an earlier assignment, every
/// variable a selection reads by the body or any assignment, and every
/// function called is `f_unique()` — each failure in that order, an
/// unknown call the first in the assignments, then the selections. One
/// walk of each expression; allocates nothing unless the rule fails. A driver that compiles rules
/// lazily runs this on every rule up front — the engine in the walk that
/// outlines its program ([`mpr_ndlog::ProgramOutline::checking`]) — so a
/// program is refused, with the same error, for the same rule, in program
/// order, whether or not a delta ever reaches the bad rule.
pub fn check(rule: &Rule, bound: &Binders) -> Result<(), CompileError> {
    let mut unknown = None;
    for (j, a) in rule.assigns.iter().enumerate() {
        let mut found = (None, None);
        scan(&a.expr, &|v| bound.bound_before(v, j), &mut found);
        if let Some(var) = found.0 {
            return Err(CompileError::UnboundAssignVar { rule: rule.id.clone(), var: var.into() });
        }
        unknown = unknown.or(found.1);
    }
    let bound = |v: &str| bound.bound(v);
    for s in &rule.sels {
        let mut found = (None, None);
        scan(&s.lhs, &bound, &mut found);
        scan(&s.rhs, &bound, &mut found);
        if let Some(var) = found.0 {
            return Err(CompileError::UnboundSelectionVar { rule: rule.id.clone(), var: var.into() });
        }
        unknown = unknown.or(found.1);
    }
    match unknown {
        Some((func, arity)) => Err(CompileError::UnknownFunction { rule: rule.id.clone(), func: func.into(), arity }),
        None => Ok(()),
    }
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
    /// Push every slot the expression reads to `out`.
    fn slots(&self, out: &mut Vec<Slot>) {
        match self {
            SlotExpr::Const(_) => {}
            SlotExpr::Slot(s) => out.push(*s),
            SlotExpr::Binary(_, l, r) => [l, r].into_iter().for_each(|e| e.slots(out)),
            SlotExpr::Call(_, args) => args.iter().for_each(|a| a.slots(out)),
        }
    }

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
        self.prefilter.iter().all(|t| t.passes(delta))
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
        check(rule, &Binders::of(rule))?;
        // Slots in first-occurrence order: body columns, then assignment
        // targets. `bound_at[slot]` is the stage an assignment first binds
        // a slot the body does not; body slots are staged per delta plan.
        let mut names: Vec<&str> = Vec::new();
        for v in rule.body.iter().flat_map(Atom::var_names) {
            if !names.contains(&v) {
                names.push(v);
            }
        }
        let (n_body, n_body_slots, is_pure) = (rule.body.len(), names.len(), pure(rule));
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
                            Term::Var(v) => {
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
                let mut prefilter = Vec::new();
                for (i, s) in rule.sels.iter().enumerate().filter(|_| is_pure) {
                    if let Some((col, op, c, var_left)) = column_test(s, &rule.body[d]) {
                        pushed[i] = true;
                        prefilter.push(ColTest { col, op, value: c.clone(), var_left });
                    }
                }
                // And the slots read before the body is complete.
                let (mut ready, mut read) = (Vec::new(), Vec::new());
                for (i, s) in sels.iter().enumerate() {
                    match s.lhs.stage(&bound_at).max(s.rhs.stage(&bound_at)) {
                        0 if !pushed[i] => ready.push(i),
                        0 => continue,
                        k if k < n_body => exts[k - 1].ready.push(i),
                        _ => continue, // waits for an assignment: scheduled below
                    }
                    [&s.lhs, &s.rhs].into_iter().for_each(|e| e.slots(&mut read));
                }
                read.extend(exts.iter().flat_map(|x| &x.cols).filter_map(|op| if let ColOp::Check(s) = op { Some(*s) } else { None }));
                let repeated = |i: usize| cols.iter().any(|op| matches!(op, ColOp::SameAs(j) if *j == i));
                let unread = |i: usize| matches!(cols[i], ColOp::Bind(s) if !read.contains(&s) && !repeated(i));
                let reads = (0..cols.len()).filter(|&i| !unread(i)).collect();
                DeltaPlan { prefilter, cols, ready, exts, reads }
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
            })
            .collect();
        Ok(CompiledRule {
            n_slots: names.len(),
            head_table: rule.head.table.as_str().into(),
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

    /// Body position `d`'s prefilter tests, and the delta columns its
    /// firing reads besides before a complete body match (`DeltaPlan::reads`).
    pub(crate) fn reads(&self, d: usize) -> (&[ColTest], &[usize]) {
        self.deltas.get(d).map_or((&[], &[]), |p| (&p.prefilter, &p.reads))
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
        Some(Tuple { table: Arc::clone(&self.head_table), loc, args })
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
    ///
    /// Returns the complete body matches: what the engine counts against
    /// [`crate::Options::max_derivations`], head or no head.
    ///
    /// The partial matches live in the caller's `scratch`: a candidate is
    /// matched into its partial match's frame and copied to the next level
    /// only if it survives, so a firing whose buffers have grown allocates
    /// nothing but the heads it pushes.
    #[allow(clippy::too_many_arguments)]
    pub fn fire_scan<'s, A: Copy + 's>(
        &self,
        d: usize,
        delta: &Tuple,
        ann: A,
        scan: impl Fn(&str, bool) -> &'s [(Tuple, A)],
        meet: impl Fn(A, A) -> Option<A>,
        host: &mut dyn FuncHost,
        scratch: &mut ScanScratch<A>,
        out: &mut Vec<(Tuple, A)>,
    ) -> usize {
        let Some(plan) = self.deltas.get(d).filter(|p| p.accepts(delta)) else {
            return 0;
        };
        let (n, s) = (self.n_slots, scratch);
        s.frames.clear();
        s.frames.resize(n, None);
        s.anns.clear();
        if !match_cols(&plan.cols, delta, &mut s.frames) || !self.sels_hold(&plan.ready, &s.frames, host) {
            return 0;
        }
        s.anns.push(ann);
        for ext in &plan.exts {
            s.next_frames.clear();
            s.next_anns.clear();
            for (m, &ann) in s.anns.iter().enumerate() {
                let frame = &mut s.frames[m * n..(m + 1) * n];
                for (t, t_ann) in scan(&ext.table, ext.atom_idx > d) {
                    let Some(joint) = meet(ann, *t_ann) else { continue };
                    if match_cols(&ext.cols, t, frame) && self.sels_hold(&ext.ready, frame, host) {
                        s.next_frames.extend_from_slice(frame);
                        s.next_anns.push(joint);
                    }
                }
            }
            if s.next_anns.is_empty() {
                return 0;
            }
            std::mem::swap(&mut s.frames, &mut s.next_frames);
            std::mem::swap(&mut s.anns, &mut s.next_anns);
        }
        for (m, &ann) in s.anns.iter().enumerate() {
            if let Some(head) = self.finish(&mut s.frames[m * n..(m + 1) * n], host) {
                out.push((head, ann));
            }
        }
        s.anns.len()
    }
}

/// [`CompiledRule::fire_scan`]'s buffers, kept by its caller from one
/// firing to the next: the partial matches of the join level being
/// extended and of the next, flat — per match `n_slots` frame values and
/// its annotation.
#[derive(Debug)]
pub struct ScanScratch<A> {
    frames: Vec<Option<Value>>,
    anns: Vec<A>,
    next_frames: Vec<Option<Value>>,
    next_anns: Vec<A>,
}

impl<A> Default for ScanScratch<A> {
    fn default() -> Self {
        ScanScratch { frames: Vec::new(), anns: Vec::new(), next_frames: Vec::new(), next_anns: Vec::new() }
    }
}

/// A rule's compiled form, built the first time a driver asks for it and
/// kept. A program of 900 rules whose traffic reaches a handful compiles a
/// handful, and a rule never compiled costs its driver two words.
#[derive(Debug, Default)]
pub struct LazyRule(OnceLock<Option<Box<CompiledRule>>>);

impl LazyRule {
    /// `rule` compiled against `catalog`, made on the first call; `None`
    /// for a rule that does not compile — the engine refuses such a
    /// program up front, the joint replay hands back the candidates that
    /// reach one.
    pub fn get(&self, rule: &Rule, catalog: &Catalog) -> Option<&CompiledRule> {
        self.0.get_or_init(|| CompiledRule::compile(rule, catalog).ok().map(Box::new)).as_deref()
    }

    /// Has [`Self::get`] compiled the rule?
    pub fn is_compiled(&self) -> bool {
        self.0.get().is_some_and(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::parse_program;

    #[test]
    fn a_key_probes_columns_bound_by_the_delta_are_read_columns() {
        // `T` is keyed on its first argument, `U` on both. r1 probes `T` with
        // the delta's location and `A`; r2 probes `U` with `X` from `T` and
        // the delta's `B`; from `Ev`, r3 scans `T` (its location is not
        // known) and probes `U` with the delta's location and `A`.
        let p = parse_program(
            "probes",
            r"
            materialize(Ev, event, 2, keys()).
            materialize(T, infinity, 2, keys(0)).
            materialize(U, infinity, 2, keys(0,1)).
            materialize(Out, infinity, 2, keys(0,1)).
            r1 Out(@C,A,Y) :- Ev(@C,A,B), T(@C,A,Y), Z := B.
            r2 Out(@C,A,B) :- Ev(@C,A,B), T(@C,A,X), U(@C,X,B).
            r3 Out(@C,A,B) :- T(@C,A,X), Ev(@N,A,B), U(@N,X,A).
            ",
        )
        .unwrap();
        let mut probed = Vec::new();
        for rule in &p.rules {
            let compiled = CompiledRule::compile(rule, &p.catalog).unwrap();
            for (d, plan) in compiled.deltas.iter().enumerate() {
                let bound_at = |s: Slot| plan.cols.iter().position(|op| matches!(op, ColOp::Bind(b) if *b == s));
                for ext in &plan.exts {
                    for &c in ext.key.iter().flatten() {
                        let ColOp::Check(s) = ext.cols[c] else { continue };
                        if let Some(col) = bound_at(s) {
                            assert!(plan.reads.contains(&col), "{}: delta at {d} probes {} with column {col}", rule.id, ext.table);
                            probed.push((rule.id.as_str(), d, col));
                        }
                    }
                }
            }
        }
        let ev = |id: &str| p.rules.iter().find(|r| r.id == id).unwrap().body.iter().position(|a| a.table == "Ev").unwrap();
        let expected = [("r1", ev("r1"), 0), ("r1", ev("r1"), 1), ("r2", ev("r2"), 2), ("r3", ev("r3"), 0), ("r3", ev("r3"), 1)];
        assert!(expected.iter().all(|e| probed.contains(e)), "{probed:?}");
        // r1's `B` reaches only an assignment: not a read column.
        let r1 = CompiledRule::compile(&p.rules[0], &p.catalog).unwrap();
        assert_eq!(r1.reads(0).1, [0, 1]);
    }

    #[test]
    fn a_call_the_runtime_does_not_provide_is_refused_up_front() {
        // Evaluated, the call would fail and the rule derive nothing; the
        // engine refuses it at construction instead, rule and name given.
        let refused = |rules: &str| {
            let p = parse_program("calls", rules).unwrap();
            match crate::Engine::new(&p) {
                Err(e @ CompileError::UnknownFunction { .. }) => e,
                Err(e) => panic!("{rules}: {e}"),
                Ok(_) => panic!("{rules}: accepted"),
            }
        };
        let e = refused("r0 Out(@C,A) :- Ev(@C,A).\nr1 Out(@C,Z) :- Ev(@C,X), T(@C,Y), Z := f_match(X, Y).");
        assert_eq!(e.to_string(), "rule `r1`: calls `f_match` with 2 argument(s); the one built-in is `f_unique()`");
        let e = refused("r1 Out(@C,X) :- Ev(@C,X), f_nope(X) == 1.");
        assert_eq!(e, CompileError::UnknownFunction { rule: "r1".into(), func: "f_nope".into(), arity: 1 });
        refused("r1 Out(@C,Z) :- Ev(@C,X), Z := X + f_unique(X).");
        let p = parse_program("calls", "r1 Out(@C,Z) :- Ev(@C,X), Z := X + f_unique(), Z > f_unique().").unwrap();
        assert!(crate::Engine::new(&p).is_ok());
    }
}
