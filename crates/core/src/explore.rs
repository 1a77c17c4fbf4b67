//! The meta provenance explorer: cost-ordered repair-candidate generation
//! (§3.3–§3.5, §4, Fig. 5/Fig. 17).
//!
//! For a **missing** tuple (negative symptom), the explorer forks one meta
//! provenance tree per rule that could derive the goal table (§3.3) and,
//! inside each tree, per recorded trigger event. Expanding a tree collects
//! a constraint pool (§3.4): the join must hold, the head must equal the
//! goal, and every selection must pass. Program-based meta tuples that
//! block a derivation (a `Const`, an `Oper`, a `Sel`, an `Assign`) become
//! candidate *changes*, costed by the [`CostModel`]; the pool is solved by
//! `mpr-solver` to obtain concrete replacement values — exactly the
//! `Const(Rul=r7, ID=2, Val=3)` leaf of Fig. 6.
//!
//! For an **existing** tuple (positive symptom, Fig. 7), the explorer walks
//! the recorded derivations, re-executes them symbolically, negates the
//! collected constraints, and emits base-tuple deletions/changes plus
//! rule-literal changes that break the derivation (§4.2).

use crate::cost::{CostModel, SearchBudget};
use crate::repair::{Candidate, Repair};
use mpr_ndlog::ast::{CmpOp, ConstSite, Expr, ExprSide, Term};
use mpr_ndlog::eval::{Env, PureFuncs};
use mpr_ndlog::patch::{Edit, Patch, ProgramOutline};
use mpr_ndlog::{Program, Rule, Selection, Tuple, Value};
use mpr_provenance::Pattern;
use mpr_runtime::engine::{instantiate, match_atom};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

/// Everything the explorer sees about the (logged) world.
#[derive(Debug, Clone)]
pub struct World {
    /// The (buggy) controller program.
    pub program: Program,
    /// Distinct trigger events observed in the history (PacketIn tuples).
    pub triggers: Vec<Tuple>,
    /// Controller state tuples (configuration seeds plus learned state).
    pub state: Vec<Tuple>,
    /// Cost model.
    pub cost: CostModel,
    /// Search bounds.
    pub budget: SearchBudget,
}

impl World {
    /// Candidate constants: goal values, program constants, and values
    /// observed in triggers/state — the solver's candidate domain (§2.5:
    /// "why did we change the constant to 3 and not, say, 4?" — because 3
    /// is in the domain the network exhibits).
    fn domain(&self, goal: &Pattern) -> Vec<i64> {
        let mut set: BTreeSet<i64> = BTreeSet::new();
        for r in &self.program.rules {
            for (_, v) in r.constants() {
                if let Value::Int(i) = v {
                    set.insert(i);
                }
            }
        }
        for t in self.triggers.iter().chain(self.state.iter()) {
            if let Some(i) = t.loc.as_int() {
                set.insert(i);
            }
            for a in &t.args {
                if let Some(i) = a.as_int() {
                    set.insert(i);
                }
            }
        }
        if let Some(l) = &goal.loc {
            if let Some(i) = l.as_int() {
                set.insert(i);
            }
        }
        for a in goal.args.iter().flatten() {
            if let Some(i) = a.as_int() {
                set.insert(i);
            }
        }
        // ±1 neighbors (off-by-one repairs).
        let neighbors: Vec<i64> = set.iter().flat_map(|&i| [i - 1, i + 1]).collect();
        set.extend(neighbors);
        set.into_iter().collect()
    }
}

/// Statistics from one generation run (feeds the Fig. 9a phase breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Trees forked (rule × trigger expansions).
    pub trees: u64,
    /// Constraint pools solved (selection feasibility checks).
    pub pools_solved: u64,
    /// Candidates considered: every repair within
    /// [`SearchBudget::max_cost`] the trees reach, whether it was built or
    /// bounded away by the running cut first (those are counted without
    /// the syntax check the built ones pass).
    pub raw_candidates: u64,
    /// Of those, the candidates actually built — syntax check, description
    /// and trace. Bounded by the frontier, not by the program size.
    pub materialised: u64,
    /// Nanoseconds spent in constraint solving (pool solves and
    /// feasibility enumeration) — the Fig. 9a "Constraint solving" slice.
    pub solver_ns: u128,
    /// The search hit [`SearchBudget::time_budget_ms`] and returned the
    /// best partial candidate set instead of the full exploration.
    pub timed_out: bool,
}

/// The exploration deadline, if the budget sets one.
fn deadline_of(budget: &SearchBudget) -> Option<std::time::Instant> {
    (budget.time_budget_ms > 0).then(|| {
        std::time::Instant::now() + std::time::Duration::from_millis(budget.time_budget_ms)
    })
}

/// `>=` so the smallest budget (1 ms) expires as soon as the clock
/// reaches the deadline, regardless of clock granularity.
fn expired(deadline: &Option<std::time::Instant>) -> bool {
    deadline.is_some_and(|d| std::time::Instant::now() >= d)
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
struct Frontier {
    max_cost: u32,
    max_candidates: usize,
    /// `(cost, description)` → candidate: the ranking, cheapest first.
    ranked: BTreeMap<(u32, String), Candidate>,
    /// Cost at which each description is ranked (the dedup index).
    cost_of: BTreeMap<String, u32>,
}

impl Frontier {
    fn new(budget: &SearchBudget) -> Self {
        Frontier {
            max_cost: budget.max_cost,
            max_candidates: budget.max_candidates,
            ranked: BTreeMap::new(),
            cost_of: BTreeMap::new(),
        }
    }

    /// The running cut: `max_cost`, tightened to the k-th cost once k
    /// distinct candidates are ranked.
    fn cut(&self) -> u32 {
        match self.ranked.last_key_value() {
            Some(((kth, _), _)) if self.ranked.len() >= self.max_candidates => {
                self.max_cost.min(*kth)
            }
            _ => self.max_cost,
        }
    }

    /// Could a candidate of this cost still be returned?
    fn admits(&self, cost: u32) -> bool {
        self.max_candidates > 0 && cost <= self.cut()
    }

    /// Rank `c`. Of two candidates with one description the cheaper stays,
    /// and of two at the same cost the one emitted first.
    fn push(&mut self, c: Candidate) {
        if !self.admits(c.cost) {
            return;
        }
        if let Some(&ranked_at) = self.cost_of.get(&c.description) {
            if ranked_at <= c.cost {
                return;
            }
            self.ranked.remove(&(ranked_at, c.description.clone()));
        }
        self.cost_of.insert(c.description.clone(), c.cost);
        self.ranked.insert((c.cost, c.description.clone()), c);
        if self.ranked.len() > self.max_candidates {
            if let Some(((_, description), _)) = self.ranked.pop_last() {
                self.cost_of.remove(&description);
            }
        }
    }

    /// The ranked candidates, cheapest first.
    fn finish(self) -> Vec<Candidate> {
        self.ranked.into_values().collect()
    }
}

/// Would `patch` leave `program` a valid program — the verdict of
/// `patch.apply(program)`, without building the patched program? Taking the
/// patch's delta against the program's outline reads only the rules the
/// patch touches, so a syntax check stays `O(1)` in program size (Fig. 10's
/// linearity). An invalid program has no outline, and no patch applies.
fn applies(program: &Program, outline: &Option<ProgramOutline<'_>>, patch: &Patch) -> bool {
    outline.as_ref().is_some_and(|o| patch.delta(program, o).is_ok())
}

/// One missing-tuple search: what every tree reads, and the frontier and
/// counters every tree writes.
struct Search<'a> {
    world: &'a World,
    goal: &'a Pattern,
    /// `world.domain(goal)`, scanned once.
    domain: Vec<i64>,
    /// `world.program`'s outline, what [`applies`] checks whole-program
    /// patches against: built once, by the first candidate that needs it
    /// (on a large program the running cut usually bounds them all away).
    outline: OnceCell<Option<ProgramOutline<'a>>>,
    frontier: Frontier,
    stats: ExploreStats,
}

impl Search<'_> {
    fn applies(&self, patch: &Patch) -> bool {
        let program = &self.world.program;
        applies(program, self.outline.get_or_init(|| ProgramOutline::new(program).ok()), patch)
    }

    /// Is a candidate of this cost worth building? One that is not is
    /// counted as considered here; one that is gets counted by
    /// [`Search::emit`], once it has passed its syntax check.
    fn worth_building(&mut self, cost: u32) -> bool {
        let build = self.frontier.admits(cost);
        if build {
            self.stats.materialised += 1;
        } else {
            self.stats.raw_candidates += 1;
        }
        build
    }

    fn emit(&mut self, c: Candidate) {
        self.stats.raw_candidates += 1;
        self.frontier.push(c);
    }
}

/// Generate repair candidates for a *missing* tuple.
pub fn generate_missing(world: &World, goal: &Pattern) -> (Vec<Candidate>, ExploreStats) {
    let mut s = Search {
        world,
        goal,
        domain: world.domain(goal),
        outline: OnceCell::new(),
        frontier: Frontier::new(&world.budget),
        stats: ExploreStats::default(),
    };
    let deadline = deadline_of(&world.budget);

    // (1) The base-tuple insertion repair: make the tuple appear directly.
    if let Some(tuple) = pattern_tuple(goal) {
        if s.worth_building(world.cost.insert_tuple) {
            s.emit(Candidate {
                repair: Repair::InsertTuple(tuple.clone()),
                cost: world.cost.insert_tuple,
                description: "Manually installing a flow entry".into(),
                trace: vec![
                    format!("NEXIST[Tuple({goal})]"),
                    format!("NEXIST[Base({goal})] via meta rule h1"),
                    format!("FIX: insert base tuple {tuple}"),
                ],
            });
        }
    }

    // (2) Fork one tree per rule that derives the goal table (§3.3).
    // Best-partial degradation: when the deadline fires mid-search, stop
    // forking trees and rank whatever has been generated so far.
    for rule in world.program.rules_for_table(&goal.table) {
        if expired(&deadline) {
            s.stats.timed_out = true;
            break;
        }
        explore_rule(&mut s, rule);
    }

    // (3) Donor rules: head re-targeting and copy-with-new-head (the Q4
    // repairs: "changing/copying the head of r5 to packetOut(...)").
    for rule in &world.program.rules {
        if expired(&deadline) {
            s.stats.timed_out = true;
            break;
        }
        if rule.head.table == goal.table || rule.head.args.len() != goal.args.len() {
            continue;
        }
        explore_donor(&mut s, rule);
    }

    // (4) Completeness fallback (Appendix D, case b): a brand-new rule
    // that derives exactly the goal from an observed trigger —
    // `Bar(@A,B) :- Foo(@X), X==1, A:=2, B:=3`. Costly, so it surfaces
    // only when nothing cheaper exists, but it guarantees the search
    // always finds at least one working repair.
    if let (Some(tuple), Some(trigger)) = (pattern_tuple(goal), world.triggers.first()) {
        synthesize_rule(&mut s, &tuple, trigger);
    }

    (s.frontier.finish(), s.stats)
}

/// The Appendix D fallback: a new rule deriving `tuple` from `trigger`.
fn synthesize_rule(s: &mut Search, tuple: &Tuple, trigger: &Tuple) {
    let (world, goal) = (s.world, s.goal);
    if !s.worth_building(world.cost.new_rule) {
        return;
    }
    let mut body_args = Vec::new();
    let mut sels = Vec::new();
    for (i, v) in trigger.args.iter().enumerate() {
        let var = format!("X{i}");
        body_args.push(Term::Var(var.clone()));
        sels.push(mpr_ndlog::Selection::new(
            Expr::var(var),
            CmpOp::Eq,
            Expr::Const(v.clone()),
        ));
    }
    let mut assigns = Vec::new();
    let mut head_args = Vec::new();
    for (i, v) in tuple.args.iter().enumerate() {
        let var = format!("H{i}");
        assigns.push(mpr_ndlog::Assign::new(var.clone(), Expr::Const(v.clone())));
        head_args.push(Term::Var(var));
    }
    assigns.push(mpr_ndlog::Assign::new("Hl", Expr::Const(tuple.loc.clone())));
    let rule = mpr_ndlog::Rule::new(
        "synth0",
        mpr_ndlog::Atom::new(goal.table.clone(), Term::Var("Hl".into()), head_args),
        vec![mpr_ndlog::Atom::new(
            trigger.table.clone(),
            Term::Var("Xl".into()),
            body_args,
        )],
        sels,
        assigns,
    );
    let patch = Patch::single(Edit::AddRule { rule: rule.clone() });
    if !s.applies(&patch) {
        return;
    }
    s.emit(Candidate {
        repair: Repair::Patch(patch),
        cost: world.cost.new_rule,
        description: format!("Adding a new rule deriving {tuple}"),
        trace: vec![
            format!("NEXIST[Tuple({goal})]"),
            "NEXIST[HeadFunc(*)] — no rule can be adapted cheaply".into(),
            format!("FIX: add rule {rule}"),
        ],
    });
}

/// A fully concrete tuple from a pattern, if every column is constrained.
fn pattern_tuple(p: &Pattern) -> Option<Tuple> {
    let loc = p.loc.clone()?;
    let args: Option<Vec<Value>> = p.args.iter().cloned().collect();
    Some(Tuple { table: p.table.clone(), loc, args: args? })
}

/// Merge required head bindings from unifying the rule head with the goal.
/// Returns `None` when the rule can never produce the goal (constant
/// mismatch).
fn head_requirements(rule: &Rule, goal: &Pattern) -> Option<BTreeMap<String, Value>> {
    let mut req = BTreeMap::new();
    let bind = |term: &Term, val: &Option<Value>, req: &mut BTreeMap<String, Value>| -> bool {
        match (term, val) {
            (Term::Const(c), Some(v)) => c == v,
            (Term::Var(name), Some(v)) => match req.get(name) {
                Some(prev) => prev == v,
                None => {
                    req.insert(name.clone(), v.clone());
                    true
                }
            },
            _ => true,
        }
    };
    if !bind(&rule.head.loc, &goal.loc, &mut req) {
        return None;
    }
    if rule.head.args.len() != goal.args.len() {
        return None;
    }
    for (t, v) in rule.head.args.iter().zip(goal.args.iter()) {
        if !bind(t, v, &mut req) {
            return None;
        }
    }
    Some(req)
}

/// One tree: this rule, every compatible trigger.
fn explore_rule(s: &mut Search, rule: &Rule) {
    let world = s.world;
    let Some(required) = head_requirements(rule, s.goal) else {
        return;
    };
    // Every match starts from the required head bindings, so conflicting
    // triggers are skipped early.
    let env0: Env = required.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    for trigger in &world.triggers {
        // The trigger must bind one body atom.
        for (ti, atom) in rule.body.iter().enumerate() {
            if atom.table != trigger.table {
                continue;
            }
            let Some(env1) = match_atom(atom, trigger, &env0) else {
                continue;
            };
            s.stats.trees += 1;
            // Join the remaining (state) atoms.
            let mut envs = vec![env1];
            let mut missing_state: Option<usize> = None;
            for (ai, satom) in rule.body.iter().enumerate() {
                if ai == ti {
                    continue;
                }
                let mut next = Vec::new();
                for env in &envs {
                    for st in &world.state {
                        if let Some(e2) = match_atom(satom, st, env) {
                            next.push(e2);
                        }
                    }
                }
                if next.is_empty() {
                    missing_state = Some(ai);
                    break;
                }
                envs = next;
            }
            if let Some(ai) = missing_state {
                emit_state_insertion(s, rule, ai, &envs[0], &required);
                continue;
            }
            for env in envs {
                emit_rule_candidates(s, rule, &env, &required);
            }
        }
    }
}

/// A state predicate had no matching tuple: the repair inserts one whose
/// attributes are solved from the join/selection constraints (§3.4).
fn emit_state_insertion(
    s: &mut Search,
    rule: &Rule,
    atom_idx: usize,
    env: &Env,
    required: &BTreeMap<String, Value>,
) {
    let (world, goal) = (s.world, s.goal);
    let atom = &rule.body[atom_idx];
    // Bind what we can from the environment plus the head requirements.
    let mut full = env.clone();
    for (k, v) in required {
        if !full.contains_key(k) {
            full.insert(k.clone(), v.clone());
        }
    }
    // Remaining free variables are solved against the rule's selections.
    let mut pool = mpr_solver::Pool::new();
    let free: Vec<String> = atom
        .vars()
        .into_iter()
        .filter(|v| !full.contains_key(v))
        .collect();
    for sel in &rule.sels {
        if let Some(c) = selection_constraint(sel, &full) {
            pool.push(c);
        }
    }
    let dom: Vec<Value> = s.domain.iter().map(|&i| Value::Int(i)).collect();
    for v in &free {
        pool.set_domain(v.clone(), dom.clone());
    }
    s.stats.pools_solved += 1;
    let t0 = std::time::Instant::now();
    let solved = pool.solve();
    s.stats.solver_ns += t0.elapsed().as_nanos();
    let Some(asg) = solved.assignment() else {
        return;
    };
    for v in free {
        if let Some(val) = asg.get(&v) {
            full.insert(v, val.clone());
        }
    }
    let Some(tuple) = instantiate(atom, &full) else {
        return;
    };
    if !s.worth_building(world.cost.insert_tuple) {
        return;
    }
    s.emit(Candidate {
        repair: Repair::InsertTuple(tuple.clone()),
        cost: world.cost.insert_tuple,
        description: format!("Manually inserting a {} entry", atom.table),
        trace: vec![
            format!("NEXIST[Tuple({goal})]"),
            format!("NDERIVE[{} via meta rule h2]", rule.id),
            format!("NEXIST[TuplePred(Rul={}, Tab={})]", rule.id, atom.table),
            format!("FIX: insert base tuple {tuple}"),
        ],
    });
}

/// Translate a selection into a solver constraint under a partial env.
fn selection_constraint(sel: &Selection, env: &Env) -> Option<mpr_solver::Constraint> {
    let lhs = expr_sterm(&sel.lhs, env)?;
    let rhs = expr_sterm(&sel.rhs, env)?;
    Some(mpr_solver::Constraint::Cmp { lhs, op: sel.op, rhs })
}

fn expr_sterm(e: &Expr, env: &Env) -> Option<mpr_solver::STerm> {
    use mpr_solver::STerm;
    match e {
        Expr::Const(v) => Some(STerm::Val(v.clone())),
        Expr::Var(v) => match env.get(v) {
            Some(val) => Some(STerm::Val(val.clone())),
            None => Some(STerm::var(v.clone())),
        },
        Expr::Binary(op, l, r) => {
            let l = expr_sterm(l, env)?;
            let r = expr_sterm(r, env)?;
            match op {
                mpr_ndlog::BinOp::Add => Some(STerm::Add(Box::new(l), Box::new(r))),
                mpr_ndlog::BinOp::Sub => Some(STerm::Sub(Box::new(l), Box::new(r))),
                mpr_ndlog::BinOp::Mul => Some(STerm::Mul(Box::new(l), Box::new(r))),
                _ => None,
            }
        }
        Expr::Call(..) => None,
    }
}

/// One way to fix one blocking literal: the edit and its cost.
type FixOption = (Edit, u32);

/// The core of the search: under a complete join environment, determine
/// which program-based meta tuples block the derivation and emit the
/// change combinations that unblock it.
fn emit_rule_candidates(
    s: &mut Search,
    rule: &Rule,
    env: &Env,
    required: &BTreeMap<String, Value>,
) {
    let (world, goal) = (s.world, s.goal);
    let cm = &world.cost;
    // --- assignments -----------------------------------------------------
    // Evaluate assignments; those bound to a required head value that
    // disagree must be fixed.
    let mut post = env.clone();
    let mut funcs = PureFuncs;
    let mut assign_fixes: Vec<Vec<FixOption>> = Vec::new();
    for a in &rule.assigns {
        let computed = a.expr.eval(&post, &mut funcs).ok();
        let needed = required.get(&a.var).cloned();
        match (computed, needed) {
            (Some(v), Some(need)) if v != need => {
                // Fix options: rewrite to the needed constant, or to an
                // in-scope variable that carries the needed value.
                let const_cost = match &a.expr {
                    Expr::Const(Value::Int(old)) => match need {
                        Value::Int(n) => cm.const_change(*old, n),
                        _ => cm.assign_change,
                    },
                    _ => cm.assign_change,
                };
                let mut options: Vec<FixOption> = vec![(
                    Edit::SetAssignExpr {
                        rule: rule.id.clone(),
                        var: a.var.clone(),
                        expr: Expr::Const(need.clone()),
                    },
                    const_cost,
                )];
                for (w, val) in env.iter() {
                    if val == &need && w != &a.var {
                        options.push((
                            Edit::SetAssignExpr {
                                rule: rule.id.clone(),
                                var: a.var.clone(),
                                expr: Expr::var(w.clone()),
                            },
                            cm.var_change,
                        ));
                    }
                }
                post.insert(a.var.clone(), need.clone());
                assign_fixes.push(options);
            }
            (Some(v), _) => {
                post.insert(a.var.clone(), v);
            }
            (None, Some(need)) => {
                post.insert(a.var.clone(), need.clone());
                assign_fixes.push(vec![(
                    Edit::SetAssignExpr {
                        rule: rule.id.clone(),
                        var: a.var.clone(),
                        expr: Expr::Const(need.clone()),
                    },
                    cm.assign_change,
                )]);
            }
            (None, None) => return, // un-evaluable, unconstrained — give up
        }
    }
    // --- selections -------------------------------------------------------
    let mut failing: Vec<usize> = Vec::new();
    for (si, sel) in rule.sels.iter().enumerate() {
        match sel.eval(&post, &mut funcs) {
            Ok(true) => {}
            _ => failing.push(si),
        }
    }
    if failing.is_empty() && assign_fixes.is_empty() {
        // The rule already derives the goal under this trigger — the
        // symptom must come from elsewhere.
        return;
    }
    // Fix options per failing selection: constants (solver-enumerated),
    // operators, variable swaps (§2.5's "relevant changes" only — passing
    // selections are never touched).
    let mut sel_fixes: Vec<Vec<FixOption>> = Vec::new();
    for &si in &failing {
        let sel = &rule.sels[si];
        let mut opts: Vec<FixOption> = Vec::new();
        // (a) constant replacement via the constraint pool (Fig. 6's
        //     NEXIST[Const(Rul, ID, Val)] leaf).
        for (site, old) in rule.constants() {
            let (is_this_sel, side) = match &site {
                ConstSite::Selection { idx, side, path } if *idx == si && path.is_empty() => {
                    (true, *side)
                }
                _ => (false, ExprSide::Lhs),
            };
            if !is_this_sel {
                continue;
            }
            let Value::Int(old_i) = old else { continue };
            s.stats.pools_solved += 1;
            let t0 = std::time::Instant::now();
            // Equality against a bound variable admits exactly one
            // replacement constant — skip the domain scan (this keeps
            // candidate generation linear in program size, Fig. 10).
            let eq_fast: Option<Vec<i64>> = if sel.op == CmpOp::Eq {
                let other = match side {
                    ExprSide::Lhs => &sel.rhs,
                    ExprSide::Rhs => &sel.lhs,
                };
                match other {
                    Expr::Var(v) => post.get(v).and_then(|x| x.as_int()).map(|x| vec![x]),
                    _ => None,
                }
            } else {
                None
            };
            let scan: &[i64] = eq_fast.as_deref().unwrap_or(&s.domain);
            let mut found = 0;
            for &v in scan {
                if v == old_i {
                    continue;
                }
                let mut patched = sel.clone();
                match side {
                    ExprSide::Lhs => patched.lhs = Expr::int(v),
                    ExprSide::Rhs => patched.rhs = Expr::int(v),
                }
                if patched.eval(&post, &mut funcs) == Ok(true) {
                    opts.push((
                        Edit::SetConst {
                            rule: rule.id.clone(),
                            site: site.clone(),
                            value: Value::Int(v),
                        },
                        cm.const_change(old_i, v),
                    ));
                    found += 1;
                    if found >= world.budget.consts_per_site {
                        break;
                    }
                }
            }
            s.stats.solver_ns += t0.elapsed().as_nanos();
        }
        // (b) operator flips.
        for op in CmpOp::ALL {
            if op == sel.op {
                continue;
            }
            let mut patched = sel.clone();
            patched.op = op;
            if patched.eval(&post, &mut funcs) == Ok(true) {
                opts.push((Edit::SetSelectionOp { rule: rule.id.clone(), sel: si, op }, cm.op_change));
            }
        }
        // (c) variable swaps.
        for (side, e) in [(ExprSide::Lhs, &sel.lhs), (ExprSide::Rhs, &sel.rhs)] {
            if let Expr::Var(cur) = e {
                for w in rule.body_vars() {
                    if &w == cur {
                        continue;
                    }
                    let mut patched = sel.clone();
                    match side {
                        ExprSide::Lhs => patched.lhs = Expr::var(w.clone()),
                        ExprSide::Rhs => patched.rhs = Expr::var(w.clone()),
                    }
                    if patched.eval(&post, &mut funcs) == Ok(true) {
                        opts.push((
                            Edit::SetSelectionExpr {
                                rule: rule.id.clone(),
                                sel: si,
                                side,
                                expr: Expr::var(w.clone()),
                            },
                            cm.var_change,
                        ));
                    }
                }
            }
        }
        sel_fixes.push(opts);
    }
    // --- emit combinations -------------------------------------------------
    // Deletion subsets: every subset of selections of size ≤ 2 that covers
    // all failing selections (Table 2 candidates F, G, H).
    let mut deletion_sets: Vec<Vec<usize>> = Vec::new();
    if failing.len() <= 2 {
        let n = rule.sels.len();
        for i in 0..n {
            if failing.iter().all(|f| *f == i) {
                deletion_sets.push(vec![i]);
            }
            for j in (i + 1)..n {
                if failing.iter().all(|f| *f == i || *f == j) {
                    deletion_sets.push(vec![i, j]);
                }
            }
        }
    }
    // A candidate is one combination of selection fixes (or one deletion
    // set) with one combination of assignment fixes. Multi-edit patches
    // are intrinsically less plausible: charge one extra unit per
    // additional edit (keeps Table 2's single-literal repairs ahead of
    // combination repairs).
    let cost_of = |fix: u32, assign: u32, fixed: usize| {
        fix + assign + ((fixed + assign_fixes.len()) as u32).saturating_sub(1)
    };
    let del_cost = |del: &[usize]| del.len() as u32 * cm.delete_selection;
    // Per tree: cost every combination — arithmetic only — and stop here,
    // before any edit is cloned, when the cut has passed them all.
    let assign_costs = combo_costs(&assign_fixes);
    let sel_costs = combo_costs(&sel_fixes);
    let mut costs: Vec<u32> = Vec::new();
    for &ac in &assign_costs {
        costs.extend(sel_costs.iter().map(|&sc| cost_of(sc, ac, failing.len())));
        costs.extend(deletion_sets.iter().map(|d| cost_of(del_cost(d), ac, d.len())));
    }
    costs.retain(|&c| c <= world.budget.max_cost);
    if !costs.iter().any(|&c| s.frontier.admits(c)) {
        s.stats.raw_candidates += costs.len() as u64;
        return;
    }
    // Assign-fix cross product (small: ≤ 2 assigns, ≤ 4 options each) and
    // sel-fix cross product. No failing selection means one empty
    // combination (only assignments need fixing); a failing selection
    // nothing can fix means none.
    let assign_combos = cross_product(&assign_fixes);
    let sel_combos = cross_product(&sel_fixes);

    let mk_trace = |edits: &[Edit], cost: u32| -> Vec<String> {
        let mut t = vec![
            format!("NEXIST[Tuple({goal})]"),
            format!("NDERIVE[{} via meta rule h2]", rule.id),
        ];
        for si in &failing {
            t.push(format!(
                "NEXIST[Sel(Rul={}, SID=\"{}\", Val=true)]",
                rule.id,
                rule.sels[*si].sid()
            ));
        }
        t.push(format!("FIX(cost {cost}): {} edit(s)", edits.len()));
        t
    };

    // Per combination: test the cut again (it tightens as candidates
    // land) before cloning the edits.
    for (sedits, scost) in &sel_combos {
        for (aedits, acost) in &assign_combos {
            let cost = cost_of(*scost, *acost, sedits.len());
            if cost <= world.budget.max_cost && s.worth_building(cost) {
                let edits = sedits.iter().chain(aedits).map(|&e| e.clone()).collect();
                push_patch(s, rule, edits, cost, mk_trace);
            }
        }
    }
    for del in &deletion_sets {
        for (aedits, acost) in &assign_combos {
            let cost = cost_of(del_cost(del), *acost, del.len());
            if cost <= world.budget.max_cost && s.worth_building(cost) {
                let edits = del
                    .iter()
                    .map(|&si| Edit::DeleteSelection { rule: rule.id.clone(), sel: si })
                    .chain(aedits.iter().map(|&e| e.clone()))
                    .collect();
                push_patch(s, rule, edits, cost, mk_trace);
            }
        }
    }
}

/// At most this many combinations survive each step of a cross product.
const MAX_COMBOS: usize = 64;

/// Every way to pick one option per slot, with the summed cost.
fn cross_product(slots: &[Vec<FixOption>]) -> Vec<(Vec<&Edit>, u32)> {
    let mut combos: Vec<(Vec<&Edit>, u32)> = vec![(Vec::new(), 0)];
    for opts in slots {
        combos = combos
            .iter()
            .flat_map(|(edits, cost)| {
                opts.iter().map(move |(e, c)| {
                    let mut edits = edits.clone();
                    edits.push(e);
                    (edits, cost + c)
                })
            })
            .take(MAX_COMBOS)
            .collect();
    }
    combos
}

/// The costs [`cross_product`] would pair with its combinations, in the
/// same order, without building them.
fn combo_costs(slots: &[Vec<FixOption>]) -> Vec<u32> {
    let mut costs = vec![0];
    for opts in slots {
        costs = costs
            .iter()
            .flat_map(|cost| opts.iter().map(move |(_, c)| cost + c))
            .take(MAX_COMBOS)
            .collect();
    }
    costs
}

/// Build one patch candidate of `rule` and rank it.
fn push_patch(
    s: &mut Search,
    rule: &Rule,
    edits: Vec<Edit>,
    cost: u32,
    mk_trace: impl Fn(&[Edit], u32) -> Vec<String>,
) {
    let patch = Patch::of(edits);
    // Syntax preservation (§4.2): refuse edits that break the grammar.
    // Every edit touches `rule` alone, so it is checked — and described —
    // against a reduced program holding just that rule: emission stays
    // O(1) in program size (Fig. 10's linearity).
    let mut reduced = Program::new("syntax-check");
    reduced.rules.push(rule.clone());
    if !applies(&reduced, &ProgramOutline::new(&reduced).ok(), &patch) {
        return;
    }
    let description = patch.describe(&reduced);
    let trace = mk_trace(&patch.edits, cost);
    s.emit(Candidate { repair: Repair::Patch(patch), cost, description, trace });
}

/// Donor exploration: `rule` derives a different table; re-targeting or
/// copying it can make the goal appear (the Q4 repairs).
fn explore_donor(s: &mut Search, rule: &Rule) {
    let (world, goal) = (s.world, s.goal);
    // The donor must actually fire under some trigger and produce a head
    // whose values match the goal pattern.
    let mut fires = false;
    'trig: for trigger in &world.triggers {
        for atom in &rule.body {
            if atom.table != trigger.table {
                continue;
            }
            let Some(env) = match_atom(atom, trigger, &Env::new()) else {
                continue;
            };
            // Join state, evaluate assigns and sels.
            let mut envs = vec![env];
            for satom in &rule.body {
                if satom.table == trigger.table {
                    continue;
                }
                let mut next = Vec::new();
                for e in &envs {
                    for st in &world.state {
                        if let Some(e2) = match_atom(satom, st, e) {
                            next.push(e2);
                        }
                    }
                }
                if next.is_empty() {
                    continue 'trig;
                }
                envs = next;
            }
            let mut funcs = PureFuncs;
            'env: for mut e in envs {
                for a in &rule.assigns {
                    match a.expr.eval(&e, &mut funcs) {
                        Ok(v) => {
                            e.insert(a.var.clone(), v);
                        }
                        Err(_) => continue 'env,
                    }
                }
                for s in &rule.sels {
                    if s.eval(&e, &mut funcs) != Ok(true) {
                        continue 'env;
                    }
                }
                if let Some(head) = instantiate(&rule.head, &e) {
                    let mut retargeted = head.clone();
                    retargeted.table = goal.table.clone();
                    if goal.matches(&retargeted) {
                        fires = true;
                        break 'trig;
                    }
                }
            }
        }
    }
    if !fires {
        return;
    }
    s.stats.trees += 1;
    let trace = |fix: &str| {
        vec![
            format!("NEXIST[Tuple({goal})]"),
            format!(
                "NEXIST[HeadFunc(Rul={}, Tab={})] — donor head is {}",
                rule.id, goal.table, rule.head.table
            ),
            format!("FIX: {fix}"),
        ]
    };
    // (a) Re-target the head (loses the original derivation — backtesting
    // usually rejects this, as in Table 6c candidates C–G).
    let patch = Patch::single(Edit::SetHeadTable {
        rule: rule.id.clone(),
        table: goal.table.clone(),
    });
    if s.worth_building(world.cost.head_change) && s.applies(&patch) {
        s.emit(Candidate {
            repair: Repair::Patch(patch),
            cost: world.cost.head_change,
            description: format!(
                "Changing the head of {} to {}(...)",
                rule.id, goal.table
            ),
            trace: trace("re-target head"),
        });
    }
    // (b) Copy the rule with the new head (keeps the original — Table 6c
    // candidates J/L, the accepted ones).
    if !s.worth_building(world.cost.copy_rule) {
        return;
    }
    let mut copy = rule.clone();
    copy.id = format!("{}_copy", rule.id);
    copy.head.table = goal.table.clone();
    let patch = Patch::single(Edit::AddRule { rule: copy });
    if s.applies(&patch) {
        s.emit(Candidate {
            repair: Repair::Patch(patch),
            cost: world.cost.copy_rule,
            description: format!(
                "Copying {} and replacing head with {}(...)",
                rule.id, goal.table
            ),
            trace: trace("copy rule with new head"),
        });
    }
}

// ---------------------------------------------------------------------
// positive symptoms (§4.2, Fig. 7)

/// A recorded derivation of the offending tuple.
#[derive(Debug, Clone)]
pub struct DerivationRecord {
    /// The rule that fired.
    pub rule: String,
    /// The body tuples, in body-atom order.
    pub body: Vec<Tuple>,
    /// Which body tuples are base/state (eligible for deletion/change).
    pub base_mask: Vec<bool>,
}

/// Generate repairs that make an *existing* tuple disappear.
pub fn generate_existing(
    world: &World,
    culprit: &Tuple,
    derivations: &[DerivationRecord],
) -> (Vec<Candidate>, ExploreStats) {
    let mut stats = ExploreStats::default();
    let mut out = Frontier::new(&world.budget);
    let domain = world.domain(&Pattern::exact(culprit));
    let outline = ProgramOutline::new(&world.program).ok();
    let deadline = deadline_of(&world.budget);
    for d in derivations {
        if expired(&deadline) {
            stats.timed_out = true;
            break;
        }
        let Some(rule) = world.program.rule(&d.rule) else {
            continue;
        };
        // Reconstruct the firing environment.
        let mut env = Env::new();
        let mut ok = true;
        for (atom, t) in rule.body.iter().zip(d.body.iter()) {
            match match_atom(atom, t, &env) {
                Some(e2) => env = e2,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let mut funcs = PureFuncs;
        let mut post = env.clone();
        for a in &rule.assigns {
            if let Ok(v) = a.expr.eval(&post, &mut funcs) {
                post.insert(a.var.clone(), v);
            }
        }
        let trace_head = vec![
            format!("EXIST[Tuple({culprit})]"),
            format!("DERIVE[{} via meta rule h2]", rule.id),
        ];
        // (a) Base-tuple deletions (Fig. 5: DELETETUPLE).
        for (bi, t) in d.body.iter().enumerate() {
            if !d.base_mask[bi] {
                continue;
            }
            stats.raw_candidates += 1;
            let mut trace = trace_head.clone();
            trace.push(format!("EXIST[TuplePred({t})]"));
            trace.push(format!("FIX: delete base tuple {t}"));
            out.push(Candidate {
                repair: Repair::DeleteTuple(t.clone()),
                cost: world.cost.insert_tuple, // symmetric with insertion
                description: format!("Deleting the {} tuple {t}", t.table),
                trace,
            });
            // (b) Base-tuple changes: symbolic re-execution + negation
            // (§4.2's `Const('r1',1,Z)` with constraint `1 == Z` negated).
            for (ci, _old) in t.args.iter().enumerate() {
                let var = format!("{}.{ci}", t.table);
                // Collect the constraints the derivation imposes on this
                // column, then negate.
                let mut sym_env = env.clone();
                // Which rule variable is bound to this column?
                let Some(Term::Var(v)) = rule.body[bi].args.get(ci) else {
                    continue;
                };
                sym_env.remove(v);
                let mut pool = mpr_solver::Pool::new();
                let mut any = false;
                for sel in &rule.sels {
                    if !sel.vars().contains(v) {
                        continue;
                    }
                    if let Some(c) = selection_constraint(sel, &sym_env) {
                        // Rename the free rule-variable to the column var.
                        pool.push(rename_var(c, v, &var));
                        any = true;
                    }
                }
                if !any {
                    continue;
                }
                let negated: Vec<mpr_solver::Constraint> =
                    pool.constraints.iter().map(|c| c.negate()).collect();
                let mut npool = mpr_solver::Pool::new();
                for c in negated {
                    npool.push(c);
                }
                npool.set_domain(var.clone(), domain.iter().map(|&i| Value::Int(i)).collect());
                stats.pools_solved += 1;
                let t0 = std::time::Instant::now();
                let solved = npool.solve();
                stats.solver_ns += t0.elapsed().as_nanos();
                if let Some(asg) = solved.assignment() {
                    if let Some(nv) = asg.get(&var) {
                        let mut nt = t.clone();
                        nt.args[ci] = nv.clone();
                        stats.raw_candidates += 1;
                        let mut trace = trace_head.clone();
                        trace.push(format!("EXIST[TuplePred({t})]"));
                        trace.push(format!("FIX: change {t} to {nt}"));
                        out.push(Candidate {
                            repair: Repair::ChangeTuple { from: t.clone(), to: nt.clone() },
                            cost: world.cost.const_other,
                            description: format!("Changing {t} to {nt}"),
                            trace,
                        });
                    }
                }
            }
        }
        // (c) Rule-literal changes that break this binding (the green
        // repair of Fig. 7: `Swi==1` → `Swi==2`).
        for (si, sel) in rule.sels.iter().enumerate() {
            for (site, old) in rule.constants() {
                let matches_sel = matches!(
                    &site,
                    ConstSite::Selection { idx, path, .. } if *idx == si && path.is_empty()
                );
                if !matches_sel {
                    continue;
                }
                let Value::Int(old_i) = old else { continue };
                let side = match &site {
                    ConstSite::Selection { side, .. } => *side,
                    _ => continue,
                };
                stats.pools_solved += 1;
                for &v in &domain {
                    if v == old_i {
                        continue;
                    }
                    let mut patched = sel.clone();
                    match side {
                        ExprSide::Lhs => patched.lhs = Expr::int(v),
                        ExprSide::Rhs => patched.rhs = Expr::int(v),
                    }
                    // The change must make *this* derivation fail.
                    if patched.eval(&post, &mut funcs) == Ok(false) {
                        let patch = Patch::single(Edit::SetConst {
                            rule: rule.id.clone(),
                            site: site.clone(),
                            value: Value::Int(v),
                        });
                        if !applies(&world.program, &outline, &patch) {
                            continue;
                        }
                        let description = patch.describe(&world.program);
                        stats.raw_candidates += 1;
                        let mut trace = trace_head.clone();
                        trace.push(format!(
                            "EXIST[Sel(Rul={}, SID=\"{}\")]",
                            rule.id,
                            sel.sid()
                        ));
                        trace.push(format!("FIX: {description}"));
                        out.push(Candidate {
                            repair: Repair::Patch(patch),
                            cost: world.cost.const_change(old_i, v),
                            description,
                            trace,
                        });
                        break; // one constant change per site suffices here
                    }
                }
            }
            // Operator negation always breaks the satisfied selection.
            let mut patched = sel.clone();
            patched.op = sel.op.negate();
            if patched.eval(&post, &mut funcs) == Ok(false) {
                let patch = Patch::single(Edit::SetSelectionOp {
                    rule: rule.id.clone(),
                    sel: si,
                    op: sel.op.negate(),
                });
                if applies(&world.program, &outline, &patch) {
                    let description = patch.describe(&world.program);
                    stats.raw_candidates += 1;
                    let mut trace = trace_head.clone();
                    trace.push(format!("EXIST[Oper(Rul={}, SID=\"{}\")]", rule.id, sel.sid()));
                    trace.push(format!("FIX: {description}"));
                    out.push(Candidate {
                        repair: Repair::Patch(patch),
                        cost: world.cost.op_change,
                        description,
                        trace,
                    });
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
            if applies(&world.program, &outline, &patch) {
                let description = patch.describe(&world.program);
                stats.raw_candidates += 1;
                let mut trace = trace_head.clone();
                trace.push(format!("EXIST[PredFunc(Rul={}, Tab={})]", rule.id, atom.table));
                trace.push(format!("FIX: {description}"));
                out.push(Candidate {
                    repair: Repair::Patch(patch),
                    cost: world.cost.delete_predicate,
                    description,
                    trace,
                });
            }
        }
    }
    // Deletions have no tree to bound away: every candidate counted was built.
    stats.materialised = stats.raw_candidates;
    (out.finish(), stats)
}

fn rename_var(c: mpr_solver::Constraint, from: &str, to: &str) -> mpr_solver::Constraint {
    use mpr_solver::{Constraint as C, STerm};
    fn rt(t: STerm, from: &str, to: &str) -> STerm {
        match t {
            STerm::Var(v) if v == from => STerm::var(to),
            STerm::Add(l, r) => STerm::Add(Box::new(rt(*l, from, to)), Box::new(rt(*r, from, to))),
            STerm::Sub(l, r) => STerm::Sub(Box::new(rt(*l, from, to)), Box::new(rt(*r, from, to))),
            STerm::Mul(l, r) => STerm::Mul(Box::new(rt(*l, from, to)), Box::new(rt(*r, from, to))),
            other => other,
        }
    }
    match c {
        C::Cmp { lhs, op, rhs } => C::Cmp { lhs: rt(lhs, from, to), op, rhs: rt(rhs, from, to) },
        C::And(cs) => C::And(cs.into_iter().map(|c| rename_var(c, from, to)).collect()),
        C::Or(cs) => C::Or(cs.into_iter().map(|c| rename_var(c, from, to)).collect()),
        C::Implies(a, b) => C::Implies(
            Box::new(rename_var(*a, from, to)),
            Box::new(rename_var(*b, from, to)),
        ),
        C::Not(b) => C::Not(Box::new(rename_var(*b, from, to))),
        other => other,
    }
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
                        frontier.push(c.clone());
                    }
                }
                let got = frontier.finish();
                let want = sort_dedup_truncate(stream.clone(), &budget);
                let show = |cs: &[Candidate]| -> Vec<(u32, String, String)> {
                    cs.iter().map(|c| (c.cost, c.description.clone(), c.trace[0].clone())).collect()
                };
                assert_eq!(show(&got), show(&want), "k = {max_candidates}, max_cost = {max_cost}");
                if max_candidates == 1 {
                    assert!(built < stream.len() / 2, "the cut pruned nothing: {built}");
                }
            }
        }
    }
}
